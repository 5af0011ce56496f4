"""Closure systems on states, experiments, couples, and outcomes.

Eigen closure systems are the image families of the eigen maps (which states /
experiments / couples are certain to produce an outcome inside a given set);
ortho closure systems arise from orthogonality relations via double
orthocomplement. Families are generated by the co-atom generator method and
materialized as intersection-closed member sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .diagnostics import Diagnostics
from .entity import Entity, RelationKind, relation_views
from .errors import CapacityError, ContractError

GROUND_CAP = 24  # full-family materialization refuses larger ground sets


def subsets(items):
    items = sorted(items)
    return [
        frozenset(c)
        for c in chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
    ]


@dataclass(frozen=True)
class SetFamily:
    """A plain family of subsets of a ground set, prior to any axiom check."""

    ground: frozenset
    members: frozenset  # frozenset of frozensets

    def __init__(self, ground, members):
        ground = frozenset(ground)
        members = frozenset(frozenset(m) for m in members)
        for m in members:
            if not m <= ground:
                raise ContractError(f"family member {sorted(m)} is not a subset of the ground set")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)


class ClosureSystem:
    """A family of subsets containing the empty set and the ground set and
    closed under intersection; carries its induced closure operator.
    """

    __slots__ = ("ground", "members", "_by_size")

    def __init__(self, ground, members):
        family = SetFamily(ground, members)
        ground, members = family.ground, family.members
        if frozenset() not in members:
            raise ContractError("a closure system must contain the empty set")
        if ground not in members:
            raise ContractError("a closure system must contain the ground set")
        ordered = sorted(members, key=lambda m: (len(m), tuple(sorted(m))))
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if a & b not in members:
                    raise ContractError(
                        f"family is not intersection closed: {sorted(a)} & {sorted(b)} missing"
                    )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_by_size", ordered)

    def __setattr__(self, name, value):
        raise AttributeError("ClosureSystem is immutable")

    def __eq__(self, other):
        if not isinstance(other, ClosureSystem):
            return NotImplemented
        return self.ground == other.ground and self.members == other.members

    def __hash__(self):
        return hash((self.ground, self.members))

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"ClosureSystem(|ground|={len(self.ground)}, |members|={len(self.members)})"

    def sorted_members(self) -> list:
        return list(self._by_size)

    def closure_of(self, K) -> frozenset:
        """The smallest member containing K."""
        K = frozenset(K)
        if not K <= self.ground:
            raise ContractError(f"{sorted(K - self.ground)} lie outside the ground set")
        for member in self._by_size:
            if K <= member:
                return member
        raise ContractError("no member contains the given set")  # unreachable: ground is a member

    def is_closed(self, K) -> bool:
        return frozenset(K) in self.members


def closure_of(system: ClosureSystem, K) -> frozenset:
    return system.closure_of(K)


def intersection_closure(ground, generators) -> frozenset:
    """All intersections of subfamilies of `generators` (the empty
    intersection contributes the ground set). Worklist fixpoint over pairwise
    intersections; the result is order independent.
    """
    ground = frozenset(ground)
    members = {ground}
    members.update(frozenset(g) for g in generators)
    worklist = list(members)
    while worklist:
        a = worklist.pop()
        fresh = []
        for b in members:
            c = a & b
            if c not in members:
                fresh.append(c)
        for c in set(fresh):
            members.add(c)
            worklist.append(c)
    return frozenset(members)


# -- eigen maps ---------------------------------------------------------------


def eig_states(entity: Entity, e, A) -> frozenset:
    """States certain to yield an outcome in A under experiment e."""
    A = frozenset(A)
    if not A <= entity.experiment_outcomes(e):
        raise ContractError(f"outcome set {sorted(A)} is not a subset of O({e})")
    return frozenset(p for p in entity.states if entity.outcome_set(e, p) <= A)


def eig_experiments(entity: Entity, p, A) -> frozenset:
    """Experiments certain to yield an outcome in A when the entity is in state p."""
    A = frozenset(A)
    if not A <= entity.state_outcomes(p):
        raise ContractError(f"outcome set {sorted(A)} is not a subset of O({p})")
    return frozenset(e for e in entity.experiments if entity.outcome_set(e, p) <= A)


def eig_central(entity: Entity, A) -> frozenset:
    """Couples (e, p) certain to yield an outcome in A."""
    A = frozenset(A)
    stray = A - entity.outcomes
    if stray:
        raise ContractError(f"unknown outcomes: {sorted(stray)}")
    return frozenset(couple for couple, cell in entity.cells() if cell <= A)


def _guard_ground(ground, cap):
    if len(ground) > cap:
        raise CapacityError(f"ground set of size {len(ground)} exceeds the cap of {cap}")


def eigen_closure_system(entity: Entity, on: str, scoped_to=None, cap: int = GROUND_CAP) -> ClosureSystem:
    """The eigen closure system of the requested scope.

    on='states'       scoped_to=e     image family of the state eigen map of e
    on='states'       scoped_to=None  intersection-generated global system on states
    on='experiments'  scoped_to=p     image family of the experiment eigen map of p
    on='experiments'  scoped_to=None  global system on experiments
    on='central'                      image family of the central eigen map

    Image families are generated from the co-atom generators (drop one outcome
    from the scope's full outcome set), which yields exactly the image family
    without enumerating every outcome subset.
    """
    if on == "states":
        _guard_ground(entity.states, cap)
        if scoped_to is not None:
            experiments = [scoped_to]
        else:
            experiments = sorted(entity.experiments)
        generators = []
        for e in experiments:
            full = entity.experiment_outcomes(e)
            generators.extend(eig_states(entity, e, full - {x}) for x in sorted(full))
        return ClosureSystem(entity.states, intersection_closure(entity.states, generators))
    if on == "experiments":
        _guard_ground(entity.experiments, cap)
        if scoped_to is not None:
            states = [scoped_to]
        else:
            states = sorted(entity.states)
        generators = []
        for p in states:
            full = entity.state_outcomes(p)
            generators.extend(eig_experiments(entity, p, full - {x}) for x in sorted(full))
        return ClosureSystem(entity.experiments, intersection_closure(entity.experiments, generators))
    if on == "central":
        if scoped_to is not None:
            raise ContractError("the central eigen system takes no scope")
        ground = frozenset(entity.couples())
        _guard_ground(ground, cap)
        generators = [eig_central(entity, entity.outcomes - {x}) for x in sorted(entity.outcomes)]
        return ClosureSystem(ground, intersection_closure(ground, generators))
    raise ContractError(f"unknown eigen scope {on!r}")


# -- orthogonality spaces and ortho closures ----------------------------------


class OrthoSpace:
    """A finite set with a symmetric anti-reflexive orthogonality relation."""

    __slots__ = ("ground", "_pairs")

    def __init__(self, ground, pairs):
        ground = frozenset(ground)
        pairs = frozenset(tuple(p) for p in pairs)
        for a, b in pairs:
            if a not in ground or b not in ground:
                raise ContractError(f"orthogonal pair ({a!r}, {b!r}) lies outside the ground set")
            if a == b:
                raise ContractError(f"orthogonality must be anti-reflexive; got ({a!r}, {a!r})")
            if (b, a) not in pairs:
                raise ContractError(f"orthogonality must be symmetric; ({b!r}, {a!r}) missing")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "_pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("OrthoSpace is immutable")

    def orthogonal(self, a, b) -> bool:
        return (a, b) in self._pairs


def orth_complement(space: OrthoSpace, K) -> frozenset:
    """K^perp: the elements orthogonal to every element of K."""
    K = frozenset(K)
    if not K <= space.ground:
        raise ContractError(f"{sorted(K - space.ground)} lie outside the ground set")
    return frozenset(a for a in space.ground if all(space.orthogonal(a, q) for q in K))


def ortho_closure(space: OrthoSpace, K) -> frozenset:
    """The double orthocomplement (K^perp)^perp."""
    return orth_complement(space, orth_complement(space, K))


def ortho_closure_system(space: OrthoSpace, cap: int = GROUND_CAP) -> ClosureSystem:
    """The system of ortho closed sets, generated by the singleton complements."""
    _guard_ground(space.ground, cap)
    generators = [orth_complement(space, {x}) for x in space.ground]
    return ClosureSystem(space.ground, intersection_closure(space.ground, generators))


def entity_ortho_space(entity: Entity, on: str, scoped_to=None) -> OrthoSpace:
    """The orthogonality space of an entity for the requested relation kind."""
    if on == "states":
        kind = RelationKind.state_for(scoped_to) if scoped_to is not None else RelationKind.state_global()
        ground = entity.states
    elif on == "experiments":
        kind = RelationKind.experiment_for(scoped_to) if scoped_to is not None else RelationKind.experiment_global()
        ground = entity.experiments
    elif on == "central":
        if scoped_to is not None:
            raise ContractError("the central orthogonality takes no scope")
        kind = RelationKind.central()
        ground = frozenset(entity.couples())
    elif on == "outcomes":
        if scoped_to is not None:
            kind = RelationKind.outcome_for(*scoped_to)
        else:
            kind = RelationKind.outcome_global()
        ground = entity.outcomes
    else:
        raise ContractError(f"unknown orthogonality scope {on!r}")
    view, orthogonal = relation_views(entity, kind)
    views = [(a, view(a)) for a in ground]
    return OrthoSpace(ground, [(a, b) for a, u in views for b, v in views if a != b and orthogonal(u, v)])


# -- trace of a couple system on the states -----------------------------------


def state_trace(system: ClosureSystem) -> ClosureSystem:
    """Restrict a closure system on couples to the states that appear with
    every experiment: Y_state = {p | (e, p) in Y for all e}.
    """
    ground = system.ground
    if not all(isinstance(c, tuple) and len(c) == 2 for c in ground):
        raise ContractError("state_trace needs a system over (experiment, state) couples")
    experiments = frozenset(e for e, _ in ground)
    states = frozenset(p for _, p in ground)
    if ground != frozenset((e, p) for e in experiments for p in states):
        raise ContractError("state_trace needs the full couple grid as ground set")
    traces = {
        frozenset(p for p in states if all((e, p) in member for e in experiments))
        for member in system.members
    }
    return ClosureSystem(states, traces)


# -- the outcome closure on X --------------------------------------------------


def outcome_closure(entity: Entity, A) -> frozenset:
    """cl(A): the intersection of the complements of all cells disjoint from A."""
    A = frozenset(A)
    stray = A - entity.outcomes
    if stray:
        raise ContractError(f"unknown outcomes: {sorted(stray)}")
    covered = frozenset().union(frozenset(), *(cell for _, cell in entity.cells() if not cell & A))
    return entity.outcomes - covered


def outcome_interior(entity: Entity, A) -> frozenset:
    """int(A): the union of the cells contained in A (complement of cl of the complement)."""
    A = frozenset(A)
    stray = A - entity.outcomes
    if stray:
        raise ContractError(f"unknown outcomes: {sorted(stray)}")
    return frozenset().union(frozenset(), *(cell for _, cell in entity.cells() if cell <= A))


def is_outcome_open(entity: Entity, B) -> bool:
    """Open sets are the unions of cells: B is open iff it equals its interior."""
    return outcome_interior(entity, B) == frozenset(B)


def outcome_closure_system(entity: Entity, cap: int = 16) -> ClosureSystem:
    """All closed outcome sets, by enumeration (small outcome sets only)."""
    if len(entity.outcomes) > cap:
        raise CapacityError(f"outcome set of size {len(entity.outcomes)} exceeds the cap of {cap}")
    members = {A for A in subsets(entity.outcomes) if outcome_closure(entity, A) == A}
    return ClosureSystem(entity.outcomes, members)


# -- axiom validation ----------------------------------------------------------


def _induced_closure(family: SetFamily, K: frozenset) -> frozenset:
    hits = [m for m in family.members if K <= m]
    if not hits:
        return family.ground
    out = hits[0]
    for m in hits[1:]:
        out = out & m
    return out


def validate_closure_axioms(family: SetFamily, exhaustive_limit: int = 4096) -> Diagnostics:
    """Check the three closure-system axioms and the four axioms of the
    operator induced by the family, reporting a counterexample witness for
    every failure.

    The operator axioms are checked over every subset of the ground set when
    2^|ground| <= exhaustive_limit, otherwise over a deterministic sample
    (members, singletons, empty set, ground, pairwise unions/intersections).
    Monotonicity is checked on single-element extensions, which implies the
    general form.
    """
    diag = Diagnostics()
    members = family.members
    ground = family.ground

    diag.record("system.contains_empty", frozenset() in members, "empty set missing")
    diag.record("system.contains_ground", ground in members, "ground set missing")
    ordered = sorted(members, key=lambda m: (len(m), tuple(sorted(map(str, m)))))
    closed = True
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a & b not in members:
                diag.record(
                    "system.intersection_closed",
                    False,
                    f"{sorted(map(str, a))} & {sorted(map(str, b))} = {sorted(map(str, a & b))} missing",
                )
                closed = False
                break
        if not closed:
            break
    if closed:
        diag.record("system.intersection_closed", True)

    if 2 ** len(ground) <= exhaustive_limit:
        universe = subsets(ground)
    else:
        seen = set(members)
        seen.update({frozenset(), ground})
        seen.update(frozenset({x}) for x in ground)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                seen.add(a & b)
                seen.add(a | b)
        universe = sorted(seen, key=lambda m: (len(m), tuple(sorted(map(str, m)))))

    diag.record(
        "operator.empty_fixed",
        _induced_closure(family, frozenset()) == frozenset(),
        f"cl([]) = {sorted(map(str, _induced_closure(family, frozenset())))}",
    )
    for K in universe:
        cl_K = _induced_closure(family, K)
        if not diag.record(
            "operator.extensive", K <= cl_K, f"K = {sorted(map(str, K))} not inside cl(K)"
        ):
            break
        if not diag.record(
            "operator.idempotent",
            _induced_closure(family, cl_K) == cl_K,
            f"cl(cl(K)) != cl(K) for K = {sorted(map(str, K))}",
        ):
            break
        mono_ok = True
        for x in sorted(ground - K, key=str):
            if not cl_K <= _induced_closure(family, K | {x}):
                diag.record(
                    "operator.monotone",
                    False,
                    f"cl not monotone from K = {sorted(map(str, K))} adding {x!r}",
                )
                mono_ok = False
                break
        if not mono_ok:
            break
    for name in ("operator.extensive", "operator.idempotent", "operator.monotone"):
        diag.checks.setdefault(name, True)
    return diag
