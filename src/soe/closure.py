"""Closure systems on states, experiments, couples, and outcomes.

Eigen closure systems are the image families of the eigen maps (which states /
experiments / couples are certain to produce an outcome inside a given set);
ortho closure systems arise from orthogonality relations via double
orthocomplement. A closure system is held as its generating closed sets; its
closure operator intersects them, and its members are listed only on request,
by one sweep of the generators over bit masks. The eigen generators of a scope
are read from one pass over its row of the table.
"""

from __future__ import annotations

from itertools import compress
from types import MappingProxyType

from .diagnostics import Diagnostics
from .entity import Entity, RelationKind, relation_views
from .errors import CapacityError, ContractError

GROUND_CAP = 24  # full-family materialization refuses larger ground sets


class ClosureSystem:
    """A family of subsets containing the empty set and the ground set and
    closed under intersection, held as its generators: the members are their
    intersections, and the closure of K is the ground cut by every generator
    containing K. A listed family must pass `validate_closure_axioms`."""

    __slots__ = ("ground", "generators", "_members")

    def __init__(self, ground, members):
        ground, members = _family(ground, members)
        axioms = validate_closure_axioms(ground, members)
        if not axioms.passed:
            raise ContractError(f"family is not a closure system: {axioms.failures[0]}")
        self._init(ground, members, members)

    @classmethod
    def generated(cls, ground, generators) -> "ClosureSystem":
        """The system of all intersections of `generators`, closed by
        construction: only the empty set's membership is checked."""
        system = object.__new__(cls)
        system._init(*_family(ground, generators), None)
        if system.closure_of(frozenset()):
            raise ContractError("a closure system must contain the empty set")
        return system

    def _init(self, ground, generators, members):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_members", members)

    def __setattr__(self, name, value):
        raise AttributeError("ClosureSystem is immutable")

    @property
    def members(self) -> frozenset:
        """Every closed set, listed on first use; refused beyond GROUND_CAP."""
        if self._members is None:
            if len(self.ground) > GROUND_CAP:
                raise CapacityError(f"ground set of size {len(self.ground)} exceeds the cap of {GROUND_CAP}")
            object.__setattr__(self, "_members", intersection_closure(self.ground, self.generators))
        return self._members

    def __eq__(self, other):
        if not isinstance(other, ClosureSystem):
            return NotImplemented
        if self.generators == other.generators:
            return self.ground == other.ground
        return (
            self.ground == other.ground
            and all(map(other.is_closed, self.generators))
            and all(map(self.is_closed, other.generators))
        )

    def __hash__(self):
        return hash(self.ground)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"ClosureSystem(|ground|={len(self.ground)}, |generators|={len(self.generators)})"

    def sorted_members(self) -> list:
        return sorted(self.members, key=lambda m: (len(m), tuple(sorted(m))))

    def closure_of(self, K) -> frozenset:
        """The smallest member containing K."""
        K = frozenset(K)
        if not K <= self.ground:
            raise ContractError(f"{sorted(K - self.ground)} lie outside the ground set")
        return self.ground.intersection(*(g for g in self.generators if K <= g))

    def is_closed(self, K) -> bool:
        K = frozenset(K)
        return K <= self.ground and self.closure_of(K) == K


def _family(ground, members) -> tuple:
    """The ground and the members as frozensets, each member inside the ground."""
    ground = frozenset(ground)
    members = frozenset(map(frozenset, members))
    for m in members:
        if not m <= ground:
            raise ContractError(f"family member {sorted(m)} is not a subset of the ground set")
    return ground, members


def closure_of(system: ClosureSystem, K) -> frozenset:
    return system.closure_of(K)


def intersection_closure(ground, generators) -> frozenset:
    """All intersections of subfamilies of `generators` (the empty
    intersection contributes the ground set), swept over bit masks of the
    sorted ground: starting from the ground, each distinct generator g adds
    A & g for every set A found so far, so the cost is |generators| x
    |members| ANDs.
    """
    items = sorted(ground, key=str)
    bits = _bits(items)
    bit = dict(zip(items, bits))
    found = {(1 << len(items)) - 1}
    for g in {sum(map(bit.__getitem__, m)) for m in generators}:
        found |= {A & g for A in found}
    return frozenset(_decode(items, bits, A) for A in found)


def _bits(items) -> list:
    """The mask encoding of the sweeps: bit i stands for items[i]."""
    return [1 << i for i in range(len(items))]


def _decode(items, bits, A) -> frozenset:
    """The items of mask A."""
    return frozenset(compress(items, map(A.__and__, bits)))


def _member_sets(items, generators) -> dict:
    """Every intersection of the generator masks over `items` (the empty one
    is the ground), as {mask: set}. The same sweep as `intersection_closure`,
    but each member's set is stored when the member is found, as one
    intersection F & G with the generator that found it, so only the
    generators are decoded. That pays on families of a few dozen members; on
    families of thousands, the plain sweep and one decoding are faster.
    """
    bits = _bits(items)
    found = {(1 << len(items)) - 1: frozenset(items)}
    for g in generators:
        G = _decode(items, bits, g)
        for A, F in list(found.items()):
            if A & g not in found:
                found[A & g] = F & G
    return found


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


def _row_coatoms(row) -> dict:
    """For one row {item: cell} of the table, the coatom of each outcome x of
    the row: eig(O - {x}) = the items whose cell misses x, where O is the
    union of the row's cells. One read of the row gives every coatom."""
    holders = {}  # outcome -> the items whose cell holds it
    for item, cell in row.items():
        for x in cell:
            holders.setdefault(x, []).append(item)
    items = frozenset(row)
    return {x: items.difference(held) for x, held in holders.items()}


def eigen_closure_system(entity: Entity, on: str, scoped_to=None) -> ClosureSystem:
    """The eigen closure system of the requested scope.

    on='states'       scoped_to=e     image family of the state eigen map of e
    on='states'       scoped_to=None  intersection-generated global system on states
    on='experiments'  scoped_to=p     image family of the experiment eigen map of p
    on='experiments'  scoped_to=None  global system on experiments
    on='central'                      image family of the central eigen map

    The generators are the coatoms of the image families, eig(O - {x}) for
    each outcome x of a scope's full outcome set O: their intersections are
    exactly the image family, without enumerating every outcome subset. Each
    scope's coatoms come from one read of its row of the table (`_row_coatoms`);
    `eig_states`, `eig_experiments` and `eig_central` are the definitions
    they agree with.
    """
    table = entity._table
    if on == "central":
        if scoped_to is not None:
            raise ContractError("the central eigen system takes no scope")
        return ClosureSystem.generated(entity.couples(), _row_coatoms(table).values())
    if on == "states":
        ground, scopes, require = entity.states, entity.experiments, entity.require_experiment
        row = lambda e: {p: table[(e, p)] for p in ground}
    elif on == "experiments":
        ground, scopes, require = entity.experiments, entity.states, entity.require_state
        row = lambda p: {e: table[(e, p)] for e in ground}
    else:
        raise ContractError(f"unknown eigen scope {on!r}")
    if scoped_to is not None:
        require(scoped_to)
    scopes = sorted(scopes) if scoped_to is None else [scoped_to]
    return ClosureSystem.generated(ground, [g for s in scopes for g in _row_coatoms(row(s)).values()])


# -- orthogonality spaces and ortho closures ----------------------------------


class OrthoSpace:
    """A finite set with a symmetric anti-reflexive orthogonality relation,
    held as the orthocomplement `perp[a]` of each point a (a read-only map;
    a point missing from the given map is orthogonal to nothing)."""

    __slots__ = ("ground", "perp")

    def __init__(self, ground, perp):
        ground = frozenset(ground)
        for a in set(perp) - ground:
            raise ContractError(f"orthocomplement given for {a!r}, which lies outside the ground set")
        perp = {a: frozenset(perp.get(a, ())) for a in ground}
        groups = {}  # the points sharing each orthocomplement
        for a, p in perp.items():
            groups.setdefault(p, []).append(a)
        for p, points in groups.items():
            for b in p - ground:
                raise ContractError(f"orthogonal pair ({points[0]!r}, {b!r}) lies outside the ground set")
            for a in p.intersection(points):
                raise ContractError(f"orthogonality must be anti-reflexive; got ({a!r}, {a!r})")
            for q, others in groups.items():
                # every b of others inside p needs every a of points inside q
                if not p.isdisjoint(others) and not q.issuperset(points):
                    b = next(b for b in others if b in p)
                    a = next(a for a in points if a not in q)
                    raise ContractError(f"orthogonality must be symmetric; ({b!r}, {a!r}) missing")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "perp", MappingProxyType(perp))

    def __setattr__(self, name, value):
        raise AttributeError("OrthoSpace is immutable")

    def orthogonal(self, a, b) -> bool:
        return b in self.perp.get(a, ())


def orth_complement(space: OrthoSpace, K) -> frozenset:
    """K^perp: the elements orthogonal to every element of K."""
    K = frozenset(K)
    if not K <= space.ground:
        raise ContractError(f"{sorted(K - space.ground)} lie outside the ground set")
    return space.ground.intersection(*(space.perp[q] for q in K))


def ortho_closure(space: OrthoSpace, K) -> frozenset:
    """The double orthocomplement (K^perp)^perp."""
    return orth_complement(space, orth_complement(space, K))


def ortho_closure_system(space: OrthoSpace) -> ClosureSystem:
    """The system of ortho closed sets, generated by the orthocomplements of
    the points: (K^perp)^perp is the intersection of the perps of K^perp."""
    return ClosureSystem.generated(space.ground, space.perp.values())


def entity_ortho_space(entity: Entity, on: str, scoped_to=None) -> OrthoSpace:
    """The orthogonality space of an entity for the requested relation kind.
    Points with equal views have equal orthocomplements, so one perp is
    computed per distinct view."""
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
        kind = RelationKind.outcome_for(*scoped_to) if scoped_to is not None else RelationKind.outcome_global()
        ground = entity.outcomes
    else:
        raise ContractError(f"unknown orthogonality scope {on!r}")
    view, orthogonal = relation_views(entity, kind)
    points = {}
    for a in ground:
        points.setdefault(view(a), []).append(a)
    perps = {u: frozenset(b for v, bs in points.items() if orthogonal(u, v) for b in bs) for u in points}
    return OrthoSpace(ground, {a: perps[u] for u, group in points.items() for a in group})


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
    # a trace is a "for every experiment" condition, so it preserves
    # intersections: the traces of the generators generate the traced system
    traces = [frozenset(p for p in states if all((e, p) in g for e in experiments)) for g in system.generators]
    return ClosureSystem.generated(states, traces)


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


def outcome_closure_system(entity: Entity) -> ClosureSystem:
    """The closed outcome sets, generated by the complements of the cells."""
    return ClosureSystem.generated(entity.outcomes, [entity.outcomes - cell for _, cell in entity.cells()])


# -- axiom validation ----------------------------------------------------------


def _intersection_closed(ground, members) -> bool:
    """Whether every pairwise intersection of `members` is a member, checked
    over bit masks of the ground, one C-level pass per member."""
    bit = {x: 1 << i for i, x in enumerate(ground)}
    masks = [sum(map(bit.__getitem__, m)) for m in members]
    closed = set(masks)
    return all(closed.issuperset(map(a.__and__, masks[i + 1:])) for i, a in enumerate(masks))


def validate_closure_axioms(ground, members) -> Diagnostics:
    """Check that a listed family of subsets of `ground` (a member outside
    it raises ContractError) is a closure system: it holds the empty set
    and the ground set, it is closed under intersection (checked over bit
    masks; on failure the witness is the first missing pairwise intersection
    in size-then-lexicographic order), and the closure operator it
    induces, K -> the intersection of the members containing K, fixes the
    empty set. That operator is extensive, idempotent and monotone for every
    family of subsets (Birkhoff, Lattice Theory, 1940, on Moore families), so
    those axioms need no check.
    """
    ground, members = _family(ground, members)
    diag = Diagnostics()
    diag.record("system.contains_empty", frozenset() in members, "empty set missing")
    diag.record("system.contains_ground", ground in members, "ground set missing")
    if _intersection_closed(ground, members):
        diag.record("system.intersection_closed", True)
    else:
        ordered = sorted(members, key=lambda m: (len(m), tuple(sorted(map(str, m)))))
        a, b = next((a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:] if a & b not in members)
        diag.record(
            "system.intersection_closed",
            False,
            f"{sorted(map(str, a))} & {sorted(map(str, b))} = {sorted(map(str, a & b))} missing",
        )
    cl_empty = ground.intersection(*members)
    diag.record("operator.empty_fixed", not cl_empty, f"cl([]) = {sorted(map(str, cl_empty))}")
    return diag
