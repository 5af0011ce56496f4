"""Closure systems on states, experiments, couples, and outcomes.

Eigen closure systems are the image families of the eigen maps (which states /
experiments / couples are certain to produce an outcome inside a given set);
ortho closure systems arise from orthogonality relations via double
orthocomplement. A closure system is held as the bit masks of its generating
closed sets over one item order, and in no other form: its closure operator
intersects them, its generators are decoded on each ask, and its members are
listed on first use. The eigen generators and the orthocomplements of an
entity come from its holder index (`soe.entity`): for each row of the table,
the mask of the items whose cell holds each outcome, built once per entity.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from types import MappingProxyType

from .diagnostics import Diagnostics
from .entity import Entity, RelationKind, _holder_index, _Order, _shared_masks, natural_order, relation_views
from .errors import CapacityError, ContractError

GROUND_CAP = 24  # full-family materialization refuses larger ground sets


class ClosureSystem:
    """A family of subsets containing the empty set and the ground set and
    closed under intersection, held as the masks of its generators over one
    item order: the members are their intersections, and the closure of K is
    the ground cut by every generator containing K. A listed family must pass
    `validate_closure_axioms`."""

    __slots__ = ("ground", "_order", "_gens", "_members")

    def __init__(self, ground, members):
        ground, members = _family(ground, members)
        axioms = validate_closure_axioms(ground, members)
        if not axioms.passed:
            raise ContractError(f"family is not a closure system: {axioms.failures[0]}")
        order = _Order(ground, ground)
        self._init(order, set(map(order.mask, members)), members)

    @classmethod
    def generated(cls, ground, generators) -> "ClosureSystem":
        """The system of all intersections of `generators`, closed by
        construction: only the empty set's membership is checked."""
        ground, generators = _family(ground, generators)
        order = _Order(ground, ground)
        return cls._of_masks(order, set(map(order.mask, generators)))

    @classmethod
    def _of_masks(cls, order: _Order, gens: set) -> "ClosureSystem":
        """The system generated by the masks `gens` over `order`."""
        system = object.__new__(cls)
        system._init(order, gens, None)
        if reduce(and_, gens, order.full):
            raise ContractError("a closure system must contain the empty set")
        return system

    def _init(self, order, gens, members):
        object.__setattr__(self, "ground", order.ground)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_gens", gens)
        object.__setattr__(self, "_members", members)

    def __setattr__(self, name, value):
        raise AttributeError("ClosureSystem is immutable")

    @property
    def generators(self) -> frozenset:
        """The generating closed sets, decoded from their masks on each ask; none is kept."""
        return frozenset(map(self._order.decode, self._gens))

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
        if self.ground != other.ground:
            return False
        if self._order.same(other._order) and self._gens == other._gens:
            return True
        return self.includes(other) and other.includes(self)

    def includes(self, other: "ClosureSystem") -> bool:
        """Whether every member of `other` is a member of this system: the
        ground of `other` and each of its generators is closed here, as this
        family is closed under intersection. Over a shared item order, where
        the grounds are one, the closure operator is asked of each generator
        mask as it is; otherwise the ground and generators of `other` are
        tested with `is_closed`."""
        if self._order.same(other._order):
            return all(self._close(k) == k for k in other._gens)
        return self.is_closed(other.ground) and all(map(self.is_closed, other.generators))

    def __hash__(self):
        return hash(self.ground)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"ClosureSystem(|ground|={len(self.ground)}, |generators|={len(self._gens)})"

    def sorted_members(self) -> list:
        return sorted(self.members, key=lambda m: (len(m), tuple(sorted(m))))

    def _missed_by(self) -> dict:
        """{point: the indices of the generators missing it}, from one read of
        each generator's complement's bits; no generator is decoded."""
        order = self._order
        points = range(len(order.items))
        missed = [[] for _ in points]
        for j, g in enumerate(self._gens):
            for i in order.entries(order.full & ~g, points):
                missed[i].append(j)
        return dict(zip(order.items, map(tuple, missed)))

    def _close(self, k) -> int:
        """The closure operator on masks over the system's order: the mask of
        the smallest member containing k's items: the full mask cut by every
        generator mask holding k."""
        full = self._order.full
        for g in self._gens:
            if k & g == k:
                full &= g
        return full

    def closure_of(self, K) -> frozenset:
        """The smallest member containing K."""
        K = frozenset(K)
        if not K <= self.ground:
            raise ContractError(f"{natural_order(K - self.ground)} lie outside the ground set")
        order = self._order
        return order.decode(self._close(order.mask(K)))

    def is_closed(self, K) -> bool:
        K = frozenset(K)
        if not K <= self.ground:
            return False
        k = self._order.mask(K)
        return self._close(k) == k


def _family(ground, members) -> tuple:
    """The ground and the members as frozensets, each member inside the ground."""
    ground = frozenset(ground)
    members = frozenset(map(frozenset, members))
    for m in members:
        if not m <= ground:
            raise ContractError(f"family member {natural_order(m)} is not a subset of the ground set")
    return ground, members


def closure_of(system: ClosureSystem, K) -> frozenset:
    return system.closure_of(K)


def intersection_closure(ground, generators) -> frozenset:
    """All intersections of subfamilies of `generators` (the empty
    intersection contributes the ground set), listed by `_member_sets` over
    bit masks of the str-sorted ground. A generator outside the ground
    raises ContractError."""
    ground, generators = _family(ground, generators)
    order = _Order(sorted(ground, key=str), ground)
    return frozenset(_member_sets(order, map(order.mask, generators)).values())


def _member_sets(order: _Order, generators) -> dict:
    """Every intersection of the generator masks over `order` (the empty one
    is the ground), as {mask: set}: starting from the ground, each generator
    g adds A & g for every member A found so far, |generators| x |members|
    ANDs in all. Each new member's set is stored when it is found, as one
    intersection F & G with the generator that found it, so only the
    generators are decoded from masks.
    """
    found = {order.full: order.ground}
    for g in generators:
        G = order.decode(g)
        for A, F in list(found.items()):
            if A & g not in found:
                found[A & g] = F & G
    return found


# -- the eigen maps -------------------------------------------------------------


def _scoped_rows(entity: Entity, on: str, scoped_to, what: str, system: str) -> tuple:
    """(order, rows in scope) of the holder index for one eigen or ortho scope."""
    index = _holder_index(entity)
    if on == "central":
        if scoped_to is not None:
            raise ContractError(f"the central {system} takes no scope")
        return index.couples, index.rows("central")
    if on == "states":
        order, require = index.states, entity.require_experiment
    elif on == "experiments":
        order, require = index.experiments, entity.require_state
    else:
        raise ContractError(f"unknown {what} scope {on!r}")
    rows = index.rows(on)
    if scoped_to is None:
        return order, rows
    require(scoped_to)
    return order, {scoped_to: rows[scoped_to]}


def eig_states(entity: Entity, e, A) -> frozenset:
    """States certain to yield an outcome in A under experiment e."""
    A = frozenset(A)
    if not A <= entity.experiment_outcomes(e):
        raise ContractError(f"outcome set {natural_order(A)} is not a subset of O({e})")
    return frozenset(p for p in entity.states if entity.outcome_set(e, p) <= A)


def eig_experiments(entity: Entity, p, A) -> frozenset:
    """Experiments certain to yield an outcome in A when the entity is in state p."""
    A = frozenset(A)
    if not A <= entity.state_outcomes(p):
        raise ContractError(f"outcome set {natural_order(A)} is not a subset of O({p})")
    return frozenset(e for e in entity.experiments if entity.outcome_set(e, p) <= A)


def _known_outcomes(entity: Entity, A) -> frozenset:
    A = frozenset(A)
    stray = A - entity.outcomes
    if stray:
        raise ContractError(f"unknown outcomes: {natural_order(stray)}")
    return A


def eig_central(entity: Entity, A) -> frozenset:
    """Couples (e, p) certain to yield an outcome in A."""
    A = _known_outcomes(entity, A)
    return frozenset(couple for couple, cell in entity.cells() if cell <= A)


def eigen_closure_system(entity: Entity, on: str, scoped_to=None) -> ClosureSystem:
    """The eigen closure system of the requested scope.

    on='states'       scoped_to=e     image family of the state eigen map of e
    on='states'       scoped_to=None  intersection-generated global system on states
    on='experiments'  scoped_to=p     image family of the experiment eigen map of p
    on='experiments'  scoped_to=None  global system on experiments
    on='central'                      image family of the central eigen map

    The generators are the coatoms of the image families, eig(O - {x}) for
    each outcome x of a scope's full outcome set O: their intersections are
    exactly the image family, without enumerating every outcome subset. The
    coatom of x is the mask full & ~has[x] of the scope's row in the holder
    index; `eig_states`, `eig_experiments` and `eig_central` are the
    definitions they agree with.
    """
    order, rows = _scoped_rows(entity, on, scoped_to, "eigen", "eigen system")
    full = order.full
    return ClosureSystem._of_masks(order, {full & ~h for has in rows.values() for h in has.values()})


# -- orthogonality spaces and ortho closures ----------------------------------


class OrthoSpace:
    """A finite set with a symmetric anti-reflexive orthogonality relation,
    held as its distinct orthocomplements, masks over one item order, each
    with its points; `perp[a]` is the frozenset form of a's (a point missing
    from the given map is orthogonal to nothing). The public constructor
    checks its input point by point in `str` order, in linear time, for one
    fault class after another: a point outside the ground, a pair outside it,
    a point orthogonal to itself, a one-sided pair. A refusal names the
    least offending point, then the least partner."""

    __slots__ = ("ground", "_order", "_groups", "_perp", "_perps")

    def __init__(self, ground, perp):
        ground = frozenset(ground)
        for a in sorted(set(perp) - ground, key=str):
            raise ContractError(f"orthocomplement given for {a!r}, which lies outside the ground set")
        order = _Order(sorted(ground, key=str), ground)
        given = {a: frozenset(perp.get(a, ())) for a in order.items}
        for a, p in given.items():
            for b in sorted(p - ground, key=str):
                raise ContractError(f"orthogonal pair ({a!r}, {b!r}) lies outside the ground set")
        for a, p in given.items():
            if a in p:
                raise ContractError(f"orthogonality must be anti-reflexive; got ({a!r}, {a!r})")
        groups = {}  # orthocomplement -> its points
        for a, p in given.items():
            missing = [b for b in p if a not in given[b]]
            if missing:
                raise ContractError(f"orthogonality must be symmetric; ({min(missing, key=str)!r}, {a!r}) missing")
            groups.setdefault(p, []).append(a)
        self._init(order, {order.mask(p): points for p, points in groups.items()})

    @classmethod
    def _of_masks(cls, order: _Order, groups: dict) -> "OrthoSpace":
        """The space in which the points groups[P] have the orthocomplement mask P."""
        space = object.__new__(cls)
        space._init(order, groups)
        return space

    def _init(self, order, groups):
        object.__setattr__(self, "ground", order.ground)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(self, "_perp", {a: P for P, points in groups.items() for a in points})
        object.__setattr__(self, "_perps", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrthoSpace is immutable")

    @property
    def perp(self) -> MappingProxyType:
        """{a: the orthocomplement of a}, decoded on first use."""
        if self._perps is None:
            decoded = ((self._order.decode(P), points) for P, points in self._groups.items())
            object.__setattr__(self, "_perps", MappingProxyType({a: S for S, points in decoded for a in points}))
        return self._perps

    def orthogonal(self, a, b) -> bool:
        return a in self._perp and b in self.ground and bool(self._perp[a] & self._order.mask((b,)))


def orth_complement(space: OrthoSpace, K) -> frozenset:
    """K^perp: the elements orthogonal to every element of K."""
    K = frozenset(K)
    if not K <= space.ground:
        raise ContractError(f"{natural_order(K - space.ground)} lie outside the ground set")
    order = space._order
    perp = order.full
    for q in K:
        perp &= space._perp[q]
    return order.decode(perp)


def ortho_closure(space: OrthoSpace, K) -> frozenset:
    """The double orthocomplement (K^perp)^perp."""
    return orth_complement(space, orth_complement(space, K))


def ortho_closure_system(space: OrthoSpace) -> ClosureSystem:
    """The ortho closed sets, generated by the space's distinct perps."""
    return ClosureSystem._of_masks(space._order, set(space._groups))


def entity_ortho_space(entity: Entity, on: str, scoped_to=None) -> OrthoSpace:
    """The orthogonality space of an entity: on='states', 'experiments' or
    'central' as in `eigen_closure_system`, or 'outcomes' with scoped_to None
    or an (experiment, state) pair. Items are orthogonal when their cells are
    disjoint in some scope: the perp of each distinct view of `relation_views`
    is full & ~(AND over the scopes of OR has[x] over its cell there).
    Distinct outcomes are orthogonal when a cell in scope holds both: the perp
    of x ORs the masks of those cells, less x. Both relations are symmetric,
    and anti-reflexive as no cell is empty: no check is run.
    """
    groups = {}  # perp mask -> its points
    if on == "outcomes":
        if scoped_to is None:
            cells = set(entity._table.values())
        elif isinstance(scoped_to, tuple) and len(scoped_to) == 2:
            cells = [entity.outcome_set(*scoped_to)]
        else:
            raise ContractError(f"an outcome scope is an (experiment, state) pair, got {scoped_to!r}")
        order = _Order(sorted(entity.outcomes), entity.outcomes)
        for i, (x, mask) in enumerate(_shared_masks(order, cells).items()):
            groups.setdefault(mask & ~(1 << i), []).append(x)
    else:
        order, rows = _scoped_rows(entity, on, scoped_to, "orthogonality", "orthogonality")
        kind = {"states": RelationKind("state", experiment=scoped_to),
                "experiments": RelationKind("experiment", state=scoped_to)}.get(on, RelationKind.central())
        view, _ = relation_views(entity, kind)
        views = {}  # view -> its points
        for a in order.items:
            views.setdefault(view(a), []).append(a)
        full = order.full
        for u, points in views.items():
            meets = full  # the points whose cell meets the view's in every scope
            for cell, has in zip(u, rows.values()):
                meets &= reduce(or_, map(has.__getitem__, cell))
            groups.setdefault(full & ~meets, []).extend(points)
    return OrthoSpace._of_masks(order, groups)


# -- trace of a couple system on the states -----------------------------------


def state_trace(system: ClosureSystem) -> ClosureSystem:
    """Restrict a closure system on couples to the states that appear with
    every experiment: Y_state = {p | (e, p) in Y for all e}. A trace is a "for
    every experiment" condition, so it preserves intersections: the traces of
    the generators generate the traced system. Each state's column, the mask
    of its couples over the system's order, is built once; a generator mask g
    traces to the states whose column c has g & c == c, over the `str`-sorted
    states. No generator is decoded.
    """
    ground = system.ground
    if not all(isinstance(c, tuple) and len(c) == 2 for c in ground):
        raise ContractError("state_trace needs a system over (experiment, state) couples")
    experiments = frozenset(e for e, _ in ground)
    states = frozenset(p for _, p in ground)
    if ground != frozenset((e, p) for e in experiments for p in states):
        raise ContractError("state_trace needs the full couple grid as ground set")
    columns = {}
    for i, (_, p) in enumerate(system._order.items):
        columns[p] = columns.get(p, 0) | 1 << i
    order = _Order(sorted(states, key=str), states)
    weighted = [(columns[p], 1 << j) for j, p in enumerate(order.items)]
    return ClosureSystem._of_masks(order, {sum(w for c, w in weighted if g & c == c) for g in system._gens})


# -- the outcome closure on X --------------------------------------------------


def outcome_closure(entity: Entity, A) -> frozenset:
    """cl(A): the intersection of the complements of all cells disjoint from A."""
    A = _known_outcomes(entity, A)
    covered = frozenset().union(*(cell for cell in entity._table.values() if not cell & A))
    return entity.outcomes - covered


def outcome_interior(entity: Entity, A) -> frozenset:
    """int(A): the union of the cells contained in A (complement of cl of the complement)."""
    A = _known_outcomes(entity, A)
    return frozenset().union(*(cell for cell in entity._table.values() if cell <= A))


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
    masks = list(map(_Order(ground, ground).mask, members))
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
