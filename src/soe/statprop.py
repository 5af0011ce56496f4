"""State-property systems: testable properties, the Cartan map, and the
two-way correspondence with closure systems.

Identified systems represent a property canonically by its Cartan image (the
set of states in which it is actual); the defining outcome-set witness of a
testable property is kept as a label so reports can cite a test.
"""

from __future__ import annotations

from .closure import ClosureSystem, _member_sets
from .diagnostics import Diagnostics
from .entity import Entity, _holder_index, _Order, first_equivalent_pair, natural_order
from .errors import CapacityError, ContractError, UnknownIdentifierError
from .mixture import full_mixed_entity, mixture_id


TOTAL_ROW_BUDGET = 2**15  # cap on the 2^|states| - 1 mixtures of the row global_testable_sps reads


def _prop_key(a):
    """Stable sort key for property tokens (identified properties are frozensets)."""
    if isinstance(a, frozenset):
        return (0, tuple(sorted(map(str, a))))
    return (1, str(a))


class StatePropertySystem:
    """States, a complete lattice of properties, and the map sending each
    state to the set of properties actual in it.

    `actual` is the map xi; the property order is the ordering-set order
    (a below b iff every state making a actual makes b actual), which for
    identified systems coincides with inclusion of Cartan images.

    A system built from masks (`testable_sps`, `global_testable_sps`,
    `closure_to_sps`) holds the closure system of its Cartan images on the
    states, and a testable one also its row's holder masks has[x]: the
    system is generated by the coatoms full & ~has[x]. Its `properties`,
    `actual` and `labels` come from one sweep of the system's generator
    masks (`_member_sets`), run the first time one of them is asked for;
    `testable_property` reads `has` and lists nothing.
    """

    __slots__ = ("states", "_properties", "_system", "_has", "_found", "_actual", "_labels", "_images", "_by_image")

    def __init__(self, states, properties, actual, labels=None):
        states = frozenset(states)
        properties = frozenset(properties)
        stray = actual.keys() - states
        if stray:
            raise ContractError(f"actual-property map lists states outside the state set: {sorted(map(str, stray))}")
        fixed = {}
        for p in states:
            if p not in actual:
                raise ContractError(f"actual-property map is missing state {p!r}")
            props = frozenset(actual[p])
            stray = props - properties
            if stray:
                raise ContractError(f"state {p!r} lists unknown properties: {sorted(map(str, stray))}")
            fixed[p] = props
        self._init(states, properties, None, None, fixed, dict(labels) if labels else {})

    @classmethod
    def _of_system(cls, system: ClosureSystem, has=None) -> "StatePropertySystem":
        """The identified system whose Cartan images are the members of
        `system`; a testable one also holds its row's holder masks `has`."""
        sps = object.__new__(cls)
        sps._init(system.ground, None, system, has, None, {} if has is None else None)
        return sps

    @classmethod
    def _of_masks(cls, order, has) -> "StatePropertySystem":
        """The testable system of the holder masks `has` over `order` (the
        states), generated by its coatoms full & ~has[x]."""
        return cls._of_system(ClosureSystem._of_masks(order, {order.full & ~h for h in has.values()}), has)

    def _init(self, states, properties, system, has, actual, labels):
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_properties", properties)
        object.__setattr__(self, "_system", system)
        object.__setattr__(self, "_has", has)
        object.__setattr__(self, "_found", None)
        object.__setattr__(self, "_actual", actual)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_images", None)
        object.__setattr__(self, "_by_image", None)

    def _listing(self) -> dict:
        """{mask: set} of every property of a system built from masks, swept
        from its closure system's generator masks on first use."""
        if self._found is None:
            object.__setattr__(self, "_found", _member_sets(self._system._order, self._system._gens))
        return self._found

    @property
    def properties(self) -> frozenset:
        """Every property; for a held system, the listed member sets."""
        if self._properties is None:
            object.__setattr__(self, "_properties", frozenset(self._listing().values()))
        return self._properties

    @property
    def actual(self) -> dict:
        """{state: the properties actual in it}; for a held system, the
        listed member sets holding the state, in one pass over them."""
        if self._actual is None:
            actual = {p: [] for p in self._system._order.items}
            for F in self._listing().values():
                for p in F:
                    actual[p].append(F)
            object.__setattr__(self, "_actual", {p: frozenset(props) for p, props in actual.items()})
        return self._actual

    @property
    def labels(self) -> dict:
        """{property: its outcome-set label}; a testable property of mask A
        is labeled {x : A & has[x]}."""
        if self._labels is None:
            has = self._has
            labels = {F: frozenset([x for x, h in has.items() if A & h]) for A, F in self._listing().items()}
            object.__setattr__(self, "_labels", labels)
        return self._labels

    def __setattr__(self, name, value):
        raise AttributeError("StatePropertySystem is immutable")

    def __eq__(self, other):
        if not isinstance(other, StatePropertySystem):
            return NotImplemented
        return (
            self.states == other.states
            and self.properties == other.properties
            and self.actual == other.actual
        )

    def __repr__(self):
        return f"StatePropertySystem(|states|={len(self.states)}, |properties|={len(self.properties)})"

    # -- the two orders -----------------------------------------------------

    def _index(self) -> dict:
        """Image -> canonical property (the least by `_prop_key`, the first in
        `properties` among ties), built with every Cartan image on first use,
        in one pass over `actual`."""
        if self._by_image is None:
            images = {b: [] for b in self.properties}
            for p, props in self.actual.items():
                for b in props:
                    images[b].append(p)
            images = {b: frozenset(ps) for b, ps in images.items()}
            index = {}
            for b, F in images.items():
                if F not in index or _prop_key(b) < _prop_key(index[F]):
                    index[F] = b
            object.__setattr__(self, "_images", images)
            object.__setattr__(self, "_by_image", index)
        return self._by_image

    def _property(self, image, refusal):
        """The canonical property with this Cartan image, or ContractError."""
        try:
            return self._index()[image]
        except KeyError:
            raise ContractError(refusal) from None

    def cartan(self, a) -> frozenset:
        """kappa(a): the states in which a is actual."""
        self._index()
        try:
            return self._images[a]
        except KeyError:
            raise UnknownIdentifierError("property", a) from None

    def property_leq(self, a, b) -> bool:
        return self.cartan(a) <= self.cartan(b)

    def state_leq(self, p, q) -> bool:
        """p property-implies q: everything actual in q is actual in p."""
        if p not in self.states:
            raise UnknownIdentifierError("state", p)
        if q not in self.states:
            raise UnknownIdentifierError("state", q)
        return self.actual[q] <= self.actual[p]

    @property
    def top(self):
        return self._property(self.states, "no maximal property is actual in every state")

    @property
    def bottom(self):
        return self._property(frozenset(), "no minimal property is potential in every state")

    def meet(self, props):
        """Greatest lower bound: the property whose image is I, the intersection
        of the family's images, or else the union of the images inside I."""
        index = self._index()
        I = self.states.intersection(*map(self.cartan, props))
        if I not in index:
            I = frozenset().union(*(F for F in index if F <= I))
        return self._property(I, "family has no meet in this lattice")

    def join(self, props):
        """Least upper bound: the property whose image is J, the union of the
        family's images, or else the intersection of the images holding J."""
        index = self._index()
        J = frozenset().union(*map(self.cartan, props))
        if J not in index:
            J = self.states.intersection(*(F for F in index if J <= F))
        return self._property(J, "family has no join in this lattice")

    # -- testable-property access --------------------------------------------

    def testable_property(self, outcome_set):
        """The identified property a(A) for an outcome subset A (testable
        systems only): the states holding no outcome outside A, the AND of
        the coatom masks of those outcomes, decoded once."""
        has = self._has
        if has is None:
            raise ContractError("this system was not built from testable properties")
        A = frozenset(outcome_set)
        if not A <= has.keys():
            raise ContractError(f"{natural_order(A - has.keys())} are not outcomes of this experiment")
        order = self._system._order
        mask = order.full
        for x, h in has.items():
            if x not in A:
                mask &= ~h
        return order.decode(mask)

    def witness(self, a):
        """The outcome-set label of a property, when one is attached."""
        return self.labels.get(a)


def cartan(sps: StatePropertySystem, a) -> frozenset:
    return sps.cartan(a)


def property_implies(sps: StatePropertySystem, a, b) -> bool:
    """a is stronger than b: evaluated through Cartan-image inclusion, which
    agrees with the ordering-set definition over the property states."""
    return sps.property_leq(a, b)


def testable_sps(entity: Entity, e) -> StatePropertySystem:
    """The identified state-property system of the e-testable properties.

    Properties are the Cartan images (equal to the e-eigen closed state sets);
    each property is labeled with its largest defining outcome set, the union
    of the cells of its states. The coatoms that generate the properties and
    the labels both come from the row of e in the entity's holder index.
    """
    entity.require_experiment(e)
    index = _holder_index(entity)
    order, has = index.states, index.rows("states")[e]
    return StatePropertySystem._of_masks(order, has)


def sps_to_closure(sps: StatePropertySystem) -> ClosureSystem:
    """The family of Cartan images as a closure system: the one a system
    built from masks holds, else the images validated as a closure system."""
    if sps._system is not None:
        return sps._system
    return ClosureSystem(sps.states, {sps.cartan(a) for a in sps.properties})


def is_cartan_family(sps: StatePropertySystem, system: ClosureSystem) -> bool:
    """Whether the Cartan images of sps are exactly the members of system:
    `sps_to_closure(sps) == system`, False when the images are no closure
    system. For a system built from masks over system's order that is
    decided on generators, listing neither side (`ClosureSystem.__eq__`)."""
    try:
        return sps_to_closure(sps) == system
    except ContractError:
        return False


def closure_to_sps(ground, system: ClosureSystem) -> StatePropertySystem:
    """The state-property system of a closure system: properties are the
    closed sets ordered by inclusion, and a state's actual properties are the
    closed sets containing it. The system is held as it is; nothing is
    listed until a property is asked for."""
    if frozenset(ground) != system.ground:
        raise ContractError("ground set does not match the closure system")
    return StatePropertySystem._of_system(system)


def indistinguishable_pair(entity: Entity):
    """The least pair of distinct experiments that share an outcome, or None:
    experiments that are not orthogonal in the total mixed state. Each
    experiment's outcomes are the keys of its row in the holder index, read
    in sorted experiment order; an outcome met again pairs the experiment
    that first produced it with the current one, and the least such pair
    is the least of the first two of each outcome's producers."""
    first = {}  # outcome -> the least experiment producing it
    rows = _holder_index(entity).rows("states")
    pairs = [(first.setdefault(x, e), e) for e, has in rows.items() for x in has]
    return min((pair for pair in pairs if pair[0] != pair[1]), default=None)


def is_distinguishable(entity: Entity) -> bool:
    """Whether all distinct experiments have disjoint total outcome sets."""
    return indistinguishable_pair(entity) is None


def _total_row(states) -> _Order:
    """The order of the total mixed row over the sorted `states`, none of
    which contains '+': mixture P, a nonempty mask over them, is item P - 1,
    named `mixture_id` of its states. The name of P is the name of P without
    its highest state, then '+', then that state (that state alone when it
    is all of P), so each state doubles the names listed so far at the cost
    of one concatenation per new name. The states must come in `str` order,
    the order in which `mixture_id` joins them (the holder index sorts them
    so), or the names would not be `mixture_id`'s."""
    names = []
    for p in states:
        suffix = "+" + p
        names += [p, *[name + suffix for name in names]]
    return _Order(names)


def _meeting_mask(full, n, S) -> int:
    """The mask, over the total mixed row of n states (`_total_row`, mixture
    P is bit P - 1), of the mixtures that meet the state mask S. Those that
    avoid S are the subsets of its complement: their indicator over every
    P < 2^n starts at the empty mixture and doubles once per state outside S."""
    avoiding = 1  # bit P for each subset P of the states outside S seen so far
    for i in range(n):
        if not S >> i & 1:
            avoiding |= avoiding << (1 << i)
    return full & ~(avoiding >> 1)


def global_testable_sps(entity: Entity) -> StatePropertySystem:
    """The testable system of the total mixed experiment over the full mixed
    entity; its lattice carries every testable property of the entity.

    Only that experiment's row is read, and only as holder masks: the cell of
    a mixture P is the union of O(p) over p in P, so P holds outcome x
    exactly when P meets the states S_x whose O(p) holds x (the OR of x's
    holder masks in the entity's holder index), and has[x] is computed once
    per distinct S_x by subset doubling (`_meeting_mask`). The mixtures are
    named by one concatenation each (`_total_row`). No cell is built. The
    result equals
    `testable_sps(full_mixed_entity(entity), mixture_id(entity.experiments))`.
    The row is refused (`CapacityError`) beyond TOTAL_ROW_BUDGET cells, so up
    to 15 states whatever the number of experiments. When an identifier
    contains '+', minted identifiers can collide, and the full mixed entity
    is built, under its own budget, so that its collision check decides.

    Refused for non-distinguishable entities: mixing experiments that share
    outcomes produces union tests that no longer test the conjunction of the
    mixed parts, so completeness fails.
    """
    if not is_distinguishable(entity):
        raise ContractError(
            "experiments share outcomes; the union test over a mixed experiment "
            "does not test the conjunction of its parts, so the total mixed "
            "experiment does not collect all testable properties"
        )
    if any("+" in identifier for identifier in entity.states | entity.experiments):
        return testable_sps(full_mixed_entity(entity), mixture_id(entity.experiments))
    cells = 2 ** len(entity.states) - 1
    if cells > TOTAL_ROW_BUDGET:
        raise CapacityError(
            f"total mixed row of 2^{len(entity.states)} - 1 = {cells} cells exceeds budget {TOTAL_ROW_BUDGET}"
        )
    index = _holder_index(entity)
    states = index.states.items
    row = _total_row(states)
    held = {}  # x -> S_x, from the rows of the holder index
    for has in index.rows("states").values():
        for x, S in has.items():
            held[x] = held.get(x, 0) | S
    meeting = {}  # S_x -> the mask of the mixtures meeting it
    has = {}
    for x, S in held.items():
        if S not in meeting:
            meeting[S] = _meeting_mask(row.full, len(states), S)
        has[x] = meeting[S]
    return StatePropertySystem._of_masks(row, has)


def validate_sps(sps: StatePropertySystem) -> Diagnostics:
    """Check the state-property-system axioms by enumeration."""
    diag = Diagnostics()
    try:
        top = sps.top
        diag.record("lattice.top", True)
        diag.record(
            "lattice.top_actual_everywhere",
            all(top in sps.actual[p] for p in sps.states),
        )
    except ContractError as err:
        diag.record("lattice.top", False, str(err))
    try:
        bottom = sps.bottom
        diag.record("lattice.bottom", True)
        diag.record(
            "lattice.bottom_actual_nowhere",
            not any(bottom in sps.actual[p] for p in sps.states),
        )
    except ContractError as err:
        diag.record("lattice.bottom", False, str(err))

    props = sorted(sps.properties, key=_prop_key)
    states = natural_order(sps.states)
    meets_ok = True
    for i, a in enumerate(props):
        for b in props[i:]:
            try:
                m = sps.meet([a, b])
            except ContractError:
                diag.record("lattice.binary_meets", False, f"no meet of {a!r} and {b!r}")
                meets_ok = False
                break
            # xi(p) holds a and b exactly when it holds their meet: kappa(a meet b)
            # is kappa(a) & kappa(b), else the least state where they differ fails
            if states:
                diff = sps.cartan(m) ^ (sps.cartan(a) & sps.cartan(b))
                diag.record(
                    "xi.meet_stability",
                    not diff,
                    lambda: f"state {next(p for p in states if p in diff)!r}, properties {a!r}, {b!r}",
                )
        if not meets_ok:
            break
    diag.checks.setdefault("lattice.binary_meets", True)
    diag.checks.setdefault("xi.meet_stability", True)

    equivalent = first_equivalent_pair(props, sps.cartan)
    if equivalent is not None:
        a, b = equivalent
        diag.record("lattice.identified", False, f"{a!r} and {b!r} are equivalent but distinct")
    diag.checks.setdefault("lattice.identified", True)
    return diag
