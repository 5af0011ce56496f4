"""Finite experiment-state-outcome entities and their pairwise relations.

An entity is a finite set of states, a finite set of experiments, and for
every (experiment, state) pair the nonempty set of outcomes that can occur.
Everything else in this package is computed from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import ContractError, EntityValidationError, UnknownIdentifierError

_RESERVED_PUNCTUATION = set(",=#[]")


def check_identifier(kind: str, token) -> None:
    """The identifier rule: a nonempty string with no whitespace character
    (any that str.isspace accepts, since the text format splits lines and
    words on all of them) and none of , = # [ ]; raises EntityValidationError
    naming the kind."""
    if not isinstance(token, str) or not token:
        raise EntityValidationError(f"{kind} identifier must be a nonempty string, got {token!r}")
    if set(token) & _RESERVED_PUNCTUATION or any(ch.isspace() for ch in token):
        raise EntityValidationError(
            f"{kind} identifier {token!r} contains whitespace or reserved punctuation"
        )


class Entity:
    """Immutable experiment-state-outcome entity.

    Parameters
    ----------
    states, experiments : iterables of identifier strings
    table : mapping (experiment, state) -> iterable of outcome identifiers;
        every pair must be present with a nonempty outcome set
    outcomes : optional explicit outcome set; when given it must equal the
        union of all table cells (a mismatch is a validation error, never a
        silent extension)
    """

    # _holders: the holder index of soe.closure, set on first use
    __slots__ = ("states", "experiments", "outcomes", "_table", "_holders")

    def __init__(self, states, experiments, table, outcomes=None):
        # a bare string is iterable, and would be split into one-character identifiers
        for name, value in (("states", states), ("experiments", experiments), ("outcomes", outcomes)):
            if isinstance(value, str):
                raise EntityValidationError(f"{name} must be a collection of identifiers, not the string {value!r}")
        states = frozenset(states)
        experiments = frozenset(experiments)
        if not states:
            raise EntityValidationError("an entity needs at least one state")
        if not experiments:
            raise EntityValidationError("an entity needs at least one experiment")
        for p in states:
            check_identifier("state", p)
        for e in experiments:
            check_identifier("experiment", e)

        cells = {}
        for e in sorted(experiments):
            for p in sorted(states):
                try:
                    cell = table[(e, p)]
                except KeyError:
                    raise EntityValidationError(f"missing outcome set for cell ({e}, {p})") from None
                if isinstance(cell, str):
                    raise EntityValidationError(f"outcome set for cell ({e}, {p}) is the string {cell!r}, not a set")
                cell = frozenset(cell)
                if not cell:
                    raise EntityValidationError(f"outcome set for cell ({e}, {p}) is empty")
                cells[(e, p)] = cell
        extra = set(table) - set(cells)
        if extra:
            raise EntityValidationError(f"table has cells outside E x Sigma: {natural_order(extra)}")

        # each distinct outcome is checked once, not once per cell it is in
        union = frozenset().union(*cells.values())
        outcomes = union if outcomes is None else frozenset(outcomes)
        for x in outcomes | union:
            check_identifier("outcome", x)
        if outcomes != union:
            missing = sorted(outcomes - union)
            stray = sorted(union - outcomes)
            raise EntityValidationError(
                "declared outcome set does not equal the union of the table cells"
                + (f"; declared but never possible: {missing}" if missing else "")
                + (f"; occur but undeclared: {stray}" if stray else "")
            )

        object.__setattr__(self, "states", states)
        object.__setattr__(self, "experiments", experiments)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "_table", MappingProxyType(cells))

    def __setattr__(self, name, value):
        raise AttributeError("Entity is immutable")

    def __eq__(self, other):
        if not isinstance(other, Entity):
            return NotImplemented
        return (
            self.states == other.states
            and self.experiments == other.experiments
            and self.outcomes == other.outcomes
            and dict(self._table) == dict(other._table)
        )

    def __hash__(self):
        return hash((self.states, self.experiments, frozenset(self._table.items())))

    def __repr__(self):
        return (
            f"Entity(|states|={len(self.states)}, |experiments|={len(self.experiments)}, "
            f"|outcomes|={len(self.outcomes)})"
        )

    # -- lookups ------------------------------------------------------------

    def require_state(self, p) -> None:
        if p not in self.states:
            raise UnknownIdentifierError("state", p)

    def require_experiment(self, e) -> None:
        if e not in self.experiments:
            raise UnknownIdentifierError("experiment", e)

    def require_outcome(self, x) -> None:
        if x not in self.outcomes:
            raise UnknownIdentifierError("outcome", x)

    def outcome_set(self, e, p) -> frozenset:
        """The stored nonempty set O(e, p)."""
        self.require_experiment(e)
        self.require_state(p)
        return self._table[(e, p)]

    def experiment_outcomes(self, e) -> frozenset:
        """O(e): every outcome the experiment e can produce in some state."""
        self.require_experiment(e)
        return frozenset().union(*(self._table[(e, p)] for p in self.states))

    def state_outcomes(self, p) -> frozenset:
        """O(p): every outcome some experiment can produce in state p."""
        self.require_state(p)
        return frozenset().union(*(self._table[(e, p)] for e in self.experiments))

    def couples(self) -> list:
        """All (experiment, state) pairs in deterministic order."""
        return [(e, p) for e in sorted(self.experiments) for p in sorted(self.states)]

    def cells(self):
        """Deterministic iteration over ((e, p), O(e, p))."""
        for couple in self.couples():
            yield couple, self._table[couple]


def outcome_set(entity: Entity, e, p) -> frozenset:
    return entity.outcome_set(e, p)


def eigen_outcome(entity: Entity, e, p):
    """The unique outcome of (e, p) when the couple is eigen, else None."""
    cell = entity.outcome_set(e, p)
    if len(cell) == 1:
        return next(iter(cell))
    return None


# -- relation kinds ---------------------------------------------------------


@dataclass(frozen=True)
class RelationKind:
    """Which of the seven implication/orthogonality relations to evaluate.

    Unscoped kinds quantify over the missing coordinate; scoped kinds fix it
    (e.g. state_for(e) compares outcome sets under the single experiment e).
    """

    on: str  # "state" | "experiment" | "central" | "outcome"
    experiment: str | None = None
    state: str | None = None

    @classmethod
    def state_global(cls):
        return cls("state")

    @classmethod
    def state_for(cls, e):
        return cls("state", experiment=e)

    @classmethod
    def experiment_global(cls):
        return cls("experiment")

    @classmethod
    def experiment_for(cls, p):
        return cls("experiment", state=p)

    @classmethod
    def central(cls):
        return cls("central")

    @classmethod
    def outcome_global(cls):
        return cls("outcome")

    @classmethod
    def outcome_for(cls, e, p):
        return cls("outcome", experiment=e, state=p)

    def describe(self) -> str:
        if self.on == "state":
            return f"state<{self.experiment}>" if self.experiment else "state"
        if self.on == "experiment":
            return f"experiment<{self.state}>" if self.state else "experiment"
        if self.on == "central":
            return "central"
        if self.experiment is not None:
            return f"outcome<{self.experiment},{self.state}>"
        return "outcome"


def _validate_kind(entity: Entity, kind: RelationKind) -> None:
    if kind.on not in ("state", "experiment", "central", "outcome"):
        raise ContractError(f"unknown relation kind {kind.on!r}")
    if kind.experiment is not None:
        entity.require_experiment(kind.experiment)
    if kind.state is not None:
        entity.require_state(kind.state)
    if kind.on == "state" and kind.state is not None:
        raise ContractError("state relations take an experiment scope, not a state")
    if kind.on == "experiment" and kind.experiment is not None:
        raise ContractError("experiment relations take a state scope, not an experiment")
    if kind.on == "outcome" and (kind.experiment is None) != (kind.state is None):
        raise ContractError("scoped outcome relations need both an experiment and a state")


def _require_item(entity: Entity, kind: RelationKind, item) -> None:
    if kind.on == "state":
        entity.require_state(item)
    elif kind.on == "experiment":
        entity.require_experiment(item)
    elif kind.on == "outcome":
        entity.require_outcome(item)
    elif isinstance(item, tuple) and len(item) == 2:
        entity.outcome_set(*item)
    else:
        raise ContractError(f"central relations compare (experiment, state) couples, got {item!r}")


# -- the relation engine: every relation compares views -------------------------


def view_implies(u: tuple, v: tuple) -> bool:
    """Implication of views: each member of u inside the matching member of v."""
    return all(map(frozenset.issubset, u, v))


def _some_member_disjoint(u: tuple, v: tuple) -> bool:
    return any(map(frozenset.isdisjoint, u, v))


def relation_views(entity: Entity, kind: RelationKind):
    """`(view, orthogonal)` for one relation kind.

    `view(item)` reads a plain item's view from the table unchecked: a
    state's cells over the experiments in scope, an experiment's over the
    states in scope (all of them, sorted, for a global kind), a couple's one
    cell, or an outcome's one-outcome event. Views imply by `view_implies`;
    `orthogonal(u, v)` holds when some member of u is disjoint from the
    matching member of v, and for events when both lie inside one cell in scope.
    """
    _validate_kind(entity, kind)
    table = entity._table
    if kind.on == "state":
        scope = (kind.experiment,) if kind.experiment is not None else tuple(sorted(entity.experiments))
        return (lambda p: tuple([table[(e, p)] for e in scope])), _some_member_disjoint
    if kind.on == "experiment":
        scope = (kind.state,) if kind.state is not None else tuple(sorted(entity.states))
        return (lambda e: tuple([table[(e, p)] for p in scope])), _some_member_disjoint
    if kind.on == "central":
        return (lambda couple: (table[couple],)), _some_member_disjoint
    cells = [table[(kind.experiment, kind.state)]] if kind.experiment is not None else set(table.values())

    def events_orthogonal(u, v):
        (a,), (b,) = u, v
        return a.isdisjoint(b) and any(a <= cell and b <= cell for cell in cells)

    return (lambda x: (frozenset((x,)),)), events_orthogonal


def first_equivalent_pair(items, view):
    """The first pair (a, b) of `items`, a before b, with equal views, or
    None; over sorted items, the least such pair. O(n)."""
    first = {}
    best = None
    for j, u in enumerate(map(view, items)):
        i = first.setdefault(u, j)
        if i != j and (best is None or i < best[0]):
            best = (i, j)
    return None if best is None else (items[best[0]], items[best[1]])


def natural_order(items) -> list:
    """`items` sorted, or by (type name, repr) when mixed types have no
    common order."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=lambda item: (type(item).__name__, repr(item)))


def _views_of(entity: Entity, kind: RelationKind, a, b):
    """(view of a, view of b, orthogonality of views), after the checks of
    `relation_views` and `_require_item`."""
    view, orthogonal_views = relation_views(entity, kind)
    _require_item(entity, kind, a)
    _require_item(entity, kind, b)
    return view(a), view(b), orthogonal_views


def implies(entity: Entity, kind: RelationKind, a, b) -> bool:
    """Implication a < b for the given relation kind (outcome-set inclusion)."""
    u, v, _ = _views_of(entity, kind, a, b)
    return view_implies(u, v)


def orthogonal(entity: Entity, kind: RelationKind, a, b) -> bool:
    """Orthogonality a | b for the given relation kind (outcome-set disjointness)."""
    u, v, orthogonal_views = _views_of(entity, kind, a, b)
    return orthogonal_views(u, v)


def equivalent(entity: Entity, kind: RelationKind, a, b) -> bool:
    u, v, _ = _views_of(entity, kind, a, b)
    return view_implies(u, v) and view_implies(v, u)


# -- full relation report ----------------------------------------------------


@dataclass(frozen=True)
class ReportSection:
    kind: str
    implications: tuple  # ordered (a, b) pairs with a < b, reflexive pairs included
    orthogonalities: tuple  # ordered (a, b) pairs with a | b (both directions listed)


@dataclass(frozen=True)
class RelationReport:
    sections: tuple

    def section(self, kind_name: str) -> ReportSection:
        for sec in self.sections:
            if sec.kind == kind_name:
                return sec
        raise KeyError(kind_name)


def _scan(entity: Entity, kind: RelationKind, universe) -> ReportSection:
    view, orthogonal_views = relation_views(entity, kind)
    views = [(a, view(a)) for a in universe]
    imp = [(a, b) for a, u in views for b, v in views if view_implies(u, v)]
    orth = [(a, b) for a, u in views for b, v in views if a != b and orthogonal_views(u, v)]
    return ReportSection(kind.describe(), tuple(imp), tuple(orth))


def relation_report(entity: Entity) -> RelationReport:
    """Every implication/orthogonality pair for all seven relation kinds.

    Pairs are enumerated in lexicographic order so the report is deterministic;
    reflexive implications are listed, orthogonal pairs appear in both orders.
    """
    states = sorted(entity.states)
    experiments = sorted(entity.experiments)
    couples = entity.couples()
    outcomes = sorted(entity.outcomes)

    sections = [
        _scan(entity, RelationKind.central(), couples),
        _scan(entity, RelationKind.state_global(), states),
        _scan(entity, RelationKind.experiment_global(), experiments),
        _scan(entity, RelationKind.outcome_global(), outcomes),
    ]
    for e in experiments:
        sections.append(_scan(entity, RelationKind.state_for(e), states))
    for p in states:
        sections.append(_scan(entity, RelationKind.experiment_for(p), experiments))
    for e, p in couples:
        sections.append(_scan(entity, RelationKind.outcome_for(e, p), sorted(entity._table[(e, p)])))
    return RelationReport(tuple(sections))
