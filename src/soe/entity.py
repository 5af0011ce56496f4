"""Finite experiment-state-outcome entities and their pairwise relations.

An entity is a finite set of states, a finite set of experiments, and for
every (experiment, state) pair the nonempty set of outcomes that can occur.
Everything else in this package is computed from that table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_, xor
from types import MappingProxyType

from .errors import ContractError, EntityValidationError, UnknownIdentifierError

# \s matches exactly the characters str.isspace accepts
_FORBIDDEN_CHARACTER = re.compile(r"[\s,=#\[\]]")
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digit -> compress flag


def check_identifier(kind: str, token) -> None:
    """The identifier rule: a nonempty string with no whitespace character
    (any that str.isspace accepts, since the text format splits lines and
    words on all of them) and none of , = # [ ]; raises EntityValidationError
    naming the kind."""
    if not isinstance(token, str) or not token:
        raise EntityValidationError(f"{kind} identifier must be a nonempty string, got {token!r}")
    if _FORBIDDEN_CHARACTER.search(token):
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

    # _holders: the holder index (`_holder_index`), set on first use
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
        ordered_states = sorted(states)
        for e in sorted(experiments):
            for p in ordered_states:
                key = (e, p)  # one tuple per cell, for the lookup and the store
                try:
                    cell = table[key]
                except KeyError:
                    raise EntityValidationError(f"missing outcome set for cell ({e}, {p})") from None
                if isinstance(cell, str):
                    raise EntityValidationError(f"outcome set for cell ({e}, {p}) is the string {cell!r}, not a set")
                try:
                    cell = frozenset(cell)
                except TypeError:  # not iterable, or an outcome that cannot be hashed
                    raise EntityValidationError(f"outcome set for cell ({e}, {p}) is not a set of outcomes: {cell!r}") from None
                if not cell:
                    raise EntityValidationError(f"outcome set for cell ({e}, {p}) is empty")
                cells[key] = cell
        if len(table) != len(cells):  # every cell was found, so the table holds more
            raise EntityValidationError(f"table has cells outside E x Sigma: {natural_order(set(table) - set(cells))}")

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
        object.__setattr__(self, "_table", MappingProxyType(cells))  # in couple order, which whole-table readers walk

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
        """All (experiment, state) pairs in couple order: sorted experiments, then sorted states."""
        return list(self._table)

    def cells(self):
        """Iteration over ((e, p), O(e, p)) in couple order."""
        return iter(self._table.items())


def outcome_set(entity: Entity, e, p) -> frozenset:
    return entity.outcome_set(e, p)


def eigen_outcome(entity: Entity, e, p):
    """The unique outcome of (e, p) when the couple is eigen, else None."""
    cell = entity.outcome_set(e, p)
    if len(cell) == 1:
        return next(iter(cell))
    return None


# -- the holder index ---------------------------------------------------------


class _Order:
    """An order of items for bit masks: bit i stands for items[i]."""

    __slots__ = ("items", "ground", "full", "_position", "_ranks")

    def __init__(self, items, ground=None):
        self.items = tuple(items)
        self.ground = frozenset(self.items) if ground is None else ground
        self.full = (1 << len(self.items)) - 1
        self._position = None
        self._ranks = None

    @property
    def position(self) -> dict:  # item -> its bit, built on first use
        if self._position is None:
            self._position = {a: i for i, a in enumerate(self.items)}
        return self._position

    def mask(self, K) -> int:
        """The mask of K, a set of items: 1 << i ORed over their positions."""
        return reduce(or_, map((1).__lshift__, map(self.position.__getitem__, K)), 0)

    def ranks(self) -> list:
        """The item positions sorted by the items' `str` (stably, so ties keep
        item order), built on first use: entry r is the bit of the item of rank r."""
        if self._ranks is None:
            items = self.items
            self._ranks = sorted(range(len(items)), key=lambda i: str(items[i]))
        return self._ranks

    def entries(self, A, seq=None):
        """The entries of `seq` (default: the items) at mask A's set bits, in one pass over its digits."""
        return compress(self.items if seq is None else seq, bin(A)[:1:-1].encode().translate(_DIGIT_FLAGS))

    def decode(self, A) -> frozenset:
        """The items of mask A."""
        return frozenset(self.entries(A))

    def same(self, other) -> bool:
        return self is other or self.items == other.items


def _holder_masks(cells) -> dict:
    """has[x] for cells given in item order: the mask of the items whose cell
    holds outcome x, bit i for the i-th item."""
    has = {}
    for i, cell in enumerate(cells):
        for x in cell:
            has[x] = has.get(x, 0) | 1 << i
    return has


class _Holders:
    """The holder index of an entity: one canonical order of its states
    (sorted), experiments (sorted) and couples (the table's), its cells in
    couple order, where a row is a run and a column a stride, and the holder
    masks has[x] of every row over them, each kind built on first use. Held
    on the entity, which is immutable (`_holder_index`)."""

    __slots__ = ("states", "experiments", "cells", "_table", "_couples", "_rows")

    def __init__(self, entity: Entity):
        self.states = _Order(sorted(entity.states), entity.states)
        self.experiments = _Order(sorted(entity.experiments), entity.experiments)
        self._table = entity._table  # not the entity, which holds the index
        self.cells = tuple(self._table.values())
        self._couples = None
        self._rows = {}

    @property
    def couples(self) -> _Order:
        if self._couples is None:
            self._couples = _Order(self._table)
        return self._couples

    def row(self, e) -> tuple:  # e's cells over the sorted states
        n, i = len(self.states.items), self.experiments.position[e]
        return self.cells[i * n:(i + 1) * n]

    def column(self, p) -> tuple:  # p's cells over the sorted experiments
        return self.cells[self.states.position[p]::len(self.states.items)]

    def rows(self, on: str) -> dict:
        """{scope: has} for on='states' (each experiment's row over the
        states), on='experiments' (each state's row over the experiments) or
        on='central' ({None: has} over the couples)."""
        rows = self._rows.get(on)
        if rows is None:
            if on == "states":
                rows = {e: _holder_masks(self.row(e)) for e in self.experiments.items}
            elif on == "experiments":
                rows = {p: _holder_masks(self.column(p)) for p in self.states.items}
            else:  # couple (e, p) has bit i * |states| + j, from e's row over the states
                central = {}
                for i, has in enumerate(self.rows("states").values()):
                    shift = i * len(self.states.items)
                    for x, h in has.items():
                        central[x] = central.get(x, 0) | h << shift
                rows = {None: central}
            self._rows[on] = rows
        return rows


def _shared_masks(order: _Order, cells) -> dict:
    """x -> the mask over `order` of the outcomes sharing one of `cells` with x."""
    shared = dict.fromkeys(order.items, 0)
    for cell in cells:
        mask = order.mask(cell)
        for x in cell:
            shared[x] |= mask
    return shared


def _holder_index(entity: Entity) -> _Holders:
    """The entity's holder index, built on first use and kept on the entity."""
    try:
        return entity._holders
    except AttributeError:
        index = _Holders(entity)
        object.__setattr__(entity, "_holders", index)
        return index


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

    `view(item)` reads a plain item's view unchecked: a state's cells over
    the experiments in scope, an experiment's over the states in scope (all
    of them, sorted, for a global kind: a column or a row of the holder index),
    a couple's one cell, or an outcome's one-outcome event. Views imply by `view_implies`;
    `orthogonal(u, v)` holds when some member of u is disjoint from the
    matching member of v, and for events when both lie inside one cell in scope.
    """
    _validate_kind(entity, kind)
    table = entity._table
    if kind.on in ("state", "experiment"):  # a state's cells are a column, an experiment's a row
        index = _holder_index(entity)
        if kind.on == "state":
            whole, run, scope, at = index.column, index.row, kind.experiment, index.states.position
        else:
            whole, run, scope, at = index.row, index.column, kind.state, index.experiments.position
        if scope is None:
            return whole, _some_member_disjoint
        cells = run(scope)
        return (lambda a: (cells[at[a]],)), _some_member_disjoint
    if kind.on == "central":
        return (lambda couple: (table[couple],)), _some_member_disjoint
    cells = [table[(kind.experiment, kind.state)]] if kind.experiment is not None else set(table.values())

    def events_orthogonal(u, v):
        (a,), (b,) = u, v
        return a.isdisjoint(b) and any(a <= cell and b <= cell for cell in cells)

    return (lambda x: (frozenset((x,)),)), events_orthogonal


def first_equivalent_pair(items, view):
    """The first pair (a, b) of `items`, a before b, with equal views, or
    None; over sorted items, the least such pair. O(n), and the scan stops
    at a pair starting at the first item, which no later pair precedes."""
    first = {}
    best = None
    for j, u in enumerate(map(view, items)):
        i = first.setdefault(u, j)
        if i != j and (best is None or i < best[0]):
            best = (i, j)
            if i == 0:
                break
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


def _section(kind: RelationKind, order: _Order, below, apart) -> ReportSection:
    """The section listing, for each item a of `order`, (a, b) for each b at
    the set bits of a's mask in `below` (implications), then in `apart`."""
    items, entries = order.items, order.entries
    return ReportSection(
        kind.describe(),
        tuple([(a, b) for a, mask in zip(items, below) for b in entries(mask)]),
        tuple([(a, b) for a, mask in zip(items, apart) for b in entries(mask)]),
    )


def _scoped_sections(order: _Order, rows: dict, run, kind, scoped_kind=None) -> list:
    """The section of one item kind, then, if `scoped_kind` names them, one
    per scope of `rows` (cells run(scope)): b lies below a when b's cell holds
    a's in every scope (AND of has[x] over a's cell), and apart when it misses a's in some."""
    full, n = order.full, len(order.items)
    below, apart, sections = [full] * n, [0] * n, []
    for scope, has in rows.items():
        masks = [[has[x] for x in cell] for cell in run(scope)]
        scope_below, scope_apart = [reduce(and_, m) for m in masks], [full & ~reduce(or_, m) for m in masks]
        if scoped_kind:
            sections.append(_section(scoped_kind(scope), order, scope_below, scope_apart))
        below, apart = list(map(and_, below, scope_below)), list(map(or_, apart, scope_apart))
    return [_section(kind, order, below, apart), *sections]


def relation_report(entity: Entity) -> RelationReport:
    """Every implication/orthogonality pair for all seven relation kinds.

    Pairs are enumerated in lexicographic order so the report is deterministic;
    reflexive implications are listed, orthogonal pairs appear in both orders.
    Each section decodes two masks per item: over the holder index, a implies
    the AND of has[x] over its cells (the derivation operator of Ganter and
    Wille, Formal Concept Analysis, 1999) and is apart from the items whose cell
    misses its own in some scope. Outcomes sharing a cell in scope are apart.
    """
    index = _holder_index(entity)
    (central,) = _scoped_sections(index.couples, index.rows("central"), lambda _: index.cells, RelationKind.central())
    state, *state_for = _scoped_sections(index.states, index.rows("states"), index.row,
                                         RelationKind.state_global(), RelationKind.state_for)
    experiment, *experiment_for = _scoped_sections(index.experiments, index.rows("experiments"), index.column,
                                                   RelationKind.experiment_global(), RelationKind.experiment_for)
    outcomes = _Order(sorted(entity.outcomes), entity.outcomes)
    shared = _shared_masks(outcomes, set(index.cells))
    bits = [1 << i for i in range(len(outcomes.items))]
    outcome = _section(RelationKind.outcome_global(), outcomes, bits, list(map(xor, shared.values(), bits)))
    outcome_for = []
    for (e, p), cell in entity.cells():  # in one cell, every two distinct outcomes are orthogonal
        cell = sorted(cell)
        outcome_for.append(ReportSection(RelationKind.outcome_for(e, p).describe(), tuple([(x, x) for x in cell]),
                                         tuple([(x, y) for x in cell for y in cell if x != y])))
    return RelationReport((central, state, experiment, outcome, *state_for, *experiment_for, *outcome_for))
