"""Mixed states, mixed experiments, and events: subset-indexed lack-of-knowledge
objects, their extended relations, supremum verification, and the full mixed
entity materialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .entity import Entity, RelationKind, natural_order, relation_views, view_implies
from .errors import CapacityError, ContractError, EntityValidationError

FULL_MIXED_BUDGET = 2**16  # cap on 2^|states| * 2^|experiments|


def _as_base(entity_set, sub, what, mixture_type) -> frozenset:
    if isinstance(sub, mixture_type):
        sub = sub.base
    elif isinstance(sub, str):
        sub = {sub}
    elif isinstance(sub, (MixedState, MixedExperiment, Event)) or not hasattr(sub, "__iter__"):
        raise ContractError(f"a mixed {what} is given as {mixture_type.__name__} or an iterable of identifiers, got {sub!r}")
    base = frozenset(sub)
    if not base:
        raise ContractError(f"a mixed {what} needs a nonempty base set")
    stray = base - entity_set
    if stray:
        raise ContractError(f"mixed {what} base contains unknown identifiers: {natural_order(stray)}")
    return base


@dataclass(frozen=True)
class MixedState:
    """Lack of knowledge about the state: the entity is in one state of `base`."""

    base: frozenset

    def __init__(self, base):
        object.__setattr__(self, "base", frozenset(base))


@dataclass(frozen=True)
class MixedExperiment:
    """Lack of knowledge about the experiment: one experiment of `base` is performed."""

    base: frozenset

    def __init__(self, base):
        object.__setattr__(self, "base", frozenset(base))


@dataclass(frozen=True)
class Event:
    """Lack of knowledge about the outcome: one outcome of `base` occurred."""

    base: frozenset

    def __init__(self, base):
        object.__setattr__(self, "base", frozenset(base))


def _coerce_states(entity: Entity, value) -> frozenset:
    return _as_base(entity.states, value, "state", MixedState)


def _coerce_experiments(entity: Entity, value) -> frozenset:
    return _as_base(entity.experiments, value, "experiment", MixedExperiment)


def _coerce_event(entity: Entity, value) -> frozenset:
    return _as_base(entity.outcomes, value, "event", Event)


def _grid(entity: Entity, experiments, states) -> list:
    E, P = _coerce_experiments(entity, experiments), _coerce_states(entity, states)
    return [(e, p) for e in E for p in P]


def mixed_outcome_set(entity: Entity, experiments, states) -> frozenset:
    """O(e(E), p(P)): the union of O(e, p) over e in E, p in P."""
    E = _coerce_experiments(entity, experiments)
    P = _coerce_states(entity, states)
    return frozenset().union(*(entity.outcome_set(e, p) for e in E for p in P))


def _mixed_couple(value):
    if not (isinstance(value, tuple) and len(value) == 2):
        raise ContractError(f"central relations compare (experiments, states) couples, got {value!r}")
    return value


def _plain(entity: Entity, kind: RelationKind):
    """The plain kind a mixed relation reduces to, and the map from a mixture
    to its plain parts. A scoped state or experiment relation is the central
    relation between the couples of the scope and of the mixture."""
    if kind.on == "state" and kind.experiment is None:
        return RelationKind.state_global(), lambda a: _coerce_states(entity, a)
    if kind.on == "experiment" and kind.state is None:
        return RelationKind.experiment_global(), lambda a: _coerce_experiments(entity, a)
    if kind.on == "outcome":
        return kind, lambda a: _coerce_event(entity, a)
    if kind.on == "state":
        return RelationKind.central(), lambda a: _grid(entity, kind.experiment, a)
    if kind.on == "experiment":
        return RelationKind.central(), lambda a: _grid(entity, a, kind.state)
    if kind.on == "central":
        return RelationKind.central(), lambda a: _grid(entity, *_mixed_couple(a))
    raise ContractError(f"unknown relation kind {kind.on!r}")


def mixed_views(entity: Entity, kind: RelationKind):
    """`(view, orthogonal)` of `soe.entity.relation_views` for mixtures: the
    view of a mixture is the member-wise union of the views of its parts."""
    plain, parts = _plain(entity, kind)
    view, orthogonal = relation_views(entity, plain)

    def mixture_view(value):
        return tuple(frozenset().union(*members) for members in zip(*map(view, parts(value))))

    return mixture_view, orthogonal


def mixed_implies(entity: Entity, kind: RelationKind, a, b) -> bool:
    """Implication between mixtures of the kind's type.

    States/experiments/couples compare mixed outcome sets; events compare
    their base sets by inclusion.
    """
    view, _ = mixed_views(entity, kind)
    return view_implies(view(a), view(b))


def mixed_orthogonal(entity: Entity, kind: RelationKind, a, b) -> bool:
    """Orthogonality between mixtures of the kind's type.

    Events are (e,p)-orthogonal when both lie inside O(e,p) and are disjoint;
    the other kinds use disjointness of mixed outcome sets.
    """
    view, orthogonal = mixed_views(entity, kind)
    return orthogonal(view(a), view(b))


def _nonempty_subsets(items):
    items = sorted(items)
    return [
        frozenset(c) for c in chain.from_iterable(combinations(items, r) for r in range(1, len(items) + 1))
    ]


def _guard_budget(entity: Entity, budget: int) -> None:
    if 2 ** len(entity.states) * 2 ** len(entity.experiments) > budget:
        raise CapacityError(
            f"mixture space 2^{len(entity.states)} * 2^{len(entity.experiments)} exceeds budget {budget}"
        )


def is_supremum(entity: Entity, candidate, family, budget: int = FULL_MIXED_BUDGET) -> bool:
    """Whether `candidate` is a supremum of `family` among all mixtures.

    Suprema need not be unique, so the kernel only verifies the defining
    biconditional (every mixture b: all members < b  iff  candidate < b)
    against the complete mixture space of the entity. That space is the work,
    so the budget caps it: 2^|outcomes| events, or 2^|states| * 2^|experiments|
    for the other kinds.
    """
    if isinstance(candidate, Event):
        if 2 ** len(entity.outcomes) > budget:
            raise CapacityError(f"event space 2^{len(entity.outcomes)} exceeds budget {budget}")
        kind, ground = RelationKind.outcome_global(), entity.outcomes
    elif isinstance(candidate, MixedState):
        _guard_budget(entity, budget)
        kind, ground = RelationKind.state_global(), entity.states
    elif isinstance(candidate, MixedExperiment):
        _guard_budget(entity, budget)
        kind, ground = RelationKind.experiment_global(), entity.experiments
    else:
        raise ContractError("candidate must be a MixedState, MixedExperiment, or Event")
    view, _ = mixed_views(entity, kind)
    family_views = [view(f) for f in family]
    if not family_views:
        raise ContractError("the supremum predicate needs a nonempty family")
    upper = view(candidate)
    for b in _nonempty_subsets(ground):
        u = view(b)
        if all(view_implies(a, u) for a in family_views) != view_implies(upper, u):
            return False
    return True


def mixture_id(base) -> str:
    """Deterministic identifier for the mixture on `base`.

    Identifiers that are themselves '+'-joined mixtures contribute their
    atoms, so a mixture of mixtures collapses onto the union of the bases.
    """
    atoms = set()
    for identifier in base:
        atoms.update(identifier.split("+"))
    return "+".join(sorted(atoms))


def _mixtures(items) -> list:
    """(bit mask over the sorted items, mixture_id) of every nonempty subset
    of `items`, in the order of `_nonempty_subsets`."""
    items = sorted(items)
    return [
        (sum(1 << i for i in c), mixture_id(items[i] for i in c))
        for r in range(1, len(items) + 1)
        for c in combinations(range(len(items)), r)
    ]


def _subset_unions(singles, masks, union=frozenset.union) -> list:
    """The value of every mixture in `masks` order (the bit masks of
    `_mixtures`, singletons first), given the values of the single items in
    sorted order: each larger mixture joins the value of the mixture without
    its lowest item with the value of that item, so a mixture costs one
    `union` whatever its size."""
    position = {P: k for k, P in enumerate(masks)}
    values = list(singles)
    for P in masks[len(values):]:
        values.append(union(values[position[P & (P - 1)]], values[position[P & -P]]))
    return values


def full_mixed_entity(entity: Entity, budget: int = FULL_MIXED_BUDGET) -> Entity:
    """The entity whose states/experiments are all nonempty subsets of the
    original ones, with outcome table given by mixed outcome sets.

    Identifiers are minted as '+'-joined sorted base identifiers. Applying
    this to an already-full entity collapses mixtures of mixtures onto the
    mixture over the union of their bases (same minted identifier, same row),
    so the construction is idempotent up to identifiers.

    Each mixed cell is the union of two smaller ones (`_subset_unions`): a
    mixture over several experiments splits off its lowest experiment, and
    over one experiment a mixture over several states splits off its lowest
    state. The budget caps 2^|states| * 2^|experiments|, just above the
    (2^|states| - 1) * (2^|experiments| - 1) cells built, so it matches the
    work.
    """
    _guard_budget(entity, budget)
    experiments, states = sorted(entity.experiments), sorted(entity.states)
    state_ids, experiment_ids = _mixtures(states), _mixtures(experiments)
    state_masks = [P for P, _ in state_ids]
    plain_rows = [_subset_unions([entity._table[(e, p)] for p in states], state_masks) for e in experiments]
    rows = _subset_unions(
        plain_rows, [E for E, _ in experiment_ids], lambda u, v: list(map(frozenset.union, u, v))
    )
    table = {}
    for (_, eid), row in zip(experiment_ids, rows):
        for (_, pid), cell in zip(state_ids, row):
            previous = table.setdefault((eid, pid), cell)
            if previous != cell:
                raise EntityValidationError(
                    f"minted identifier collision with conflicting rows at ({eid}, {pid}); "
                    "rename base identifiers containing '+'"
                )
    return Entity({pid for _, pid in state_ids}, {eid for _, eid in experiment_ids}, table)
