"""Generalized probability measures on finite entities.

A table stores probabilities for atomic (experiment, state, outcome) triples
only; event and mixture values are derived by finite summation, which is what
the additivity axiom forces on a finite entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .classify import is_d_classical
from .diagnostics import Diagnostics
from .entity import Entity, RelationKind
from .errors import ContractError
from .mixture import (
    Event,
    MixedExperiment,
    MixedState,
    _coerce_experiments,
    _coerce_states,
    _known_base,
    mixed_orthogonal,
)

NORMALIZATION_TOL = 1e-9


class ProbabilityTable:
    """Map (experiment, state, outcome) -> probability; absent triples are 0."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        fixed = {}
        for (e, p, x), value in entries.items():
            value = float(value)
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"probability out of range at ({e}, {p}, {x}): {value}")
            if value:
                fixed[(e, p, x)] = value
        object.__setattr__(self, "entries", MappingProxyType(fixed))

    def __setattr__(self, name, value):
        raise AttributeError("ProbabilityTable is immutable")

    def __eq__(self, other):
        if not isinstance(other, ProbabilityTable):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __call__(self, e, p, x) -> float:
        return self.entries.get((e, p, x), 0.0)


@dataclass(frozen=True)
class ProbabilisticEntity:
    """An entity together with its nonempty set of probability measures."""

    entity: Entity
    measures: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.measures:
            raise ContractError("a probabilistic entity needs at least one measure")


def validate_measure(entity: Entity, table: ProbabilityTable, tol: float = NORMALIZATION_TOL) -> Diagnostics:
    """Check support, per-cell normalization, and additivity over event
    partitions of each cell.

    A possible outcome carrying zero probability is reported as a warning in
    the details, not a failure; whether possibility forces strict positivity
    is left open here.
    """
    diag = Diagnostics()
    known = {(e, p) for e in entity.experiments for p in entity.states}
    for (e, p, x) in sorted(table.entries):
        if (e, p) not in known:
            diag.record("support.known_cell", False, f"({e}, {p}) is not a cell of the entity")
            continue
        if x not in entity.outcome_set(e, p):
            diag.record(
                "support.inside_cell",
                False,
                f"probability {table(e, p, x):.12g} on impossible outcome {x} of ({e}, {p})",
            )
    diag.checks.setdefault("support.known_cell", True)
    diag.checks.setdefault("support.inside_cell", True)

    zero_warnings = []
    for (e, p), cell in entity.cells():
        total = sum(table(e, p, x) for x in cell)
        diag.record(
            "normalization.cell_sums_to_one",
            abs(total - 1.0) <= tol,
            lambda: f"({e}, {p}) sums to {total:.12g}",
        )
        ordered = sorted(cell)
        for x in ordered:
            if table(e, p, x) == 0.0:
                zero_warnings.append(f"({e}, {p}, {x})")
        # additivity across a two-block partition of the cell
        block = frozenset(ordered[: max(1, len(ordered) // 2)])
        rest = cell - block
        lhs = event_probability(entity, table, e, p, Event(cell))
        rhs = event_probability(entity, table, e, p, Event(block)) + (
            event_probability(entity, table, e, p, Event(rest)) if rest else 0.0
        )
        diag.record(
            "additivity.partition",
            abs(lhs - rhs) <= tol,
            lambda: f"({e}, {p}): {lhs:.12g} != {rhs:.12g}",
        )
    if zero_warnings:
        diag.details["zero_probability_possible_outcomes"] = zero_warnings
    return diag


def event_probability(entity: Entity, table: ProbabilityTable, e, p, event) -> float:
    """Probability of the event: the sum over its outcomes inside O(e, p).
    An event naming an outcome the entity lacks is refused with the
    ContractError of `mixed_outcome_set`; the empty event reads 0."""
    cell = entity.outcome_set(e, p)
    A = _known_base(entity.outcomes, Event(event))
    return sum(table(e, p, x) for x in sorted(A & cell))


def mixed_probability(entity: Entity, table: ProbabilityTable, experiments, states, event) -> float:
    """Value of the measure on a mixed triple, derived by summation over atoms.
    Empty or unknown experiments or states, and an event naming an unknown
    outcome, are refused as `mixed_outcome_set` refuses them; the empty event
    reads 0."""
    E, P = _coerce_experiments(entity, experiments), _coerce_states(entity, states)
    A = _known_base(entity.outcomes, Event(event))
    return sum(
        table(e, p, x)
        for e in sorted(E)
        for p in sorted(P)
        for x in sorted(A & entity.outcome_set(e, p))
    )


def mixed_additivity_check(entity: Entity, table: ProbabilityTable, experiment_family, state_family, event_family, tol: float = NORMALIZATION_TOL) -> Diagnostics:
    """Verify the triple-sum identity on pairwise-orthogonal finite families:
    the measure of the three suprema equals the sum over the family triples.

    Raises if any family is not pairwise orthogonal (that is the identity's
    hypothesis, not a diagnostic).
    """
    exps = [MixedExperiment(f) for f in experiment_family]
    stas = [MixedState(f) for f in state_family]
    evts = [Event(f) for f in event_family]
    if not (exps and stas and evts):
        raise ContractError("all three families must be nonempty")
    for pool, kind in (
        (exps, RelationKind.experiment_global()),
        (stas, RelationKind.state_global()),
        (evts, RelationKind.outcome_global()),
    ):
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                if not mixed_orthogonal(entity, kind, a, b):
                    raise ContractError(
                        f"family members {sorted(a.base)} and {sorted(b.base)} are not orthogonal"
                    )
    diag = Diagnostics()
    union_E = frozenset().union(*(f.base for f in exps))
    union_P = frozenset().union(*(f.base for f in stas))
    union_A = frozenset().union(*(f.base for f in evts))
    lhs = mixed_probability(entity, table, union_E, union_P, union_A)
    # the block side sums raw table entries, without restricting events to the
    # possible-outcome cells: any stored mass on impossible outcomes of the
    # families shows up as a residual against the event-semantics value
    rhs = sum(
        table(e, p, x)
        for ef in exps
        for sf in stas
        for vf in evts
        for e in sorted(ef.base)
        for p in sorted(sf.base)
        for x in sorted(vf.base)
    )
    diag.details["supremum_value"] = lhs
    diag.details["triple_sum"] = rhs
    diag.details["residual"] = abs(lhs - rhs)
    diag.record("additivity.triple_sum", abs(lhs - rhs) <= tol, f"residual {abs(lhs - rhs):.12g}")
    return diag


def d_classical_measure(entity: Entity) -> ProbabilityTable:
    """The deterministic 0/1 measure of an entity whose cells are singletons."""
    if not is_d_classical(entity):
        raise ContractError("the deterministic measure exists only when every cell is a singleton")
    return ProbabilityTable(
        {(e, p, next(iter(cell))): 1.0 for (e, p), cell in entity.cells()}
    )
