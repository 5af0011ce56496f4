"""Determination / atomicity classification of entities and the T0/T1
separation axioms of the eigen closure systems, with the equivalence theorems
run as internal cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closure import ClosureSystem, eigen_closure_system, entity_ortho_space, ortho_closure_system
from .entity import Entity, RelationKind, first_equivalent_pair, first_pair, relation_views, view_implies
from .errors import ConsistencyError
from .statprop import indistinguishable_pair


def _determined(entity: Entity, kind: RelationKind, items):
    """No two distinct items have equal views. Returns (flag, least equal pair)."""
    view, _ = relation_views(entity, kind)
    pair = first_equivalent_pair(items, view)
    return (pair is None, pair)


def _atomic(entity: Entity, kind: RelationKind, items):
    """No item implies a distinct one. Returns (flag, least implying pair)."""
    view, _ = relation_views(entity, kind)
    pair = first_pair(items, view, view_implies)
    return (pair is None, pair)


def is_outcome_determined(entity: Entity):
    """Distinct couples have distinct outcome sets. Returns (flag, witness)."""
    return _determined(entity, RelationKind.central(), entity.couples())


def is_state_determined(entity: Entity):
    """Distinct states differ under some experiment."""
    return _determined(entity, RelationKind.state_global(), sorted(entity.states))


def is_experiment_determined(entity: Entity):
    """Distinct experiments differ in some state."""
    return _determined(entity, RelationKind.experiment_global(), sorted(entity.experiments))


def satisfies_T0(system: ClosureSystem):
    """Distinct points have distinct singleton closures. Returns (flag, least
    pair of points with equal closures)."""
    pair = first_equivalent_pair(sorted(system.ground), lambda w: system.closure_of({w}))
    return (pair is None, pair)


def satisfies_T1(system: ClosureSystem):
    """Every singleton is closed."""
    witness = next((w for w in sorted(system.ground, key=str) if system.closure_of({w}) != {w}), None)
    return (witness is None, witness)


def is_central_atomic(entity: Entity):
    """No couple strictly implies another."""
    return _atomic(entity, RelationKind.central(), entity.couples())


def is_state_atomic(entity: Entity):
    return _atomic(entity, RelationKind.state_global(), sorted(entity.states))


def is_experiment_atomic(entity: Entity):
    return _atomic(entity, RelationKind.experiment_global(), sorted(entity.experiments))


def is_d_classical(entity: Entity) -> bool:
    """Every cell is a singleton: each experiment has a determined outcome."""
    return all(len(cell) == 1 for _, cell in entity.cells())


def _d_classical_witness(entity: Entity):
    for couple, cell in entity.cells():
        if len(cell) != 1:
            return couple
    return None


@dataclass(frozen=True)
class ClassificationReport:
    """Flags plus a counterexample witness for every flag that is False."""

    outcome_determined: bool
    state_determined: bool
    experiment_determined: bool
    central_atomic: bool
    state_atomic: bool
    experiment_atomic: bool
    d_classical: bool
    distinguishable: bool
    witnesses: dict = field(default_factory=dict, compare=False)

    def flags(self) -> dict:
        return {
            "outcome_determined": self.outcome_determined,
            "state_determined": self.state_determined,
            "experiment_determined": self.experiment_determined,
            "central_atomic": self.central_atomic,
            "state_atomic": self.state_atomic,
            "experiment_atomic": self.experiment_atomic,
            "d_classical": self.d_classical,
            "distinguishable": self.distinguishable,
        }


def _cross_check(name: str, condition: bool) -> None:
    if not condition:
        raise ConsistencyError(f"classification cross-check failed: {name} (kernel bug)")


def classify(entity: Entity) -> ClassificationReport:
    """Full classification report.

    Internally re-derives every flag through the corresponding separation
    axiom of the eigen closure systems and asserts the equivalences, the
    atomic-implies-determined implications, and the deterministic-entity
    consequences; any mismatch raises ConsistencyError.
    """
    out_det, w_out = is_outcome_determined(entity)
    st_det, w_st = is_state_determined(entity)
    ex_det, w_ex = is_experiment_determined(entity)
    c_atomic, w_ca = is_central_atomic(entity)
    s_atomic, w_sa = is_state_atomic(entity)
    e_atomic, w_ea = is_experiment_atomic(entity)
    d_cls = is_d_classical(entity)

    central = eigen_closure_system(entity, "central")
    states = eigen_closure_system(entity, "states")
    experiments = eigen_closure_system(entity, "experiments")

    _cross_check("outcome determination is T0 of the central system", out_det == satisfies_T0(central)[0])
    _cross_check("state determination is T0 of the state system", st_det == satisfies_T0(states)[0])
    _cross_check(
        "experiment determination is T0 of the experiment system",
        ex_det == satisfies_T0(experiments)[0],
    )
    _cross_check("central atomicity is T1 of the central system", c_atomic == satisfies_T1(central)[0])
    _cross_check("state atomicity is T1 of the state system", s_atomic == satisfies_T1(states)[0])
    _cross_check(
        "experiment atomicity is T1 of the experiment system",
        e_atomic == satisfies_T1(experiments)[0],
    )
    _cross_check("central atomic entities are outcome determined", (not c_atomic) or out_det)
    _cross_check("state atomic entities are state determined", (not s_atomic) or st_det)
    _cross_check("experiment atomic entities are experiment determined", (not e_atomic) or ex_det)

    if d_cls:
        for name, kind, pool in (
            ("states", RelationKind.state_global(), sorted(entity.states)),
            ("experiments", RelationKind.experiment_global(), sorted(entity.experiments)),
        ):
            view, orthogonal = relation_views(entity, kind)
            _cross_check(
                f"deterministic {name} are equivalent or orthogonal",
                first_pair(pool, view, lambda u, v: u != v and not orthogonal(u, v), ordered=False) is None,
            )
        _cross_check(
            "deterministic entities have matching eigen and ortho central closures",
            central == ortho_closure_system(entity_ortho_space(entity, "central")),
        )
        _cross_check("deterministic determination forces central atomicity", (not out_det) or c_atomic)
        _cross_check("deterministic determination forces state atomicity", (not st_det) or s_atomic)
        _cross_check(
            "deterministic determination forces experiment atomicity", (not ex_det) or e_atomic
        )

    overlapping = indistinguishable_pair(entity)
    distinguishable = overlapping is None
    witnesses = {}
    for name, flag, witness in (
        ("outcome_determined", out_det, w_out),
        ("state_determined", st_det, w_st),
        ("experiment_determined", ex_det, w_ex),
        ("central_atomic", c_atomic, w_ca),
        ("state_atomic", s_atomic, w_sa),
        ("experiment_atomic", e_atomic, w_ea),
        ("d_classical", d_cls, _d_classical_witness(entity)),
        ("distinguishable", distinguishable, overlapping),
    ):
        if not flag:
            witnesses[name] = witness
    return ClassificationReport(
        outcome_determined=out_det,
        state_determined=st_det,
        experiment_determined=ex_det,
        central_atomic=c_atomic,
        state_atomic=s_atomic,
        experiment_atomic=e_atomic,
        d_classical=d_cls,
        distinguishable=distinguishable,
        witnesses=witnesses,
    )
