"""Determination / atomicity classification of entities and the T0/T1
separation axioms of the eigen closure systems, with the equivalence theorems
run as internal cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closure import ClosureSystem, eigen_closure_system, entity_ortho_space, ortho_closure_system
from .entity import Entity, RelationKind, _holder_index, _holder_masks, first_equivalent_pair, natural_order, relation_views
from .errors import ConsistencyError
from .statprop import indistinguishable_pair


def _atomic(items, members, run, holders=None):
    """No item implies a distinct one, an item's view being its cells run(m)
    (in item order) over the members m. Returns (flag, least implying pair).

    The items that a implies are the AND, over the members, of the holder
    masks of a's outcomes there (holders(m), or else built from run(m)), less
    a. Bit i is items[i], so the first a with a nonzero mask, and its lowest
    bit, are the least pair. A member is read when the scan first reaches it;
    the scan leaves a once its mask is 0."""
    columns = []  # (cells of the items, their holder masks) per member reached
    for i in range(len(items)):
        above = ~(1 << i)  # every item but a; the first AND makes it a mask
        for j, member in enumerate(members):
            if j == len(columns):
                cells = run(member)
                columns.append((cells, _holder_masks(cells) if holders is None else holders(member)))
            cells, has = columns[j]
            for x in cells[i]:
                above &= has[x]
            if not above:
                break
        if above:
            return (False, (items[i], items[(above & -above).bit_length() - 1]))
    return (True, None)


def is_outcome_determined(entity: Entity):
    """Distinct couples have distinct outcome sets (a couple's central view is
    its one cell). Returns (flag, least pair with equal views)."""
    pair = first_equivalent_pair(entity.couples(), entity._table.__getitem__)
    return (pair is None, pair)


def is_state_determined(entity: Entity):
    """Distinct states differ under some experiment."""
    pair = first_equivalent_pair(sorted(entity.states), relation_views(entity, RelationKind.state_global())[0])
    return (pair is None, pair)


def is_experiment_determined(entity: Entity):
    """Distinct experiments differ in some state."""
    pair = first_equivalent_pair(sorted(entity.experiments), relation_views(entity, RelationKind.experiment_global())[0])
    return (pair is None, pair)


def satisfies_T0(system: ClosureSystem):
    """Distinct points have distinct singleton closures: the generators
    missing them differ ("clarifying" a formal context groups the points by
    those). Returns (flag, least pair with equal closures, in `natural_order`)."""
    pair = first_equivalent_pair(natural_order(system.ground), system._missed_by().__getitem__)
    return (pair is None, pair)


def satisfies_T1(system: ClosureSystem):
    """Every singleton is closed. Returns (flag, least point whose singleton
    is not closed, by `str`, then type name and `repr`, whatever the hash
    seed): the points are scanned in that order until one is unclosed."""
    items = system._order.items
    for i in sorted(range(len(items)), key=lambda j: (str(items[j]), type(items[j]).__name__, repr(items[j]))):
        if system._close(1 << i) != 1 << i:
            return (False, items[i])
    return (True, None)


def is_central_atomic(entity: Entity):
    """No couple strictly implies another."""
    index = _holder_index(entity)
    return _atomic(entity.couples(), [None], lambda _: index.cells, index.rows("central").__getitem__)


def is_state_atomic(entity: Entity):
    index = _holder_index(entity)
    return _atomic(index.states.items, index.experiments.items, index.row)


def is_experiment_atomic(entity: Entity):
    index = _holder_index(entity)
    return _atomic(index.experiments.items, index.states.items, index.column)


def _d_classical_witness(entity: Entity):
    """The first couple whose cell is not a singleton, or None."""
    return next((couple for couple, cell in entity.cells() if len(cell) != 1), None)


def is_d_classical(entity: Entity) -> bool:
    """Every cell is a singleton: each experiment has a determined outcome."""
    return _d_classical_witness(entity) is None


# The eight flags in report order, each with its witness search: a flag holds
# exactly when its search finds no witness. The predicates are looked up when
# called, so a wrapper installed over this module's names sees every call.
_SEARCHES = (
    ("outcome_determined", lambda entity: is_outcome_determined(entity)[1]),
    ("state_determined", lambda entity: is_state_determined(entity)[1]),
    ("experiment_determined", lambda entity: is_experiment_determined(entity)[1]),
    ("central_atomic", lambda entity: is_central_atomic(entity)[1]),
    ("state_atomic", lambda entity: is_state_atomic(entity)[1]),
    ("experiment_atomic", lambda entity: is_experiment_atomic(entity)[1]),
    ("d_classical", _d_classical_witness),
    ("distinguishable", indistinguishable_pair),
)


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
        return {name: getattr(self, name) for name, _ in _SEARCHES}


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
    found = {name: search(entity) for name, search in _SEARCHES}
    report = ClassificationReport(
        **{name: witness is None for name, witness in found.items()},
        witnesses={name: witness for name, witness in found.items() if witness is not None},
    )
    flag = report.flags()

    central, states, experiments = (eigen_closure_system(entity, on) for on in ("central", "states", "experiments"))
    # (determination, atomicity and system name, eigen closure system)
    scopes = (("outcome", "central", central), ("state", "state", states), ("experiment", "experiment", experiments))
    for det, on, system in scopes:
        determined = flag[f"{det}_determined"]
        _cross_check(f"{det} determination is T0 of the {on} system", determined == satisfies_T0(system)[0])
    for _, on, system in scopes:
        _cross_check(f"{on} atomicity is T1 of the {on} system", flag[f"{on}_atomic"] == satisfies_T1(system)[0])
    for det, on, _ in scopes:
        atomic = flag[f"{on}_atomic"]
        _cross_check(f"{on} atomic entities are {det} determined", not atomic or flag[f"{det}_determined"])

    if report.d_classical:
        for name, kind, pool in (
            ("states", RelationKind.state_global(), entity.states),
            ("experiments", RelationKind.experiment_global(), entity.experiments),
        ):
            view, orthogonal = relation_views(entity, kind)
            views = list(dict.fromkeys(map(view, pool)))  # each distinct view once
            _cross_check(
                f"deterministic {name} are equivalent or orthogonal",
                all(orthogonal(u, v) for i, u in enumerate(views) for v in views[i + 1:]),
            )
        _cross_check(
            "deterministic entities have matching eigen and ortho central closures",
            central == ortho_closure_system(entity_ortho_space(entity, "central")),
        )
        for det, on, _ in scopes:
            _cross_check(
                f"deterministic determination forces {on} atomicity",
                not flag[f"{det}_determined"] or flag[f"{on}_atomic"],
            )
    return report
