"""Sub-entity witnesses, state-property-system morphisms, and probabilistic
sub-entities: the kernel verifies user-supplied witnesses, it never searches
for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .closure import eig_states, eigen_closure_system
from .diagnostics import Diagnostics
from .entity import Entity, RelationKind, _holder_masks, natural_order, relation_views, view_implies
from .errors import ConsistencyError, ContractError
from .probability import ProbabilisticEntity
from .statprop import StatePropertySystem, _prop_key


@dataclass(frozen=True)
class SubEntityWitness:
    """Connecting functions claiming that one entity is a sub entity of another.

    m sends each state of the big entity to the state the sub entity is in;
    n sends each experiment of the sub entity to its realization on the big
    entity; l sends each outcome of the sub entity to the big-entity outcome
    that occurs with it.
    """

    m: dict  # big state -> small state
    n: dict  # small experiment -> big experiment
    l: dict  # small outcome -> big outcome

    def __init__(self, m, n, l):
        object.__setattr__(self, "m", dict(m))
        object.__setattr__(self, "n", dict(n))
        object.__setattr__(self, "l", dict(l))

    def __hash__(self):
        return hash(
            (
                frozenset(self.m.items()),
                frozenset(self.n.items()),
                frozenset(self.l.items()),
            )
        )

    @classmethod
    def identity(cls, entity: Entity) -> "SubEntityWitness":
        return cls(
            {p: p for p in entity.states},
            {e: e for e in entity.experiments},
            {x: x for x in entity.outcomes},
        )


def _require_total(mapping, domain, what) -> None:
    missing = set(domain) - set(mapping)
    if missing:
        raise ContractError(f"{what} is not total; missing {natural_order(missing)}")


def verify_sub_entity(small: Entity, big: Entity, w: SubEntityWitness) -> Diagnostics:
    """Check the covariance contract of a sub-entity witness.

    Core checks: m surjective onto the small states, n and l injective, and
    for every big state and small experiment, l maps the small cell bijectively
    onto the big cell. When every core check passes, the derived relation
    transports (orthogonality of outcomes/experiments, state implication,
    couple implication/orthogonality both ways) are asserted; those are
    consequences of the core checks, so a violation raises ConsistencyError.
    """
    _require_total(w.m, big.states, "the state map")
    _require_total(w.n, small.experiments, "the experiment map")
    _require_total(w.l, small.outcomes, "the outcome map")
    diag = Diagnostics()

    diag.record(
        "m.values_in_small",
        set(w.m.values()) <= set(small.states),
        f"stray values {sorted(set(map(str, w.m.values())) - set(map(str, small.states)))}",
    )
    diag.record(
        "m.surjective",
        set(w.m.values()) >= set(small.states),
        f"unreached states {sorted(set(small.states) - set(w.m.values()))}",
    )
    diag.record("n.values_in_big", set(w.n.values()) <= set(big.experiments))
    diag.record("n.injective", len(set(w.n.values())) == len(w.n))
    diag.record("l.values_in_big", set(w.l.values()) <= set(big.outcomes))
    diag.record("l.injective", len(set(w.l.values())) == len(w.l))
    if not diag.passed:
        return diag

    experiments = sorted(small.experiments)
    for p_big in sorted(big.states):
        for e in experiments:
            small_cell = small.outcome_set(e, w.m[p_big])
            big_cell = big.outcome_set(w.n[e], p_big)
            image = {w.l[x] for x in small_cell}
            if image != big_cell:  # recorded only when it fails
                diag.record(
                    "covariance.cell_bijection",
                    False,
                    lambda: f"l(O({e}, {w.m[p_big]})) = {sorted(image)} but O({w.n[e]}, {p_big}) = {sorted(big_cell)}",
                )
    diag.checks.setdefault("covariance.cell_bijection", True)
    if not diag.passed:
        return diag

    _assert_transports(small, big, w)
    return diag


def _assert_transports(small: Entity, big: Entity, w: SubEntityWitness) -> None:
    # the core checks passed, so the maps only send identifiers to declared
    # ones, and l is injective. Distinct outcomes are orthogonal when some
    # cell holds both: when their holder masks over the cells meet.
    small_has, big_has = _holder_masks(small._table.values()), _holder_masks(big._table.values())
    outcomes = sorted(small.outcomes)
    for x in outcomes:
        for y in outcomes:
            if x != y and small_has[x] & small_has[y] and not big_has[w.l[x]] & big_has[w.l[y]]:
                raise ConsistencyError(f"outcome orthogonality not transported at ({x}, {y})")
    kind = RelationKind.state_global()
    (small_view, _), (big_view, _) = relation_views(small, kind), relation_views(big, kind)
    # each item's two views are read once, then compared pair by pair
    states = sorted(big.states)
    views = [(p, big_view(p), small_view(w.m[p])) for p in states]
    for p, u, u_small in views:
        for q, v, v_small in views:
            if view_implies(u, v) and not view_implies(u_small, v_small):
                raise ConsistencyError(f"state implication not transported at ({p}, {q})")
    kind = RelationKind.experiment_global()
    (small_view, small_orth), (big_view, big_orth) = relation_views(small, kind), relation_views(big, kind)
    experiments = sorted(small.experiments)
    views = [(e, small_view(e), big_view(w.n[e])) for e in experiments]
    for e, u, u_big in views:
        for f, v, v_big in views:
            if small_orth(u, v) and not big_orth(u_big, v_big):
                raise ConsistencyError(f"experiment orthogonality not transported at ({e}, {f})")
    kind = RelationKind.central()
    (small_view, small_orth), (big_view, big_orth) = relation_views(small, kind), relation_views(big, kind)

    def mismatch(a, b):
        """The couple relation that a and b, two (small view, big view)
        pairs, do not transport, or None."""
        (u, u_big), (v, v_big) = a, b
        if view_implies(u, v) != view_implies(u_big, v_big):
            return "implication"
        if small_orth(u, v) != big_orth(u_big, v_big):
            return "orthogonality"
        return None

    views = {(e, p): (small_view((e, w.m[p])), big_view((w.n[e], p))) for p in big.states for e in small.experiments}
    # both relations read only the two views, so the distinct pairs of views
    # decide every couple pair: each side's inclusion and meet masks over
    # them must agree. The ordered scan only names the first failing pair
    distinct = list(set(views.values()))
    if _cell_relations([u for (u,), _ in distinct]) == _cell_relations([u for _, (u,) in distinct]):
        return
    for p in states:
        for q in states:
            for e in experiments:
                for f in experiments:
                    relation = mismatch(views[e, p], views[f, q])
                    if relation is not None:
                        raise ConsistencyError(f"couple {relation} not equivalent at (({e},{p}), ({f},{q}))")


def _cell_relations(cells) -> list:
    """For each of `cells` in turn, the masks of the cells it lies inside
    (the AND of its outcomes' holder masks) and of the cells it meets (their
    OR), bit j for the j-th cell."""
    has = _holder_masks(cells)
    full = (1 << len(cells)) - 1
    return [(reduce(and_, map(has.__getitem__, cell), full), reduce(or_, map(has.__getitem__, cell), 0)) for cell in cells]


@dataclass(frozen=True)
class SpsMorphism:
    """A couple of functions between state-property systems: m on states
    (contravariant), n on properties (covariant)."""

    m: dict  # big state -> small state
    n: dict  # small property -> big property

    def __init__(self, m, n):
        object.__setattr__(self, "m", dict(m))
        object.__setattr__(self, "n", dict(n))


def verify_sps_morphism(sps: StatePropertySystem, sps_big: StatePropertySystem, mor: SpsMorphism) -> Diagnostics:
    """Check the morphism law (a actual in m(p') iff n(a) actual in p') and,
    when it holds, the derived lattice compatibilities: n preserves meets, top
    and bottom, and the Cartan images satisfy the preimage identity.
    """
    _require_total(mor.m, sps_big.states, "the state map")
    _require_total(mor.n, sps.properties, "the property map")
    diag = Diagnostics()
    diag.record("m.values_in_small", set(mor.m.values()) <= set(sps.states))
    diag.record("n.values_in_big", set(mor.n.values()) <= set(sps_big.properties))
    if not diag.passed:
        return diag

    props = sorted(sps.properties, key=_prop_key)
    for p_big in sorted(sps_big.states):
        for a in props:
            lhs = a in sps.actual[mor.m[p_big]]
            rhs = mor.n[a] in sps_big.actual[p_big]
            diag.record(
                "morphism.actuality_equivalence",
                lhs == rhs,
                lambda: f"property {a!r} at big state {p_big!r}: {lhs} vs {rhs}",
            )
    diag.checks.setdefault("morphism.actuality_equivalence", True)
    if not diag.passed:
        return diag

    diag.record("morphism.top_preserved", mor.n[sps.top] == sps_big.top)
    diag.record("morphism.bottom_preserved", mor.n[sps.bottom] == sps_big.bottom)
    for i, a in enumerate(props):
        for b in props[i:]:
            lhs = mor.n[sps.meet([a, b])]
            rhs = sps_big.meet([mor.n[a], mor.n[b]])
            diag.record(
                "morphism.meet_preserved",
                lhs == rhs,
                lambda: f"n({a!r} meet {b!r})",
            )
    diag.checks.setdefault("morphism.meet_preserved", True)
    for a in props:
        preimage = frozenset(p for p in sps_big.states if mor.m[p] in sps.cartan(a))
        diag.record(
            "morphism.cartan_compatible",
            preimage == sps_big.cartan(mor.n[a]),
            f"property {a!r}",
        )
    diag.checks.setdefault("morphism.cartan_compatible", True)
    return diag


def morphism_from_continuous_map(system_small, system_big, m: dict) -> SpsMorphism:
    """Build the (m, n) couple with n the preimage map on closed sets; valid
    whenever m is continuous (preimages of closed sets are closed)."""
    _require_total(m, system_big.ground, "the state map")
    n = {}
    for F in system_small.members:
        preimage = frozenset(p for p in system_big.ground if m[p] in F)
        if not system_big.is_closed(preimage):
            raise ContractError(f"map is not continuous: preimage of {sorted(map(str, F))} is not closed")
        n[F] = preimage
    return SpsMorphism(m, n)


def preimage_continuity(small: Entity, big: Entity, w: SubEntityWitness) -> Diagnostics:
    """Continuity of m and n for the eigen closure systems, plus the preimage
    identity on the generating eigen sets. Requires a passing witness."""
    if not verify_sub_entity(small, big, w).passed:
        raise ContractError("preimage continuity is only defined for verified sub-entity witnesses")
    return _preimage_continuity(small, big, w)


def _preimage_continuity(small: Entity, big: Entity, w: SubEntityWitness) -> Diagnostics:
    """`preimage_continuity` for a witness that `verify_sub_entity` has passed."""
    diag = Diagnostics()

    # preimages preserve intersections and send the ground to the ground, so
    # a map is continuous when the preimage of every generator is closed
    small_states = eigen_closure_system(small, "states")
    big_states = eigen_closure_system(big, "states")
    for F in sorted(small_states.generators, key=sorted):
        preimage = frozenset(p for p in big.states if w.m[p] in F)
        diag.record(
            "continuity.m_preimages_closed",
            big_states.is_closed(preimage),
            f"m^-1({sorted(map(str, F))})",
        )
    diag.checks.setdefault("continuity.m_preimages_closed", True)

    small_exps = eigen_closure_system(small, "experiments")
    big_exps = eigen_closure_system(big, "experiments")
    for G in sorted(big_exps.generators, key=sorted):
        preimage = frozenset(e for e in small.experiments if w.n[e] in G)
        diag.record(
            "continuity.n_preimages_closed",
            small_exps.is_closed(preimage),
            f"n^-1({sorted(map(str, G))})",
        )
    diag.checks.setdefault("continuity.n_preimages_closed", True)

    for e in sorted(small.experiments):
        full = small.experiment_outcomes(e)
        big_full = big.experiment_outcomes(w.n[e])
        for x in sorted(full):
            A = full - {x}
            small_eig = eig_states(small, e, A)
            lhs = frozenset(p for p in big.states if w.m[p] in small_eig)
            rhs = eig_states(big, w.n[e], frozenset(w.l[y] for y in A) & big_full)
            diag.record(
                "continuity.generator_identity",
                lhs == rhs,
                f"experiment {e}, dropped outcome {x}",
            )
    diag.checks.setdefault("continuity.generator_identity", True)
    return diag


@dataclass(frozen=True)
class ProbabilityCorrespondence:
    """Pairs (measure of the sub entity, measure of the big entity) realizing
    the injective transport k."""

    pairs: tuple

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", tuple(pairs))


def verify_probabilistic_sub_entity(
    small: ProbabilisticEntity,
    big: ProbabilisticEntity,
    w: SubEntityWitness,
    k: ProbabilityCorrespondence,
    tol: float = 1e-9,
) -> Diagnostics:
    """Check the measure-transport identity over every (measure pair,
    experiment, big state, outcome), and injectivity of the correspondence."""
    core = verify_sub_entity(small.entity, big.entity, w)
    if not core.passed:
        raise ContractError("the witness does not verify; probabilistic transport is undefined")
    mapped = [mu for mu, _ in k.pairs]
    for mu in small.measures:
        if sum(1 for nu in mapped if nu == mu) != 1:
            raise ContractError("the correspondence must map each measure of the sub entity exactly once")
    diag = Diagnostics()
    images = [mu_big for _, mu_big in k.pairs]
    diag.record(
        "k.injective",
        all(images[i] != images[j] for i in range(len(images)) for j in range(i + 1, len(images))),
        "two measures transported to the same image",
    )
    # each table's entries grouped by couple once, keyed by small outcome
    outcomes = sorted(small.entity.outcomes)
    small_outcome, big_outcome = {x: x for x in outcomes}, {w.l[x]: x for x in outcomes}
    experiments = sorted(small.entity.experiments)
    states = sorted(big.entity.states)
    diag.checks.setdefault("k.transport_identity", True)
    for index, (mu, mu_big) in enumerate(k.pairs):
        rows, rows_big = _couple_rows(mu, small_outcome), _couple_rows(mu_big, big_outcome)
        for e in experiments:
            e_big = w.n[e]
            for p_big in states:
                p = w.m[p_big]
                row, row_big = rows.get((e, p), {}), rows_big.get((e_big, p_big), {})
                for x in outcomes:
                    lhs, rhs = row.get(x, 0.0), row_big.get(x, 0.0)
                    if not abs(lhs - rhs) <= tol:  # recorded only when it fails
                        witness = lambda: f"pair {index}, ({e}, {p_big}, {x}): {lhs:.12g} vs {rhs:.12g}"  # noqa: E731
                        diag.record("k.transport_identity", False, witness)
    return diag


def _couple_rows(table, outcome: dict) -> dict:
    """{(e, p): {outcome[x]: value}} over the entries (e, p, x) of `table`
    whose outcome x is a key of `outcome`; other entries are left out."""
    rows = {}
    for (e, p, x), value in table.entries.items():
        if x in outcome:
            rows.setdefault((e, p), {})[outcome[x]] = value
    return rows
