"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them on success).
"""

import random
import time

import numpy as np

from soe.classify import (
    classify,
    is_central_atomic,
    is_experiment_atomic,
    is_experiment_determined,
    is_outcome_determined,
    is_state_atomic,
    is_state_determined,
    satisfies_T0,
    satisfies_T1,
)
from soe.closure import (
    eig_central,
    eig_states,
    eigen_closure_system,
    entity_ortho_space,
    ortho_closure_system,
    state_trace,
    validate_closure_axioms,
)
from soe.examples import three_by_three
from soe.quantum import (
    BallState,
    SphereExperiment,
    cq_probability,
    density_from_ray,
    partial_trace,
    qmachine_probability,
    qmachine_to_hilbert,
    random_density,
    random_ket,
    ray_from_angles,
    singlet_density,
    sphere_experiment_family,
    sq_probability,
    validate_density_operator,
    verify_cq_sub_entity,
)

from conftest import random_d_classical_entity, random_distinguishable_entity, random_entity
from oracles import powerset as subsets


def _criterion(number: int, description: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict} criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:10])


def fs(*members):
    return frozenset(frozenset(m) for m in members)


# ---- criterion 1: golden corpus -------------------------------------------------

L11, L12, L13 = ("e", "p"), ("e", "q"), ("e", "r")
L21, L22, L23 = ("f", "p"), ("f", "q"), ("f", "r")
L31, L32, L33 = ("g", "p"), ("g", "q"), ("g", "r")
ALL = {L11, L12, L13, L21, L22, L23, L31, L32, L33}

GOLDEN_STATE_FAMILIES = {
    ("states", "e"): fs((), {"p"}, {"q"}, {"r"}, {"p", "q", "r"}),
    ("states", "f"): fs((), {"p"}, {"q"}, {"p", "q"}, {"p", "r"}, {"p", "q", "r"}),
    ("states", "g"): fs((), {"p"}, {"q"}, {"p", "q", "r"}),
    ("states", None): fs((), {"p"}, {"q"}, {"r"}, {"p", "q"}, {"p", "r"}, {"p", "q", "r"}),
    ("experiments", "p"): fs((), {"e"}, {"f"}, {"g"}, {"e", "g"}, {"f", "g"}, {"e", "f", "g"}),
    ("experiments", "q"): fs((), {"e"}, {"g"}, {"e", "g"}, {"f", "g"}, {"e", "f", "g"}),
    ("experiments", "r"): fs((), {"e"}, {"f"}, {"g"}, {"e", "g"}, {"e", "f"}, {"e", "f", "g"}),
    ("experiments", None): frozenset(subsets({"e", "f", "g"})),
}

# the central eigen family: the 21 published members with the one documented
# correction ({L11,L12,L13,L22} gains L32), plus the full couple set
GOLDEN_CENTRAL_EIGEN = fs(
    (),
    {L12}, {L21}, {L31}, {L32},
    {L11, L32}, {L13, L32}, {L22, L32}, {L12, L31}, {L21, L31}, {L21, L23},
    {L11, L22, L32}, {L13, L22, L32}, {L21, L22, L32},
    {L11, L12, L13, L32}, {L12, L21, L23, L31}, {L11, L31, L32, L33},
    {L11, L12, L13, L22, L32},
    {L11, L12, L13, L31, L32, L33}, {L11, L21, L22, L31, L32, L33},
    {L13, L21, L22, L23, L32},
    ALL,
)

GOLDEN_CENTRAL_ORTHO = fs(
    (),
    {L12}, {L21}, {L31}, {L32},
    {L11, L32}, {L13, L32}, {L22, L32}, {L21, L23}, {L21, L31}, {L12, L31},
    {L21, L22, L32}, {L13, L22, L32},
    {L11, L12, L13, L32}, {L12, L21, L23, L31},
    ALL,
)

PUBLISHED_CENTRAL_IMPLICATIONS = {
    (L11, L33), (L21, L23), (L32, L11), (L32, L13), (L32, L22), (L32, L33),
}

PUBLISHED_CENTRAL_ORTHOGONALS = {
    (L11, L21), (L11, L23), (L12, L21), (L12, L22), (L12, L32), (L13, L21),
    (L13, L31), (L21, L32), (L22, L31), (L23, L32), (L31, L32),
}


def test_criterion_1_golden_corpus():
    started = time.monotonic()
    failures = []
    entity = three_by_three()

    for (on, scope), expected in GOLDEN_STATE_FAMILIES.items():
        got = eigen_closure_system(entity, on, scope).members
        if got != expected:
            failures.append(f"family {on}/{scope} differs")

    central = eigen_closure_system(entity, "central")
    if central.members != GOLDEN_CENTRAL_EIGEN:
        failures.append("central eigen family differs from the corrected golden list")

    # both documented corrections re-derived by the definitional oracle over
    # all 2^5 outcome subsets
    oracle = {}
    for A in subsets(entity.outcomes):
        oracle[A] = frozenset(c for c, cell in entity.cells() if cell <= A)
    if frozenset(oracle.values()) != GOLDEN_CENTRAL_EIGEN:
        failures.append("oracle family differs from the golden list")
    if oracle[frozenset({"x1", "x2", "x3", "y2"})] != {L11, L12, L13, L22, L32}:
        failures.append("correction 1 not confirmed by the oracle")
    if central.closure_of({L23}) != {L21, L23}:
        failures.append("correction 2: closure of the (f,r) singleton")
    if central.closure_of({L23}) != oracle[entity.outcome_set("f", "r")]:
        failures.append("correction 2 not confirmed by the oracle")
    print(
        "  corrections confirmed by oracle: eig({x1,x2,x3,y2}) includes (g,q); "
        "cl_eig({(f,r)}) = {(f,p), (f,r)}"
    )

    space = entity_ortho_space(entity, "central")
    ortho = ortho_closure_system(space)
    if ortho.members != GOLDEN_CENTRAL_ORTHO:
        failures.append("central ortho family differs")
    if ortho_closure_system(entity_ortho_space(entity, "states")).members != fs(
        (), {"p"}, {"q"}, {"p", "q", "r"}
    ):
        failures.append("state ortho family differs")
    if ortho.closure_of({L33}) != ALL:
        failures.append("ortho closure of the (g,r) singleton is not everything")
    if ortho.closure_of({L33}) == central.closure_of({L33}):
        failures.append("ortho and eigen closures of (g,r) should differ")

    # traces: the published sets were derived from the uncorrected family; the
    # corrected member {L11,L12,L13,L22,L32} carries the q column, and no
    # ortho member short of the ground carries a full column (documented
    # correction, verified against the definitional trace oracle)
    def trace_oracle(members):
        return frozenset(
            frozenset(p for p in entity.states if all((e, p) in Y for e in entity.experiments))
            for Y in members
        )

    eig_trace = state_trace(central)
    orth_trace = state_trace(ortho)
    if eig_trace.members != fs((), {"p"}, {"q"}, {"p", "q", "r"}):
        failures.append("central eigen trace differs from the oracle-derived value")
    if eig_trace.members != trace_oracle(central.members):
        failures.append("eigen trace oracle mismatch")
    if orth_trace.members != fs((), {"p", "q", "r"}):
        failures.append("central ortho trace differs from the oracle-derived value")
    if orth_trace.members != trace_oracle(ortho.members):
        failures.append("ortho trace oracle mismatch")
    # the qualitative claim the published traces were making still holds:
    # the traces are not the corresponding state closure systems
    if eig_trace.members == eigen_closure_system(entity, "states").members:
        failures.append("eigen trace unexpectedly equals the state eigen system")
    if frozenset({"p"}) not in eig_trace.members:
        failures.append("the p column trace is missing")
    print(
        "  further oracle-backed corrections: the corrected central family "
        "puts {q} in the eigen trace, and the ortho trace is the indiscrete system"
    )

    # the published relation table: all 28 published relations hold, and the
    # report equals direct pairwise evaluation (which also finds (g,p) < (g,r))
    couples = entity.couples()
    cells = {c: entity.outcome_set(*c) for c in couples}
    implications = {(a, b) for a in couples for b in couples if a != b and cells[a] <= cells[b]}
    orthogonals = {(a, b) for a in couples for b in couples if a != b and not cells[a] & cells[b]}
    if not PUBLISHED_CENTRAL_IMPLICATIONS <= implications:
        failures.append("a published implication is missing")
    published_both_ways = PUBLISHED_CENTRAL_ORTHOGONALS | {
        (b, a) for a, b in PUBLISHED_CENTRAL_ORTHOGONALS
    }
    if orthogonals != published_both_ways:
        failures.append("orthogonality table differs from the published pairs")
    if implications != PUBLISHED_CENTRAL_IMPLICATIONS | {(L31, L33)}:
        failures.append("implication table differs from pairwise evaluation")

    # the state and experiment relations of the same table: no nontrivial
    # implication on either side; p and q are the only orthogonal states
    # (separated by g); e is orthogonal to f (at p) and to g (at q)
    state_implications = {
        (p, q)
        for p in sorted(entity.states)
        for q in sorted(entity.states)
        if p != q
        and all(entity.outcome_set(e, p) <= entity.outcome_set(e, q) for e in entity.experiments)
    }
    if state_implications:
        failures.append("unexpected nontrivial state implication")
    state_orthogonals = {
        frozenset((p, q))
        for p in sorted(entity.states)
        for q in sorted(entity.states)
        if p != q
        and any(not entity.outcome_set(e, p) & entity.outcome_set(e, q) for e in entity.experiments)
    }
    if state_orthogonals != {frozenset({"p", "q"})}:
        failures.append("state orthogonality table differs")
    experiment_implications = {
        (e, f)
        for e in sorted(entity.experiments)
        for f in sorted(entity.experiments)
        if e != f
        and all(entity.outcome_set(e, p) <= entity.outcome_set(f, p) for p in entity.states)
    }
    if experiment_implications:
        failures.append("unexpected nontrivial experiment implication")
    experiment_orthogonals = {
        frozenset((e, f))
        for e in sorted(entity.experiments)
        for f in sorted(entity.experiments)
        if e != f
        and any(not entity.outcome_set(e, p) & entity.outcome_set(f, p) for p in entity.states)
    }
    if experiment_orthogonals != {frozenset({"e", "f"}), frozenset({"e", "g"})}:
        failures.append("experiment orthogonality table differs")

    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append(f"golden corpus took {elapsed:.3f}s (budget 1s)")
    _criterion(1, f"golden corpus reproduced exactly in {elapsed * 1000:.0f} ms", failures)


# ---- criterion 2: quantum machine ------------------------------------------------


def test_criterion_2_quantum_machine_grid():
    failures = []
    rng = np.random.default_rng(42)
    axes = []
    for _ in range(10):
        u = rng.normal(size=3)
        axes.append(u / np.linalg.norm(u))
    worst = 0.0
    for theta in np.linspace(0.0, np.pi, 20):
        for phi in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
            state = BallState.from_angles(theta, phi)
            c = ray_from_angles(theta, phi)
            for u in axes:
                experiment = SphereExperiment(u)
                family = sphere_experiment_family(experiment)
                elastic_p1 = qmachine_probability(state, experiment)[0]
                gap = abs(elastic_p1 - sq_probability(family, c, 1))
                worst = max(worst, gap)
                if gap > 1e-10:
                    failures.append(f"grid point ({theta:.3f}, {phi:.3f}): gap {gap:.3g}")
    center = BallState((0.0, 0.0, 0.0))
    center_density = qmachine_to_hilbert(center)
    for u in axes:
        experiment = SphereExperiment(u)
        p1 = qmachine_probability(center, experiment)[0]
        if abs(p1 - 0.5) > 1e-12:
            failures.append(f"elastic center probability off by {abs(p1 - 0.5):.3g}")
        hp1 = cq_probability(sphere_experiment_family(experiment), center_density, 1)
        if abs(hp1 - 0.5) > 1e-12:
            failures.append(f"Hilbert center probability off by {abs(hp1 - 0.5):.3g}")
    _criterion(
        2,
        f"elastic matches ray probabilities on the 20x20 grid x 10 axes (max gap {worst:.2e})",
        failures,
    )


# ---- criterion 3: completed machine ----------------------------------------------


def test_criterion_3_completed_machine():
    failures = []
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.0, 1.0))
        b = 1.0 - a
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v)
        u = rng.normal(size=3)
        u = u / np.linalg.norm(u)
        w = (a - b) * v
        W = qmachine_to_hilbert(BallState(w))
        family = sphere_experiment_family(SphereExperiment(u))
        cos_theta = float(np.dot(v, u))
        cos_half_sq = (1.0 + cos_theta) / 2.0
        sin_half_sq = (1.0 - cos_theta) / 2.0
        expected1 = a * cos_half_sq + b * sin_half_sq
        expected2 = a * sin_half_sq + b * cos_half_sq
        gap = max(
            abs(cq_probability(family, W, 1) - expected1),
            abs(cq_probability(family, W, 2) - expected2),
        )
        worst = max(worst, gap)
        if gap > 1e-10:
            failures.append(f"sample (a={a:.3f}): gap {gap:.3g}")
    _criterion(
        3,
        f"density traces match the elastic mixture law on 100 samples (max gap {worst:.2e})",
        failures,
    )


# ---- criterion 4: partial trace ---------------------------------------------------


def _spanning_projections(n: int, rng) -> list:
    kets = []
    basis = np.eye(n)
    for i in range(n):
        kets.append(basis[i])
    for i in range(n):
        for j in range(i + 1, n):
            kets.append((basis[i] + basis[j]) / np.sqrt(2))
            kets.append((basis[i] + 1j * basis[j]) / np.sqrt(2))
    del rng
    return [density_from_ray(c) for c in kets]


def test_criterion_4_partial_trace():
    failures = []
    rng = np.random.default_rng(42)
    worst = 0.0
    for dims in ((2, 2), (2, 3)):
        n = dims[0] * dims[1]
        spanning = _spanning_projections(dims[0], rng)
        identity_env = np.eye(dims[1])
        for _ in range(100):
            W_big = random_density(rng, n)
            reduced = partial_trace(W_big, dims)
            check = validate_density_operator(reduced, tol=1e-9)
            if not check.passed:
                failures.append(f"reduced state invalid at dims {dims}")
            for E in spanning:
                gap = abs(
                    float(np.real(np.trace(reduced @ E)))
                    - float(np.real(np.trace(W_big @ np.kron(E, identity_env))))
                )
                worst = max(worst, gap)
                if gap > 1e-9:
                    failures.append(f"defining property violated by {gap:.3g} at dims {dims}")
        for _ in range(20):
            c = random_ket(rng, dims[0])
            d = random_ket(rng, dims[1])
            product = density_from_ray(np.kron(c, d))
            if not np.allclose(partial_trace(product, dims), density_from_ray(c), atol=1e-12):
                failures.append(f"product state does not reduce exactly at dims {dims}")
    singlet_gap = float(np.linalg.norm(partial_trace(singlet_density(), (2, 2)) - np.eye(2) / 2, 2))
    if singlet_gap > 1e-12:
        failures.append(f"singlet reduction off by {singlet_gap:.3g}")
    _criterion(
        4,
        f"partial trace satisfies its defining property at 2x2 and 2x3 (max gap {worst:.2e})",
        failures,
    )


# ---- criterion 5: sub-entity demonstration ---------------------------------------


def test_criterion_5_sub_entity_demonstration():
    failures = []
    diag = verify_cq_sub_entity(2, 2, samples=100, seed=42, tol=1e-9, ray_candidates=10_000)
    if not diag.passed:
        failures.extend(diag.failures)
    if diag.details["completed_max_residual"] > 1e-9:
        failures.append(f"completed residual {diag.details['completed_max_residual']:.3g}")
    if diag.details["standard_ray_min_residual"] <= 0.1:
        failures.append(
            f"a candidate ray reproduced the entangled reduction within "
            f"{diag.details['standard_ray_min_residual']:.3g}"
        )
    _criterion(
        5,
        "completed contract passes on 100 samples; best of 10^4 rays misses the "
        f"entangled reduction by {diag.details['standard_ray_min_residual']:.3f}",
        failures,
    )


# ---- criterion 6: property suites -------------------------------------------------


def _relation_closures(cells: dict, universe: list) -> tuple:
    succ = {a: {b for b in universe if cells[a] <= cells[b]} for a in universe}
    orth = {a: {b for b in universe if not cells[a] & cells[b]} for a in universe}
    return succ, orth


def _check_relation_axioms(succ: dict, orth: dict, failures: list, label: str) -> None:
    for a, above in succ.items():
        if a not in above:
            failures.append(f"{label}: not reflexive at {a}")
        for b in above:
            if not succ[b] <= above:
                failures.append(f"{label}: not transitive at ({a}, {b})")
        if a in orth[a]:
            failures.append(f"{label}: not anti-reflexive at {a}")
        if above & orth[a]:
            failures.append(f"{label}: implication meets orthogonality at {a}")
    for a, ortho_set in orth.items():
        for b in ortho_set:
            if a not in orth[b]:
                failures.append(f"{label}: not symmetric at ({a}, {b})")


def test_criterion_6_property_suites():
    started = time.monotonic()
    failures = []
    rng = random.Random(42)
    for index in range(1000):
        entity = random_entity(rng, 4, 4, 6)
        couples = entity.couples()
        cells = {c: entity.outcome_set(*c) for c in couples}

        # relation axioms for the central kind plus the state/experiment kinds
        succ, orth = _relation_closures(cells, couples)
        _check_relation_axioms(succ, orth, failures, f"entity {index} central")
        state_cells = {
            p: {e: entity.outcome_set(e, p) for e in entity.experiments} for p in entity.states
        }
        state_succ = {
            p: {
                q
                for q in entity.states
                if all(state_cells[p][e] <= state_cells[q][e] for e in entity.experiments)
            }
            for p in entity.states
        }
        state_orth = {
            p: {
                q
                for q in entity.states
                if any(not state_cells[p][e] & state_cells[q][e] for e in entity.experiments)
            }
            for p in entity.states
        }
        _check_relation_axioms(state_succ, state_orth, failures, f"entity {index} states")
        exp_succ = {
            e: {
                f
                for f in entity.experiments
                if all(state_cells[p][e] <= state_cells[p][f] for p in entity.states)
            }
            for e in entity.experiments
        }
        exp_orth = {
            e: {
                f
                for f in entity.experiments
                if any(not state_cells[p][e] & state_cells[p][f] for p in entity.states)
            }
            for e in entity.experiments
        }
        _check_relation_axioms(exp_succ, exp_orth, failures, f"entity {index} experiments")
        # outcome orthogonality: anti-reflexive and symmetric by construction,
        # checked against its definition
        out_orth = {
            x: {
                y
                for y in entity.outcomes
                if x != y and any(x in cell and y in cell for cell in cells.values())
            }
            for x in entity.outcomes
        }
        for x, partners in out_orth.items():
            if x in partners:
                failures.append(f"entity {index}: outcome orthogonality reflexive at {x}")
            for y in partners:
                if x not in out_orth[y]:
                    failures.append(f"entity {index}: outcome orthogonality asymmetric")

        # closure systems: construction validates the system axioms; check the
        # operator axioms on sampled sets, and containment of ortho in eigen
        central_eig = eigen_closure_system(entity, "central")
        central_orth = ortho_closure_system(entity_ortho_space(entity, "central"))
        state_eig = eigen_closure_system(entity, "states")
        exp_eig = eigen_closure_system(entity, "experiments")
        if not central_orth.members <= central_eig.members:
            failures.append(f"entity {index}: central ortho escapes eigen")
        for e in entity.experiments:
            if not ortho_closure_system(entity_ortho_space(entity, "states", e)).members <= (
                eigen_closure_system(entity, "states", e).members
            ):
                failures.append(f"entity {index}: scoped state ortho escapes eigen")
        for system in (central_eig, central_orth, state_eig, exp_eig):
            ground = sorted(system.ground, key=str)
            for _ in range(3):
                K = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
                closed = system.closure_of(K)
                if not K <= closed or system.closure_of(closed) != closed:
                    failures.append(f"entity {index}: closure operator axiom failed")
            if system.closure_of(frozenset()) != frozenset():
                failures.append(f"entity {index}: closure of the empty set is not empty")
        if index % 25 == 0:
            # the full axiom battery (exhaustive on these small grounds)
            for system in (state_eig, exp_eig):
                diag = validate_closure_axioms(system.ground, system.members)
                if not diag.passed:
                    failures.append(f"entity {index}: axiom battery failed")

        # determination/atomicity vs the separation axioms, all six
        if is_outcome_determined(entity)[0] != satisfies_T0(central_eig)[0]:
            failures.append(f"entity {index}: outcome determination vs T0")
        if is_state_determined(entity)[0] != satisfies_T0(state_eig)[0]:
            failures.append(f"entity {index}: state determination vs T0")
        if is_experiment_determined(entity)[0] != satisfies_T0(exp_eig)[0]:
            failures.append(f"entity {index}: experiment determination vs T0")
        if is_central_atomic(entity)[0] != satisfies_T1(central_eig)[0]:
            failures.append(f"entity {index}: central atomicity vs T1")
        if is_state_atomic(entity)[0] != satisfies_T1(state_eig)[0]:
            failures.append(f"entity {index}: state atomicity vs T1")
        if is_experiment_atomic(entity)[0] != satisfies_T1(exp_eig)[0]:
            failures.append(f"entity {index}: experiment atomicity vs T1")
        if failures:
            break

    # deterministic-entity consequences
    for index in range(200):
        entity = random_d_classical_entity(rng)
        classify(entity)  # raises on any broken theorem cross-check
        central_eig = eigen_closure_system(entity, "central")
        central_orth = ortho_closure_system(entity_ortho_space(entity, "central"))
        if central_eig.members != central_orth.members:
            failures.append(f"d-classical {index}: eigen and ortho central closures differ")
        for e in sorted(entity.experiments):
            if eigen_closure_system(entity, "states", e).members != ortho_closure_system(
                entity_ortho_space(entity, "states", e)
            ).members:
                failures.append(f"d-classical {index}: scoped eigen/ortho differ")
        # complements: eig(A^C) = eig(A)^C = eig(A)^perp, exhaustively
        space = entity_ortho_space(entity, "central")
        all_couples = frozenset(entity.couples())
        for A in subsets(entity.outcomes):
            image = eig_central(entity, A)
            complement_image = eig_central(entity, entity.outcomes - A)
            if complement_image != all_couples - image:
                failures.append(f"d-classical {index}: eig of complement is not the complement")
                break
            perp = frozenset(
                c for c in all_couples
                if all(space.orthogonal(c, other) for other in image)
            )
            if image and complement_image != perp:
                failures.append(f"d-classical {index}: complement differs from orthocomplement")
                break
        if failures:
            break

    # distinguishable entities: the state system is the trace of the central one
    for index in range(200):
        entity = random_distinguishable_entity(rng)
        if state_trace(eigen_closure_system(entity, "central")) != eigen_closure_system(
            entity, "states"
        ):
            failures.append(f"distinguishable {index}: trace differs from the state system")
            break

    # generator method equals definitional brute force up to ten outcomes
    for index in range(100):
        entity = random_entity(rng, 3, 3, 10)
        got = eigen_closure_system(entity, "central").members
        brute = frozenset(
            frozenset(c for c, cell in entity.cells() if cell <= A)
            for A in subsets(entity.outcomes)
        )
        if got != brute:
            failures.append(f"wide entity {index}: generator method differs from brute force")
            break
        e = sorted(entity.experiments)[0]
        full = entity.experiment_outcomes(e)
        got_scoped = eigen_closure_system(entity, "states", e).members
        brute_scoped = frozenset(eig_states(entity, e, A) for A in subsets(full))
        if got_scoped != brute_scoped:
            failures.append(f"wide entity {index}: scoped generator method differs")
            break

    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"property suites took {elapsed:.1f}s (budget 30s)")
    _criterion(
        6,
        f"property suites over 1000 + 200 + 200 + 100 random entities in {elapsed:.1f}s",
        failures,
    )
