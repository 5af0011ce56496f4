"""Finite-dimensional standard and completed quantum entities.

Experiments are spectral families of pairwise-orthogonal projections summing
to the identity; completed states are density operators, and standard states
are rays (unit vectors up to phase), handled as their rank-one density
operators, so one trace rule gives every probability. Includes the
sphere-and-elastic machine whose probabilities the two-dimensional case
reproduces, tensor lifting, the partial trace, and the sub-entity
demonstration.

Outcome indices are 1-based: outcome k names the k-th projection of a family.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .entity import Entity
from .errors import CapacityError, ConsistencyError, ContractError
from .morphism import ProbabilityCorrespondence, SubEntityWitness, verify_probabilistic_sub_entity
from .probability import ProbabilisticEntity, ProbabilityTable

VALIDATION_TOL = 1e-9
PROBABILITY_TOL = 1e-10
CLUSTER_TOL = 1e-8
DIMENSION_CAP = 64
RAY_BLOCK = 10  # theta rows per step of the ray search in verify_cq_sub_entity


def _as_matrix(value, stack: bool = False) -> np.ndarray:
    """One square complex matrix or, with stack, also a stack of them along
    the leading axes."""
    M = np.asarray(value, dtype=complex)
    if M.ndim < 2 or (M.ndim > 2 and not stack) or M.shape[-2] != M.shape[-1] or M.shape[-1] < 1:
        raise ContractError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ContractError("matrix has non-finite entries")
    if M.shape[-1] > DIMENSION_CAP:
        raise CapacityError(f"dimension {M.shape[-1]} exceeds the cap of {DIMENSION_CAP}")
    return M


def _rank_one(kets: np.ndarray) -> np.ndarray:
    """|c><c| of a unit vector c, or of each row of a stack of them; one norm
    check covers the whole stack."""
    norms = np.linalg.norm(kets, axis=-1)
    off = np.abs(norms - 1.0)
    if np.any(off > PROBABILITY_TOL):
        raise ContractError(f"state vector norm {norms.flat[np.argmax(off)]:.12g} is not 1")
    return kets[..., :, None] * kets[..., None, :].conj()


def _born(W: np.ndarray, P: np.ndarray):
    """tr(W P) for one density operator W or for each of a stack of them, as
    one contraction; the product W P is never formed."""
    return np.real(np.einsum("...ij,ji->...", W, P))


def opnorm(M) -> float:
    return float(np.linalg.norm(np.asarray(M), 2))


@dataclass(frozen=True, eq=False)
class SpectralFamily:
    """Ordered projections E_1..E_r; eigenvalue metadata is carried when the
    family came from diagonalizing an observable (outcome identity stays the
    projector index, never the eigenvalue).

    Identity semantics: families compare by object identity (element-wise
    matrix comparison is tolerance-dependent; use validate_spectral_family
    and residuals instead).
    """

    projections: tuple
    eigenvalues: tuple | None = None

    def __init__(self, projections, eigenvalues=None):
        projections = tuple(_as_matrix(P) for P in projections)
        if not projections:
            raise ContractError("a spectral family needs at least one projection")
        dims = {P.shape[0] for P in projections}
        if len(dims) != 1:
            raise ContractError("projections have mixed dimensions")
        for P in projections:
            P.setflags(write=False)
        object.__setattr__(self, "projections", projections)
        object.__setattr__(self, "eigenvalues", tuple(eigenvalues) if eigenvalues is not None else None)

    @property
    def dimension(self) -> int:
        return self.projections[0].shape[0]

    def __len__(self) -> int:
        return len(self.projections)

    def projection(self, k: int) -> np.ndarray:
        """1-based lookup of E_k."""
        if not 1 <= k <= len(self.projections):
            raise ContractError(f"outcome index {k} outside 1..{len(self.projections)}")
        return self.projections[k - 1]


def validate_spectral_family(family: SpectralFamily, tol: float = VALIDATION_TOL) -> Diagnostics:
    """Hermitian, idempotent, nonzero, pairwise orthogonal, summing to the
    identity; residual norms are reported in the details."""
    diag = Diagnostics()
    worst_herm = worst_idem = worst_orth = 0.0
    for k, P in enumerate(family.projections, start=1):
        herm = opnorm(P - P.conj().T)
        idem = opnorm(P @ P - P)
        worst_herm = max(worst_herm, herm)
        worst_idem = max(worst_idem, idem)
        diag.record("family.hermitian", herm <= tol, f"projection {k}: residual {herm:.3g}")
        diag.record("family.idempotent", idem <= tol, f"projection {k}: residual {idem:.3g}")
        diag.record("family.nonzero", opnorm(P) > tol, f"projection {k} is zero")
    for k in range(len(family)):
        for j in range(k + 1, len(family)):
            orth = opnorm(family.projections[k] @ family.projections[j])
            worst_orth = max(worst_orth, orth)
            diag.record(
                "family.pairwise_orthogonal",
                orth <= tol,
                f"projections {k + 1} and {j + 1}: residual {orth:.3g}",
            )
    total = sum(family.projections)
    completeness = opnorm(total - np.eye(family.dimension))
    diag.record("family.sums_to_identity", completeness <= tol, f"residual {completeness:.3g}")
    diag.details.update(
        hermitian_residual=worst_herm,
        idempotent_residual=worst_idem,
        orthogonality_residual=worst_orth,
        completeness_residual=completeness,
    )
    for name in ("family.hermitian", "family.idempotent", "family.nonzero",
                 "family.pairwise_orthogonal", "family.sums_to_identity"):
        diag.checks.setdefault(name, True)
    return diag


def spectral_family_from_hermitian(H, cluster_tol: float = CLUSTER_TOL) -> SpectralFamily:
    """Diagonalize a Hermitian matrix into eigenprojections, clustering
    eigenvalues closer than cluster_tol into one projector."""
    H = _as_matrix(H)
    diff = H - H.conj().T
    if diff.any() and opnorm(diff) > VALIDATION_TOL:  # an exactly Hermitian H needs no SVD
        raise ContractError("matrix is not Hermitian within 1e-9")
    values, vectors = np.linalg.eigh((H + H.conj().T) / 2)
    clusters = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[clusters[-1][-1]] <= cluster_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    projections = []
    eigenvalues = []
    for idx in clusters:
        V = vectors[:, idx]
        projections.append(V @ V.conj().T)
        eigenvalues.append(float(np.mean(values[idx])))
    family = SpectralFamily(projections, eigenvalues)
    rebuilt = sum(lam * P for lam, P in zip(eigenvalues, family.projections))
    if opnorm(rebuilt - H) > 1e-8 * max(1.0, opnorm(H)):
        raise ContractError(
            "eigenvalue clustering cannot reconstruct the matrix; lower cluster_tol"
        )
    return family


# -- completed (density operator) states --------------------------------------


def _density_residuals(W: np.ndarray) -> tuple:
    """Hermitian residual (operator norm of W - W*), lowest eigenvalue of the
    Hermitian part and real trace, of one matrix or of each of a stack."""
    W_adj = np.swapaxes(W.conj(), -2, -1)
    diff = W - W_adj
    odd = diff.any(axis=(-2, -1))  # only these need an SVD: an exactly Hermitian W has residual 0
    herm = np.zeros(odd.shape)
    herm[odd] = np.linalg.norm(diff[odd], 2, axis=(-2, -1))
    lowest = np.linalg.eigvalsh((W + W_adj) / 2)[..., 0]
    return herm, lowest, np.real(np.trace(W, axis1=-2, axis2=-1))


def validate_density_operator(W, tol: float = VALIDATION_TOL) -> Diagnostics:
    W = _as_matrix(W)
    diag = Diagnostics()
    herm, lowest, trace = (float(x) for x in _density_residuals(W))
    diag.record("density.hermitian", herm <= tol, f"residual {herm:.3g}")
    diag.record("density.positive", lowest >= -tol, f"lowest eigenvalue {lowest:.3g}")
    trace_residual = abs(trace - 1.0)
    diag.record("density.unit_trace", trace_residual <= tol, f"residual {trace_residual:.3g}")
    diag.details.update(hermitian_residual=herm, lowest_eigenvalue=lowest, trace=trace)
    return diag


def _require_densities(W: np.ndarray, error: type, what: str) -> None:
    """Raise error, with the failures of validate_density_operator, for the
    first matrix of W (one matrix or a stack) that is not a density operator."""
    herm, lowest, trace = _density_residuals(W)
    tol = VALIDATION_TOL
    bad = ~((herm <= tol) & (lowest >= -tol) & (np.abs(trace - 1.0) <= tol))
    if np.any(bad):
        first = W.reshape(-1, *W.shape[-2:])[np.argmax(bad.reshape(-1))]
        raise error(f"{what}: {validate_density_operator(first).failures}")


def cq_outcome_set(family: SpectralFamily, W, tol: float = PROBABILITY_TOL) -> frozenset:
    """Possible outcomes of the experiment on a density operator: the 1-based
    indices whose probability exceeds tol."""
    W = _as_matrix(W)
    if W.shape[0] != family.dimension:
        raise ContractError(f"state dimension {W.shape[0]} != family dimension {family.dimension}")
    return frozenset(
        k for k in range(1, len(family) + 1) if abs(_born(W, family.projection(k))) > tol
    )


def cq_probability(family: SpectralFamily, W, k: int) -> float:
    W = _as_matrix(W)
    if W.shape[0] != family.dimension:
        raise ContractError(f"state dimension {W.shape[0]} != family dimension {family.dimension}")
    return float(_born(W, family.projection(k)))


def density_from_ray(c) -> np.ndarray:
    """The rank-one density operator of the ray through the unit vector c."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    if c.size < 1:
        raise ContractError("a state vector needs at least one amplitude")
    return _rank_one(c)


# -- standard (ray) states: the rank-one density operators ---------------------


def sq_outcome_set(family: SpectralFamily, c, tol: float = PROBABILITY_TOL) -> frozenset:
    """Possible outcomes on the ray through c: those of its density operator."""
    return cq_outcome_set(family, density_from_ray(c), tol)


def sq_probability(family: SpectralFamily, c, k: int) -> float:
    """Probability of outcome k on the ray through c: tr(|c><c| E_k)."""
    return cq_probability(family, density_from_ray(c), k)


def convex_combine(pairs) -> np.ndarray:
    """Weighted sum of density operators; weights must be nonnegative and sum
    to 1 within 1e-10."""
    pairs = [(float(w), _as_matrix(W)) for w, W in pairs]
    if not pairs:
        raise ContractError("nothing to combine")
    weights = [w for w, _ in pairs]
    if min(weights) < -1e-12:
        raise ContractError(f"negative weight {min(weights)}")
    if abs(sum(weights) - 1.0) > 1e-10:
        raise ContractError(f"weights sum to {sum(weights):.12g}, not 1")
    return sum(w * W for w, W in pairs)


def is_extremal(W, tol: float = VALIDATION_TOL) -> bool:
    """Extremal densities are the rank-one projections: W squared equals W."""
    W = _as_matrix(W)
    return opnorm(W @ W - W) <= tol


# -- the sphere-and-elastic machine -------------------------------------------


def _require_finite(what: str, values) -> None:
    """Refuse NaN and infinities: NaN compares false with every bound, so it
    passes the norm tests, and sin or cos of an infinity is NaN."""
    if not np.isfinite(values).all():
        raise ContractError(f"{what} must be finite, got {tuple(np.ravel(values).tolist())}")


@dataclass(frozen=True)
class BallState:
    """A point of the closed unit ball; surface points are the ray states."""

    w: tuple

    def __init__(self, w):
        w = np.asarray(w, dtype=float).reshape(-1)
        if w.size != 3:
            raise ContractError("a ball state is a real 3-vector")
        _require_finite("a ball state's coordinates", w)
        if np.linalg.norm(w) > 1.0 + 1e-10:
            raise ContractError(f"point norm {np.linalg.norm(w):.12g} lies outside the unit ball")
        object.__setattr__(self, "w", tuple(float(v) for v in w))

    @classmethod
    def from_angles(cls, theta: float, phi: float, radius: float = 1.0) -> "BallState":
        _require_finite("a ball state's angles and radius", (theta, phi, radius))
        return cls(
            (
                radius * np.sin(theta) * np.cos(phi),
                radius * np.sin(theta) * np.sin(phi),
                radius * np.cos(theta),
            )
        )

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.w)


@dataclass(frozen=True)
class SphereExperiment:
    """The breaking-elastic experiment along a unit axis."""

    axis: tuple

    def __init__(self, axis):
        u = np.asarray(axis, dtype=float).reshape(-1)
        if u.size != 3:
            raise ContractError("an experiment axis is a real 3-vector")
        _require_finite("an experiment axis's coordinates", u)
        if abs(np.linalg.norm(u) - 1.0) > 1e-10:
            raise ContractError(f"axis norm {np.linalg.norm(u):.12g} is not 1")
        object.__setattr__(self, "axis", tuple(float(v) for v in u))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "SphereExperiment":
        _require_finite("an experiment axis's angles", (theta, phi))
        return cls((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)))

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.axis)


def qmachine_probability(state: BallState, experiment: SphereExperiment) -> tuple:
    """Elastic-breaking probabilities (p1, p2): the two pieces of the elastic,
    p1 = (1 + <w, u>)/2."""
    overlap = float(np.dot(state.vector, experiment.vector))
    p1 = (1.0 + overlap) / 2.0
    return (p1, 1.0 - p1)


def ray_from_angles(theta: float, phi: float) -> np.ndarray:
    """The two-dimensional unit vector of the surface point with polar angles
    (theta, phi); for arrays, theta and phi broadcast against each other and
    the two amplitudes run along the first axis of the result.

    Phase convention: the outer product of this vector is the density matrix
    with upper off-diagonal sin(theta/2)cos(theta/2)e^{-i phi}. Every
    probability is invariant under the conjugate convention.
    """
    return np.array(
        [
            np.cos(theta / 2) * np.exp(-1j * phi / 2),
            np.sin(theta / 2) * np.exp(1j * phi / 2),
        ]
    )


def _antipodal_projectors(v: np.ndarray) -> list:
    """The rank-one projections onto the surface rays of the unit 3-vector v
    and of its antipode -v."""
    projectors = []
    for w in (v, -v):
        theta = float(np.arccos(np.clip(w[2], -1.0, 1.0)))
        phi = float(np.arctan2(w[1], w[0]))
        projectors.append(density_from_ray(ray_from_angles(theta, phi)))
    return projectors


def sphere_experiment_family(experiment: SphereExperiment) -> SpectralFamily:
    """The two-outcome spectral family of an elastic experiment: projections
    onto the axis ray and the antipodal ray."""
    return SpectralFamily(_antipodal_projectors(experiment.vector))


def qmachine_to_hilbert(state: BallState) -> np.ndarray:
    """The density operator of a ball point: the convex combination of the
    antipodal surface rays through it, weighted by the point's position.

    The center maps to half the identity whatever axis is chosen.
    """
    w = state.vector
    radius = float(np.linalg.norm(w))
    if radius < 1e-15:
        v = np.array([0.0, 0.0, 1.0])
    else:
        v = w / radius
    a = (1.0 + radius) / 2.0
    plus, minus = _antipodal_projectors(v)
    return convex_combine([(a, plus), (1.0 - a, minus)])


# -- tensor lifting and the partial trace --------------------------------------


def lift_experiment(family: SpectralFamily, dim_env: int) -> SpectralFamily:
    """Tensor each projection with the identity of the second factor; outcome
    k of the family is outcome k of the lifted family."""
    if dim_env < 1:
        raise ContractError("the second factor needs dimension at least 1")
    if family.dimension * dim_env > DIMENSION_CAP:
        raise CapacityError(f"lifted dimension {family.dimension * dim_env} exceeds the cap")
    n = family.dimension * dim_env  # P kron I for every P: the products np.kron forms, in one broadcast
    lifted = np.stack(family.projections)[:, :, None, :, None] * np.eye(dim_env)[:, None, :]
    return SpectralFamily(lifted.reshape(-1, n, n), family.eigenvalues)


def partial_trace(W_big, dims: tuple) -> np.ndarray:
    """The unique reduction to the first factor: summing the matrix elements
    over an orthonormal basis of the second factor. Satisfies
    tr(reduction @ E) = tr(W_big @ (E kron I)) for every projection E.

    W_big is one matrix or a stack of them along the leading axes; a stack is
    reduced matrix by matrix, and the first matrix that is not a density
    operator raises as it would on its own."""
    n_sys, n_env = dims
    W_big = _as_matrix(W_big, stack=True)
    if W_big.shape[-1] != n_sys * n_env:
        raise ContractError(
            f"matrix dimension {W_big.shape[-1]} does not factor as {n_sys} x {n_env}"
        )
    _require_densities(W_big, ContractError, "input is not a density operator")
    blocks = W_big.reshape(W_big.shape[:-2] + (n_sys, n_env, n_sys, n_env))
    reduced = np.einsum("...ijkj->...ik", blocks)
    _require_densities(reduced, ConsistencyError, "partial trace produced an invalid density operator")
    return reduced


def singlet_density() -> np.ndarray:
    """Density of the antisymmetric two-qubit ray (e1 x e2 - e2 x e1)/sqrt(2)."""
    c = np.zeros(4, dtype=complex)
    c[1] = 1 / np.sqrt(2)
    c[2] = -1 / np.sqrt(2)
    return density_from_ray(c)


# -- random inputs for sampled verifications -----------------------------------


def random_ket(rng, n: int) -> np.ndarray:
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return c / np.linalg.norm(c)


def _random_densities(rng, n: int, count: int) -> np.ndarray:
    """A (count, n, n) stack of Ginibre densities G G* / tr(G G*) from one
    draw of normals. Matrix i takes the next 2 n^2 normals, its real parts
    then its imaginary parts, so the stack equals `count` calls of
    `random_density` on the same generator, bit for bit."""
    D = rng.normal(size=(count, 2, n, n))
    G = D[:, 0] + 1j * D[:, 1]
    W = G @ np.swapaxes(G.conj(), -2, -1)
    return W / np.real(np.trace(W, axis1=-2, axis2=-1))[:, None, None]


def random_density(rng, n: int) -> np.ndarray:
    return _random_densities(rng, n, 1)[0]


def random_spectral_family(rng, n: int) -> SpectralFamily:
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return spectral_family_from_hermitian((A + A.conj().T) / 2)


# -- finite entities sampled from quantum models --------------------------------


def finite_completed_entity(densities, families, tol: float = PROBABILITY_TOL):
    """Build a finite entity and its measure from sampled density-operator
    states and experiments: states s1..sN, experiments e1..eM, outcomes
    'e{i}:o{k}'. The cells and probabilities are those of `cq_outcome_set`
    and `cq_probability`, read from one Born contraction per outcome over
    all the states."""
    densities = [_as_matrix(W) for W in densities]
    families = list(families)
    if not densities or not families:
        raise ContractError("need at least one state and one experiment")
    for family in families:
        for W in densities:
            if W.shape[0] != family.dimension:
                raise ContractError(f"state dimension {W.shape[0]} != family dimension {family.dimension}")
    stack = np.array(densities)
    states = [f"s{j}" for j in range(1, len(densities) + 1)]
    experiments = [f"e{i}" for i in range(1, len(families) + 1)]
    table = {}
    entries = {}
    for e, family in zip(experiments, families):
        outcomes = [f"{e}:o{k}" for k in range(1, len(family) + 1)]
        # one Born contraction per outcome over every state; row j is state j
        probabilities = np.stack([_born(stack, P) for P in family.projections], axis=-1)
        for p, row in zip(states, probabilities.tolist()):
            possible = [(x, value) for x, value in zip(outcomes, row) if abs(value) > tol]
            table[(e, p)] = {x for x, _ in possible}
            for x, value in possible:  # a trace can overshoot [0, 1] by float epsilon
                entries[(e, p, x)] = min(1.0, max(0.0, value))
    return Entity(set(states), set(experiments), table), ProbabilityTable(entries)


def finite_standard_entity(kets, families, tol: float = PROBABILITY_TOL):
    """finite_completed_entity on the rank-one densities of ray states."""
    return finite_completed_entity([density_from_ray(c) for c in kets], families, tol)


@functools.cache
def _pauli_axis_families() -> tuple:
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    return tuple(sphere_experiment_family(SphereExperiment(axis)) for axis in axes)


def pauli_axis_families() -> list:
    """Spectral families of the three coordinate axes of the two-dimensional
    case; the canonical probes for ray searches. The families, which are
    immutable, are built once per process; each call returns a new list."""
    return list(_pauli_axis_families())


def verify_cq_sub_entity(
    n_sys: int,
    n_env: int,
    samples: int = 100,
    seed: int = 42,
    tol: float = VALIDATION_TOL,
    ray_candidates: int = 10_000,
    failure_threshold: float = 0.1,
) -> Diagnostics:
    """Demonstrate that density-operator states support the sub-entity
    contract under tensor composition while ray-only states do not.

    Builds the witness (states reduce by partial trace, experiments and
    outcomes lift by tensoring with the identity, measures transport through
    the trace identity), checks the trace identity on `samples` random big
    states against random experiments, runs the full probabilistic sub-entity
    verification on a sampled finite entity pair, and, for the two-qubit case,
    searches a grid of rays for one reproducing the reduced probabilities of
    the antisymmetric ray state (none comes close: the minimal residual found
    is reported). The grid has round(√ray_candidates) points in θ and as many
    in φ, so round(√ray_candidates)² rays, the count reported as
    `details["ray_candidates"]`: 1000 searches 1024 rays and 2 searches one.
    `samples` must be at least 1, or at least 0 in the two-qubit case, which
    always adds the antisymmetric ray state; anything less is refused before
    any draw. In the two-qubit case `ray_candidates` must be at least 1, also
    before any draw: 0 would search no ray and pass the ray check vacuously,
    and a negative count has no grid of rays.
    """
    if n_sys * n_env > 16:
        raise CapacityError("sampled verification is limited to composite dimension 16")
    two_qubits = n_sys == n_env == 2
    least = 0 if two_qubits else 1
    if samples < least:
        raise ContractError(f"samples must be at least {least} for {n_sys} x {n_env}, got {samples}")
    if two_qubits and ray_candidates < 1:
        raise ContractError(f"ray_candidates must be at least 1 for 2 x 2, got {ray_candidates}")
    rng = np.random.default_rng(seed)
    diag = Diagnostics()

    probes = pauli_axis_families() if n_sys == 2 else []
    families = [random_spectral_family(rng, n_sys) for _ in range(3)] + probes
    lifted_families = [lift_experiment(f, n_env) for f in families]
    big = _random_densities(rng, n_sys * n_env, samples)
    if two_qubits:
        big = np.concatenate([big, singlet_density()[None]])
    reduced = partial_trace(big, (n_sys, n_env))
    # one column per (family, outcome); rows are the states, so the failures
    # below come out in (state, family, outcome) order
    outcome_indices = [k for family in families for k in range(1, len(family) + 1)]
    residuals = np.abs(np.stack(
        [
            _born(reduced, P) - _born(big, lifted_P)
            for family, lifted in zip(families, lifted_families)
            for P, lifted_P in zip(family.projections, lifted.projections)
        ],
        axis=-1,
    ))
    for state, column in zip(*np.nonzero(~(residuals <= tol))):
        diag.record(
            "completed.trace_identity",
            False,
            f"outcome {outcome_indices[column]}: residual {residuals[state, column]:.3g}",
        )
    diag.checks.setdefault("completed.trace_identity", True)
    diag.details["completed_max_residual"] = float(np.max(residuals, initial=0.0))
    diag.details["samples"] = len(big)

    # the finite-entity harness: a handful of sampled states is enough to
    # exercise the morphism contract end to end
    harness = min(6, len(big))
    big_entity, big_measure = finite_completed_entity(big[:harness], lifted_families)
    small_entity, small_measure = finite_completed_entity(reduced[:harness], families)
    witness = SubEntityWitness(
        m={f"s{j}": f"s{j}" for j in range(1, harness + 1)},
        n={f"e{i}": f"e{i}" for i in range(1, len(families) + 1)},
        l={
            f"e{i}:o{k}": f"e{i}:o{k}"
            for i, family in enumerate(families, start=1)
            for k in range(1, len(family) + 1)
        },
    )
    contract = verify_probabilistic_sub_entity(
        ProbabilisticEntity(small_entity, (small_measure,)),
        ProbabilisticEntity(big_entity, (big_measure,)),
        witness,
        ProbabilityCorrespondence([(small_measure, big_measure)]),
        tol=tol,
    )
    diag.record("completed.morphism_contract", contract.passed, "; ".join(contract.failures))

    if two_qubits:
        # the probes are the last families; each (projection, target) pair
        # is one probe outcome and the probability the singlet gives it
        target = singlet_density()
        outcomes = [
            (P, _born(target, lifted_P))
            for probe, lifted in zip(probes, lifted_families[-len(probes):])
            for P, lifted_P in zip(probe.projections, lifted.projections)
        ]
        side = int(round(np.sqrt(ray_candidates)))
        phis = np.linspace(0.0, 2 * np.pi, side, endpoint=False)
        thetas = np.linspace(0.0, np.pi, side)[:, None]
        best = np.inf
        (P0, p0), *rest = outcomes
        # RAY_BLOCK theta rows of rays at a time; each ray's arithmetic is
        # that of a one-row evaluation, so the residuals do not depend on it
        for start in range(0, side, RAY_BLOCK):
            kets = np.moveaxis(ray_from_angles(thetas[start:start + RAY_BLOCK], phis), 0, -1)
            densities = _rank_one(kets)
            residual = np.abs(_born(densities, P0) - p0)
            for P, p in rest:
                np.maximum(residual, np.abs(_born(densities, P) - p), out=residual)
            best = min(best, float(residual.min()))
        diag.details["standard_ray_min_residual"] = float(best)
        diag.details["ray_candidates"] = side * side
        diag.record(
            "standard.no_ray_reproduces_entangled_state",
            best > failure_threshold,
            f"a candidate ray came within {best:.3g}",
        )
    return diag
