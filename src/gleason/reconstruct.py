"""Density-matrix reconstruction from ray-valuation oracles.

The routes below consume nothing but valuations of unit vectors:

* ``explicit_reconstruct``: queries the 2d^2 - d vectors n_j,
  (n_j +/- n_k)/sqrt(2) and (n_j +/- i n_k)/sqrt(2) of an arbitrary
  basis and assembles matrix elements by polarization.  Exact on exact
  oracles, for any basis.
* ``explicit_reconstruct_real``: the real-Hilbert-space variant, d^2
  queries, symmetric output.
* ``pauli_reconstruct_2d``: the explicit route at d=2 in either field
  (6 or 4 queries), whose Bloch view is ``bloch_vector_of``.
* ``implicit_reconstruct``: iterated sphere maximization with deflation;
  returns the spectral form  sum_i v(n_i) |n_i><n_i|  where each n_i
  maximizes the valuation on the unit sphere orthogonal to its
  predecessors.
* ``haar_average_reconstruct``: Monte Carlo average of basis-decohered
  states, unbiased via  rho = (d+1) <rho_P> - I.

The explicit family shares one assembly step over the polarization kernel
(``pair_probes``, ``polarize``) of :mod:`gleason.valuation`.

Together with the decoherence map and basis transition matrices these
cover every operator identity the valuation determines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    haar_basis_matrices,
    nearest_density_matrix,
)
from .serialize import matrix_to_json
from .valuation import ExactOracle, ValuationOracle, pair_probes, polarize

__all__ = [
    "TransitionMatrix",
    "ReconstructionReport",
    "BlochVector",
    "ImplicitConfig",
    "ConvergenceError",
    "explicit_query_vectors",
    "explicit_reconstruct",
    "explicit_reconstruct_real",
    "implicit_reconstruct",
    "decohere",
    "haar_average_reconstruct",
    "pauli_reconstruct_2d",
    "transition_matrix",
    "bloch_vector_of",
]

_SQRT2 = np.sqrt(2.0)

# Averaging chunk for the Monte Carlo route; fixed so the pairwise
# reduction tree (and hence the float result) is reproducible per seed.
_CHUNK = 2048


class ConvergenceError(RuntimeError):
    """Sphere maximization did not converge within the sweep budget."""

    def __init__(self, best_vector: np.ndarray, best_value: float, residual: float, sweeps: int):
        self.best_vector = best_vector
        self.best_value = best_value
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(
            f"no convergence after {sweeps} sweeps "
            f"(best value {best_value:.6g}, last move {residual:.3e})"
        )


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Doubly stochastic matrix of squared basis overlaps |<q_i|p_j>|^2."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("transition matrix must be square")
        if not (np.min(arr) >= -1e-12 and np.max(arr) <= 1 + 1e-12):
            raise ValueError("entries must lie in [0, 1]")
        if not np.max(np.abs(arr.sum(axis=0) - 1.0)) <= 1e-12:
            raise ValueError("column sums differ from 1")
        if not np.max(np.abs(arr.sum(axis=1) - 1.0)) <= 1e-12:
            raise ValueError("row sums differ from 1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Outcome of one reconstruction run.

    ``estimate`` is the raw assembled matrix (possibly non-PSD for noisy
    or finite-sample routes); ``repaired`` is its projection onto the
    density-matrix set; ``residual`` is the Frobenius distance between
    the two.
    """

    method: str
    estimate: np.ndarray
    repaired: DensityMatrix
    query_count: int
    residual: float

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "query_count": self.query_count,
            "residual": self.residual,
            "estimate": matrix_to_json(self.estimate),
            "repaired": matrix_to_json(self.repaired.matrix),
        }


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector (r_x, r_y, r_z) parameterizing a qubit state as (I + r.sigma)/2."""

    r_x: float
    r_y: float
    r_z: float

    def norm(self) -> float:
        return float(np.sqrt(self.r_x**2 + self.r_y**2 + self.r_z**2))

    def is_physical(self, tol: float = 1e-10) -> bool:
        return self.norm() <= 1 + tol


def bloch_vector_of(state: DensityMatrix | np.ndarray) -> BlochVector:
    m = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
    if m.shape != (2, 2):
        raise ValueError("Bloch vector is defined for 2x2 states")
    return BlochVector(
        float((m[0, 1] + m[1, 0]).real),  # tr(m sigma_x)
        float((m[1, 0] - m[0, 1]).imag),  # tr(m sigma_y)
        float((m[0, 0] - m[1, 1]).real),  # tr(m sigma_z)
    )


def _finish(method: str, estimate: np.ndarray, query_count: int) -> ReconstructionReport:
    repaired = nearest_density_matrix(estimate)
    residual = float(np.linalg.norm(estimate - repaired.matrix))
    return ReconstructionReport(method, estimate, repaired, query_count, residual)


def _trivial_report(method: str) -> ReconstructionReport:
    # in one dimension the valuation is identically 1 and so is the state
    one = np.ones((1, 1), dtype=np.complex128)
    return ReconstructionReport(method, one, DensityMatrix(one), 0, 0.0)


def _check_dims(oracle: ValuationOracle, basis: OrthonormalBasis) -> None:
    if basis.dim != oracle.dim:
        raise ValueError(f"basis dim {basis.dim} != oracle dim {oracle.dim}")


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (j, k) of the basis pairs j < k, in row-major order; computed once per d."""
    return np.triu_indices(d, 1)


def explicit_query_vectors(basis: OrthonormalBasis, field: str = "complex") -> np.ndarray:
    """The unit vectors the explicit route queries, as stacked rows.

    Order: the d basis vectors, then for each pair j < k the probes
    (n_j + n_k)/sqrt(2), (n_j - n_k)/sqrt(2) and, in complex mode, also
    (n_j + i n_k)/sqrt(2), (n_j - i n_k)/sqrt(2).  Total 2d^2 - d rows
    in complex mode, d^2 in real mode.
    """
    b = basis.matrix
    j, k = _pairs(basis.dim)
    probes = pair_probes(b[:, j].T, b[:, k].T, field)
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    return np.vstack([b.T, probes])


def _polarization_report(
    method: str, oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    """The explicit construction shared by every explicit-family route.

    A pair's probes have squared norm 2 before normalization, so f = 2 v."""
    d = basis.dim
    if d == 1:
        return _trivial_report(method)
    before = oracle.query_count
    vals = oracle.query_batch(explicit_query_vectors(basis, oracle.field))
    w = polarize(2 * vals[d:], oracle.field)
    j, k = _pairs(d)
    m = np.diag(vals[:d].astype(np.complex128))
    m[j, k] = w
    m[k, j] = np.conj(w)
    b = basis.matrix
    return _finish(method, b @ m @ b.conj().T, oracle.query_count - before)


def explicit_reconstruct(
    oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    """Single-pass reconstruction from 2d^2 - d valuations in a chosen basis.

    Diagonal entries are the basis-vector valuations; off-diagonal entries
    come from the polarization identity,

        <n_j|rho|n_k> = [v+ - v-]/2 - i [v+i - v-i]/2,

    where v+- are the valuations of (n_j +/- n_k)/sqrt(2) and v+-i those
    of (n_j +/- i n_k)/sqrt(2).  On an exact oracle the estimate equals
    the hidden state to machine precision, independent of the basis.
    """
    if oracle.field != "complex":
        raise ValueError("explicit_reconstruct needs a complex-mode oracle; "
                         "use explicit_reconstruct_real instead")
    _check_dims(oracle, basis)
    return _polarization_report("explicit", oracle, basis)


def explicit_reconstruct_real(
    oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    """Real-Hilbert-space variant: d^2 queries, no imaginary probes."""
    if oracle.field != "real":
        raise ValueError("explicit_reconstruct_real needs a real-mode oracle")
    _check_dims(oracle, basis)
    if not basis.is_real():
        raise ValueError("real-mode reconstruction needs a real basis")
    return _polarization_report("explicit-real", oracle, basis)


def pauli_reconstruct_2d(
    oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    """Qubit reconstruction from 6 valuations (4 in real mode).

    Its probes x, y, (x +/- y)/sqrt2, (x +/- iy)/sqrt2 are the d=2 explicit
    probes in order, so this is the explicit route at d=2, in either field.
    ``bloch_vector_of`` gives the Bloch view (r_z = v(x) - v(y), ...)."""
    if oracle.dim != 2:
        raise ValueError("pauli_reconstruct_2d is defined for dim 2 only")
    _check_dims(oracle, basis)
    return _polarization_report("pauli2d", oracle, basis)


def decohere(
    source: DensityMatrix | ValuationOracle, basis: OrthonormalBasis
) -> DensityMatrix:
    """Erase coherences with respect to a basis:  sum_i v(p_i) |p_i><p_i|.

    Accepts either a state (valuated exactly) or an oracle.  The result
    is diagonal in the given basis and idempotent under repetition.
    """
    oracle = ExactOracle(source) if isinstance(source, DensityMatrix) else source
    _check_dims(oracle, basis)
    b = basis.matrix
    vals = oracle.query_batch(b.T)  # rows are the basis vectors
    out = (b * vals) @ b.conj().T
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def _pairwise_sum(blocks: list[np.ndarray]) -> np.ndarray:
    """Tree reduction; summation order depends only on the block count."""
    while len(blocks) > 1:
        paired = [
            blocks[i] + blocks[i + 1] if i + 1 < len(blocks) else blocks[i]
            for i in range(0, len(blocks), 2)
        ]
        blocks = paired
    return blocks[0]


def haar_average_reconstruct(
    oracle: ValuationOracle, num_bases: int, seed: int
) -> ReconstructionReport:
    """Monte Carlo reconstruction from uniformly random decoherence bases.

    Averages the basis-decohered states rho_P over Haar-random bases and
    unbiases with  estimate = (d+1) <rho_P> - I.  The estimate has unit
    trace at every sample count (each decohered state does); its Frobenius
    error decays as 1/sqrt(num_bases).  The raw estimate may leave the PSD
    cone at finite sample counts, so the repaired state is reported
    alongside it.
    """
    if num_bases < 1:
        raise ValueError("num_bases must be >= 1")
    if oracle.field != "complex":
        raise ValueError("the uniform-average identity is implemented for "
                         "complex Hilbert spaces only")
    d = oracle.dim
    if d == 1:
        return _trivial_report("haar-average")
    before = oracle.query_count
    rng = np.random.default_rng(seed)
    sums: list[np.ndarray] = []
    remaining = num_bases
    while remaining > 0:
        c = min(_CHUNK, remaining)
        remaining -= c
        q = haar_basis_matrices(d, c, rng)
        rows = np.swapaxes(q, 1, 2).reshape(c * d, d)
        vals = oracle.query_batch(rows).reshape(c, d)
        sums.append(np.einsum("si,sai,sbi->ab", vals, q, q.conj()))
    avg = _pairwise_sum(sums) / num_bases
    estimate = (d + 1) * avg - np.eye(d)
    estimate = (estimate + estimate.conj().T) / 2
    return _finish("haar-average", estimate, oracle.query_count - before)


def transition_matrix(
    q_basis: OrthonormalBasis, p_basis: OrthonormalBasis
) -> TransitionMatrix:
    """Squared-overlap matrix S_ij = |<q_i|p_j>|^2 of two bases.

    S is unistochastic by construction, and links the valuations of the
    two bases through  v(p_j) = sum_i v(q_i) S_ij  whenever the q_i
    diagonalize the hidden state.
    """
    if q_basis.dim != p_basis.dim:
        raise ValueError("bases must share a dimension")
    overlap = q_basis.matrix.conj().T @ p_basis.matrix
    return TransitionMatrix(np.abs(overlap) ** 2)


@dataclass(frozen=True)
class ImplicitConfig:
    """Knobs for the sphere-maximization route.

    ``tol`` bounds the iterate movement per sweep at convergence;
    ``improve_floor`` gates rotations whose predicted gain is at rounding
    level (this is what terminates cleanly on fully degenerate states).
    """

    tol: float = 1e-8
    max_sweeps: int = 300
    restarts: int = 3
    seed: int = 0
    improve_floor: float = 1e-15


def _unit_query(oracle: ValuationOracle, x: np.ndarray) -> float:
    return float(oracle.query_batch((x / np.linalg.norm(x))[None, :])[0])


def _ascend_sphere(
    oracle: ValuationOracle,
    w_frame: np.ndarray,
    rng: np.random.Generator,
    cfg: ImplicitConfig,
) -> tuple[np.ndarray, float, bool, float]:
    """Maximize the valuation over unit vectors in the span of ``w_frame``.

    Cyclic two-coordinate ascent: restricted to the great circle (and
    phase torus, in complex mode) through the iterate and one coordinate
    direction, the valuation is a quadratic trigonometric polynomial whose
    coefficients are fixed by at most three extra probes, so each substep
    rotates straight to the restricted maximum in closed form.
    """
    m = w_frame.shape[1]
    complex_mode = oracle.field == "complex"
    u = rng.standard_normal(m).astype(np.complex128)
    if complex_mode:
        u = u + 1j * rng.standard_normal(m)
    u /= np.linalg.norm(u)
    vu = _unit_query(oracle, w_frame @ u)
    last_move = np.inf
    for sweep in range(cfg.max_sweeps):
        biggest = 0.0
        for l in range(m):
            w = -u * np.conj(u[l])
            w[l] += 1.0
            nw = np.linalg.norm(w)
            if nw < 1e-8:  # coordinate direction coincides with the iterate
                continue
            w /= nw
            vw = _unit_query(oracle, w_frame @ w)
            avg = 0.5 * (vu + vw)
            vp = _unit_query(oracle, w_frame @ ((u + w) / _SQRT2))
            coupling = vp - avg
            if complex_mode:
                vpi = _unit_query(oracle, w_frame @ ((u + 1j * w) / _SQRT2))
                coupling = coupling + 1j * (avg - vpi)
            half_gap = 0.5 * (vu - vw)
            top = avg + np.hypot(half_gap, abs(coupling))
            if top - vu <= cfg.improve_floor:
                continue
            # top eigenvector of [[vu, coupling], [conj, vw]] in the (u, w) plane
            comp = np.array([coupling, top - vu])
            alpha, beta = comp / np.linalg.norm(comp)
            u = alpha * u + beta * w
            u /= np.linalg.norm(u)
            vu = _unit_query(oracle, w_frame @ u)
            biggest = max(biggest, abs(beta))
        last_move = biggest
        if biggest < cfg.tol:
            return u, vu, True, last_move
    return u, vu, False, last_move


def implicit_reconstruct(
    oracle: ValuationOracle, config: ImplicitConfig | None = None
) -> ReconstructionReport:
    """Spectral reconstruction by iterated maximization with deflation.

    Finds n_1 maximizing the valuation on the unit sphere, then n_2
    maximizing it on the sphere orthogonal to n_1, and so on; the
    valuations at the maximizers are the eigenvalues (non-increasing) and
    the estimate is  sum_i v(n_i) |n_i><n_i|.  Each stage restarts the
    ascent a few times from random unit vectors and keeps the best
    converged run.

    Raises
    ------
    ConvergenceError
        If no restart of some stage converges within the sweep budget;
        the error carries the best iterate and its last sweep movement.
    """
    cfg = config or ImplicitConfig()
    d = oracle.dim
    if d == 1:
        return _trivial_report("implicit")
    before = oracle.query_count
    rng = np.random.default_rng(cfg.seed)
    frame = np.eye(d, dtype=np.complex128)
    estimate = np.zeros((d, d), dtype=np.complex128)
    for _stage in range(d):
        m = frame.shape[1]
        if m == 1:
            coeff = np.ones(1, dtype=np.complex128)
        else:
            best = None
            best_any = None
            for _ in range(cfg.restarts):
                u, vu, ok, move = _ascend_sphere(oracle, frame, rng, cfg)
                if best_any is None or vu > best_any[1]:
                    best_any = (u, vu, move)
                if ok and (best is None or vu > best[1]):
                    best = (u, vu)
            if best is None:
                u, vu, move = best_any
                raise ConvergenceError(frame @ u, vu, move, cfg.max_sweeps)
            coeff = best[0]
        n_vec = frame @ coeff
        n_vec /= np.linalg.norm(n_vec)
        lam = _unit_query(oracle, n_vec)
        estimate += lam * np.outer(n_vec, n_vec.conj())
        if m > 1:
            completion = np.linalg.qr(coeff.reshape(-1, 1), mode="complete")[0]
            frame = frame @ completion[:, 1:]
    estimate = (estimate + estimate.conj().T) / 2
    return _finish("implicit", estimate, oracle.query_count - before)
