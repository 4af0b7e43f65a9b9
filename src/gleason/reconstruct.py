"""Density-matrix reconstruction from ray-valuation oracles.

The five routes consume nothing but valuations of unit vectors; README's
route table lists them, and each route's docstring states its construction.
Every basis route and the basis-independence check read their couplings off
one ``_probe_batch`` (``_coupling_matrix``) of one basis or a stack, every
basis route repairs from the ``eigh`` of its coupling matrix, and
``transition_matrix`` links the valuations of two bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    ATOL,
    DensityMatrix,
    OrthonormalBasis,
    _at_least,
    _density_from_spectrum,
    _hermitian_part,
    _phases,
    _row_norms,
    _square,
    haar_basis_matrices,
    nearest_density_matrix,
)
from .serialize import matrix_to_json
from .valuation import ValuationOracle, pair_probes, polarize

__all__ = [
    "TransitionMatrix",
    "ReconstructionReport",
    "ImplicitConfig",
    "ConvergenceError",
    "explicit_query_vectors",
    "explicit_reconstruct",
    "explicit_reconstruct_real",
    "implicit_reconstruct",
    "haar_average_reconstruct",
    "pauli_reconstruct_2d",
    "transition_matrix",
]

# Averaging chunk for the Monte Carlo route; fixed so the summation order
# (and hence the float result) is reproducible per seed.
_CHUNK = 2048


class ConvergenceError(RuntimeError):
    """The implicit route's one batch cannot reach the requested tolerance;
    carries the top Ritz pair of its basis (``best_vector``, ``best_value``),
    the least tolerance it accepts (``residual``), the points it measured
    (``sweeps``, d) and the oracle's noise floor ``floor``, part of
    ``residual`` and 0 on an exact oracle."""

    def __init__(self, best_vector: np.ndarray, best_value: float, residual: float,
                 sweeps: int, floor: float):
        self.best_vector = best_vector
        self.best_value = best_value
        self.residual = residual
        self.sweeps = sweeps
        self.floor = floor
        super().__init__(
            f"tol not reached after {sweeps} points (best value {best_value:.6g}, "
            f"least reachable tol {residual:.3e}, noise floor {floor:.3e})"
        )


def _stochastic_deviations(arr: np.ndarray) -> tuple[float, float, float]:
    """Largest deviations of a nonempty real square matrix from double
    stochasticity: of its row sums and its column sums from 1, and of its
    entries from [0, 1]; a sum beyond float64 is inf, with no warning."""
    with np.errstate(over="ignore"):
        rows = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
        cols = float(np.max(np.abs(arr.sum(axis=0) - 1.0)))
    span = float(max(np.max(-arr), np.max(arr - 1.0), 0.0))
    return rows, cols, span


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Doubly stochastic matrix of squared basis overlaps |<q_i|p_j>|^2."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _doubly_stochastic(_square(self.entries, "transition matrix", float), 1e-12)
        object.__setattr__(self, "entries", arr)


def _doubly_stochastic(arr: np.ndarray, bound: float) -> np.ndarray:
    """``arr``, after checking that it is doubly stochastic within ``bound``."""
    rows, cols, span = _stochastic_deviations(arr)
    if not max(rows, cols, span) <= bound:
        raise ValueError(f"not doubly stochastic within {bound:.3g}: row sums off by {rows:.3e}, "
                         f"column sums by {cols:.3e}, entries outside [0, 1] by {span:.3e}")
    return arr


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


def _finish(method: str, estimate: np.ndarray, query_count: int,
            repaired: DensityMatrix) -> ReconstructionReport:
    """The report of a run, from its estimate and the route's repair of it."""
    residual = float(np.linalg.norm(estimate - repaired.matrix))
    return ReconstructionReport(method, estimate, repaired, query_count, residual)


def _trivial_report(method: str) -> ReconstructionReport:
    # in one dimension the valuation is identically 1 and so is the state
    one = np.ones((1, 1), dtype=np.complex128)
    return ReconstructionReport(method, one, DensityMatrix(one), 0, 0.0)


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (j, k) of the basis pairs j < k, in row-major order; computed once per d."""
    return np.triu_indices(d, 1)


def _probe_batch(x: np.ndarray, phases: tuple, unit: bool = False) -> np.ndarray:
    """The query block of the basis with rows x_j: those d rows, copied
    exactly, then ``pair_probes`` with ``phases`` of the rows x_j/sqrt(2) and
    x_k/sqrt(2) of each pair j < k (``_pairs``); for s bases, the rows of
    basis t at x[:, t], the s blocks side by side, (m, s, d).  ``unit`` scales
    each probe row to unit norm on its float64 view, as a basis is orthonormal
    only within ATOL."""
    d = len(x)
    j, k = _pairs(d)
    rows = np.empty((d + len(phases) * len(j),) + x.shape[1:], x.dtype)
    rows[:d] = x
    half = rows[:d] / math.sqrt(2)
    pair_probes(half[j], half[k], phases, out=rows[d:])
    if unit:
        flat = rows[d:].view(np.float64)
        flat *= (1 / _row_norms(rows[d:].reshape(-1, d))).reshape(*flat.shape[:-1], 1)
    return rows


def _coupling_matrix(vals: np.ndarray, d: int, phases: tuple) -> np.ndarray:
    """The Hermitian matrix <x_j|rho|x_k> of a basis from v on its
    ``_probe_batch`` with ``phases``: the d values of its rows on the
    diagonal, and above it the ``polarize`` of each pair's probes, whose -w
    values are measured or, for the +w half, v(x_j) + v(x_k) - v(w); for the
    values of s bases side by side, (m, s), the s matrices (d, d, s)."""
    j, k = _pairs(d)
    v = vals[d:].reshape((len(j), len(phases)) + vals.shape[1:])
    plus, minus = (v[:, 0::2], v[:, 1::2]) if -1 in phases else (
        v, (vals[j] + vals[k])[:, None] - v)
    upper = polarize(plus, minus)
    m = np.zeros((d, d) + vals.shape[1:], upper.dtype)
    m.reshape(d * d, -1)[:: d + 1] = vals[:d].reshape(d, -1)  # the diagonal
    m[j, k] = upper
    m[k, j] = np.conj(upper)
    return m


def _basis_estimates(oracle: ValuationOracle, b: np.ndarray) -> np.ndarray:
    """The explicit construction's raw estimates B M B^H in bases b (s, d, d),
    from one ``query_batch`` of their ``explicit_query_vectors`` blocks in turn."""
    s, d = b.shape[:2]
    phases = _phases(oracle.field)
    rows = _probe_batch(b.transpose(2, 0, 1), phases, unit=True)
    vals = oracle.query_batch(rows.swapaxes(0, 1).reshape(-1, d))
    m = _coupling_matrix(vals.reshape(s, -1).T, d, phases).transpose(2, 0, 1)
    # contiguous, so that each product is the BLAS call a single basis makes
    b, m = np.ascontiguousarray(b), np.ascontiguousarray(m)
    return b @ m @ np.swapaxes(b.conj(), 1, 2)


def explicit_query_vectors(basis: OrthonormalBasis, field: str = "complex") -> np.ndarray:
    """The unit vectors the explicit route queries, as stacked rows.

    Order: the d basis vectors, then for each pair j < k the probes
    (n_j + n_k)/sqrt(2), (n_j - n_k)/sqrt(2) and, in complex mode, also
    (n_j + i n_k)/sqrt(2), (n_j - i n_k)/sqrt(2).  Total 2d^2 - d rows
    in complex mode, d^2 in real mode; any other field is rejected.  The rows
    are the basis's ``_probe_batch`` with its probes scaled to unit norm."""
    return _probe_batch(basis.matrix.T, _phases(field), unit=True)


def _polarization_report(
    method: str, oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    """The explicit construction's estimate B M B^H in ``basis``, repaired from
    its eigenpairs (w, B y) for (w, y) those of M; 1, with no query, at d=1."""
    d = basis.dim
    if d != oracle.dim:
        raise ValueError(f"basis dim {d} != oracle dim {oracle.dim}")
    if d == 1:
        return _trivial_report(method)
    before = oracle.query_count
    vals = oracle.query_batch(explicit_query_vectors(basis, oracle.field))
    m = _coupling_matrix(vals, d, _phases(oracle.field))
    b = basis.matrix
    w, y = np.linalg.eigh(m)
    return _finish(method, b @ m @ b.conj().T, oracle.query_count - before,
                   _density_from_spectrum(w, b @ y))


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
    return _polarization_report("explicit", oracle, basis)


def explicit_reconstruct_real(
    oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    """Real-Hilbert-space variant: d^2 queries, no imaginary probes."""
    if oracle.field != "real":
        raise ValueError("explicit_reconstruct_real needs a real-mode oracle")
    return _polarization_report("explicit-real", oracle, basis)


def pauli_reconstruct_2d(
    oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    """Qubit reconstruction from 6 valuations (4 in real mode).

    Its probes x, y, (x +/- y)/sqrt2, (x +/- iy)/sqrt2 are the d=2 explicit
    probes in order, so this is the explicit route at d=2, in either field."""
    if oracle.dim != 2:
        raise ValueError("pauli_reconstruct_2d is defined for dim 2 only")
    return _polarization_report("pauli2d", oracle, basis)


def haar_average_reconstruct(
    oracle: ValuationOracle, num_bases: int, seed: int
) -> ReconstructionReport:
    """Monte Carlo reconstruction from uniformly random decoherence bases.

    Averages the basis-decohered states rho_P over Haar-random bases and
    unbiases with  estimate = (d+1) <rho_P> - I.  The estimate has unit
    trace at every sample count (each decohered state does); its Frobenius
    error decays as 1/sqrt(num_bases).  The raw estimate may leave the PSD
    cone at finite sample counts, so the repaired state is reported
    alongside it.  Each chunk of bases is one ``query_batch``; as it clips
    each value v_r to [0, 1], sum_r v_r n_r n_r^H over the chunk's rows is
    one real Gram matrix of the rows sqrt(v_r) n_r, (Re, Im) interleaved.
    """
    _at_least(num_bases, 1, "num_bases")
    _at_least(seed, 0, "seed")
    if oracle.field != "complex":
        raise ValueError("the uniform-average identity is implemented for "
                         "complex Hilbert spaces only")
    d = oracle.dim
    if d == 1:
        return _trivial_report("haar-average")
    before = oracle.query_count
    rng = np.random.default_rng(seed)
    gram = np.zeros((2 * d, 2 * d))
    for first in range(0, num_bases, _CHUNK):
        c = min(_CHUNK, num_bases - first)
        rows = np.swapaxes(haar_basis_matrices(d, c, rng), 1, 2).reshape(c * d, d)
        rows *= np.sqrt(oracle.query_batch(rows))[:, None]
        flat = np.ascontiguousarray(rows).view(np.float64)
        gram += flat.T @ flat
    total = gram[0::2, 0::2] + gram[1::2, 1::2] + 1j * (gram[1::2, 0::2] - gram[0::2, 1::2])
    avg = total / num_bases
    estimate = (d + 1) * avg - np.eye(d)
    estimate = _hermitian_part(estimate)
    return _finish("haar-average", estimate, oracle.query_count - before,
                   nearest_density_matrix(estimate))


def transition_matrix(
    q_basis: OrthonormalBasis, p_basis: OrthonormalBasis
) -> TransitionMatrix:
    """Squared-overlap matrix S_ij = |<q_i|p_j>|^2 of two bases.

    S is unistochastic by construction, and links the valuations of the
    two bases through  v(p_j) = sum_i v(q_i) S_ij  whenever the q_i
    diagonalize the hidden state.

    S is checked at the bound its validated inputs imply, not at
    ``TransitionMatrix``'s 1e-12.  A basis passes when its computed Gram
    matrix is within ATOL of I entrywise, so its exact Gram matrix I + E has
    |E_ij| <= a = ATOL + 2(d+2) eps (a Gram entry is a length-d dot).  Row i
    of S sums to q_i^H P P^H q_i, where |q_i|^2 is within a of 1 and P P^H has
    the eigenvalues of P^H P = I + E_P, within ||E_P||_2 <= d a of 1: the sum
    is within (1 + a)(1 + d a) - 1 = (d+1) a + d a^2 of 1, and a column sum
    likewise; an entry is at most (1 + a)^2.  Forming S rounds each overlap
    by at most 2(d+2) eps, which moves a row sum by 4(d+2) sqrt(d) eps, and
    the squares and the sum add (d+1) eps.  All of it is within
    (d+1) ATOL + 8 (d+2)^2 eps.
    """
    if q_basis.dim != p_basis.dim:
        raise ValueError("bases must share a dimension")
    d = q_basis.dim
    entries = np.abs(q_basis.matrix.conj().T @ p_basis.matrix) ** 2
    entries.setflags(write=False)
    bound = (d + 1) * ATOL + 8 * (d + 2) ** 2 * np.finfo(float).eps
    s = object.__new__(TransitionMatrix)  # the check here stands for __post_init__'s
    object.__setattr__(s, "entries", _doubly_stochastic(entries, bound))
    return s


def _column_error(d: int) -> float:
    """Bound delta = 8 (d+4) sqrt(d) eps on the rounding error of one column of
    the matrix T_jk = <x_j|rho|x_k> that ``implicit_reconstruct`` measures on
    the rows x_j of its basis X, in one batch.

    Each value v(p) = Re p^H (rho p) is two length-d dots, off by at most
    2(d+2) eps |p|^T |rho| |p| <= 2(d+2) eps (|p|^T |rho| |p| <= ||rho||_F <= 1).
    A diagonal entry is one value of a row x_j as drawn.  A probe row
    p = x_j/sqrt2 + w x_k/sqrt2 (``_probe_batch``, w = 1 or i) is off by
    three roundings of eps/2 (sqrt2's, the division's and the sum's), so
    |dp| <= 1.5 eps q for q = (|x_j| + |x_k|)/sqrt2, and moves v(p) by at most
    3 eps q^T |rho| q <= 6 eps (||q||^2 <= 2): 2(d+5) eps in all.  Each part
    of an entry off the diagonal is [v(w) - v(-w)]/2 with
    v(-w) = v(x_j) + v(x_k) - v(w) (``polarize``; that identity expands the
    quadratic form, so the x_j need not be exactly orthonormal), off by at
    most 2(d+5) eps + 2(d+2) eps < 4(d+4) eps, so |dT_jk| <= 4 sqrt2 (d+4) eps.
    No entry is formed from another, so a column's d entries are off by at
    most 4 sqrt2 (d+4) sqrt(d) eps < delta, and T = M^H rho M + E for M = X^T,
    ||E||_F <= sqrt(d) delta / sqrt2 <= 2 sqrt(d) delta.

    The model M^-H T M^-1 is within ||E|| / s_d^2 of rho, for s_d the least
    singular value of X, and eta = ||X X^H - I||_F >= 1 - s_d^2, so it is
    within 2 sqrt(d) delta / (1 - eta), the rounding part of the least ``tol``
    that ``implicit_reconstruct`` accepts.  The estimate M T M^H =
    sum_i theta_i |M y_i><M y_i| differs from it by O(eta), rounding level."""
    return 8 * (d + 4) * math.sqrt(d) * np.finfo(float).eps


@dataclass(frozen=True)
class ImplicitConfig:
    """Settings of the sphere-maximization route.

    ``tol`` is the error the run must reach (see ``implicit_reconstruct``):
    ``None`` accepts whatever its one batch gives, and a ``tol`` below the
    least it accepts raises ``ConvergenceError`` once the batch is paid for.
    A NaN or negative ``tol`` could never be met on any oracle, and an
    infinite one would only say what ``None`` says, so each is rejected with
    ``ValueError``.  ``seed`` draws the Haar basis the run
    measures; numpy takes no negative seed, so one is rejected with
    ``ValueError`` here, before the run queries anything.
    """

    tol: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tol is not None:
            _at_least(self.tol, 0, "tol", real=True)
        _at_least(self.seed, 0, "seed")


def implicit_reconstruct(
    oracle: ValuationOracle, config: ImplicitConfig | None = None
) -> ReconstructionReport:
    """Spectral reconstruction by iterated maximization with deflation.

    Finds n_1 maximizing the valuation on the unit sphere, then n_2
    maximizing it on the sphere orthogonal to n_1, and so on; the
    valuations at the maximizers are the eigenvalues (non-increasing) and
    the estimate is  sum_i v(n_i) |n_i><n_i|.

    The run draws one Haar basis X of the oracle's field from ``config.seed``
    (``haar_basis_matrices``) and measures it in one ``query_batch``: the d
    rows x_j, then the +w half of the explicit probes of each pair j < k
    (``_probe_batch``), from which ``_coupling_matrix`` gives
    T_jk = <x_j|rho|x_k>, reading each -w value off the diagonals.  By
    Courant-Fischer the Ritz pairs (theta_i, z_i = X^T y_i) of T are those
    maximizers and values, so the estimate is  sum_i theta_i |z_i><z_i|.
    Those pairs are its eigenpairs, so ``repaired`` is their simplex
    projection (``_density_from_spectrum``), ``nearest_density_matrix`` of the
    estimate to rounding: the run's one ``eigh`` is T's.
    Every run, on any oracle, costs exactly d + (k-1) d(d-1)/2 queries
    (k = 3 complex, 2 real): d^2, below the explicit route's 2d^2 - d for
    d >= 2, or d(d+1)/2 in the real field, below its d^2.

    The least ``tol`` a run accepts is
    floor = 2 sqrt(d) delta / (1 - eta) + 3 sigma sqrt(k(d-1)).  Its first
    term is the rounding bound the batch certifies (``_column_error``; eta is
    the orthonormality defect of X).  Its second is the noise floor, for
    sigma the oracle's ``noise_scale``: three times the scale of the noise in
    k(d-1) values, about as many as one column's couplings are formed from, a
    scale rather than a bound.

    Raises
    ------
    ConvergenceError
        If ``config.tol`` is below floor.  The batch has been paid for; the
        payload is its top Ritz pair, floor and its d points.
    """
    cfg = config or ImplicitConfig()
    d = oracle.dim
    if d == 1:
        return _trivial_report("implicit")
    before = oracle.query_count
    phases = _phases(oracle.field)[0::2]
    x = haar_basis_matrices(d, 1, np.random.default_rng(cfg.seed), oracle.field)[0].T
    x = x if oracle.field == "complex" else x.real
    vals = oracle.query_batch(_probe_batch(x, phases))
    w, y = np.linalg.eigh(_coupling_matrix(vals, d, phases))
    theta, z = w[::-1], (y.T @ x)[::-1]
    eta = float(np.linalg.norm(x @ x.conj().T - np.eye(d)))
    noise = 3 * oracle.noise_scale * math.sqrt((len(phases) + 1) * (d - 1))
    floor = 2 * math.sqrt(d) * _column_error(d) / (1 - eta) + noise
    if cfg.tol is not None and cfg.tol < floor:
        raise ConvergenceError(z[0], float(theta[0]), floor, d, noise)
    estimate = _hermitian_part((z.T * theta) @ z.conj())
    repaired = _density_from_spectrum(w, z[::-1].T)
    return _finish("implicit", estimate, oracle.query_count - before, repaired)
