"""Density-matrix reconstruction from ray-valuation oracles.

The five routes consume nothing but valuations of unit vectors; README's
route table lists them, and each route's docstring states its construction.
The explicit family shares one assembly step, and ``transition_matrix``
links the valuations of two bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    _at_least,
    _ginibre,
    _hermitian_part,
    _row_norms,
    _square,
    haar_basis_matrices,
    nearest_density_matrix,
)
from .serialize import matrix_to_json
from .valuation import ValuationOracle, coupling_probes, known_diagonal_coupling
from .valuation import pair_probes, polarize

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
    """Sphere maximization did not converge within the iteration budget; carries
    the last point the ascent measured, the valuation and residual norm ||r||
    read there, the iteration (residual batch) count ``sweeps`` and the noise
    floor no tolerance can beat."""

    def __init__(self, best_vector: np.ndarray, best_value: float, residual: float,
                 sweeps: int, floor: float):
        self.best_vector = best_vector
        self.best_value = best_value
        self.residual = residual
        self.sweeps = sweeps
        self.floor = floor
        super().__init__(
            f"no convergence after {sweeps} iterations (best value {best_value:.6g}, "
            f"residual norm {residual:.3e}, noise floor {floor:.3e})"
        )


def _stochastic_deviations(arr: np.ndarray) -> tuple[float, float, float]:
    """Largest deviations of a nonempty real square matrix from double
    stochasticity: of its row sums and its column sums from 1, and of its
    entries from [0, 1]."""
    rows = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
    cols = float(np.max(np.abs(arr.sum(axis=0) - 1.0)))
    span = float(max(np.max(-arr), np.max(arr - 1.0), 0.0))
    return rows, cols, span


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Doubly stochastic matrix of squared basis overlaps |<q_i|p_j>|^2."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _square(self.entries, "transition matrix", float)
        rows, cols, span = _stochastic_deviations(arr)
        if not max(rows, cols, span) <= 1e-12:
            raise ValueError(f"not doubly stochastic within 1e-12: row sums off by {rows:.3e}, "
                             f"column sums by {cols:.3e}, entries outside [0, 1] by {span:.3e}")
        object.__setattr__(self, "entries", arr)


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


def _finish(method: str, estimate: np.ndarray, query_count: int) -> ReconstructionReport:
    repaired = nearest_density_matrix(estimate)
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


def explicit_query_vectors(basis: OrthonormalBasis, field: str = "complex") -> np.ndarray:
    """The unit vectors the explicit route queries, as stacked rows.

    Order: the d basis vectors, then for each pair j < k the probes
    (n_j + n_k)/sqrt(2), (n_j - n_k)/sqrt(2) and, in complex mode, also
    (n_j + i n_k)/sqrt(2), (n_j - i n_k)/sqrt(2).  Total 2d^2 - d rows
    in complex mode, d^2 in real mode.  The first d rows are copied exactly
    from the basis; ``pair_probes`` forms the rest from the contiguous rows
    n_j/sqrt(2), and each is then scaled to unit norm on its float64 view,
    as the basis is orthonormal only within ATOL.
    """
    d = basis.dim
    j, k = _pairs(d)
    rows = np.empty(((4 if field == "complex" else 2) * len(j) + d, d), np.complex128)
    rows[:d] = basis.matrix.T
    half = rows[:d] / math.sqrt(2)
    probes = pair_probes(half[j], half[k], field, out=rows[d:])
    flat = probes.view(np.float64)
    flat *= (1 / _row_norms(probes))[:, None]
    return rows


def _polarization_estimate(oracle: ValuationOracle, basis: OrthonormalBasis) -> np.ndarray:
    """The raw estimate of the explicit construction shared by every
    explicit-family route; 1, with no query, in one dimension.

    A pair's probes have squared norm 2 before normalization, so f = 2 v."""
    d = basis.dim
    if d != oracle.dim:
        raise ValueError(f"basis dim {d} != oracle dim {oracle.dim}")
    if d == 1:
        return np.ones((1, 1), dtype=np.complex128)
    vals = oracle.query_batch(explicit_query_vectors(basis, oracle.field))
    w = polarize(2 * vals[d:], oracle.field)
    j, k = _pairs(d)
    m = np.diag(vals[:d].astype(np.complex128))
    m[j, k] = w
    m[k, j] = np.conj(w)
    b = basis.matrix
    return b @ m @ b.conj().T


def _polarization_report(
    method: str, oracle: ValuationOracle, basis: OrthonormalBasis
) -> ReconstructionReport:
    before = oracle.query_count
    estimate = _polarization_estimate(oracle, basis)
    return _finish(method, estimate, oracle.query_count - before)


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


# Iteration budget of one sphere ascent, and the residual norm at which a
# stage stops on an exact oracle when the caller gives no tolerance.
_MAX_SWEEPS = 300
_EXACT_TOL = 1e-8
# Relative singular value below which a direction of the measured history is
# dropped, and the weight of the random part a warm start adds outside it.
_SPAN_CUT = 1e-10
_EXPLORE = 1e-3


def _column_error(d: int) -> float:
    """Bound delta = 8 (d+4) sqrt(d) eps on the rounding error of the measured
    part of one column rho x of the full-span pass (``_span_pass``), whose
    frame is I, so that x = u exactly.

    Each value v(p) = Re p^H (rho p) is two length-d dots, off by at most
    2(d+2) eps |p|^T |rho| |p| <= 2(d+2) eps (|p|^T |rho| |p| <= ||rho||_F <= 1),
    and by 4 eps more from the rounding of the probe row p.  Each part of
    c_l = <u|rho|w_l> is formed from three values (``known_diagonal_coupling``,
    whose identity expands the quadratic form, so w_l need not be exactly
    orthonormal), so |dc_l| <= 4 sqrt2 (d+4) eps.  r = sum_l conj(c_l) w_l over
    at most d - 1 directions is off by sqrt(d-1) max|dc_l|, and the frame
    [x_0 ... x_{j-1}, u, W] of the Householder chain is unitary to O(d eps).
    In sum at most (d+4) eps (2 + 4 sqrt2 sqrt(d-1)) + O(d eps) <= delta for
    d >= 2.

    The rest of column j, along x_i (i < j), is inherited: conj(<x_j|AX_i>)
    = <x_i|rho|x_j> + conj(<x_j|e_i>), for e_i the error of column i's
    measured part, whose inherited part is orthogonal to x_j.  By Bessel's
    inequality these projections of e_i onto the orthonormal x_{i+1}, ... have
    squares summing to at most ||e_i||^2, so the Ritz matrix is T = M^H rho M
    + E for M = X^T, ||E||_F <= 2 sqrt(d) delta (sqrt2 for the two orthogonal
    parts of a column, with room for the chain's O(d eps) loss of orthogonality).

    The model M^-H T M^-1 is within ||E|| / s_d^2 of rho, for s_d the least
    singular value of X, and eta = ||X X^H - I||_F >= 1 - s_d^2, so it is
    within tol once 2 sqrt(d) delta <= tol (1 - eta).  The estimate M T M^H =
    sum_i theta_i |M y_i><M y_i| differs from it by O(eta), rounding level."""
    return 8 * (d + 4) * math.sqrt(d) * np.finfo(float).eps


@dataclass(frozen=True)
class ImplicitConfig:
    """Settings of the sphere-maximization route.

    ``tol`` bounds the residual norm ||rho u - v(u) u|| at which a stage's
    ascent stops, read at a measured point u or computed at a Ritz vector,
    and the error a certified model may carry (see ``implicit_reconstruct``);
    ``None`` stops at the oracle's noise floor (at least 1e-8), and a ``tol``
    below that floor is never met.  A NaN or negative ``tol`` could never be
    met on any oracle, so it is rejected with ``ValueError``.  ``seed`` draws
    the random part of every stage's start vector (see ``implicit_reconstruct``).
    """

    tol: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tol is not None:
            _at_least(self.tol, 0, "tol")


def _reflector(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Householder vector v (v_0 = 1) of the reflector H = I - tau v v^H
    that maps e_0 onto a multiple of u, in LAPACK's convention, and the
    coefficients -tau conj(v_l), l >= 1, so that H's trailing columns are
    e_l - tau conj(v_l) v."""
    alpha = u[0].item()
    beta = -math.copysign(math.sqrt(np.vdot(u, u).real), alpha.real)
    v = u / (alpha - beta)
    v[0] = 1.0
    return (alpha - beta) / beta * v[1:].conj(), v


def _householder_complement(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows w_l spanning the orthogonal complement of the unit vector u,
    written into ``out`` of shape (m-1, m).

    The w_l are the trailing columns of the reflector (``_reflector``), so
    they agree with ``np.linalg.qr(u[:, None], mode="complete")[0][:, 1:].T``
    to rounding: one outer product."""
    coef, v = _reflector(u)
    np.multiply(coef[:, None], v, out=out)
    out.reshape(-1)[1::u.size + 1] += 1.0
    return out


def _measure(oracle: ValuationOracle, frame_t: np.ndarray | None, u: np.ndarray, j: int,
             inh: int, xat: np.ndarray, resid: np.ndarray) -> tuple[float, float]:
    """One residual batch at the unit point u = x_j of frame coordinates:
    writes u, rho u and the j-th row and column of T into ``xat`` = (X, AX, T)
    and returns v(u) and ||rho u - v(u) u||.  The batch, built in ``resid``
    and mapped to full space by ``frame_t`` (``None`` for frame I), is u and
    (u+w_l)/sqrt2, (u+iw_l)/sqrt2 (real mode: k = 2, the first only; else 3)
    over the w_l spanning the complement of {x_0 ... x_{inh-1}, u}, so
    1 + k(m-1-inh) rows; the couplings to those x_i, conj(<u|rho x_i>), are
    read off AX.  The w_l are a Householder chain: u's reflector in the
    previous w_l's coordinates, mapped back by one rank-one update."""
    m = u.size
    k = 3 if oracle.field == "complex" else 2
    x, ax, t = xat
    n = m - 1 - inh
    w = resid[1 + inh:m]  # the complement basis, in place below the row of u
    if inh:  # u's reflector in the previous basis's coordinates, mapped back
        prev = resid[inh:m]
        coef, v = _reflector(prev.conj() @ u)
        w += coef[:, None] * (v @ prev)
    else:
        _householder_complement(u, w)
    rows = resid[inh:m + (k - 1) * n]
    rows[0] = u
    coupling_probes(u, w, oracle.field, out=rows[1 + n:])
    vals = oracle.query_batch(rows if frame_t is None else rows @ frame_t)
    vu = vals[0]
    c = known_diagonal_coupling(vu, vals[1:1 + n], vals[1 + n:], oracle.field)
    x[j] = u
    np.matmul(c.conj(), w, out=ax[j])
    ax[j] += vu * u
    t[j, j] = vu
    nr2 = np.vdot(c, c).real
    if inh:
        h = ax[:inh].conj() @ u  # <x_i|rho|u> = conj(<u|rho x_i>)
        ax[j] += h @ x[:inh]
        t[:inh, j] = h
        t[j, :inh] = h.conj()
        nr2 += np.vdot(h, h).real
    return float(vu), math.sqrt(nr2)


def _orthogonalized(g: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """g orthogonalized twice against the orthonormal rows of x, and its norm."""
    for _ in range(2):
        g = g - (x.conj() @ g) @ x
    return g, math.sqrt(np.vdot(g, g).real)


def _ascend_sphere(oracle: ValuationOracle, w_frame: np.ndarray, u: np.ndarray,
                   tol: float | None, history: list) -> np.ndarray:
    """Maximize the valuation over unit vectors in the span of ``w_frame``,
    starting from the unit vector ``u`` of frame coordinates.

    Krylov ascent (Lanczos, or Davidson without a preconditioner), one
    residual batch (``_measure``) per iteration at the j-th point x_j since
    the last restart, the rows of X, and rho x_j, those of AX.  An exact
    oracle inherits the couplings to x_0 ... x_{j-1}: 1 + k(m-1-j) rows; a
    noisy one measures u's whole complement, 1 + k(m-1) rows.

    The top eigenpair (theta, y) of the Ritz matrix T = X^* AX^T gives the
    Ritz vector z = yX and its residual g = y AX - theta z, exact to rounding
    on an exact oracle.  There T is filled one row and column per point, from
    the same couplings, so it is Hermitian by construction; a noisy oracle
    takes the Hermitian part of the product.  The next u is g orthogonalized
    twice against X, or z itself, restarting X, when that leaves a norm below
    1e-12 or X fills the frame.  Each run of points between restarts is
    appended to ``history`` as one block (F X, F AX) of rows, for the frame F,
    when it ends: the pairs (x, rho x) that ``implicit_reconstruct``
    warm-starts from.

    Stops when ||rho u - v(u) u|| <= tol, returning u and v(u), or when
    ||g|| <= tol, returning z and theta (eigenvalue error at most
    tol^2 / gap).  With ``tol=None`` that is max(1e-8, 3 sigma sqrt(k(m-1))),
    for the oracle's ``noise_scale`` sigma; a ``tol`` below the noise floor is
    never met.  Returns the maximizer's coordinates in ``w_frame`` and its
    value; raises :class:`ConvergenceError` after ``_MAX_SWEEPS`` iterations.
    """
    m = w_frame.shape[1]
    exact = oracle.noise_scale == 0
    k = 3 if oracle.field == "complex" else 2  # rows per complement direction w_l
    floor = 3 * oracle.noise_scale * np.sqrt(k * (m - 1))
    tol = max(_EXACT_TOL, floor) if tol is None else (tol if tol >= floor else -np.inf)
    resid = np.empty((1 + k * (m - 1), m), u.dtype)  # u, the w_l, their coupling probes
    x, ax, t = xat = np.empty((3, m, m), u.dtype)  # points u, rho u as rows; Ritz matrix
    frame_t = w_frame.T

    def flush(n: int) -> None:  # the pairs measured since the last restart, as one block
        history.append((x[:n] @ frame_t, ax[:n] @ frame_t))

    j = 0
    for sweep in range(_MAX_SWEEPS):
        vu, nr = _measure(oracle, frame_t, u, j, j if exact else 0, xat, resid)
        if nr <= tol:
            flush(j + 1)
            return u, vu
        if sweep == _MAX_SWEEPS - 1:
            break
        j += 1
        theta, y = np.linalg.eigh(t[:j, :j] if exact
                                  else _hermitian_part(x[:j].conj() @ ax[:j].T))
        theta, y = theta[-1], y[:, -1]
        z = y @ x[:j]
        z /= math.sqrt(np.vdot(z, z).real)
        g = y @ ax[:j] - theta * z
        if math.sqrt(np.vdot(g, g).real) <= tol:
            flush(j)
            return z, float(theta)
        g, gn = _orthogonalized(g, x[:j])
        if gn < 1e-12 or j == m:  # no new direction: restart from the Ritz vector
            flush(j)
            u, j = z, 0
        else:
            u = g / gn
    flush(j + 1)
    raise ConvergenceError(w_frame @ u, vu, nr, _MAX_SWEEPS, floor)


def _span_pass(oracle: ValuationOracle, u: np.ndarray, draw):
    """Lanczos pass over the whole space in frame I, on an exact oracle:
    from the unit start u, d points x_j, each measured by ``_measure`` with
    its couplings to the points before it inherited, d + k d(d-1)/2 queries.
    The next point is rho x_j orthogonalized twice against X, which spans the
    Krylov space the Ritz residual would, so no eigenpair is taken per point;
    on breakdown (norm below 1e-12) it is ``draw(d)`` orthogonalized twice.
    Returns the Ritz values theta_i of the filled T, non-increasing, the Ritz
    vectors z_i = X^T y_i as rows, and eta = ||X X^H - I||_F (``_column_error``)."""
    d = u.size
    k = 3 if oracle.field == "complex" else 2
    resid = np.empty((1 + k * (d - 1), d), u.dtype)
    x, ax, t = xat = np.empty((3, d, d), u.dtype)
    for j in range(d):
        _measure(oracle, None, u, j, j, xat, resid)
        if j < d - 1:
            g, gn = _orthogonalized(ax[j], x[:j + 1])
            if gn < 1e-12:
                g, gn = _orthogonalized(draw(d), x[:j + 1])
            u = g / gn
    theta, y = np.linalg.eigh(t)
    return theta[::-1], (y.T @ x)[::-1], float(np.linalg.norm(x @ x.conj().T - np.eye(d)))


def implicit_reconstruct(
    oracle: ValuationOracle, config: ImplicitConfig | None = None
) -> ReconstructionReport:
    """Spectral reconstruction by iterated maximization with deflation.

    Finds n_1 maximizing the valuation on the unit sphere, then n_2
    maximizing it on the sphere orthogonal to n_1, and so on; the
    valuations at the maximizers are the eigenvalues (non-increasing) and
    the estimate is  sum_i v(n_i) |n_i><n_i|.

    On an exact oracle with ``tol`` of ``None`` (1e-8) or at least the bound
    2 sqrt(d) delta (``_column_error``), one Lanczos pass (``_span_pass``)
    from a seeded random unit vector spans the space, and by Courant-Fischer
    its Ritz pairs (theta_i, z_i) are those maximizers and values.  Once the
    pass is certified, 2 sqrt(d) delta <= tol (1 - eta), the estimate is
    sum_i theta_i |z_i><z_i| at exactly d + k d(d-1)/2 queries (k = 3
    complex, 2 real): (3d^2 - d)/2, below the explicit route's 2d^2 - d for
    d >= 2, or d^2 in the real field.

    Other runs (an uncertified pass too) go stage by stage, each one Krylov
    ascent (``_ascend_sphere``); the last stage's sphere is one ray, which
    it queries.  A noisy oracle is queried afresh at each maximizer (an
    unbiased sample, where the ascent's value is a selected one), and each
    stage starts at a seeded random unit vector (warm starts raised its
    error medians).  On an exact oracle v(n_i) is the ascent's value, and
    each later stage starts warm: at the top eigenvector, compressed to its
    frame, of the Rayleigh-Ritz model of the pairs (x, rho x) the ascents
    append (an SVD of the stacked x, relative singular values below 1e-10
    dropped), plus a random part of weight 1e-3 outside their span, which
    keeps a start off a lower eigenvector when that span is invariant.

    Raises
    ------
    ConvergenceError
        If the ascent of some stage does not meet its residual tolerance
        within the iteration budget.
    """
    cfg = config or ImplicitConfig()
    d = oracle.dim
    if d == 1:
        return _trivial_report("implicit")
    before = oracle.query_count
    rng = np.random.default_rng(cfg.seed)
    complex_ = oracle.field == "complex"

    def draw(m: int) -> np.ndarray:  # a Gaussian vector of the oracle's field
        z = _ginibre((m,), rng, oracle.field)
        return z if complex_ else z.real

    tol = _EXACT_TOL if cfg.tol is None else cfg.tol
    bound = 2 * math.sqrt(d) * _column_error(d)
    if oracle.noise_scale == 0 and bound <= tol:
        u = draw(d)
        theta, z, eta = _span_pass(oracle, u / np.linalg.norm(u), draw)
        if bound <= tol * (1 - eta):
            estimate = _hermitian_part((z.T * theta) @ z.conj())
            return _finish("implicit", estimate, oracle.query_count - before)
    frame = np.eye(d, dtype=np.complex128 if complex_ else float)
    estimate = np.zeros((d, d), dtype=np.complex128)
    history: list[tuple[np.ndarray, np.ndarray]] = []  # row blocks (X, rho X) of the ascents
    for _ in range(d):
        m = frame.shape[1]
        if m == 1:
            coeff, lam = np.ones(1, dtype=frame.dtype), None
        else:
            if history and oracle.noise_scale == 0:
                # Rayleigh-Ritz on span{x}: X = Q S V^H, rho Q = Y V S^-1
                x, y = (np.concatenate(h).T for h in zip(*history))
                q, s, vh = np.linalg.svd(x, full_matrices=False)
                k = np.count_nonzero(s > _SPAN_CUT * s[0])
                t = q[:, :k].conj().T @ y @ (vh[:k].conj().T / s[:k])
                g = frame.conj().T @ q[:, :k]
                u = np.linalg.eigh(g @ _hermitian_part(t) @ g.conj().T)[1][:, -1]
                z = draw(m)
                u += _EXPLORE * (z - g @ (g.conj().T @ z))
            else:
                u = draw(m)
            u /= np.linalg.norm(u)
            coeff, lam = _ascend_sphere(oracle, frame, u, cfg.tol, history)
        n_vec = frame @ coeff
        n_vec /= np.linalg.norm(n_vec)
        if lam is None or oracle.noise_scale:
            lam = float(oracle.query_batch(n_vec[None, :])[0])
        estimate += lam * np.outer(n_vec, n_vec.conj())
        if m > 1:
            frame = frame @ _householder_complement(coeff, np.empty((m - 1, m), coeff.dtype)).T
    estimate = _hermitian_part(estimate)
    return _finish("implicit", estimate, oracle.query_count - before)
