"""Finite-dimensional Hilbert-space primitives.

Vectors, projectors, orthonormal bases and density matrices, plus the
random generators (Haar bases, random states) and the spectral utilities
the reconstruction routines are built on.  Everything is stored as
complex128; real-Hilbert-space objects simply carry zero imaginary parts
and are produced by passing ``field="real"`` to the generators.

All types are immutable value objects, each holding one frozen array
validated at construction: ``UnitVector`` its components, every other type
its matrix (a basis is the unitary whose columns are its vectors).
Non-finite entries are rejected by every type.  The numerical contracts are:

* algebraic identities on exact inputs hold within ``ATOL`` (1e-12),
* eigenvalue nonnegativity is enforced within ``EIG_ATOL`` (1e-10).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12
EIG_ATOL = 1e-10

__all__ = [
    "ATOL",
    "UnitVector",
    "Projector",
    "OrthonormalBasis",
    "DensityMatrix",
    "SpectralDecomposition",
    "haar_random_basis",
    "random_density_matrix",
    "nearest_density_matrix",
    "spectral_decomposition",
    "standard_basis",
]


def _at_least(value, low, name: str, real: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (a finite real number,
    a tolerance a report can hold in JSON, when ``real``), not a bool, and
    ``value >= low``; NaN fails, as it compares false.  The one check of every
    scalar a caller passes in.  An int, or a float where a real number is asked
    for, is taken by its exact type: an abstract-class ``isinstance`` costs
    ~0.5 us, and oracles are built per run."""
    exact = type(value) is int or (real and type(value) is float)
    if not exact and (isinstance(value, bool)
                      or not isinstance(value, numbers.Real if real else numbers.Integral)):
        kind = "a real number" if real else "an integer"
        raise ValueError(f"{name} must be >= {low} and {kind}, got {value!r}")
    if not (low <= value < math.inf if real else value >= low):
        raise ValueError(f"{name} must be >= {low}{' and finite' if real else ''}, got {value!r}")


def _phases(field: str) -> tuple:
    """The phases w of the polarization probes x + w y in ``field``: 1, -1, i,
    -i, or 1, -1 in the real field.  The one check of a field a caller
    passes in: any other field is rejected."""
    if field not in ("complex", "real"):
        raise ValueError(f"unknown field {field!r}")
    return (1, -1, 1j, -1j) if field == "complex" else (1, -1)


def _freeze(arr: np.ndarray, dtype: type = np.complex128) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    if not np.isfinite(out).all():
        raise ValueError("entries must be finite")
    out.setflags(write=False)
    return out


def _square(m: np.ndarray, what: str, dtype: type = np.complex128) -> np.ndarray:
    """``m`` as a frozen ``dtype`` copy, after checking it is a nonempty, finite,
    square 2-D matrix; a scalar counts as 1 x 1.  The one input check of every
    square matrix a caller passes in (README's layout notes list them)."""
    arr = _freeze(np.atleast_2d(np.asarray(m)), dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty square matrix, got shape {arr.shape}")
    return arr


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, d) array, as one einsum over the
    float64 view of a C-ordered complex128 copy (no copy when already one).

    Silent on every input: a NaN or inf entry gives a NaN or inf norm, and
    so does a finite row whose squared norm overflows (entries above ~1e154),
    so one ``not <= tol`` comparison rejects them all."""
    flat = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _is_real(arr: np.ndarray) -> bool:
    # the method, not np.max: its wrapper costs ~1.5 us, paid by every
    # real-field oracle and query batch
    return bool(np.abs(arr.imag).max(initial=0.0) <= ATOL)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2, halved before adding: the same for normal entries, and
    finite, with no overflow, for every finite ``m``."""
    half = m * 0.5
    return half + half.conj().T


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` frozen, after checking it is square (``_square``) and Hermitian
    within ATOL; halved before subtracting, so no finite ``m`` overflows."""
    arr = _square(m, what)
    if not np.max(np.abs(arr * 0.5 - arr.conj().T * 0.5)) <= ATOL / 2:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return arr


def _check_orthonormal(stack: np.ndarray, what: str) -> None:
    """Raise unless every matrix of the nonempty ``stack`` (..., d, r) has
    orthonormal columns within ATOL.  Non-finite entries fail the check."""
    gram = np.swapaxes(stack.conj(), -1, -2) @ stack
    if not np.max(np.abs(gram - np.eye(stack.shape[-1]))) <= ATOL:
        raise ValueError(f"{what} columns are not orthonormal within tolerance")


@dataclass(frozen=True, eq=False)
class UnitVector:
    """A unit-norm vector; the carrier of a ray."""

    components: np.ndarray

    def __post_init__(self):
        arr = _freeze(np.asarray(self.components).reshape(-1))
        _at_least(arr.size, 1, "dim")
        norm = float(_row_norms(arr[None])[0])
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"vector norm {norm} is not 1 within {ATOL}")
        object.__setattr__(self, "components", arr)


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent matrix (orthogonal projection)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _hermitian(self.matrix, "projector")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the check
            dev = np.max(np.abs(arr @ arr - arr))
        if not dev <= ATOL:
            raise ValueError("projector is not idempotent within tolerance")
        tr = float(np.trace(arr).real)
        if not abs(tr - round(tr)) <= ATOL * arr.shape[0]:
            raise ValueError(f"projector trace {tr} is not an integer")
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """A complete orthonormal basis: the unitary whose columns are the basis
    vectors, in order."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _square(self.matrix, "basis")
        _check_orthonormal(arr, "basis")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "OrthonormalBasis":
        return cls(m)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
            arr = _hermitian(self.matrix, "density matrix")
            tr = complex(np.trace(arr))
        if not abs(tr - 1.0) <= ATOL:
            raise ValueError(f"trace {tr} is not 1 within {ATOL}")
        wmin = float(np.linalg.eigvalsh(arr)[0])
        if not wmin >= -EIG_ATOL:
            raise ValueError(f"minimum eigenvalue {wmin!r} below -{EIG_ATOL}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_real(self) -> bool:
        return _is_real(self.matrix)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (non-increasing) with their rank-1 eigenprojectors."""

    eigenvalues: tuple[float, ...]
    eigenprojectors: tuple[Projector, ...]


_HOUSEHOLDER_MIN_COUNT = 128
_HOUSEHOLDER_MAX_DIM = 16


def _ginibre(shape: tuple[int, ...], rng: np.random.Generator, field: str) -> np.ndarray:
    """Complex128 array of the given shape with standard normal entries, real
    parts drawn before imaginary parts, and no imaginary part when
    ``field="real"``: a Ginibre stack for shape (count, dim, dim)."""
    complex_field = 1j in _phases(field)
    draw = rng.standard_normal(shape)
    out = np.zeros(shape, np.complex128)
    out.real = draw
    if complex_field:
        out.imag = rng.standard_normal(out=draw)
    return out


def _haar_factor(z: np.ndarray) -> np.ndarray:
    """Q factor of every matrix in the stack ``z`` (count, dim, dim) whose R
    has a positive real diagonal: ``np.linalg.qr`` with column j multiplied
    by the phase of R_jj, which makes Q unique and, for a Ginibre ``z``,
    exactly Haar rather than QR-biased (Mezzadri, arXiv:math-ph/0609050)."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def haar_basis_matrices(
    dim: int, count: int, rng: np.random.Generator, field: str = "complex"
) -> np.ndarray:
    """Stack of ``count`` Haar-distributed unitaries, shape (count, dim, dim).

    Columns are the basis vectors; ``field="real"`` draws from the
    orthogonal group instead.  A stack of fewer than
    ``_HOUSEHOLDER_MIN_COUNT`` matrices, or with ``dim >
    _HOUSEHOLDER_MAX_DIM``, is the ``_haar_factor`` of a Ginibre stack.  A
    larger one is a product of Householder reflectors built from one
    Gaussian vector x_m of each length m = 1..dim per matrix, d(d+1)/2
    entries in place of d^2 (Stewart, SIAM J. Numer. Anal. 17, 1980;
    Mezzadri, section 5).  From the trailing 1 x 1 phase outward, the
    m-block's first column is u = x_m/|x_m| and its others are the
    (m-1)-block B times the complement of u: the trailing columns of the
    reflector H = I - tau w w^H with H e_0 = -c u, c the sign of Re u_0, in
    LAPACK's convention (zlarfg): w = (1, u_1, ...)/(u_0 + c), leading entry 1,
    and tau = c (u_0 + c).  As tau w = c (u_0 + c, u_1, ...), that is the
    rank-one update
    [0; B] - (u_0 + c, u_1, ...)^T g with g = c (u_1, ...)^H B / conj(u_0 + c).
    Each u is uniform on the sphere and B, Haar and independent of u,
    absorbs the rotation of u's complement, so Q is exactly Haar, though
    not the matrix the QR branch would give.  The stack is built in place
    with the batch on its last axis (``q[a, j, s]``: component a of column
    j of matrix s), so each step is a few vectorized passes; the result is
    a view.
    """
    if count < _HOUSEHOLDER_MIN_COUNT or dim > _HOUSEHOLDER_MAX_DIM:
        return _haar_factor(_ginibre((count, dim, dim), rng, field))
    q = np.zeros((dim, dim, count), np.complex128)
    for m in range(1, dim + 1):
        u = _ginibre((m, count), rng, field)
        u /= np.linalg.norm(u, axis=0)
        sign = np.copysign(1.0, u[0].real)
        lead = u[0] + sign
        block = q[dim - m :, dim - m + 1 :]
        g = np.einsum("aks,as->ks", block[1:], u[1:].conj())
        g *= sign / lead.conj()
        block[0] = -lead * g
        for a in range(1, m):  # by rows: a whole-block temporary is refaulted per call
            block[a] -= u[a] * g
        q[dim - m :, dim - m] = u
    return q.transpose(2, 0, 1)


def haar_random_basis(dim: int, seed: int, field: str = "complex") -> OrthonormalBasis:
    """Draw a Haar-uniform orthonormal basis, deterministic in the seed."""
    _at_least(dim, 1, "dim")
    _at_least(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    return OrthonormalBasis(haar_basis_matrices(dim, 1, rng, field)[0])


def random_density_matrix(
    dim: int, rank: int, seed: int, field: str = "complex"
) -> DensityMatrix:
    """Random density matrix of the requested rank (Wishart construction).

    G is a dim-by-rank standard Gaussian matrix and the state is
    G G† / tr(G G†), which has full support on the rank-constrained set.
    """
    _at_least(dim, 1, "dim")
    _at_least(rank, 1, "rank")
    if not rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    _at_least(seed, 0, "seed")
    g = _ginibre((dim, rank), np.random.default_rng(seed), field)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(_hermitian_part(m))


def _project_to_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex of a finite ascending
    vector (``eigh``'s order).  It runs on w - max(w), taken in halves so that
    nothing overflows, with entries below -1 (projected to 0 anyway) raised to
    -1: the top entry is then exactly 0, so k >= 1 however large w is.  At the
    small d of the routes a loop over w costs less than numpy calls."""
    top = w[-1]
    s = np.maximum(w * 0.5 - top * 0.5, -0.5) * 2
    total = 0.0
    for k, x in enumerate(s[::-1].tolist(), 1):
        total += x
        if x > (total - 1.0) / k:
            theta = (total - 1.0) / k
    return np.maximum(s - theta, 0.0)


def nearest_density_matrix(m: np.ndarray) -> DensityMatrix:
    """Frobenius-nearest density matrix to an arbitrary square matrix.

    Takes the Hermitian part, eigendecomposes it (one ``eigh``, on the real
    array when the part is exactly real), and projects the eigenvalues onto the
    probability simplex (``_density_from_spectrum``): the exact metric
    projection onto the density-matrix set (Smolin, Gambetta & Smith, PRL 108,
    070502, 2012), hence idempotent and non-expansive.  A spectrum that
    overflows float64 raises ``ValueError``.
    """
    h = _hermitian_part(_square(m, "input"))
    return _density_from_spectrum(*np.linalg.eigh(h if h.imag.any() else h.real))


def _density_from_spectrum(w: np.ndarray, v: np.ndarray) -> DensityMatrix:
    """The density matrix sum_i p_i |v_i><v_i| for p the simplex projection of
    the ascending spectrum ``w`` and v_i the columns of ``v``: the repair of
    the Hermitian matrix with those eigenpairs, which ``nearest_density_matrix``
    gets from its ``eigh`` and every basis route from its coupling matrix's.
    The output's PSD check reads p in place of ``DensityMatrix``'s own.  Its
    trace is 1 to rounding for orthonormal v_i, and within d ATOL of 1 for the
    v = B y of a basis B orthonormal within ATOL; one off by more than ATOL is
    divided out."""
    if not np.isfinite(w).all():
        raise ValueError("the input's spectrum cannot be represented in float64")
    w = _project_to_simplex(w)
    if not (w.min() >= -EIG_ATOL and abs(w.sum() - 1.0) <= ATOL):
        raise ValueError(f"projected spectrum {w!r} is not a probability vector")
    vw = v * w
    out = _hermitian_part(vw @ v.conj().T).astype(np.complex128, copy=False)
    trace = np.vdot(v, vw).real  # sum_i p_i |v_i|^2
    if not abs(trace - 1.0) <= ATOL:
        out /= trace
    out.setflags(write=False)
    rho = object.__new__(DensityMatrix)  # the checks above stand for __post_init__'s
    object.__setattr__(rho, "matrix", out)
    return rho


def spectral_decomposition(rho: DensityMatrix | np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix into non-increasing eigenvalues
    and rank-1 projectors; an array that is not Hermitian within ATOL is
    rejected (``_hermitian``)."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else _hermitian(rho, "input")
    w, v = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    projs = [Projector(np.outer(col, col.conj())) for col in v.T]
    return SpectralDecomposition(tuple(float(x) for x in w), tuple(projs))


def standard_basis(dim: int) -> OrthonormalBasis:
    """The computational basis e_1, ..., e_d."""
    return OrthonormalBasis(np.eye(dim))
