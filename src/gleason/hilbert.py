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


def _at_least(value, low, name: str) -> None:
    """Raise ``ValueError`` unless ``value >= low``; NaN fails, as it compares
    false.  The one check of every scalar bound a caller passes in."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


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
    return bool(np.max(np.abs(arr.imag), initial=0.0) <= ATOL)


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` frozen, after checking it is square (``_square``) and Hermitian
    within ATOL."""
    arr = _square(m, what)
    if not np.max(np.abs(arr - arr.conj().T)) <= ATOL:
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

    @property
    def dim(self) -> int:
        return self.components.size


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent matrix (orthogonal projection)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _hermitian(self.matrix, "projector")
        if not np.max(np.abs(arr @ arr - arr)) <= ATOL:
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

    def is_real(self) -> bool:
        return _is_real(self.matrix)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
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


_GS_MIN_COUNT = 256
_GS_MAX_DIM = 8


def _gram_schmidt_twice(q: np.ndarray) -> np.ndarray:
    """Q factor, in place, of every matrix in the stack ``q`` (dim, dim, count)
    whose R has a positive real diagonal, by classical Gram-Schmidt applied twice.

    The batch sits on the last axis (``q[a, j, s]``: component a of column
    j of matrix s), so each step is one vectorized pass over the stack; p^H v
    is taken as conj(p^T conj(v)), so only the column v is conjugated.  A
    second projection pass makes the columns orthonormal to working
    precision ("twice is enough": Giraud, Langou, Rozloznik & van den
    Eshof, Numer. Math. 101, 2005).  Returns a (count, dim, dim) view.
    """
    for j in range(q.shape[1]):
        v, p = q[:, j], q[:, :j]
        for _ in range(2):
            v -= np.einsum("aks,ks->as", p, np.einsum("aks,as->ks", p, v.conj()).conj())
        v /= np.sqrt(np.einsum("as,as->s", v.real, v.real)
                     + np.einsum("as,as->s", v.imag, v.imag))
    return q.transpose(2, 0, 1)


def _ginibre(shape: tuple[int, ...], rng: np.random.Generator, field: str,
             axes: tuple[int, ...] | None = None) -> np.ndarray:
    """Complex128 array of the given shape with standard normal entries, real
    parts drawn before imaginary parts, and no imaginary part when
    ``field="real"``: a Ginibre stack for shape (count, dim, dim).  With
    ``axes``, the draw is written straight into a C-ordered array of its
    transpose ``np.transpose(draw, axes)``."""
    if field not in ("complex", "real"):
        raise ValueError(f"unknown field {field!r}")
    draw = rng.standard_normal(shape)
    view = draw.transpose(axes or range(draw.ndim))
    out = np.zeros(view.shape, np.complex128)
    out.real = view
    if field == "complex":
        rng.standard_normal(out=draw)  # refills the buffer ``view`` shows
        out.imag = view
    return out


def _haar_factor(z: np.ndarray) -> np.ndarray:
    """Q factor of every matrix in the stack ``z`` (count, dim, dim) whose R
    has a positive real diagonal.

    Stacks of at least ``_GS_MIN_COUNT`` matrices with ``dim <=
    _GS_MAX_DIM`` are factorized by ``_gram_schmidt_twice``, where batched
    LAPACK QR pays more per matrix than the arithmetic costs; the rest by
    ``np.linalg.qr`` with column j multiplied by the phase of R_jj.
    Gram-Schmidt divides each column by its positive norm, so its R already
    has that diagonal: both return the unique Q, and the choice changes the
    result only by rounding.  Gram-Schmidt works in place when ``z`` is a
    view of a C-ordered batch-last (dim, dim, count) array.
    """
    count, dim = z.shape[:2]
    if count >= _GS_MIN_COUNT and dim <= _GS_MAX_DIM:
        return _gram_schmidt_twice(np.ascontiguousarray(z.transpose(1, 2, 0)))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def haar_basis_matrices(
    dim: int, count: int, rng: np.random.Generator, field: str = "complex"
) -> np.ndarray:
    """Stack of ``count`` Haar-distributed unitaries, shape (count, dim, dim).

    Columns are the basis vectors.  Each is the Q factor of a Ginibre
    matrix (``_ginibre``) under the convention that R has a positive real
    diagonal, which makes Q unique and its distribution exactly Haar rather
    than QR-biased (Mezzadri, arXiv:math-ph/0609050); ``_haar_factor``
    chooses Gram-Schmidt or QR by the stack's size.  Scaling the Ginibre
    draw by a positive number leaves Q unchanged, so its entries are not
    normalized.  ``field="real"`` draws from the orthogonal group instead.
    """
    return _haar_factor(_ginibre((count, dim, dim), rng, field, (1, 2, 0)).transpose(2, 0, 1))


def haar_random_basis(dim: int, seed: int, field: str = "complex") -> OrthonormalBasis:
    """Draw a Haar-uniform orthonormal basis, deterministic in the seed."""
    _at_least(dim, 1, "dim")
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
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = _ginibre((dim, rank), np.random.default_rng(seed), field)
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = (m + m.conj().T) / 2
    return DensityMatrix(m)


def _project_to_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ks = np.arange(1, w.size + 1)
    k = ks[u - cumulative / ks > 0][-1]
    theta = cumulative[k - 1] / k
    return np.maximum(w - theta, 0.0)


def nearest_density_matrix(m: np.ndarray) -> DensityMatrix:
    """Frobenius-nearest density matrix to an arbitrary square matrix.

    Takes the Hermitian part, eigendecomposes, and projects the eigenvalue
    vector onto the probability simplex.  This is the exact metric
    projection onto the density-matrix set, hence idempotent and
    non-expansive.
    """
    m = _square(m, "input")
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = _project_to_simplex(w.real)
    out = (v * w) @ v.conj().T
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


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
