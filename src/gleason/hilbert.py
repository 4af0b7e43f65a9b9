"""Finite-dimensional Hilbert-space primitives.

Vectors, projectors, orthonormal bases, subspaces and density matrices,
plus the random generators (Haar bases, random states) and the spectral
utilities the reconstruction routines are built on.  Everything is stored
as complex128; real-Hilbert-space objects simply carry zero imaginary
parts and are produced by passing ``field="real"`` to the generators.

All types are immutable value objects, each holding one frozen array
validated at construction: ``UnitVector`` its components, every other type
its matrix (a basis or a subspace is the matrix whose columns are its
orthonormal vectors).  Non-finite entries are rejected by every type.  The
numerical contracts are:

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
    "EIG_ATOL",
    "UnitVector",
    "Projector",
    "OrthonormalBasis",
    "Subspace",
    "DensityMatrix",
    "SpectralDecomposition",
    "haar_random_basis",
    "random_density_matrix",
    "nearest_density_matrix",
    "spectral_decomposition",
    "standard_basis",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    if not np.isfinite(out).all():
        raise ValueError("entries must be finite")
    out.setflags(write=False)
    return out


def _is_real(arr: np.ndarray, tol: float = ATOL) -> bool:
    return bool(np.max(np.abs(arr.imag), initial=0.0) <= tol)


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` frozen, after checking it is square and Hermitian within ATOL."""
    arr = _freeze(np.atleast_2d(np.asarray(m)))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square")
    if not np.max(np.abs(arr - arr.conj().T)) <= ATOL:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return arr


def _orthonormal_columns(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` frozen, after checking it is d x r, 1 <= r <= d, with orthonormal
    columns within ATOL.  The Gram check also covers the unit norms."""
    arr = _freeze(m)
    if arr.ndim != 2 or not 1 <= arr.shape[1] <= arr.shape[0]:
        raise ValueError(f"{what} must be a d x r matrix with 1 <= r <= d")
    gram = arr.conj().T @ arr
    if not np.max(np.abs(gram - np.eye(arr.shape[1]))) <= ATOL:
        raise ValueError(f"{what} columns are not orthonormal within tolerance")
    return arr


@dataclass(frozen=True, eq=False)
class UnitVector:
    """A unit-norm vector; the carrier of a ray."""

    components: np.ndarray

    def __post_init__(self):
        arr = _freeze(np.asarray(self.components).reshape(-1))
        if arr.size < 1:
            raise ValueError("dim must be >= 1")
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"vector norm {norm!r} is not 1 within {ATOL}")
        object.__setattr__(self, "components", arr)

    @property
    def dim(self) -> int:
        return self.components.size

    def is_real(self, tol: float = ATOL) -> bool:
        return _is_real(self.components, tol)


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent matrix (orthogonal projection)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _hermitian(self.matrix, "projector")
        if not np.max(np.abs(arr @ arr - arr)) <= ATOL:
            raise ValueError("projector is not idempotent within tolerance")
        tr = np.trace(arr).real
        if not abs(tr - round(tr)) <= ATOL * arr.shape[0]:
            raise ValueError(f"projector trace {tr!r} is not an integer")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.matrix).real))


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """A complete orthonormal basis: the unitary whose columns are the basis
    vectors, in order."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _orthonormal_columns(self.matrix, "basis")
        d = arr.shape[0]
        if arr.shape[1] != d:
            raise ValueError(f"need exactly {d} vectors for a basis of dim {d}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "OrthonormalBasis":
        return cls(m)

    def is_real(self, tol: float = ATOL) -> bool:
        return _is_real(self.matrix, tol)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace: the d x r matrix whose columns are an orthonormal
    spanning set, 1 <= r <= d."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _orthonormal_columns(self.matrix, "spanning set"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _hermitian(self.matrix, "density matrix")
        tr = np.trace(arr)
        if not abs(tr - 1.0) <= ATOL:
            raise ValueError(f"trace {tr!r} is not 1 within {ATOL}")
        wmin = float(np.linalg.eigvalsh(arr)[0])
        if not wmin >= -EIG_ATOL:
            raise ValueError(f"minimum eigenvalue {wmin!r} below -{EIG_ATOL}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_real(self, tol: float = ATOL) -> bool:
        return _is_real(self.matrix, tol)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (non-increasing) with their rank-1 eigenprojectors."""

    eigenvalues: tuple[float, ...]
    eigenprojectors: tuple[Projector, ...]

    def matrix(self) -> np.ndarray:
        """Reassemble the decomposed operator."""
        d = self.eigenprojectors[0].dim
        out = np.zeros((d, d), dtype=np.complex128)
        for lam, proj in zip(self.eigenvalues, self.eigenprojectors):
            out += lam * proj.matrix
        return out


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant component is positive real."""
    idx = np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))
    pivot = v[idx[0]]
    return v * (np.conj(pivot) / abs(pivot))


def haar_basis_matrices(
    dim: int, count: int, rng: np.random.Generator, field: str = "complex"
) -> np.ndarray:
    """Stack of ``count`` Haar-distributed unitaries, shape (count, dim, dim).

    Columns are the basis vectors.  Ginibre matrix + QR, with the phase
    convention that the R factor has a positive real diagonal (this makes
    the distribution exactly Haar rather than QR-biased).  ``field="real"``
    draws from the orthogonal group instead.
    """
    if field == "complex":
        z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
            (count, dim, dim)
        )
        z /= np.sqrt(2)
    elif field == "real":
        z = rng.standard_normal((count, dim, dim)).astype(np.complex128)
    else:
        raise ValueError(f"unknown field {field!r}")
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def haar_random_basis(dim: int, seed: int, field: str = "complex") -> OrthonormalBasis:
    """Draw a Haar-uniform orthonormal basis, deterministic in the seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    return OrthonormalBasis(haar_basis_matrices(dim, 1, rng, field)[0])


def random_density_matrix(
    dim: int, rank: int, seed: int, field: str = "complex"
) -> DensityMatrix:
    """Random density matrix of the requested rank (Wishart construction).

    G is a dim-by-rank standard Gaussian matrix and the state is
    G G† / tr(G G†), which has full support on the rank-constrained set.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    if field == "complex":
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    elif field == "real":
        g = rng.standard_normal((dim, rank)).astype(np.complex128)
    else:
        raise ValueError(f"unknown field {field!r}")
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
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    if m.shape[0] != m.shape[1]:
        raise ValueError("input must be square")
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = _project_to_simplex(w.real)
    out = (v * w) @ v.conj().T
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def spectral_decomposition(rho: DensityMatrix | np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix into non-increasing eigenvalues
    and rank-1 projectors.

    Eigenvector phases are fixed so the first significant component is
    positive real, making the output reproducible; the projectors are
    phase-invariant regardless.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    projs = []
    for j in range(w.size):
        col = _fix_phase(v[:, j])
        projs.append(Projector(np.outer(col, col.conj())))
    return SpectralDecomposition(tuple(float(x) for x in w), tuple(projs))


def standard_basis(dim: int) -> OrthonormalBasis:
    """The computational basis e_1, ..., e_d."""
    return OrthonormalBasis(np.eye(dim))
