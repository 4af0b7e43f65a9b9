"""Ray-valuation oracles and the quadratic-form machinery built on them.

A valuation assigns a probability to every ray of the Hilbert space,
additively over orthogonal decompositions and normalized so any full
orthonormal basis sums to 1.  Oracles expose only ray queries; subspace
values are obtained by additivity.  The extension ``f`` of a valuation to
non-unit vectors, and the polarization identity recovering a sesquilinear
form from it, are what the explicit reconstruction routes consume:

    f(x)       = ||x||^2 v(x / ||x||)
    <x|rho|y>  = [f(x+y) - f(x-y)]/4 - i [f(x+iy) - f(x-iy)]/4

with the imaginary bracket dropped on real Hilbert spaces.  ``pair_probes``
and ``polarize`` implement this identity once, for ``sesquilinear`` and for
every explicit reconstruction route.
"""

from __future__ import annotations

import threading

import numpy as np

from .hilbert import ATOL, DensityMatrix, Subspace, UnitVector

ZERO_NORM = 1e-14
TABLE_MATCH_TOL = 1e-9

__all__ = [
    "ValuationOracle",
    "ExactOracle",
    "NoisyOracle",
    "TabulatedOracle",
    "OracleLookupError",
    "extend",
    "sesquilinear",
    "subspace_measure",
]


class OracleLookupError(LookupError):
    """A tabulated oracle was queried outside its table."""


class ValuationOracle:
    """Base class: a black-box map from unit vectors to probabilities.

    Subclasses implement ``_values`` on a stack of row vectors.  Queries
    are counted atomically so reconstruction query budgets can be audited;
    results are clipped to [0, 1].
    """

    def __init__(self, dim: int, field: str = "complex"):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if field not in ("complex", "real"):
            raise ValueError(f"unknown field {field!r}")
        self.dim = dim
        self.field = field
        self._count = 0
        self._lock = threading.Lock()

    @property
    def query_count(self) -> int:
        with self._lock:
            return self._count

    def query(self, v: UnitVector) -> float:
        """Valuation of a single ray."""
        if v.dim != self.dim:
            raise ValueError(f"vector dim {v.dim} != oracle dim {self.dim}")
        return float(self.query_batch(v.components[None, :])[0])

    def query_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Valuations of a stack of unit row vectors, shape (k, dim), k >= 1.

        Bad input (empty, NaN, inf, non-unit rows) is rejected uncharged."""
        vecs = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
        if vecs.shape[1] != self.dim:
            raise ValueError(f"vectors have dim {vecs.shape[1]}, oracle dim {self.dim}")
        if vecs.shape[0] == 0:
            raise ValueError("empty query batch")
        norms = np.linalg.norm(np.abs(vecs), axis=1)  # abs first: inf rows raise no warning
        if not np.max(np.abs(norms - 1.0)) <= ATOL:
            raise ValueError("queried vectors must be unit norm")
        if self.field == "real" and np.max(np.abs(vecs.imag), initial=0.0) > ATOL:
            raise ValueError("real-mode oracle queried with complex vector")
        vals = self._values(vecs)
        with self._lock:
            self._count += vecs.shape[0]
        return np.clip(vals, 0.0, 1.0)

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_hidden_state(state: DensityMatrix, field: str) -> None:
    if field == "real" and not state.is_real():
        raise ValueError("real-mode oracle needs a real symmetric hidden state")


class ExactOracle(ValuationOracle):
    """Noise-free oracle: v(n) = <n|rho|n> to machine precision."""

    def __init__(self, state: DensityMatrix, field: str = "complex"):
        super().__init__(state.dim, field)
        _check_hidden_state(state, field)
        self._state = state.matrix

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        return np.einsum("ki,ij,kj->k", vecs.conj(), self._state, vecs).real


class NoisyOracle(ValuationOracle):
    """Finite-shot oracle: each query returns k/n, k ~ Binomial(n, <n|rho|n>).

    Repeated queries of the same ray draw fresh samples.  Sampling is
    seeded; per-call reproducibility holds under single-threaded use
    (concurrent callers see the same marginal distribution but an
    order-dependent stream).
    """

    def __init__(
        self,
        state: DensityMatrix,
        shots: int = 10_000,
        seed: int = 0,
        field: str = "complex",
    ):
        super().__init__(state.dim, field)
        _check_hidden_state(state, field)
        if shots < 1:
            raise ValueError("shots must be >= 1")
        self._state = state.matrix
        self.shots = int(shots)
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        probs = np.einsum("ki,ij,kj->k", vecs.conj(), self._state, vecs).real
        probs = np.clip(probs, 0.0, 1.0)
        with self._rng_lock:
            return self._rng.binomial(self.shots, probs) / self.shots


class TabulatedOracle(ValuationOracle):
    """Oracle backed by a finite table of (vector, value) records.

    Lookups match rays: a query q hits the row t of largest |<t|q>| when
    min over phases of ||q - e^{i phi} t|| is within ``match_tol``, so every
    phase multiple of a tabulated vector returns its value.  A miss raises
    :class:`OracleLookupError`.  Rows must be finite and of unit norm within
    ``match_tol``.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        values: np.ndarray,
        field: str = "complex",
        match_tol: float = TABLE_MATCH_TOL,
    ):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
        values = np.asarray(values, dtype=float).reshape(-1)
        if vectors.shape[0] != values.size:
            raise ValueError("one value per vector required")
        if not np.all((values >= -1e-9) & (values <= 1 + 1e-9)):
            raise ValueError("tabulated values must lie in [0, 1]")
        self.match_tol = float(match_tol)
        norms = np.linalg.norm(np.abs(vectors), axis=1)
        if not np.max(np.abs(norms - 1.0)) <= self.match_tol:
            raise ValueError("tabulated vectors must be finite and unit norm")
        super().__init__(vectors.shape[1], field)
        self._table = vectors
        self._vals = np.clip(values, 0.0, 1.0)

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        idx = np.argmax(np.abs(vecs @ self._table.conj().T), axis=1)
        t = self._table[idx]
        inner = np.einsum("ki,ki->k", t.conj(), vecs)
        dists = np.linalg.norm(vecs - np.exp(1j * np.angle(inner))[:, None] * t, axis=1)
        misses = ~(dists <= self.match_tol)
        if np.any(misses):
            bad = int(np.flatnonzero(misses)[0])
            raise OracleLookupError(
                f"no tabulated ray within {self.match_tol} of query "
                f"(nearest at distance {dists[bad]:.3e})"
            )
        return self._vals[idx]


def pair_probes(x: np.ndarray, y: np.ndarray, field: str) -> np.ndarray:
    """Probe rows x+y, x-y (and x+iy, x-iy in complex mode) of each stacked
    row pair (x_p, y_p) in turn: shape (4p, d), or (2p, d) in real mode."""
    probes = [x + y, x - y] + ([x + 1j * y, x - 1j * y] if field == "complex" else [])
    return np.stack(probes, axis=1).reshape(-1, x.shape[1])


def polarize(f: np.ndarray, field: str) -> np.ndarray:
    """Combine f on the rows of ``pair_probes`` into <x_p|rho|y_p>, shape (p,)."""
    f = f.reshape(-1, 4 if field == "complex" else 2)
    re = (f[:, 0] - f[:, 1]) / 4
    return re - 0.25j * (f[:, 2] - f[:, 3]) if field == "complex" else re


def _extend_rows(oracle: ValuationOracle, rows: np.ndarray) -> np.ndarray:
    """f on each row in one ``query_batch``; rows of norm below ZERO_NORM cost nothing."""
    if rows.shape[1] != oracle.dim:
        raise ValueError(f"vector dim {rows.shape[1]} != oracle dim {oracle.dim}")
    norms = np.linalg.norm(np.abs(rows), axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("vectors must be finite")
    live = norms >= ZERO_NORM
    f = np.zeros(rows.shape[0])
    if live.any():
        n = norms[live]
        f[live] = n**2 * oracle.query_batch(rows[live] / n[:, None])
    return f


def extend(oracle: ValuationOracle, x: np.ndarray) -> float:
    """Quadratic-form extension f(x) = ||x||^2 v(x/||x||), with f(0) = 0."""
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    return float(_extend_rows(oracle, x)[0])


def sesquilinear(oracle: ValuationOracle, x: np.ndarray, y: np.ndarray) -> complex:
    """Recover <x|rho|y> from quadratic-form evaluations by polarization.

    Complex mode uses the four probes x+y, x-y, x+iy, x-iy; real mode
    uses only the first two (the form is then symmetric and real).  All
    probes go out in one ``query_batch``.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    y = np.asarray(y, dtype=np.complex128).reshape(1, -1)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same dimension")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("vectors must be finite")
    f = _extend_rows(oracle, pair_probes(x, y, oracle.field))
    return complex(polarize(f, oracle.field)[0])


def subspace_measure(oracle: ValuationOracle, a: Subspace) -> float:
    """Valuation of a subspace by additivity over an orthonormal spanning set."""
    if a.dim != oracle.dim:
        raise ValueError(f"subspace dim {a.dim} != oracle dim {oracle.dim}")
    return float(np.sum(oracle.query_batch(a.matrix.T)))
