"""Ray-valuation oracles and the polarization identity built on them.

A valuation assigns a probability to every ray of the Hilbert space,
additively over orthogonal decompositions and normalized so any full
orthonormal basis sums to 1.  Oracles expose only ray queries; subspace
values are obtained by additivity.  With f(x) = ||x||^2 v(x/||x||) on
non-unit vectors, polarization recovers the matrix elements of rho:

    <x|rho|y>  = [f(x+y) - f(x-y)]/4 - i [f(x+iy) - f(x-iy)]/4

with the imaginary bracket dropped on real Hilbert spaces.  On the unit
probes (x + w y)/sqrt2 of an orthonormal pair f = 2v, and
v(w) + v(-w) = v(x) + v(y), so a route may measure the -w probes or read
their values off the pair's diagonals.  ``pair_probes`` and ``polarize``
implement this identity once, for every basis route: the first is the only
place probe rows are formed, always into a block the caller owns, and the
second combines the +w and -w values.  ``_born`` is the one Born-rule
kernel, a BLAS product.

Every oracle kernel runs over row blocks of its batch (``_by_blocks``) whose
product holds at most ``_BLOCK_ENTRIES`` entries, so no kernel forms a
product in proportion to the batch; a small batch is one block.
"""

from __future__ import annotations

import threading

import numpy as np

from .hilbert import ATOL, DensityMatrix, _at_least, _is_real, _row_norms

TABLE_MATCH_TOL = 1e-9
# Entries (rows x width) of the product an oracle kernel forms per row block.
# 2**14 complex entries are 256 kB, which the allocator serves from heap the
# process already holds; a product as large as the batch (1 MB for d=32's
# explicit block) is returned to the system and first-touched again per call.
_BLOCK_ENTRIES = 2**14

__all__ = [
    "ValuationOracle",
    "ExactOracle",
    "NoisyOracle",
    "TabulatedOracle",
    "OracleLookupError",
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
        _at_least(dim, 1, "dim")
        _phases(field)
        self.dim = dim
        self.field = field
        self._count = 0
        self._lock = threading.Lock()

    @property
    def query_count(self) -> int:
        with self._lock:
            return self._count

    @property
    def noise_scale(self) -> float:
        """Bound on the standard deviation of one query's value; 0 when exact."""
        return 0.0

    def query_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Valuations of a stack of unit row vectors, shape (k, dim), k >= 1,
        or of one row, shape (dim,).

        Rows may come in any memory layout; their norms (``_row_norms``) emit
        no warning on any entry.  Bad input (empty, NaN, inf, rows whose norm
        is not 1 within ``ATOL``, arrays of three or more dimensions) is
        rejected uncharged."""
        vecs = np.atleast_2d(np.ascontiguousarray(vectors, dtype=np.complex128))
        if vecs.ndim != 2:
            raise ValueError(f"query batch of shape {vecs.shape}: need one row or a stack of rows")
        if vecs.shape[1] != self.dim:
            raise ValueError(f"vectors have dim {vecs.shape[1]}, oracle dim {self.dim}")
        if vecs.shape[0] == 0:
            raise ValueError("empty query batch")
        if not abs(_row_norms(vecs) - 1.0).max() <= ATOL:
            raise ValueError("queried vectors must be unit norm")
        if self.field == "real" and not _is_real(vecs):
            raise ValueError("real-mode oracle queried with complex vector")
        vals = self._values(vecs)
        with self._lock:
            self._count += vecs.shape[0]
        return vals.clip(0.0, 1.0)

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _by_blocks(kernel, vecs: np.ndarray, width: int) -> np.ndarray:
    """``kernel`` run on consecutive row blocks of ``vecs`` (k >= 1 rows), its
    float results written into one output of length k.  The blocks are the
    fewest of at most ``_BLOCK_ENTRIES // width`` rows (at least one), of
    near-equal size, so no lone row is left for a last block: numpy takes a
    one-row product through gemv, whose rounding differs from gemm's, and
    each row's value stays bitwise the unblocked kernel's."""
    k = len(vecs)
    blocks = -(-k // max(1, _BLOCK_ENTRIES // width))
    step = -(-k // blocks)
    out = np.empty(k)
    for first in range(0, k, step):
        out[first : first + step] = kernel(vecs[first : first + step])
    return out


def _born(vecs: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Born rule <n_k|rho|n_k> of each row n_k: one GEMM and a row-wise dot per
    row block of ``_by_blocks`` (width d)."""
    state_t = state.T
    return _by_blocks(lambda rows: np.vecdot(rows, rows @ state_t).real, vecs, len(state))


class ExactOracle(ValuationOracle):
    """Noise-free oracle: v(n) = <n|rho|n> to machine precision."""

    def __init__(self, state: DensityMatrix, field: str = "complex"):
        super().__init__(state.dim, field)
        if field == "real" and not state.is_real():
            raise ValueError("real-mode oracle needs a real symmetric hidden state")
        self._state = state.matrix

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        return _born(vecs, self._state)


class NoisyOracle(ExactOracle):
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
        super().__init__(state, field)
        _at_least(shots, 1, "shots")
        _at_least(seed, 0, "seed")
        self.shots = int(shots)
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()

    @property
    def noise_scale(self) -> float:
        """sqrt(p(1-p)/shots) is at most 0.5/sqrt(shots)."""
        return 0.5 / np.sqrt(self.shots)

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        # _born, not super()._values: perfbench times each class's _values and
        # sums the two, so a nested exact span would be counted twice
        probs = _born(vecs, self._state).clip(0.0, 1.0)
        with self._rng_lock:
            return self._rng.binomial(self.shots, probs) / self.shots


class TabulatedOracle(ValuationOracle):
    """Oracle backed by a finite table of (vector, value) records.

    Lookups match rays: a query q hits the row t of largest |<t|q>| when
    min over phases of ||q - e^{i phi} t|| is within ``TABLE_MATCH_TOL``,
    so every phase multiple of a tabulated vector returns its value.  The
    k x T similarity matrix is formed per row block (``_by_blocks``, width
    T, the table's row count) to pick each query's nearest row; the distance
    check then runs once over the whole batch, and a miss raises
    :class:`OracleLookupError` for the first missed row.  Rows must be
    finite and of unit norm within ``TABLE_MATCH_TOL``.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        values: np.ndarray,
        field: str = "complex",
    ):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
        values = np.asarray(values, dtype=float).reshape(-1)
        if vectors.shape[0] != values.size:
            raise ValueError("one value per vector required")
        if values.size == 0:
            raise ValueError("empty table")
        if not np.all((values >= -1e-9) & (values <= 1 + 1e-9)):
            raise ValueError("tabulated values must lie in [0, 1]")
        if not np.max(np.abs(_row_norms(vectors) - 1.0)) <= TABLE_MATCH_TOL:
            raise ValueError("tabulated vectors must be finite and unit norm")
        super().__init__(vectors.shape[1], field)
        self._table = vectors
        self._vals = np.clip(values, 0.0, 1.0)

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        table_h = self._table.conj().T
        idx = _by_blocks(lambda rows: np.argmax(np.abs(rows @ table_h), axis=1),
                         vecs, len(self._table)).astype(np.intp)
        t = self._table[idx]
        inner = np.einsum("ki,ki->k", t.conj(), vecs)
        dists = np.linalg.norm(vecs - np.exp(1j * np.angle(inner))[:, None] * t, axis=1)
        misses = ~(dists <= TABLE_MATCH_TOL)
        if np.any(misses):
            bad = int(np.flatnonzero(misses)[0])
            raise OracleLookupError(
                f"no tabulated ray within {TABLE_MATCH_TOL} of query "
                f"(nearest at distance {dists[bad]:.3e})"
            )
        return self._vals[idx]


def _phases(field: str) -> tuple:
    """The phases w of the probes x + w y in ``field``: 1, -1, i, -i, or 1, -1
    in the real field; any other field is rejected."""
    if field not in ("complex", "real"):
        raise ValueError(f"unknown field {field!r}")
    return (1, -1, 1j, -1j) if field == "complex" else (1, -1)


def pair_probes(x: np.ndarray, y: np.ndarray, phases: tuple, out: np.ndarray) -> np.ndarray:
    """Probe rows x_p + w y_p of each stacked row pair (x_p, y_p), for each
    phase w of ``phases`` in turn: shape (n p, d) for n phases.

    The phases are drawn from 1, -1, i, -i, the imaginary ones last, as i y is
    formed once in the last phase's rows: all of ``_phases(field)``, or its +w
    half ``_phases(field)[0::2]``.  ``y`` is a (p, d) stack, possibly empty,
    and ``x`` one row or p rows.  The rows are written into ``out``, a block
    of exactly that shape, which is returned."""
    n = len(phases)
    iy = np.multiply(y, 1j, out=out[n - 1::n]) if phases[-1].imag else None
    for i, w in enumerate(phases):
        (np.add if w in (1, 1j) else np.subtract)(x, iy if w.imag else y, out=out[i::n])
    return out


def polarize(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """<x_p|rho|y_p> of each orthonormal row pair from v on its unit probes
    (x_p + w y_p)/sqrt2 (``plus``) and (x_p - w y_p)/sqrt2 (``minus``), one
    column per phase w = 1, i (w = 1 in the real field): shape (p,)."""
    diff = plus - minus
    re = diff[:, 0] / 2
    return re - 0.5j * diff[:, 1] if diff.shape[1] == 2 else re
