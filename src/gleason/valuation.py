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
every explicit route; ``coupling_probes`` and ``known_diagonal_coupling`` are
its two-probe form for orthonormal pairs whose diagonals are already known,
which the implicit route uses.  The two probe builders are the only place probe
rows are formed; both can write into a block the caller owns.  ``_born`` is the
one Born-rule kernel, a BLAS product.

Every oracle kernel runs over row blocks of its batch (``_by_blocks``) whose
product holds at most ``_BLOCK_ENTRIES`` entries, so no kernel allocates
scratch in proportion to the batch; a small batch is one block.
"""

from __future__ import annotations

import threading

import numpy as np

from .hilbert import ATOL, DensityMatrix, UnitVector, _at_least, _is_real, _row_norms

ZERO_NORM = 1e-14
_SQRT2 = np.sqrt(2.0)
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
    "extend",
    "sesquilinear",
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

    @property
    def noise_scale(self) -> float:
        """Bound on the standard deviation of one query's value; 0 when exact."""
        return 0.0

    def query(self, v: UnitVector) -> float:
        """Valuation of a single ray."""
        return float(self.query_batch(v.components[None, :])[0])

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
        return _born(vecs, self._state)


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
        _at_least(shots, 1, "shots")
        self._state = state.matrix
        self.shots = int(shots)
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()

    @property
    def noise_scale(self) -> float:
        """sqrt(p(1-p)/shots) is at most 0.5/sqrt(shots)."""
        return 0.5 / np.sqrt(self.shots)

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        probs = _born(vecs, self._state).clip(0.0, 1.0)
        with self._rng_lock:
            return self._rng.binomial(self.shots, probs) / self.shots


class TabulatedOracle(ValuationOracle):
    """Oracle backed by a finite table of (vector, value) records.

    Lookups match rays: a query q hits the row t of largest |<t|q>| when
    min over phases of ||q - e^{i phi} t|| is within ``TABLE_MATCH_TOL``,
    so every phase multiple of a tabulated vector returns its value.  The
    k x T similarity matrix is formed per row block (``_by_blocks``, width
    T, the table's row count), and blocks are scanned in order, so a miss
    raises :class:`OracleLookupError` for the first missed row.  Rows must
    be finite and of unit norm within ``TABLE_MATCH_TOL``.
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
        return _by_blocks(lambda rows: self._lookup(rows, table_h), vecs, len(self._table))

    def _lookup(self, vecs: np.ndarray, table_h: np.ndarray) -> np.ndarray:
        """Values of one row block, given the table's conjugate transpose."""
        idx = np.argmax(np.abs(vecs @ table_h), axis=1)
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


def _probe_slots(x: np.ndarray, y: np.ndarray, field: str, per_pair: int,
                 out: np.ndarray | None) -> tuple[np.ndarray, list[np.ndarray]]:
    """The block for ``per_pair`` probe rows per row pair (``out``, or a new
    array when None) and the strided view of each of its row slots."""
    if out is None:
        p, d = y.shape
        out = np.empty((per_pair * p, d), np.result_type(x, y, 1j if field == "complex" else 1.0))
    return out, [out[s::per_pair] for s in range(per_pair)]


def pair_probes(x: np.ndarray, y: np.ndarray, field: str,
                out: np.ndarray | None = None) -> np.ndarray:
    """Probe rows x+y, x-y (and x+iy, x-iy in complex mode) of each stacked
    row pair (x_p, y_p) in turn: shape (4p, d), or (2p, d) in real mode.

    ``y`` is a (p, d) stack, possibly empty, and ``x`` one row or p rows.
    The rows are written into ``out``, a block of exactly that shape, when
    given, else into a new array; the block is returned."""
    complex_ = field == "complex"
    out, slots = _probe_slots(x, y, field, 4 if complex_ else 2, out)
    np.add(x, y, out=slots[0])
    np.subtract(x, y, out=slots[1])
    if complex_:
        iy = np.multiply(y, 1j, out=slots[3])
        np.add(x, iy, out=slots[2])
        np.subtract(x, iy, out=slots[3])
    return out


def coupling_probes(x: np.ndarray, y: np.ndarray, field: str,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Unit probe rows (x_p+y_p)/sqrt2 and, in complex mode, (x_p+iy_p)/sqrt2
    of each orthonormal row pair in turn, which ``known_diagonal_coupling``
    consumes: shape (2p, d), or (p, d) in real mode.  Broadcasting and
    ``out`` work as in ``pair_probes``."""
    complex_ = field == "complex"
    out, slots = _probe_slots(x, y, field, 2 if complex_ else 1, out)
    np.add(x, y, out=slots[0])
    if complex_:
        np.add(x, np.multiply(y, 1j, out=slots[1]), out=slots[1])
    out /= _SQRT2
    return out


def polarize(f: np.ndarray, field: str) -> np.ndarray:
    """Combine f on the rows of ``pair_probes`` into <x_p|rho|y_p>, shape (p,)."""
    f = f.reshape(-1, 4 if field == "complex" else 2)
    re = (f[:, 0] - f[:, 1]) / 4
    return re - 0.25j * (f[:, 2] - f[:, 3]) if field == "complex" else re


def known_diagonal_coupling(vx, vy, v: np.ndarray, field: str) -> np.ndarray:
    """<x_p|rho|y_p> from v(x_p), v(y_p) and v on the rows of
    ``coupling_probes(x, y)``.

    For orthonormal x, y: v((x+y)/sqrt2) = avg + Re<x|rho|y> and
    v((x+iy)/sqrt2) = avg - Im<x|rho|y>, with avg = (v(x) + v(y))/2."""
    v = v.reshape(-1, 2 if field == "complex" else 1)
    avg = (vx + vy) / 2
    re = v[:, 0] - avg
    return re + 1j * (avg - v[:, 1]) if field == "complex" else re


def _extend_rows(oracle: ValuationOracle, rows: np.ndarray) -> np.ndarray:
    """f on each row in one ``query_batch``; rows of norm below ZERO_NORM cost nothing."""
    if rows.shape[1] != oracle.dim:
        raise ValueError(f"vector dim {rows.shape[1]} != oracle dim {oracle.dim}")
    norms = _row_norms(rows)
    if not np.isfinite(norms).all():
        raise ValueError("vectors must be finite, with a squared norm that does not overflow")
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
    if not np.isfinite(_row_norms(np.vstack([x, y]))).all():  # before x +/- y can overflow
        raise ValueError("vectors must be finite, with a squared norm that does not overflow")
    f = _extend_rows(oracle, pair_probes(x, y, oracle.field))
    return complex(polarize(f, oracle.field)[0])

