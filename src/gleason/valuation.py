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
kernel, in real arithmetic in both fields: per row block a GEMM and a
row-wise dot of float64 arrays.  In the complex field they are the float64
views of the rows and of rows @ rho^T, so no imaginary half is computed only
to be discarded.  In the real field the oracle keeps Re rho alone, and the
GEMM is real, d x d on the rows' real parts: Im rho of a Hermitian rho is
antisymmetric, so x^T (Im rho) x = 0 on a real row x and dropping it is
exact.

Every oracle kernel (``_born``, and the tabulated oracle's index and
similarity kernels) runs over row blocks of its batch (``_by_blocks``) whose
product holds at most ``_BLOCK_ENTRIES`` entries, so no kernel forms a
product in proportion to the batch; a small batch is one block.  The
similarity kernel, the only one whose width is the table's row count, sees
only the rows the table's ray index cannot answer.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .hilbert import ATOL, DensityMatrix, _at_least, _is_real, _phases, _row_norms

TABLE_MATCH_TOL = 1e-9
# Entries (rows x width) of the product an oracle kernel forms per row block.
# 2**14 complex entries are 256 kB, which the allocator serves from heap the
# process already holds; a product as large as the batch (1 MB for d=32's
# explicit block) is returned to the system and first-touched again per call.
_BLOCK_ENTRIES = 2**14
# A view to a dtype object skips converting the scalar type on every call.
_FLOAT64 = np.dtype(np.float64)

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
    results written into one float output of length k; a batch of one block
    is returned as the kernel gives it.  The blocks are the fewest of at most
    ``_BLOCK_ENTRIES // width`` rows (at least one), of near-equal size, so no
    lone row is left for a last block: numpy takes a one-row product through
    gemv, whose rounding differs from gemm's, and each row's value stays
    bitwise the unblocked kernel's."""
    k = len(vecs)
    blocks = -(-k // max(1, _BLOCK_ENTRIES // width))
    if blocks == 1:
        return kernel(vecs)
    step = -(-k // blocks)
    out = np.empty(k)
    for first in range(0, k, step):
        out[first : first + step] = kernel(vecs[first : first + step])
    return out


def _born(vecs: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Born rule Re <n_k|rho|n_k> of each row n_k, in real arithmetic: per row
    block of ``_by_blocks`` (width d), one GEMM and a row-wise dot of two
    float64 arrays.  For a complex ``state`` rho they are the float64 views
    (Re, Im interleaved) of the rows and of rows @ rho^T, whose dot is the
    real part alone.  For a real ``state`` Re rho they are the rows' real
    parts and their real GEMM with it, a quarter of the flops: Im rho of a
    Hermitian rho is antisymmetric, so x^T (Im rho) x = 0 on a real row x
    and dropping it is exact.  Dropping a real-field row's imaginary parts,
    at most ``ATOL`` each, moves its value by O(d ATOL^2)."""
    state_t = state.T
    real = state.dtype.kind == "f"

    def kernel(rows):
        if real:
            rows = rows.real.copy()
            return np.vecdot(rows, rows @ state_t)
        return np.vecdot(rows.view(_FLOAT64), (rows @ state_t).view(_FLOAT64))

    return _by_blocks(kernel, np.ascontiguousarray(vecs), len(state))


class ExactOracle(ValuationOracle):
    """Noise-free oracle: v(n) = <n|rho|n> to machine precision.

    The hidden state is kept as ``_born`` takes it: rho in the complex field,
    and Re rho, as float64, in the real field, where the antisymmetric Im rho
    adds exactly 0 on real rows.  No query pays for complex arithmetic whose
    imaginary half it would discard."""

    def __init__(self, state: DensityMatrix, field: str = "complex"):
        super().__init__(state.dim, field)
        if field == "real" and not state.is_real():
            raise ValueError("real-mode oracle needs a real symmetric hidden state")
        self._state = np.ascontiguousarray(state.matrix.real) if field == "real" else state.matrix

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
        if not shots < 2**63:  # numpy's binomial takes an int64 count
            raise ValueError(f"shots must be <= {2**63 - 1}, got {shots!r}")
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

    Lookups match rays: a query q is answered by the nearest row t, in the
    ray distance min over phases of ||q - e^{i phi} t||, when that distance
    is within ``TABLE_MATCH_TOL``, so every phase multiple of a tabulated
    vector returns its value.  Rows must be a stack of finite rows of unit
    norm within ``TABLE_MATCH_TOL``.

    The table is indexed once, in O(T d + T log T) work for T rows, by one
    key per ray: its phase-fixed coordinates (``_ray_coordinates``) projected
    on a fixed unit direction of R^{2d} (``_key_direction``), then sorted.  A
    query and a row within ``TABLE_MATCH_TOL`` that fix their phase on the
    same entry have phase-fixed coordinates at most (1 + sqrt(8d))
    ``TABLE_MATCH_TOL`` apart, and a projection on a unit vector brings no
    two points farther apart, so their keys lie as close.  The index kernel
    (``_indexed``) answers a query, in O(d + log T) work, from a window of
    keys around its own that holds exactly one row and is wide enough for
    every row within tolerance; every other query is left to the similarity
    kernel (``_nearest``, per row block of ``_by_blocks`` of width T), which
    compares the rows nearest in |<t|q>| by exact distance.  A miss raises
    :class:`OracleLookupError` for the batch's first missed row.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        values: np.ndarray,
        field: str = "complex",
    ):
        vectors = np.atleast_2d(np.ascontiguousarray(vectors, dtype=np.complex128))
        values = np.asarray(values, dtype=float).reshape(-1)
        if vectors.ndim != 2:
            raise ValueError(f"table vectors of shape {vectors.shape}: need a stack of rows")
        if vectors.shape[0] != values.size:
            raise ValueError("one value per vector required")
        if values.size == 0:
            raise ValueError("empty table")
        if not np.all((values >= -1e-9) & (values <= 1 + 1e-9)):
            raise ValueError("tabulated values must lie in [0, 1]")
        norms = _row_norms(vectors)
        if not np.max(np.abs(norms - 1.0)) <= TABLE_MATCH_TOL:
            raise ValueError("tabulated vectors must be finite and unit norm")
        super().__init__(vectors.shape[1], field)
        self._table = vectors
        self._vals = np.clip(values, 0.0, 1.0)
        self._sq_norms = norms * norms
        # the index: each row's key, sorted, and the row behind each sorted key
        self._coords = _ray_coordinates(vectors)[0]
        keys = self._coords @ _key_direction(self.dim)
        self._rows = np.argsort(keys)
        self._keys = keys[self._rows]

    def _values(self, vecs: np.ndarray) -> np.ndarray:
        idx = _by_blocks(self._indexed, vecs, self.dim).astype(np.intp)
        rest = np.flatnonzero(idx < 0)
        if rest.size:
            far = vecs[rest]
            near = _by_blocks(self._nearest, far, len(self._table)).astype(np.intp)
            dists = _ray_distances(far, self._table[near])
            misses = ~(dists <= TABLE_MATCH_TOL)
            if np.any(misses):
                bad = int(np.flatnonzero(misses)[0])
                raise OracleLookupError(
                    f"no tabulated ray within {TABLE_MATCH_TOL} of query "
                    f"(nearest at distance {dists[bad]:.3e})"
                )
            idx[rest] = near
        return self._vals[idx]

    def _indexed(self, rows: np.ndarray) -> np.ndarray:
        """The index kernel: each row's table row if it is the only one within
        tolerance, else -1.  Two binary searches bound each row's window, the
        keys within w = 2 (1 + sqrt(8d)) ``TABLE_MATCH_TOL`` of its own; the
        factor 2 covers table rows of unit norm only within tolerance and the
        keys' rounding.  A row with no |q_j|^2 within 8 ``TABLE_MATCH_TOL``
        of 1/(2d) fixes its phase on the entry every row within tolerance of
        it does, so all those rows are in its window: one that holds a single
        key names the only candidate.  The phase-fixed rows' distance bounds
        the ray distance above, so a candidate that close is taken as it is,
        and one at most (1 + sqrt(8d)) ``TABLE_MATCH_TOL`` away once its exact
        ray distance is within tolerance; every other row is left to the
        similarity kernel."""
        d = self.dim
        bound = 1 + np.sqrt(8 * d)
        coords, power = _ray_coordinates(rows)
        keys = coords @ _key_direction(d)
        width = 2 * bound * TABLE_MATCH_TOL
        lo = np.searchsorted(self._keys, keys - width)
        one = np.searchsorted(self._keys, keys + width, side="right") - lo == 1
        power -= 0.5 / d
        one &= ~(np.abs(power, out=power) < 8 * TABLE_MATCH_TOL).any(axis=1)
        idx = np.where(one, self._rows.take(lo, mode="clip"), -1)  # lo = T past the last key
        coords -= self._coords.take(idx, axis=0)  # a -1 reads the last row and stays -1
        dist2 = np.einsum("ij,ij->i", coords, coords) / TABLE_MATCH_TOL**2
        idx[~(dist2 <= bound**2)] = -1
        check = np.flatnonzero((dist2 > 1) & (idx >= 0))
        if check.size:
            far = ~(_ray_distances(rows[check], self._table[idx[check]]) <= TABLE_MATCH_TOL)
            idx[check[far]] = -1
        return idx

    def _nearest(self, rows: np.ndarray) -> np.ndarray:
        """The similarity kernel: each row's nearest table row.  Its squared
        distance to a row t is |q|^2 + |t|^2 - 2|<t|q>|, so the candidates are
        the rows whose score 2|<t|q>| - |t|^2 is within rounding of the best;
        their exact distances pick the nearest, the lowest index on a tie."""
        score = np.abs(rows @ self._table.conj().T)
        score *= 2
        score -= self._sq_norms
        slack = 16 * self.dim * np.finfo(float).eps  # bounds the score's rounding
        q, t = np.nonzero(score >= score.max(axis=1, keepdims=True) - slack)
        order = np.lexsort((_ray_distances(rows[q], self._table[t]), q))
        return t[order][np.flatnonzero(np.diff(q, prepend=-1))]


@functools.cache
def _key_direction(d: int) -> np.ndarray:
    """The unit vector of R^{2d} the table index projects phase-fixed rows
    on: a seeded Gaussian draw, read-only, computed once per d.  A regular
    one would give the standard basis's probe rows colliding keys."""
    r = np.random.default_rng(d).standard_normal(2 * d)
    r /= np.linalg.norm(r)
    r.flags.writeable = False
    return r


def _ray_coordinates(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's phase-fixed coordinates, as a (n, 2d) float64 view, and
    |x_j|^2 of its entries, shape (n, d).  The phase makes the row's first
    entry with |x_j|^2 > 1/(2d), which a unit row always has, real and
    positive."""
    power = np.square(rows.real)
    power += np.square(rows.imag)
    ref = rows[np.arange(len(rows)), np.argmax(power > 0.5 / rows.shape[1], axis=1)]
    return (rows * (ref.conj() / np.abs(ref))[:, None]).view(np.float64), power


def _ray_distances(vecs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """min over phi of ||q - e^{i phi} t|| for each row pair (q, t) of two
    (k, d) stacks."""
    inner = np.einsum("ki,ki->k", rows.conj(), vecs)
    return np.linalg.norm(vecs - np.exp(1j * np.angle(inner))[:, None] * rows, axis=1)


def pair_probes(x: np.ndarray, y: np.ndarray, phases: tuple, out: np.ndarray) -> np.ndarray:
    """Probe rows x_p + w y_p of each stacked row pair (x_p, y_p), for each
    phase w of ``phases`` in turn: shape (n p, d) for n phases.

    The phases are drawn from 1, -1, i, -i, the imaginary ones last, as i y is
    formed once in the last phase's rows: all of ``_phases(field)``, or its +w
    half ``_phases(field)[0::2]``.  ``y`` is a (p, d) stack, possibly empty,
    and ``x`` one row or p rows; the pairs of s bases at once, as (p, s, d)
    stacks, give (n p, s, d) probes.  The rows are written into ``out``, a
    block of exactly that shape, which is returned."""
    n = len(phases)
    iy = np.multiply(y, 1j, out=out[n - 1::n]) if phases[-1].imag else None
    for i, w in enumerate(phases):
        (np.add if w in (1, 1j) else np.subtract)(x, iy if w.imag else y, out=out[i::n])
    return out


def polarize(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """<x_p|rho|y_p> of each orthonormal row pair from v on its unit probes
    (x_p + w y_p)/sqrt2 (``plus``) and (x_p - w y_p)/sqrt2 (``minus``), one
    column per phase w = 1, i (w = 1 in the real field): shape (p,), or
    (p, s) for the values of s bases on a third axis."""
    diff = plus - minus
    re = diff[:, 0] / 2
    return re - 0.5j * diff[:, 1] if diff.shape[1] == 2 else re
