"""Standalone checkers for the algebraic identities a valuation must satisfy.

Each checker returns a :class:`CheckReport` rather than raising: failures
are data.  Arguments no input could pass or no report could hold, such as
a NaN, negative or infinite tolerance, raise ``ValueError`` before any query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .hilbert import (
    _HOUSEHOLDER_MAX_DIM,
    _HOUSEHOLDER_MIN_COUNT,
    _at_least,
    _check_orthonormal,
    _hermitian_part,
    _square,
    haar_basis_matrices,
)
from .reconstruct import TransitionMatrix, _basis_estimates, _stochastic_deviations
from .valuation import ValuationOracle

__all__ = [
    "CheckReport",
    "check_density",
    "check_additivity",
    "check_unistochastic",
    "check_haar_moment",
    "check_basis_independence",
]

# Fewest samples the Haar moment check takes; fewer would leave its standard
# errors, and so its gate, too rough.
_MIN_SAMPLES = 100
# Trials per oracle call of the additivity check; its arrays grow as chunk * d^2.
_ADDITIVITY_CHUNK = 128
# Rows per oracle call of the basis-independence check (2d^2 - d per basis):
# no more than one d=32 basis's block, so its peak memory stays a basis's.
_BASIS_ROWS = 2048


@dataclass(frozen=True)
class CheckReport:
    """One named check: measured deviation against a tolerance."""

    check: str
    deviation: float
    tolerance: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.deviation <= self.tolerance)  # json cannot write a numpy bool

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "context": self.context,
        }


def check_density(m: np.ndarray, tol: float = 1e-10) -> CheckReport:
    """Hermiticity, unit trace, and eigenvalue nonnegativity of a matrix; one
    whose deviations or spectrum overflow float64 raises ``ValueError``."""
    _at_least(tol, 0, "tol", real=True)
    m = _square(m, "input")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        herm = float(np.max(np.abs(m - m.conj().T)))
        trace = float(abs(np.trace(m) - 1.0))
    wmin = float(np.linalg.eigvalsh(_hermitian_part(m))[0])
    if not np.isfinite([herm, trace, wmin]).all():
        raise ValueError("the input's deviations or spectrum cannot be represented in float64")
    context = {"hermiticity": herm, "trace": trace, "min_eigenvalue": wmin, "dim": m.shape[0]}
    return CheckReport("density", max(herm, trace, -wmin, 0.0), tol, context)


def check_additivity(
    oracle: ValuationOracle, trials: int, seed: int, tol: float = 1e-10
) -> CheckReport:
    """Additivity over random orthogonal decompositions.

    Each trial draws a Haar basis and cuts it into subspaces by a uniformly
    random composition of the dimension: each of the d - 1 cuts is open with
    probability 1/2.  It checks normalization (the values of the basis
    vectors, and so of the subspaces, sum to 1) and, when a cut is open,
    additivity v(A1 + A2) = v(A1) + v(A2) over the first two parts.  The
    direct sum, of width k = s0 + s1 (up to the second open cut, or d when
    only one is open), is measured through a freshly rotated spanning set,
    so the identity is not a tautology; v(A1) + v(A2) is read from the
    basis vectors' values.

    Trials run in chunks of ``_ADDITIVITY_CHUNK``.  Each chunk draws its
    Haar bases, then its cuts as one (count, d - 1) array of fair coins,
    then one stack of Haar rotations per distinct k, in ascending k; it
    makes one ``query_batch`` of all basis vectors, then all rotated spans
    grouped by k.  Each subspace is measured once, so a trial costs d + k
    queries (d when no cut is open).  Each basis and each span is checked
    for orthonormal columns once; a part needs no check of its own, as its
    Gram matrix is a principal submatrix of its basis's.
    """
    _at_least(trials, 1, "trials")
    _at_least(tol, 0, "tol", real=True)
    _at_least(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for first in range(0, trials, _ADDITIVITY_CHUNK):
        count = min(_ADDITIVITY_CHUNK, trials - first)
        worst = max(worst, _additivity_chunk(oracle, count, rng))
    return CheckReport("additivity", worst, tol,
                       {"dim": oracle.dim, "trials": trials, "seed": seed})


def _additivity_chunk(oracle: ValuationOracle, count: int, rng: np.random.Generator) -> float:
    """Worst deviation over ``count`` trials of ``check_additivity``."""
    d, field = oracle.dim, oracle.field
    bases = haar_basis_matrices(d, count, rng, field)
    _check_orthonormal(bases, "basis")
    cuts = rng.random((count, d - 1)) < 0.5
    # width of the first two parts: up to the second open cut, or all of d
    widths = (np.cumsum(cuts, axis=1) < 2).sum(axis=1) + 1
    joined = np.flatnonzero(cuts.any(axis=1))
    joined = joined[np.argsort(widths[joined], kind="stable")]  # the spans' row order
    widths = widths[joined]
    rows = [bases.swapaxes(1, 2).reshape(-1, d)]
    for k in sorted(set(widths.tolist())):  # np.unique's first call imports for ~11 ms
        trials = joined[widths == k]
        spans = bases[trials, :, :k] @ haar_basis_matrices(k, len(trials), rng, field)
        _check_orthonormal(spans, "spanning set")
        rows.append(spans.swapaxes(1, 2).reshape(-1, d))
    values = oracle.query_batch(np.concatenate(rows))
    basis_values = values[: count * d].reshape(count, d)
    parts = np.cumsum(basis_values, axis=1)[joined, widths - 1]
    owners = np.repeat(np.arange(len(joined)), widths)
    spans_values = np.bincount(owners, values[count * d :], len(joined))
    return max(float(np.max(np.abs(basis_values.sum(axis=1) - 1.0))),
               float(np.max(np.abs(spans_values - parts), initial=0.0)))


def check_unistochastic(
    s: TransitionMatrix | np.ndarray, tol: float = 1e-12
) -> CheckReport:
    """Row sums, column sums, and entry range of a transition matrix; one whose
    sums overflow float64 raises ``ValueError``."""
    _at_least(tol, 0, "tol", real=True)
    arr = s.entries if isinstance(s, TransitionMatrix) else _square(s, "input", float)
    rows, cols, span = _stochastic_deviations(arr)
    if not max(rows, cols) < math.inf:
        raise ValueError("the input's row or column sums cannot be represented in float64")
    return CheckReport("unistochastic", max(rows, cols, span), tol,
                       {"row_sums": rows, "col_sums": cols, "entry_range": span})


def check_haar_moment(dim: int, num_samples: int, seed: int) -> CheckReport:
    """Second moment of Haar-random basis projectors against its closed form.

    Estimates T[a,b,c,e] = < sum_i (P_i)_ab conj((P_i)_ce) > over Haar bases
    and compares it with

        (delta_ac delta_be + delta_ab delta_ce) / (d + 1).

    T = sum_i q_ai conj(q_bi) conj(q_ci) q_ei and the closed form are both
    symmetric under a <-> e and b <-> c, so they are compared packed, as
    entry ({a,e}, {b,c}) of S S^H with S[{a,e}, i] = q_ai q_ei over the
    d(d+1)/2 unordered pairs.  Packed, the closed form is diagonal: 2/(d+1)
    where a = e, else 1/(d+1).

    The deviation is the largest over the K = (d(d+1)/2)^2 packed entries,
    in standard errors of the Monte Carlo mean.  The gate is 4 while
    K <= 100 (d <= 4) and sqrt(16 + 2 ln(K/100)) above, so a correct
    sampler fails no more often as the entry count grows; with fixed seeds
    flakes are negligible.
    """
    _at_least(dim, 1, "dim")
    _at_least(num_samples, _MIN_SAMPLES, "num_samples")
    _at_least(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    a, e = np.triu_indices(dim)
    total = np.zeros(a.size**2, dtype=np.complex128)
    total_sq = np.zeros(a.size**2)
    # Bases per product block: its packed K x K products stay within 2**21
    # entries (32 MiB) and its d x d matrices within 65536.  Bases per draw:
    # one block, but never fewer than the Householder sampler's crossover
    # count at the dims it serves (d=16 draws 128 bases for 113-basis blocks).
    block = max(1, min(65536 // dim**2, 2**21 // a.size**2))
    chunk = max(block, _HOUSEHOLDER_MIN_COUNT if dim <= _HOUSEHOLDER_MAX_DIM else 1)
    for first in range(0, num_samples, chunk):
        stack = haar_basis_matrices(dim, min(chunk, num_samples - first), rng)
        for lo in range(0, len(stack), block):
            q = stack[lo : lo + block]
            s = q[:, a]  # a copy (fancy indexing), so the product is formed in it
            s *= q[:, e]
            x = (s @ np.swapaxes(s.conj(), 1, 2)).reshape(len(q), -1)
            total += x.sum(axis=0)
            xf = x.view(np.float64)
            total_sq += np.einsum("sk,sk->k", xf, xf).reshape(-1, 2).sum(axis=1)
    mean = total / num_samples
    variance = np.maximum(total_sq / num_samples - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(variance / num_samples)
    expected = np.diag(np.where(a == e, 2.0, 1.0) / (dim + 1)).reshape(-1)
    abs_dev = np.abs(mean - expected)
    sigmas = np.where(
        stderr > 0, abs_dev / np.where(stderr > 0, stderr, 1.0),
        np.where(abs_dev <= 1e-12, 0.0, np.inf),
    )
    context = {"dim": dim, "num_samples": num_samples,
               "max_abs_deviation": float(np.max(abs_dev)), "seed": seed}
    gate = math.sqrt(16 + 2 * math.log(max(a.size**2, 100) / 100))
    return CheckReport("haar-moment", float(np.max(sigmas)), gate, context)


def check_basis_independence(
    oracle: ValuationOracle, num_bases: int, seed: int, tol: float = 1e-10
) -> CheckReport:
    """Explicit reconstructions from different bases must agree.

    Runs the explicit route's construction, without its PSD repair, in
    ``num_bases`` Haar-random bases and reports the maximum pairwise
    Frobenius distance between the raw estimates of a complex-mode oracle.
    Exact oracles pass at 1e-10; shot-noise oracles are expected to fail
    this gate (useful as a negative control).
    The bases are one Haar draw, checked at once; each chunk of them within
    ``_BASIS_ROWS`` query rows (at least one basis) is one ``_basis_estimates``.
    """
    _at_least(num_bases, 2, "num_bases")
    _at_least(tol, 0, "tol", real=True)
    _at_least(seed, 0, "seed")
    if oracle.field != "complex":
        raise ValueError("check_basis_independence needs a complex-mode oracle")
    d = oracle.dim
    worst = 0.0
    if d > 1:  # in one dimension every estimate is 1, with no query
        bases = haar_basis_matrices(d, num_bases, np.random.default_rng(seed))
        _check_orthonormal(bases, "basis")
        chunk = max(1, _BASIS_ROWS // (2 * d * d - d))
        estimates = np.concatenate([_basis_estimates(oracle, bases[first : first + chunk])
                                    for first in range(0, num_bases, chunk)])
        worst = max(float(np.linalg.norm(a - b)) for a, b in combinations(estimates, 2))
    return CheckReport("basis-independence", worst, tol,
                       {"dim": d, "num_bases": num_bases, "seed": seed})
