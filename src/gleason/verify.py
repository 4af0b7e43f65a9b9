"""Standalone checkers for the algebraic identities a valuation must satisfy.

Each checker returns a :class:`CheckReport` rather than raising: failures
are data.  Arguments no input could pass, such as a NaN or negative
tolerance, raise ``ValueError`` before any query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .hilbert import (
    _HOUSEHOLDER_MAX_DIM,
    _HOUSEHOLDER_MIN_COUNT,
    OrthonormalBasis,
    _at_least,
    _check_orthonormal,
    _ginibre,
    _haar_factor,
    _hermitian_part,
    _square,
    haar_basis_matrices,
)
from .reconstruct import TransitionMatrix, _polarization_estimate, _stochastic_deviations
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


def _random_composition(d: int, rng: np.random.Generator) -> list[int]:
    # each of the d-1 cut points is open with probability 1/2, which is
    # uniform over all compositions of d
    cuts = np.flatnonzero(rng.random(d - 1) < 0.5) + 1 if d > 1 else np.array([], dtype=int)
    bounds = [0, *cuts.tolist(), d]
    return [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]


def check_additivity(
    oracle: ValuationOracle, trials: int, seed: int, tol: float = 1e-10
) -> CheckReport:
    """Additivity over random orthogonal decompositions.

    Each trial draws a Haar basis, partitions it into subspaces by a
    uniformly random composition of the dimension, and verifies both
    normalization (the subspace values sum to 1) and pairwise additivity,
    v(A1 + A2) = v(A1) + v(A2), where the direct sum is measured through a
    freshly rotated spanning set so the identity is not a tautology.

    Trials run in chunks of ``_ADDITIVITY_CHUNK``, each one ``query_batch``.
    The random stream, the rows queried, their order (per trial: the basis
    columns, the rotated joined set, then the first two parts) and so the
    query count are those of running the trials one by one.  Each basis and
    each rotated joined set is checked for orthonormal columns once; a part
    needs no check of its own, as its Gram matrix is a principal submatrix
    of its basis's.
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
    draws, sizes, rotations = [], [], {}
    for t in range(count):
        draws.append(_ginibre((1, d, d), rng, field))
        sizes.append(_random_composition(d, rng))
        if len(sizes[-1]) >= 2:
            k = sizes[-1][0] + sizes[-1][1]
            trials_k, draws_k = rotations.setdefault(k, ([], []))
            trials_k.append(t)
            draws_k.append(_ginibre((1, k, k), rng, field))
    bases = _haar_factor(np.concatenate(draws))
    _check_orthonormal(bases, "basis")
    joined = [None] * count
    for k, (trials_k, draws_k) in rotations.items():
        spans = bases[trials_k, :, :k] @ _haar_factor(np.concatenate(draws_k))
        _check_orthonormal(spans, "spanning set")
        for t, m in zip(trials_k, spans):
            joined[t] = m
    rows, lengths = [], []
    for t, s in enumerate(sizes):
        rows.append(bases[t].T)
        lengths += s
        if len(s) >= 2:
            rows += [joined[t].T, bases[t, :, : s[0] + s[1]].T]
            lengths += [s[0] + s[1], s[0], s[1]]
    values = oracle.query_batch(np.concatenate(rows))
    sums = np.add.reduceat(values, np.cumsum([0, *lengths[:-1]])).tolist()
    worst, i = 0.0, 0
    for s in sizes:
        worst = max(worst, abs(sum(sums[i : i + len(s)]) - 1.0))
        i += len(s)
        if len(s) >= 2:
            lhs, a1, a2 = sums[i : i + 3]
            worst = max(worst, abs(lhs - (a1 + a2)))
            i += 3
    return worst


def check_unistochastic(
    s: TransitionMatrix | np.ndarray, tol: float = 1e-12
) -> CheckReport:
    """Row sums, column sums, and entry range of a transition matrix."""
    _at_least(tol, 0, "tol", real=True)
    arr = s.entries if isinstance(s, TransitionMatrix) else _square(s, "input", float)
    rows, cols, span = _stochastic_deviations(arr)
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
    """
    _at_least(num_bases, 2, "num_bases")
    _at_least(tol, 0, "tol", real=True)
    _at_least(seed, 0, "seed")
    if oracle.field != "complex":
        raise ValueError("check_basis_independence needs a complex-mode oracle")
    d = oracle.dim
    rng = np.random.default_rng(seed)
    estimates = [
        _polarization_estimate(oracle, OrthonormalBasis(m))
        for m in haar_basis_matrices(d, num_bases, rng)
    ]
    worst = max(float(np.linalg.norm(a - b)) for a, b in combinations(estimates, 2))
    return CheckReport("basis-independence", worst, tol,
                       {"dim": d, "num_bases": num_bases, "seed": seed})
