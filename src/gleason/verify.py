"""Standalone checkers for the algebraic identities a valuation must satisfy.

Each checker returns a :class:`CheckReport` rather than raising: failures
are data.  Arguments no input could pass, such as a NaN or negative
tolerance, raise ``ValueError`` before any query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    OrthonormalBasis,
    _at_least,
    _check_orthonormal,
    _ginibre,
    _haar_factor,
    _square,
    haar_basis_matrices,
)
from .reconstruct import TransitionMatrix, _stochastic_deviations, explicit_reconstruct
from .valuation import ValuationOracle

__all__ = [
    "CheckReport",
    "check_density",
    "check_additivity",
    "check_unistochastic",
    "check_haar_moment",
    "check_basis_independence",
]

# Gate of the Haar moment check, in standard errors of the Monte Carlo mean;
# with fixed seeds it keeps the flake probability per run negligible.
_SIGMA_GATE = 4.0
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
    """Hermiticity, unit trace, and eigenvalue nonnegativity of a matrix."""
    _at_least(tol, 0, "tol")
    m = _square(m, "input")
    herm = float(np.max(np.abs(m - m.conj().T)))
    trace = float(abs(np.trace(m) - 1.0))
    wmin = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    negativity = max(0.0, -wmin)
    deviation = max(herm, trace, negativity)
    return CheckReport(
        "density",
        deviation,
        tol,
        {
            "hermiticity": herm,
            "trace": trace,
            "min_eigenvalue": wmin,
            "dim": m.shape[0],
        },
    )


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
    _at_least(tol, 0, "tol")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for first in range(0, trials, _ADDITIVITY_CHUNK):
        count = min(_ADDITIVITY_CHUNK, trials - first)
        worst = max(worst, _additivity_chunk(oracle, count, rng))
    return CheckReport(
        "additivity", worst, tol, {"dim": oracle.dim, "trials": trials, "seed": seed}
    )


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
    _at_least(tol, 0, "tol")
    arr = s.entries if isinstance(s, TransitionMatrix) else _square(s, "input", float)
    row_dev, col_dev, range_dev = _stochastic_deviations(arr)
    deviation = max(row_dev, col_dev, range_dev)
    return CheckReport(
        "unistochastic",
        deviation,
        tol,
        {"row_sums": row_dev, "col_sums": col_dev, "entry_range": range_dev},
    )


def check_haar_moment(dim: int, num_samples: int, seed: int) -> CheckReport:
    """Second moment of Haar-random basis projectors against its closed form.

    Estimates T[a,b,c,e] = < sum_i (P_i)_ab conj((P_i)_ce) > over Haar bases
    and compares it with

        (delta_ac delta_be + delta_ab delta_ce) / (d + 1).

    T = sum_i q_ai conj(q_bi) conj(q_ci) q_ei is symmetric under a <-> e and
    b <-> c, so a sample needs only S S^H, with S[{a,e}, i] = q_ai q_ei over
    the d(d+1)/2 unordered pairs; one index gather expands the sums to d^4.

    The deviation is reported in units of the per-entry standard error of
    the Monte Carlo mean; the check passes when every entry is within
    four standard errors.
    """
    _at_least(dim, 1, "dim")
    _at_least(num_samples, _MIN_SAMPLES, "num_samples")
    rng = np.random.default_rng(seed)
    a, e = np.triu_indices(dim)
    pair = np.empty((dim, dim), dtype=np.intp)
    pair[a, e] = pair[e, a] = np.arange(a.size)  # packed index of the unordered pair {a, e}
    total = np.zeros(a.size**2, dtype=np.complex128)
    total_sq = np.zeros(a.size**2)
    chunk = max(1, min(num_samples, 65536 // max(1, dim**2)))
    for first in range(0, num_samples, chunk):
        c = min(chunk, num_samples - first)
        q = haar_basis_matrices(dim, c, rng)
        s = q[:, a]  # a copy (fancy indexing), so the product is formed in it
        s *= q[:, e]
        x = (s @ np.swapaxes(s.conj(), 1, 2)).reshape(c, -1)
        total += x.sum(axis=0)
        xf = x.view(np.float64)
        total_sq += np.einsum("sk,sk->k", xf, xf).reshape(-1, 2).sum(axis=1)
    # T[a, b, c, e] is entry ({a, e}, {b, c}) of the packed sums
    full = pair[:, None, None, :] * a.size + pair[None, :, :, None]
    mean = total[full] / num_samples
    variance = np.maximum(total_sq[full] / num_samples - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(variance / num_samples)

    eye = np.eye(dim)
    expected = (
        np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ab,cd->abcd", eye, eye)
    ) / (dim + 1)
    abs_dev = np.abs(mean - expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(
            stderr > 0, abs_dev / np.where(stderr > 0, stderr, 1.0),
            np.where(abs_dev <= 1e-12, 0.0, np.inf),
        )
    return CheckReport(
        "haar-moment",
        float(np.max(sigmas)),
        _SIGMA_GATE,
        {
            "dim": dim,
            "num_samples": num_samples,
            "max_abs_deviation": float(np.max(abs_dev)),
            "seed": seed,
        },
    )


def check_basis_independence(
    oracle: ValuationOracle, num_bases: int, seed: int, tol: float = 1e-10
) -> CheckReport:
    """Explicit reconstructions from different bases must agree.

    Runs the explicit route in ``num_bases`` Haar-random bases and reports
    the maximum pairwise Frobenius distance between the raw estimates.
    Exact oracles pass at 1e-10; shot-noise oracles are expected to fail
    this gate (useful as a negative control).
    """
    _at_least(num_bases, 2, "num_bases")
    _at_least(tol, 0, "tol")
    d = oracle.dim
    rng = np.random.default_rng(seed)
    estimates = [
        explicit_reconstruct(oracle, OrthonormalBasis(m)).estimate
        for m in haar_basis_matrices(d, num_bases, rng)
    ]
    worst = 0.0
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            worst = max(worst, float(np.linalg.norm(estimates[i] - estimates[j])))
    return CheckReport(
        "basis-independence",
        worst,
        tol,
        {"dim": d, "num_bases": num_bases, "seed": seed},
    )
