"""Standalone checkers for the algebraic identities a valuation must satisfy.

Each checker returns a :class:`CheckReport` rather than raising: failures
are data.  Statistical checks (the Haar moment test) report deviations in
units of estimated standard error and gate at 4 sigma; with fixed seeds
this keeps the flake probability per run negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import OrthonormalBasis, Subspace, haar_basis_matrices
from .reconstruct import TransitionMatrix, explicit_reconstruct
from .valuation import ValuationOracle, subspace_measure

__all__ = [
    "CheckReport",
    "check_density",
    "check_additivity",
    "check_unistochastic",
    "check_haar_moment",
    "check_basis_independence",
]


@dataclass(frozen=True)
class CheckReport:
    """One named check: measured deviation against a tolerance."""

    check: str
    deviation: float
    tolerance: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

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
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    if m.shape[0] != m.shape[1]:
        raise ValueError("input must be square")
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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = oracle.dim
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        b = haar_basis_matrices(d, 1, rng, oracle.field)[0]
        sizes = _random_composition(d, rng)
        parts = [Subspace(m) for m in np.split(b, np.cumsum(sizes)[:-1], axis=1)]
        total = sum(subspace_measure(oracle, a) for a in parts)
        worst = max(worst, abs(total - 1.0))
        if len(parts) >= 2:
            m = b[:, : sizes[0] + sizes[1]]
            rot = haar_basis_matrices(m.shape[1], 1, rng, oracle.field)[0]
            joined = Subspace(m @ rot)
            lhs = subspace_measure(oracle, joined)
            rhs = subspace_measure(oracle, parts[0]) + subspace_measure(oracle, parts[1])
            worst = max(worst, abs(lhs - rhs))
    return CheckReport(
        "additivity", worst, tol, {"dim": d, "trials": trials, "seed": seed}
    )


def check_unistochastic(
    s: TransitionMatrix | np.ndarray, tol: float = 1e-12
) -> CheckReport:
    """Row sums, column sums, and entry range of a transition matrix."""
    arr = s.entries if isinstance(s, TransitionMatrix) else np.asarray(s, dtype=float)
    row_dev = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
    col_dev = float(np.max(np.abs(arr.sum(axis=0) - 1.0)))
    range_dev = float(max(np.max(-arr, initial=0.0), np.max(arr - 1.0, initial=0.0), 0.0))
    deviation = max(row_dev, col_dev, range_dev)
    return CheckReport(
        "unistochastic",
        deviation,
        tol,
        {"row_sums": row_dev, "col_sums": col_dev, "entry_range": range_dev},
    )


def check_haar_moment(
    dim: int, num_samples: int, seed: int, sigma_gate: float = 4.0
) -> CheckReport:
    """Second moment of Haar-random basis projectors against its closed form.

    Estimates the tensor  T[a,b,c,e] = < sum_i (P_i)_ab conj((P_i)_ce) >
    over Haar bases and compares it entrywise with

        (delta_ac delta_be + delta_ab delta_ce) / (d + 1).

    The deviation is reported in units of the per-entry standard error of
    the Monte Carlo mean; the check passes when every entry is within
    ``sigma_gate`` standard errors.
    """
    if num_samples < 100:
        raise ValueError("num_samples must be >= 100")
    rng = np.random.default_rng(seed)
    shape = (dim,) * 4
    total = np.zeros(shape, dtype=np.complex128)
    total_sq = np.zeros(shape)
    chunk = max(1, min(num_samples, 65536 // max(1, dim**2)))
    remaining = num_samples
    while remaining > 0:
        c = min(chunk, remaining)
        remaining -= c
        q = haar_basis_matrices(dim, c, rng)
        x = np.einsum("sai,sbi,sci,sdi->sabcd", q, q.conj(), q.conj(), q)
        total += x.sum(axis=0)
        total_sq += (np.abs(x) ** 2).sum(axis=0)
    mean = total / num_samples
    variance = np.maximum(total_sq / num_samples - np.abs(mean) ** 2, 0.0)
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
        sigma_gate,
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
    if num_bases < 2:
        raise ValueError("num_bases must be >= 2")
    d = oracle.dim
    rng = np.random.default_rng(seed)
    estimates = []
    if d == 1:
        estimates = [np.ones((1, 1)) for _ in range(num_bases)]
    else:
        for m in haar_basis_matrices(d, num_bases, rng):
            basis = OrthonormalBasis.from_matrix(m)
            estimates.append(explicit_reconstruct(oracle, basis).estimate)
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
