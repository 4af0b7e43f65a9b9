"""Property tests: ray semantics of the oracles, basis independence of the
explicit estimate, the implicit estimate on hard spectra, and non-finite
rejection at every boundary that takes an array from a caller."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleason.hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    Projector,
    UnitVector,
    haar_random_basis,
    nearest_density_matrix,
    random_density_matrix,
)
from gleason.reconstruct import (
    ImplicitConfig,
    TransitionMatrix,
    explicit_reconstruct,
    explicit_reconstruct_real,
    implicit_reconstruct,
)
from gleason.valuation import ExactOracle, TabulatedOracle, extend, sesquilinear
from gleason.verify import check_density, check_unistochastic

SEEDS = st.integers(0, 2**32 - 1)
FIELDS = st.sampled_from(["complex", "real"])
THETAS = st.floats(0.0, 2 * np.pi)


def unit_rows(rng, k, d, field):
    x = rng.standard_normal((k, d))
    if field == "complex":
        x = x + 1j * rng.standard_normal((k, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def phase_of(theta, field):
    """e^{i theta}, or its nearest real phase (+1 or -1) on a real space."""
    if field == "complex":
        return np.exp(1j * theta)
    return 1.0 if np.cos(theta) >= 0 else -1.0


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, dim=st.integers(1, 6), field=FIELDS, theta=THETAS)
def test_exact_oracle_is_phase_invariant(seed, dim, field, theta):
    oracle = ExactOracle(random_density_matrix(dim, dim, seed=seed, field=field), field=field)
    rows = unit_rows(np.random.default_rng(seed), 4, dim, field)
    turned = oracle.query_batch(phase_of(theta, field) * rows)
    np.testing.assert_allclose(turned, oracle.query_batch(rows), rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, dim=st.integers(2, 6), field=FIELDS, theta=THETAS)
def test_tabulated_oracle_is_phase_invariant(seed, dim, field, theta):
    # from d=2 on: in d=1 all rows are one ray, so any row may answer
    rows = unit_rows(np.random.default_rng(seed), 5, dim, field)
    exact = ExactOracle(random_density_matrix(dim, dim, seed=seed, field=field), field=field)
    values = exact.query_batch(rows)
    oracle = TabulatedOracle(rows, values, field=field)
    np.testing.assert_array_equal(oracle.query_batch(phase_of(theta, field) * rows), values)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, seed_a=SEEDS, seed_b=SEEDS, dim=st.integers(1, 6), field=FIELDS)
def test_explicit_estimate_is_basis_independent(seed, seed_a, seed_b, dim, field):
    oracle = ExactOracle(random_density_matrix(dim, dim, seed=seed, field=field), field=field)
    route = explicit_reconstruct if field == "complex" else explicit_reconstruct_real
    a = route(oracle, haar_random_basis(dim, seed_a, field)).estimate
    b = route(oracle, haar_random_basis(dim, seed_b, field)).estimate
    assert np.linalg.norm(a - b) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, dim=st.integers(2, 8), field=FIELDS, log_gap=st.floats(-6.0, -1.0),
       cluster=st.integers(2, 3), data=st.data())
def test_implicit_estimate_on_hard_spectra(seed, dim, field, log_gap, cluster, data):
    # the top `cluster` eigenvalues are a relative 10**log_gap apart, and the
    # lowest `zeros` vanish; only the estimate is bounded, since a projector
    # at gap g is off by up to ~||r||/g (Davis-Kahan)
    zeros = data.draw(st.integers(0, dim - 1), label="zeros")
    lam = np.sort(np.random.default_rng(seed).random(dim))[::-1]
    for i in range(1, min(cluster, dim)):
        lam[i] = lam[i - 1] * (1 - 10**log_gap)
    lam[dim - zeros:] = 0.0
    u = haar_random_basis(dim, seed, field).matrix
    m = (u * (lam / lam.sum())) @ u.conj().T
    rho = DensityMatrix((m + m.conj().T) / 2)
    report = implicit_reconstruct(ExactOracle(rho, field=field), ImplicitConfig(seed=seed))
    assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-6


def _query_uncharged(m):
    dim = m.shape[0]
    oracle = ExactOracle(DensityMatrix(np.eye(dim) / dim))
    try:
        oracle.query_batch(m)
    except ValueError:
        assert oracle.query_count == 0
        raise


BOUNDARIES = {
    "UnitVector": lambda m: UnitVector(m[0]),
    "OrthonormalBasis": OrthonormalBasis,
    "DensityMatrix": DensityMatrix,
    "Projector": Projector,
    "query_batch": _query_uncharged,
    "TabulatedOracle": lambda m: TabulatedOracle(m, np.full(m.shape[0], 1 / m.shape[0])),
    "check_density": check_density,
    "nearest_density_matrix": nearest_density_matrix,
    # a transition matrix is real; |m| keeps each bad entry bad and eye valid
    "check_unistochastic": lambda m: check_unistochastic(np.abs(m)),
    "TransitionMatrix": lambda m: TransitionMatrix(np.abs(m)),
}
BAD = st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1.0)])


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 5), bad=BAD, data=st.data())
def test_non_finite_entries_are_rejected(boundary, dim, bad, data):
    m = np.eye(dim, dtype=np.complex128) / (dim if boundary == "DensityMatrix" else 1)
    BOUNDARIES[boundary](m)  # the clean matrix is accepted
    m[0, data.draw(st.integers(0, dim - 1))] = bad
    with pytest.raises(ValueError):
        BOUNDARIES[boundary](m)


@pytest.mark.parametrize("boundary", ["nearest_density_matrix", "check_unistochastic",
                                      "check_density", "DensityMatrix", "Projector",
                                      "TransitionMatrix"])
def test_empty_matrix_is_rejected(boundary):
    with pytest.raises(ValueError, match="must be a nonempty square matrix"):
        BOUNDARIES[boundary](np.zeros((0, 0), dtype=np.complex128))


# each takes a finite row whose squared norm overflows, and an oracle to charge
HUGE_ROW = {
    "UnitVector": lambda oracle, x: UnitVector(x),
    "extend": extend,
    "sesquilinear": lambda oracle, x: sesquilinear(oracle, x, [0.0, 1.0, 0.0]),
    "TabulatedOracle": lambda oracle, x: TabulatedOracle(x[None], [0.5]),
}


@pytest.mark.parametrize("boundary", sorted(HUGE_ROW))
def test_row_whose_squared_norm_overflows_is_rejected_silently(boundary):
    oracle = ExactOracle(DensityMatrix(np.eye(3) / 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            HUGE_ROW[boundary](oracle, np.array([1e200, 0.0, 0.0]))
    assert oracle.query_count == 0


def test_sesquilinear_rejects_huge_rows_before_forming_probes():
    # x + x would overflow to inf while forming the probes
    oracle = ExactOracle(DensityMatrix(np.eye(3) / 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            sesquilinear(oracle, [1e308, 0.0, 0.0], [1e308, 0.0, 0.0])
        with pytest.raises(ValueError):
            sesquilinear(oracle, [0.0, 1.0, 0.0], [-1e308, 0.0, 0.0])
    assert oracle.query_count == 0
