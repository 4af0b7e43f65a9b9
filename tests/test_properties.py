"""Property tests: ray semantics of the oracles, basis independence of the
explicit estimate, the implicit estimate on hard spectra and against the
explicit one, non-finite rejection at every boundary that takes an array from
a caller, and one check of every scalar bound."""

import inspect
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleason import cli, hilbert, reconstruct, valuation, verify
from gleason.hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    Projector,
    UnitVector,
    haar_random_basis,
    nearest_density_matrix,
    random_density_matrix,
    standard_basis,
)
from gleason.reconstruct import (
    ImplicitConfig,
    TransitionMatrix,
    explicit_reconstruct,
    explicit_reconstruct_real,
    haar_average_reconstruct,
    implicit_reconstruct,
)
from gleason.valuation import (
    ExactOracle,
    NoisyOracle,
    TabulatedOracle,
    ValuationOracle,
)
from gleason.verify import (
    check_additivity,
    check_basis_independence,
    check_density,
    check_haar_moment,
    check_unistochastic,
)

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
    # lowest `zeros` vanish; every run is the certified batch, exact to rounding
    zeros = data.draw(st.integers(0, dim - 1), label="zeros")
    lam = np.sort(np.random.default_rng(seed).random(dim))[::-1]
    for i in range(1, min(cluster, dim)):
        lam[i] = lam[i - 1] * (1 - 10**log_gap)
    lam[dim - zeros:] = 0.0
    u = haar_random_basis(dim, seed, field).matrix
    m = (u * (lam / lam.sum())) @ u.conj().T
    rho = DensityMatrix((m + m.conj().T) / 2)
    report = implicit_reconstruct(ExactOracle(rho, field=field), ImplicitConfig(seed=seed))
    assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.integers(2, 8), field=FIELDS)
def test_implicit_estimate_matches_explicit_at_fewer_queries(seed, dim, field):
    # one measured Haar basis gives the explicit route's estimate in the
    # standard basis, for d^2 queries against 2d^2 - d (d(d+1)/2 against d^2
    # in the real field)
    rho = random_density_matrix(dim, dim, seed=seed, field=field)
    route = explicit_reconstruct if field == "complex" else explicit_reconstruct_real
    explicit = route(ExactOracle(rho, field=field), standard_basis(dim))
    implicit = implicit_reconstruct(ExactOracle(rho, field=field), ImplicitConfig(seed=seed))
    assert np.linalg.norm(implicit.estimate - explicit.estimate) <= 1e-13
    assert implicit.query_count < explicit.query_count


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


NAN = float("nan")
BELOW_ZERO = -np.nextafter(0.0, 1.0)
RHO = DensityMatrix(np.eye(2) / 2)


def _verify_all(count):
    return cli.cmd_verify(SimpleNamespace(
        suite="all", infile="s.json", dim=None, tol=None, num_bases=count, shots=0, seed=0,
        out=None))


# Every ``_at_least`` call in src/: parameter name, the call on a value and an
# exact oracle, and the nearest value below its bound.
BOUNDS = {
    "UnitVector": ("dim", lambda v, o: UnitVector(np.ones(v)), 0),
    "haar_random_basis": ("dim", lambda v, o: haar_random_basis(v, 0), 0),
    "haar_random_basis-seed": ("seed", lambda v, o: haar_random_basis(2, v), -1),
    "random_density_matrix": ("dim", lambda v, o: random_density_matrix(v, 1, 0), 0),
    "random_density_matrix-seed": ("seed", lambda v, o: random_density_matrix(2, 1, v), -1),
    "ValuationOracle": ("dim", lambda v, o: ValuationOracle(v), 0),
    "NoisyOracle": ("shots", lambda v, o: NoisyOracle(RHO, shots=v), 0),
    "NoisyOracle-seed": ("seed", lambda v, o: NoisyOracle(RHO, seed=v), -1),
    "haar_average_reconstruct": ("num_bases", lambda v, o: haar_average_reconstruct(o, v, 0), 0),
    "haar_average_reconstruct-seed": (
        "seed", lambda v, o: haar_average_reconstruct(o, 10, v), -1),
    "ImplicitConfig": ("tol", lambda v, o: ImplicitConfig(tol=v), BELOW_ZERO),
    "ImplicitConfig-seed": ("seed", lambda v, o: ImplicitConfig(seed=v), -1),
    "check_density": ("tol", lambda v, o: check_density(RHO.matrix, v), BELOW_ZERO),
    "check_additivity-trials": ("trials", lambda v, o: check_additivity(o, v, 0), 0),
    "check_additivity-tol": ("tol", lambda v, o: check_additivity(o, 10, 0, v), BELOW_ZERO),
    "check_additivity-seed": ("seed", lambda v, o: check_additivity(o, 10, v), -1),
    "check_unistochastic": ("tol", lambda v, o: check_unistochastic(np.eye(2), v), BELOW_ZERO),
    "check_haar_moment-dim": ("dim", lambda v, o: check_haar_moment(v, 100, 0), 0),
    "check_haar_moment-num_samples": (
        "num_samples", lambda v, o: check_haar_moment(4, v, 0), 99),
    "check_haar_moment-seed": ("seed", lambda v, o: check_haar_moment(4, 100, v), -1),
    "check_basis_independence-num_bases": (
        "num_bases", lambda v, o: check_basis_independence(o, v, 0), 1),
    "check_basis_independence-tol": (
        "tol", lambda v, o: check_basis_independence(o, 3, 0, v), BELOW_ZERO),
    "check_basis_independence-seed": (
        "seed", lambda v, o: check_basis_independence(o, 3, v), -1),
    "cli.cmd_compare": ("tol", lambda v, o: cli.cmd_compare(
        SimpleNamespace(tol=v, path_a="a.json", path_b="b.json")), BELOW_ZERO),
    "cli.cmd_verify": ("num_samples", lambda v, o: _verify_all(v), 99),
}


def test_bounds_cover_every_call():
    calls = sum(len(re.findall(r"(?<!def )_at_least\(", inspect.getsource(module)))
                for module in (hilbert, valuation, reconstruct, verify, cli))
    assert calls == len(BOUNDS)


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, _, below) in BOUNDS.items()
    # a vector's size cannot be NaN
    for value in ([below] if site == "UnitVector" else [NAN, below])
])
def test_scalar_bound_is_rejected_uncharged(monkeypatch, site, value):
    name, call, _ = BOUNDS[site]
    oracle = ExactOracle(RHO)
    monkeypatch.setattr(ValuationOracle, "query_batch",
                        lambda self, rows: pytest.fail("a query was made"))
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        call(value, oracle)
    assert oracle.query_count == 0
