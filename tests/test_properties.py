"""Property tests: ray semantics of the oracles and non-finite rejection at
every boundary that takes an array from a caller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleason.hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    Subspace,
    UnitVector,
    random_density_matrix,
)
from gleason.valuation import ExactOracle, TabulatedOracle

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
    "Subspace": Subspace,
    "DensityMatrix": DensityMatrix,
    "query_batch": _query_uncharged,
    "TabulatedOracle": lambda m: TabulatedOracle(m, np.full(m.shape[0], 1 / m.shape[0])),
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
