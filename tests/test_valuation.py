"""Oracle contracts, the quadratic-form extension, and polarization."""

import json
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gleason.hilbert import (
    DensityMatrix,
    UnitVector,
    haar_random_basis,
    random_density_matrix,
    standard_basis,
)
from gleason.reconstruct import explicit_query_vectors
from gleason.serialize import dump_json, load_json, oracle_table_from_json, oracle_table_to_json
from gleason.valuation import (
    _BLOCK_ENTRIES,
    TABLE_MATCH_TOL,
    ExactOracle,
    NoisyOracle,
    OracleLookupError,
    TabulatedOracle,
    ValuationOracle,
    _born,
    coupling_probes,
    extend,
    known_diagonal_coupling,
    pair_probes,
    sesquilinear,
)


def e(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def random_vec(rng, d, real=False):
    x = rng.standard_normal(d)
    if not real:
        x = x + 1j * rng.standard_normal(d)
    return x


class TestExactOracle:
    def test_matches_quadratic_form(self):
        rho = random_density_matrix(4, 4, seed=0)
        oracle = ExactOracle(rho)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = random_vec(rng, 4)
            x /= np.linalg.norm(x)
            direct = float((x.conj() @ rho.matrix @ x).real)
            assert abs(oracle.query(UnitVector(x)) - direct) < 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_completeness_over_random_bases(self, dim):
        oracle = ExactOracle(random_density_matrix(dim, dim, seed=dim))
        for seed in range(5):
            basis = haar_random_basis(dim, seed=seed)
            total = sum(oracle.query(UnitVector(c)) for c in basis.matrix.T)
            assert abs(total - 1.0) < 1e-12

    def test_values_in_unit_interval(self):
        oracle = ExactOracle(random_density_matrix(3, 1, seed=2))
        vals = oracle.query_batch(haar_random_basis(3, seed=3).matrix.T)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_query_counting(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=4))
        assert oracle.query_count == 0
        oracle.query(UnitVector(e(0, 3)))
        oracle.query_batch(np.eye(3))
        assert oracle.query_count == 4

    def test_rejects_non_unit_and_wrong_dim(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=5))
        with pytest.raises(ValueError):
            oracle.query_batch(np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError):
            oracle.query_batch(np.array([[1.0, 0.0]]))

    def test_rejects_nan_row_without_charge(self):
        oracle = ExactOracle(random_density_matrix(2, 2, seed=5))
        with pytest.raises(ValueError, match="unit norm"):
            oracle.query_batch(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError, match="unit norm"):
            oracle.query_batch(np.array([[1.0, 0.0], [np.inf, 0.0]]))
        assert oracle.query_count == 0

    def test_rejects_empty_batch_without_charge(self):
        oracle = ExactOracle(random_density_matrix(2, 2, seed=5))
        with pytest.raises(ValueError, match="empty query batch"):
            oracle.query_batch(np.empty((0, 2)))
        assert oracle.query_count == 0

    @pytest.mark.parametrize("shape", [(2, 3, 1), (1, 1, 3), (1, 1, 1, 3)])
    def test_rejects_arrays_of_three_or_more_dims_without_charge(self, shape):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=5))
        with pytest.raises(ValueError, match=rf"query batch of shape \({shape[0]}, "):
            oracle.query_batch(np.ones(shape) / np.sqrt(3))
        assert oracle.query_count == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field 'quaternion'"):
            ExactOracle(random_density_matrix(2, 2, seed=5), field="quaternion")

    def test_base_class_has_no_kernel_and_charges_nothing(self):
        oracle = ValuationOracle(2)
        with pytest.raises(NotImplementedError):
            oracle.query_batch(np.eye(2))
        assert oracle.query_count == 0

    def test_real_mode_contract(self):
        with pytest.raises(ValueError):
            ExactOracle(random_density_matrix(3, 3, seed=6), field="real")
        oracle = ExactOracle(random_density_matrix(3, 3, seed=6, field="real"), field="real")
        with pytest.raises(ValueError):
            oracle.query_batch((e(0, 3) * 1j)[None, :])

    def test_thread_safe_counting(self):
        oracle = ExactOracle(random_density_matrix(2, 2, seed=7))
        rows = np.eye(2)

        def hammer(_):
            for _ in range(100):
                oracle.query_batch(rows)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert oracle.query_count == 8 * 100 * 2


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("rows", [1, 2016])
def test_born_kernel_matches_einsum_reference(rows, field):
    """The Born kernel against the three-index einsum it replaced, on the
    d=32 explicit batch size and on strided views such as the transposed
    basis columns the Haar-average route queries."""
    d = 32
    rho = random_density_matrix(d, d, seed=rows, field=field).matrix
    rng = np.random.default_rng(rows)
    vecs = np.array([random_vec(rng, d, real=field == "real") for _ in range(rows)])
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.complex128)
    ref = np.einsum("ki,ij,kj->k", vecs.conj(), rho, vecs).real
    padded = np.zeros((rows, 2 * d), dtype=np.complex128)
    padded[:, ::2] = vecs
    views = [vecs, padded[:, ::2], np.asfortranarray(vecs)]
    assert not views[1].flags.c_contiguous
    for view in views:
        np.testing.assert_allclose(_born(view, rho), ref, rtol=0, atol=1e-14)


def unit_rows(rng, k, d, field):
    rows = np.array([random_vec(rng, d, real=field == "real") for _ in range(k)])
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.complex128)


def layouts(rows):
    """The same rows as a Fortran-ordered copy, a view strided in both axes and
    a view with negative row stride, each with its C-ordered copy."""
    padded = np.zeros((2 * rows.shape[0], 2 * rows.shape[1]), dtype=rows.dtype)
    padded[::2, ::2] = rows
    flipped = rows[::-1].copy()[::-1]
    views = [np.asfortranarray(rows), padded[::2, ::2], flipped]
    assert not any(v.flags.c_contiguous for v in views[1:])
    return views


@pytest.mark.parametrize("field", ["complex", "real"])
def test_query_batch_accepts_any_row_layout(field):
    rho = random_density_matrix(5, 5, seed=24, field=field)
    rows = unit_rows(np.random.default_rng(25), 7, 5, field)
    for view in layouts(rows):
        for make in (lambda: ExactOracle(rho, field=field),
                     lambda: NoisyOracle(rho, shots=1000, seed=26, field=field)):
            a, b = make(), make()
            assert np.array_equal(a.query_batch(view), b.query_batch(np.ascontiguousarray(view)))
            assert a.query_count == b.query_count == 7


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), 1e200])
def test_query_batch_rejects_non_finite_rows_uncharged_and_silently(bad):
    oracle = ExactOracle(random_density_matrix(3, 3, seed=27))
    rows = np.eye(3, dtype=np.complex128)
    rows[1, 2] = bad
    for view in [rows, *layouts(rows)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unit norm"):
                oracle.query_batch(view)
    assert oracle.query_count == 0


def one_shot_lookup(table, values, vecs):
    """Reference: the tabulated lookup as one k x T similarity matrix."""
    idx = np.argmax(np.abs(vecs @ table.conj().T), axis=1)
    t = table[idx]
    inner = np.einsum("ki,ki->k", t.conj(), vecs)
    dists = np.linalg.norm(vecs - np.exp(1j * np.angle(inner))[:, None] * t, axis=1)
    misses = ~(dists <= TABLE_MATCH_TOL)
    if np.any(misses):
        bad = int(np.flatnonzero(misses)[0])
        raise OracleLookupError(f"no tabulated ray within {TABLE_MATCH_TOL} of query "
                                f"(nearest at distance {dists[bad]:.3e})")
    return values[idx]


class TestBlockedKernels:
    """The oracle kernels run over row blocks of at most
    ``_BLOCK_ENTRIES // width`` rows; at and around every block edge they give
    the one-shot formula's values bit for bit."""

    D = 8
    T = 200  # table rows: 81 rows per block

    @staticmethod
    def batch_sizes(width):
        step = _BLOCK_ENTRIES // width
        return [step - 1, step, step + 1, 3 * step + 5]

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_exact_and_noisy_match_one_shot_born(self, field):
        rho = random_density_matrix(self.D, self.D, seed=60, field=field)
        rng = np.random.default_rng(61)
        for k in self.batch_sizes(self.D):
            vecs = unit_rows(rng, k, self.D, field)
            born = np.vecdot(vecs, vecs @ rho.matrix.T).real.clip(0.0, 1.0)
            assert np.array_equal(ExactOracle(rho, field=field).query_batch(vecs), born)
            noisy = NoisyOracle(rho, shots=500, seed=k, field=field)
            draws = np.random.default_rng(k).binomial(500, born) / 500
            assert np.array_equal(noisy.query_batch(vecs), draws)
            assert noisy.query_count == k

    def make_table(self):
        table = unit_rows(np.random.default_rng(62), self.T, self.D, "complex")
        return table, np.random.default_rng(63).random(self.T)

    def test_tabulated_matches_one_shot_lookup(self):
        table, values = self.make_table()
        rng = np.random.default_rng(64)
        for k in self.batch_sizes(self.T):
            pick = rng.integers(0, self.T, k)
            vecs = table[pick] * np.exp(1j * rng.uniform(0, 2 * np.pi, k))[:, None]
            oracle = TabulatedOracle(table, values)
            got = oracle.query_batch(vecs)
            assert np.array_equal(got, one_shot_lookup(table, values, vecs))
            assert np.array_equal(got, values[pick])
            assert oracle.query_count == k

    def test_miss_in_a_later_block_raises_the_first_miss_uncharged(self):
        table, values = self.make_table()
        step = _BLOCK_ENTRIES // self.T
        vecs = np.resize(table, (3 * step + 5, self.D))
        strays = unit_rows(np.random.default_rng(65), 2, self.D, "complex")
        vecs[step + 7], vecs[2 * step + 1] = strays  # misses in the second and third blocks
        with pytest.raises(OracleLookupError) as ref:
            one_shot_lookup(table, values, vecs)
        oracle = TabulatedOracle(table, values)
        with pytest.raises(OracleLookupError) as got:
            oracle.query_batch(vecs)
        assert str(got.value) == str(ref.value)
        assert oracle.query_count == 0


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_born_kernel_peak_is_bounded_on_the_d32_explicit_block():
    # the 2016 x 32 block's one-shot `vecs @ state.T` product alone is 1.03 MB
    oracle = ExactOracle(random_density_matrix(32, 32, seed=66))
    rows = explicit_query_vectors(haar_random_basis(32, 67))
    assert traced_peak(lambda: oracle.query_batch(rows)) <= 0.5e6


def test_table_lookup_peak_is_bounded_on_a_496_row_table():
    # one-shot, the 496 x 496 similarity matrix and its modulus took 5.9 MB
    rho = random_density_matrix(16, 16, seed=68)
    rows = explicit_query_vectors(haar_random_basis(16, 69))
    oracle = TabulatedOracle(rows, ExactOracle(rho).query_batch(rows))
    queries = np.ascontiguousarray(rows[::-1] * 1j)
    assert traced_peak(lambda: oracle.query_batch(queries)) <= 1e6


def stacked_pair_probes(x, y, field):
    """Reference: the probe rows as ``np.stack`` of whole arrays built them."""
    probes = [x + y, x - y] + ([x + 1j * y, x - 1j * y] if field == "complex" else [])
    return np.stack(probes, axis=1).reshape(-1, x.shape[1])


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_probe_builders_match_stack_reference_bitwise(dim, field):
    b = haar_random_basis(dim, seed=dim + 40, field=field).matrix
    j, k = np.triu_indices(dim, 1)  # no pairs at dim 1
    x, y = b[:, j].T, b[:, k].T
    ref = stacked_pair_probes(x, y, field)
    block = np.full((ref.shape[0] + 2, dim), np.nan, dtype=np.complex128)
    out = block[2:]
    got = pair_probes(x, y, field, out=out)
    assert got is out and np.isnan(block[:2]).all()
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert pair_probes(x, y, field).tobytes() == ref.tobytes()
    # one row x against a stack, as the implicit route pairs u with each w_l,
    # and against an empty stack
    x0 = b[:, :1].T
    for ys in (b.T[1:], b.T[:0]):
        ref = stacked_pair_probes(np.broadcast_to(x0, ys.shape), ys, field)
        got = pair_probes(x0, ys, field)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        half = ref[::2] / np.sqrt(2)
        block = np.empty_like(half)
        got = coupling_probes(x0, ys, field, out=block)
        assert got is block and got.shape == half.shape and got.tobytes() == half.tobytes()


class TestExtend:
    def setup_method(self):
        self.rho = random_density_matrix(3, 3, seed=10)
        self.oracle = ExactOracle(self.rho)

    def test_unit_vector_unchanged(self):
        x = e(1, 3)
        assert abs(extend(self.oracle, x) - self.oracle.query(UnitVector(x))) < 1e-14

    def test_doubled_basis_vector_scales_by_four(self):
        v1 = float(self.rho.matrix[0, 0].real)
        assert abs(extend(self.oracle, 2 * e(0, 3)) - 4 * v1) < 1e-13

    def test_zero_vector_is_zero(self):
        assert extend(self.oracle, np.zeros(3)) == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(11)
        x = random_vec(rng, 3)
        c = 1.7 - 0.3j
        assert abs(extend(self.oracle, c * x) - abs(c) ** 2 * extend(self.oracle, x)) < 1e-12


class TestSesquilinear:
    def test_collapses_on_diagonal(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=12))
        rng = np.random.default_rng(13)
        x = random_vec(rng, 3)
        val = sesquilinear(oracle, x, x)
        assert abs(val.imag) < 1e-12
        assert abs(val.real - extend(oracle, x)) < 1e-12

    def test_orthogonal_args_on_maximally_mixed(self):
        d = 4
        oracle = ExactOracle(DensityMatrix(np.eye(d) / d))
        x, y = e(0, d), e(2, d)
        # direct evaluation: <x| (I/d) |y> = <x|y>/d = 0
        direct = complex(x.conj() @ (np.eye(d) / d) @ y)
        assert direct == 0
        assert abs(sesquilinear(oracle, x, y) - direct) < 1e-13

    def test_matches_matrix_element_brute_force(self):
        rho = random_density_matrix(3, 3, seed=14)
        oracle = ExactOracle(rho)
        rng = np.random.default_rng(15)
        for _ in range(10):
            x, y = random_vec(rng, 3), random_vec(rng, 3)
            direct = complex(x.conj() @ rho.matrix @ y)
            assert abs(sesquilinear(oracle, x, y) - direct) < 1e-12

    def test_bilinear_form_laws(self):
        oracle = ExactOracle(random_density_matrix(4, 4, seed=16))
        rng = np.random.default_rng(17)
        for _ in range(5):
            x, y = random_vec(rng, 4), random_vec(rng, 4)
            a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            lhs = sesquilinear(oracle, a * x, b * y)
            rhs = np.conj(a) * b * sesquilinear(oracle, x, y)
            assert abs(lhs - rhs) < 1e-11
            assert abs(sesquilinear(oracle, x, y) - np.conj(sesquilinear(oracle, y, x))) < 1e-12
            y2 = random_vec(rng, 4)
            additive = sesquilinear(oracle, x, y + y2)
            split = sesquilinear(oracle, x, y) + sesquilinear(oracle, x, y2)
            assert abs(additive - split) < 1e-11

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_known_diagonal_coupling_matches_matrix_elements(self, field):
        rho = random_density_matrix(5, 5, seed=18, field=field)
        oracle = ExactOracle(rho, field=field)
        b = haar_random_basis(5, seed=19, field=field).matrix.T  # orthonormal rows
        x, y = b[:2], b[2:4]  # the pairs (b0, b2) and (b1, b3)
        half = coupling_probes(x, y, field)
        got = known_diagonal_coupling(
            oracle.query_batch(x), oracle.query_batch(y), oracle.query_batch(half), field
        )
        direct = np.einsum("pi,ij,pj->p", x.conj(), rho.matrix, y)
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-14)

    def test_real_mode_drops_imaginary_bracket(self):
        rho = random_density_matrix(3, 3, seed=18, field="real")
        oracle = ExactOracle(rho, field="real")
        rng = np.random.default_rng(19)
        x, y = random_vec(rng, 3, real=True), random_vec(rng, 3, real=True)
        before = oracle.query_count
        val = sesquilinear(oracle, x, y)
        assert oracle.query_count - before == 2
        assert val.imag == 0.0
        assert abs(val.real - float(x @ rho.matrix.real @ y)) < 1e-12


    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_one_query_batch_call(self, field):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=20, field=field), field=field)
        calls = []
        query_batch = oracle.query_batch
        oracle.query_batch = lambda rows: calls.append(len(rows)) or query_batch(rows)
        rng = np.random.default_rng(21)
        x, y = random_vec(rng, 3, real=field == "real"), random_vec(rng, 3, real=field == "real")
        sesquilinear(oracle, x, y)
        assert calls == [4 if field == "complex" else 2]
        # x - x has zero norm, so that probe is neither sent nor charged
        calls.clear()
        before = oracle.query_count
        sesquilinear(oracle, x, x)
        assert calls == [3 if field == "complex" else 1]
        assert oracle.query_count - before == calls[0]

    def test_zero_vectors_cost_nothing(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=22))
        assert sesquilinear(oracle, np.zeros(3), np.zeros(3)) == 0
        assert oracle.query_count == 0

    def test_rejects_nan(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=23))
        with pytest.raises(ValueError):
            sesquilinear(oracle, np.array([np.nan, 0, 0]), e(1, 3))
        with pytest.raises(ValueError):
            sesquilinear(oracle, e(1, 3), np.array([np.inf, 0, 0]))
        with pytest.raises(ValueError):
            extend(oracle, np.array([np.nan, 0, 0]))
        assert oracle.query_count == 0

    def test_rejects_mismatched_dims_without_charge(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=23))
        with pytest.raises(ValueError, match="same dimension"):
            sesquilinear(oracle, e(0, 3), e(1, 4))
        with pytest.raises(ValueError, match="vector dim 4 != oracle dim 3"):
            sesquilinear(oracle, e(0, 4), e(1, 4))
        with pytest.raises(ValueError, match="vector dim 2 != oracle dim 3"):
            extend(oracle, e(0, 2))
        assert oracle.query_count == 0


class TestSubspaceMeasure:
    """The valuation of a subspace, by additivity: the sum of the ray values of
    an orthonormal spanning set, sent as one ``query_batch``."""

    def test_full_space_is_one(self):
        oracle = ExactOracle(random_density_matrix(4, 4, seed=20))
        assert abs(oracle.query_batch(standard_basis(4).matrix.T).sum() - 1.0) < 1e-12

    def test_single_vector_is_ray_value(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=21))
        v = haar_random_basis(3, seed=22).matrix[:, :1]
        assert abs(oracle.query_batch(v.T).sum() - oracle.query(UnitVector(v))) < 1e-14

    def test_spanning_set_independence_and_trace_formula(self):
        rho = random_density_matrix(4, 4, seed=23)
        oracle = ExactOracle(rho)
        b = haar_random_basis(4, seed=24).matrix
        span_a = b[:, :2]
        rot = haar_random_basis(2, seed=25).matrix
        span_b = span_a @ rot  # same subspace, different spanning set
        va = oracle.query_batch(span_a.T).sum()
        vb = oracle.query_batch(span_b.T).sum()
        assert abs(va - vb) < 1e-12
        p = span_a @ span_a.conj().T
        assert abs(va - np.trace(rho.matrix @ p).real) < 1e-12


class TestNoisyOracle:
    def test_mean_converges_with_binomial_bound(self):
        rho = random_density_matrix(3, 3, seed=30)
        oracle = NoisyOracle(rho, shots=10_000, seed=31)
        v = UnitVector(e(0, 3))
        p = float(rho.matrix[0, 0].real)
        m = 200
        samples = [oracle.query(v) for _ in range(m)]
        bound = 1.0 / (2 * np.sqrt(10_000 * m))
        assert abs(np.mean(samples) - p) < 4 * bound

    def test_fresh_samples_without_memoization(self):
        oracle = NoisyOracle(random_density_matrix(2, 2, seed=32), shots=100, seed=33)
        v = UnitVector(np.array([1.0, 1.0]) / np.sqrt(2))
        vals = {oracle.query(v) for _ in range(50)}
        assert len(vals) > 1

    def test_noise_scale_bounds_the_shot_noise(self):
        rho = random_density_matrix(2, 2, seed=34)
        oracle = NoisyOracle(rho, shots=10_000, seed=35)
        assert oracle.noise_scale == 0.005  # sqrt(p(1-p)/shots) <= 0.5/sqrt(shots)
        assert ExactOracle(rho).noise_scale == 0.0
        assert TabulatedOracle(np.eye(2), [0.5, 0.5]).noise_scale == 0.0
        with pytest.raises(AttributeError):
            oracle.noise_scale = 0.0

    def test_seed_determinism(self):
        rho = random_density_matrix(3, 3, seed=36)
        a = NoisyOracle(rho, shots=500, seed=37).query_batch(np.eye(3))
        b = NoisyOracle(rho, shots=500, seed=37).query_batch(np.eye(3))
        assert np.array_equal(a, b)

    def test_completeness_in_expectation(self):
        rho = random_density_matrix(3, 3, seed=38)
        oracle = NoisyOracle(rho, shots=10_000, seed=39)
        basis = haar_random_basis(3, seed=40)
        reps = 100
        totals = [
            float(np.sum(oracle.query_batch(basis.matrix.T))) for _ in range(reps)
        ]
        # sum of 3 binomial means, sd <= sqrt(3)/(2 sqrt(n reps))
        sd_bound = np.sqrt(3) / (2 * np.sqrt(10_000 * reps))
        assert abs(np.mean(totals) - 1.0) < 4 * sd_bound


class TestTabulatedOracle:
    def make_table(self, dim=3, seed=50):
        rho = random_density_matrix(dim, dim, seed=seed)
        exact = ExactOracle(rho)
        vectors = standard_basis(dim).matrix.T
        values = exact.query_batch(vectors)
        return vectors, values

    def test_lookup_within_tolerance(self):
        vectors, values = self.make_table()
        oracle = TabulatedOracle(vectors, values)
        wiggled = vectors[1] + 1e-10
        wiggled /= np.linalg.norm(wiggled)
        assert abs(oracle.query(UnitVector(wiggled)) - values[1]) < 1e-9

    @pytest.mark.parametrize("phase", [1j, -1.0, np.exp(0.7j)])
    def test_lookup_matches_rays(self, phase):
        vectors, values = self.make_table()
        oracle = TabulatedOracle(vectors, values)
        got = oracle.query_batch(phase * vectors)
        np.testing.assert_array_equal(got, values)

    def test_real_mode_matches_sign_flip(self):
        vectors, values = self.make_table()
        oracle = TabulatedOracle(vectors, values, field="real")
        np.testing.assert_array_equal(oracle.query_batch(-vectors), values)

    def test_rejects_non_finite_or_non_unit_rows(self):
        with pytest.raises(ValueError):
            TabulatedOracle([[np.nan, 0.0], [1.0, 0.0]], [0.9, 0.1])
        with pytest.raises(ValueError):
            TabulatedOracle([[np.inf, 0.0], [0.0, 1.0]], [0.9, 0.1])
        with pytest.raises(ValueError):
            TabulatedOracle([[1.1, 0.0], [0.0, 1.0]], [0.9, 0.1])

    def test_rejects_one_value_short(self):
        vectors, values = self.make_table()
        with pytest.raises(ValueError, match="one value per vector"):
            TabulatedOracle(vectors, values[:-1])

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="empty table"):
            TabulatedOracle(np.empty((0, 3)), [])

    def test_miss_raises(self):
        vectors, values = self.make_table()
        oracle = TabulatedOracle(vectors, values)
        probe = np.ones(3, dtype=complex) / np.sqrt(3)
        with pytest.raises(OracleLookupError):
            oracle.query(UnitVector(probe))

    def test_json_round_trip(self, tmp_path):
        vectors, values = self.make_table()
        path = tmp_path / "table.json"
        dump_json(oracle_table_to_json(vectors, values), path)
        oracle = TabulatedOracle(*oracle_table_from_json(load_json(path)))
        got = oracle.query_batch(vectors)
        np.testing.assert_allclose(got, values, atol=1e-15)

    def test_rejects_out_of_range_values(self):
        vectors, values = self.make_table()
        with pytest.raises(ValueError):
            TabulatedOracle(vectors, values + 2.0)
        with pytest.raises(ValueError):
            TabulatedOracle(vectors, np.full_like(values, np.nan))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"vector": 3}]))
        with pytest.raises(ValueError):
            TabulatedOracle(*oracle_table_from_json(load_json(path)))
