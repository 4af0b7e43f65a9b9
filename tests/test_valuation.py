"""Oracle contracts, the quadratic-form extension, and polarization."""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gleason.hilbert import (
    DensityMatrix,
    Subspace,
    UnitVector,
    haar_random_basis,
    random_density_matrix,
    standard_basis,
)
from gleason.serialize import dump_json, load_json, oracle_table_from_json, oracle_table_to_json
from gleason.valuation import (
    ExactOracle,
    NoisyOracle,
    OracleLookupError,
    TabulatedOracle,
    extend,
    sesquilinear,
    subspace_measure,
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


class TestSubspaceMeasure:
    def test_full_space_is_one(self):
        oracle = ExactOracle(random_density_matrix(4, 4, seed=20))
        full = Subspace(standard_basis(4).matrix)
        assert abs(subspace_measure(oracle, full) - 1.0) < 1e-12

    def test_single_vector_is_ray_value(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=21))
        v = haar_random_basis(3, seed=22).matrix[:, :1]
        a = Subspace(v)
        assert abs(subspace_measure(oracle, a) - oracle.query(UnitVector(v))) < 1e-14

    def test_spanning_set_independence_and_trace_formula(self):
        rho = random_density_matrix(4, 4, seed=23)
        oracle = ExactOracle(rho)
        b = haar_random_basis(4, seed=24).matrix
        span_a = b[:, :2]
        rot = haar_random_basis(2, seed=25).matrix
        span_b = span_a @ rot  # same subspace, different spanning set
        sub_a = Subspace(span_a)
        sub_b = Subspace(span_b)
        va = subspace_measure(oracle, sub_a)
        vb = subspace_measure(oracle, sub_b)
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
