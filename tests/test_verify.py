"""Checker suite: identities pass, constructed violations fail."""

import math
import tracemalloc

import numpy as np
import pytest

from gleason import reconstruct, verify
from gleason.hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    haar_basis_matrices,
    haar_random_basis,
    random_density_matrix,
)
from gleason.reconstruct import explicit_query_vectors, explicit_reconstruct, transition_matrix
from gleason.valuation import ExactOracle, NoisyOracle, ValuationOracle
from gleason.verify import (
    _ADDITIVITY_CHUNK,
    CheckReport,
    check_additivity,
    check_basis_independence,
    check_density,
    check_haar_moment,
    check_unistochastic,
)


class TestCheckReport:
    def test_pass_flag_recomputable(self):
        ok = CheckReport("x", deviation=1e-12, tolerance=1e-10)
        bad = CheckReport("x", deviation=1e-8, tolerance=1e-10)
        assert ok.passed and not bad.passed
        assert ok.passed == (ok.deviation <= ok.tolerance)

    def test_json_shape(self):
        r = CheckReport("density", 0.0, 1e-10, {"dim": 2})
        payload = r.to_json()
        assert set(payload) == {"check", "pass", "deviation", "tolerance", "context"}
        assert payload["pass"] is True


class TestCheckDensity:
    def test_maximally_mixed_passes_with_zero_deviation(self):
        r = check_density(np.eye(4) / 4, tol=1e-10)
        assert r.passed and r.deviation == 0.0

    def test_constructed_violation(self):
        r = check_density(np.diag([1.1, -0.1]), tol=1e-10)
        assert not r.passed
        assert abs(r.deviation - 0.1) < 1e-12
        assert r.context["min_eigenvalue"] < 0

    def test_reconstruction_output_passes(self):
        rho = random_density_matrix(3, 3, seed=1)
        report = explicit_reconstruct(ExactOracle(rho), haar_random_basis(3, seed=2))
        assert check_density(report.repaired.matrix, tol=1e-10).passed

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            check_density(np.ones((2, 3)))

    def test_entries_near_overflow(self):
        # m + m^H overflows here; halved before adding it does not
        r = check_density(np.diag([1e308, -1e308]))
        assert not r.passed and r.deviation == 1e308 and r.context["min_eigenvalue"] == -1e308

    @pytest.mark.parametrize("m", [[[1e308, 0.0], [0.0, 1e308]], [[0.0, 1e308], [-1e308, 0.0]]])
    def test_unrepresentable_trace_or_asymmetry_is_rejected(self, m):
        with pytest.raises(ValueError, match="cannot be represented"):
            check_density(np.array(m))


class TestCheckAdditivity:
    def test_exact_oracle_passes(self):
        oracle = ExactOracle(random_density_matrix(4, 4, seed=3))
        r = check_additivity(oracle, trials=100, seed=4, tol=1e-10)
        assert r.passed, r.deviation

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_all_dims(self, dim):
        oracle = ExactOracle(random_density_matrix(dim, dim, seed=dim))
        assert check_additivity(oracle, trials=20, seed=5, tol=1e-10).passed

    def test_noisy_oracle_at_statistical_tolerance(self):
        shots = 10_000
        oracle = NoisyOracle(random_density_matrix(4, 4, seed=6), shots=shots, seed=7)
        r = check_additivity(oracle, trials=20, seed=8, tol=5 / np.sqrt(shots))
        assert r.passed, r.deviation

    def test_deterministic_given_seed(self):
        oracle_a = ExactOracle(random_density_matrix(3, 3, seed=9))
        oracle_b = ExactOracle(random_density_matrix(3, 3, seed=9))
        ra = check_additivity(oracle_a, trials=10, seed=10)
        rb = check_additivity(oracle_b, trials=10, seed=10)
        assert ra.deviation == rb.deviation


def loop_additivity(oracle, trials, seed):
    """Reference: the additivity check one trial and one subspace at a time,
    one ``query_batch`` per subspace measured: per chunk, every part of every
    trial, then every joined span in ascending width, the batch's row order."""
    d = oracle.dim
    rng = np.random.default_rng(seed)
    worst = 0.0
    for first in range(0, trials, _ADDITIVITY_CHUNK):
        count = min(_ADDITIVITY_CHUNK, trials - first)
        bases = haar_basis_matrices(d, count, rng, oracle.field)
        cuts = rng.random((count, d - 1)) < 0.5
        sizes = [np.diff([0, *(np.flatnonzero(c) + 1), d]) for c in cuts]
        parts = []
        for b, s in zip(bases, sizes):
            values = [oracle.query_batch(m.T).sum()
                      for m in np.split(b, np.cumsum(s)[:-1], axis=1)]
            worst = max(worst, abs(sum(values) - 1.0))
            parts.append(values[0] + values[1] if len(s) >= 2 else None)
        for k in sorted({s[0] + s[1] for s in sizes if len(s) >= 2}):
            joined = [t for t, s in enumerate(sizes) if len(s) >= 2 and s[0] + s[1] == k]
            for t, rot in zip(joined, haar_basis_matrices(k, len(joined), rng, oracle.field)):
                lhs = oracle.query_batch((bases[t, :, :k] @ rot).T).sum()
                worst = max(worst, abs(lhs - parts[t]))
    return worst


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_additivity_matches_loop_reference(dim, field):
    for seed, trials in enumerate([3, 20, _ADDITIVITY_CHUNK + 2]):  # the last spans two chunks
        rho = random_density_matrix(dim, dim, seed=30 + seed, field=field)
        batched, looped = ExactOracle(rho, field), ExactOracle(rho, field)
        r = check_additivity(batched, trials, seed)
        assert abs(r.deviation - loop_additivity(looped, trials, seed)) <= 1e-14
        assert batched.query_count == looped.query_count
        batched = NoisyOracle(rho, shots=1000, seed=seed, field=field)
        looped = NoisyOracle(rho, shots=1000, seed=seed, field=field)
        r = check_additivity(batched, trials, seed)
        assert abs(r.deviation - loop_additivity(looped, trials, seed)) <= 1e-14
        assert batched.query_count == looped.query_count


class QuarticOracle(ValuationOracle):
    """v(n) = sum_j |n_j|^4: a phase-invariant valuation into [0, 1] that is
    no Born rule, as its values over a basis do not sum to 1.  At d = 2 the
    joined span of the first two parts is the whole space, so the check
    reduces to normalization there: Gleason's theorem needs d >= 3."""

    def _values(self, vecs):
        return (np.abs(vecs) ** 4).sum(axis=1)


@pytest.mark.parametrize("dim", [3, 8])
def test_additivity_fails_a_valuation_that_is_no_born_rule(dim):
    r = check_additivity(QuarticOracle(dim), trials=50, seed=dim, tol=1e-10)
    assert r.deviation > 1e6 * r.tolerance, r.deviation


class CallCountingOracle(ExactOracle):
    def __init__(self, state):
        super().__init__(state)
        self.batches = []

    @property
    def calls(self):
        return len(self.batches)

    def query_batch(self, vectors):
        self.batches.append(np.array(vectors))
        return super().query_batch(vectors)


@pytest.mark.parametrize("trials, calls", [
    (1, 1), (_ADDITIVITY_CHUNK, 1), (_ADDITIVITY_CHUNK + 1, 2),
])
def test_additivity_makes_one_oracle_call_per_chunk(trials, calls):
    oracle = CallCountingOracle(random_density_matrix(3, 3, seed=40))
    assert check_additivity(oracle, trials, seed=41).passed
    assert oracle.calls == calls


class TestCheckUnistochastic:
    def test_identity_passes(self):
        assert check_unistochastic(np.eye(3)).passed

    def test_all_halves_passes(self):
        assert check_unistochastic(np.full((2, 2), 0.5)).passed

    def test_haar_pair_passes_strict(self):
        s = transition_matrix(haar_random_basis(6, seed=11), haar_random_basis(6, seed=12))
        r = check_unistochastic(s, tol=1e-12)
        assert r.passed

    def test_violation_fails(self):
        r = check_unistochastic(np.array([[0.9, 0.2], [0.1, 0.8]]), tol=1e-12)
        assert not r.passed
        assert abs(r.deviation - 0.1) < 1e-12

    @pytest.mark.parametrize("s", [np.ones((2, 2, 2)) / 2, np.full((1, 2), 0.5)])
    def test_non_square_rejected(self, s):
        with pytest.raises(ValueError, match="must be a nonempty square matrix"):
            check_unistochastic(s)

    @pytest.mark.parametrize("entry", [1e308, -1e308])
    def test_sums_beyond_float64_are_rejected(self, entry):
        # finite entries whose sums overflow: a report of them could hold an
        # infinite deviation, which no JSON writer takes
        with pytest.raises(ValueError, match="cannot be represented in float64"):
            check_unistochastic(np.full((2, 2), entry))


class TestCheckHaarMoment:
    def test_passes_at_moderate_samples(self):
        r = check_haar_moment(2, 20_000, seed=13)
        assert r.passed, (r.deviation, r.context)

    def test_displayed_entries_match_closed_form(self):
        # independent small Monte Carlo of the two quoted entries:
        # T[a,a,a,a] = 2/(d+1) and T[a,b,a,b] = 1/(d+1) for a != b
        d, n = 3, 30_000
        rng = np.random.default_rng(14)
        q = haar_basis_matrices(d, n, rng)
        t_1111 = np.einsum("sai,sai,sai,sai->s", q[:, :1], q.conj()[:, :1],
                           q.conj()[:, :1], q[:, :1]).real.mean()
        t_1212 = np.einsum("si,si,si,si->s", q[:, 0], q[:, 1].conj(),
                           q[:, 0].conj(), q[:, 1]).real.mean()
        assert abs(t_1111 - 2 / (d + 1)) < 0.01
        assert abs(t_1212 - 1 / (d + 1)) < 0.01

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            check_haar_moment(2, 50, seed=15)

    def test_deterministic_given_seed(self):
        a = check_haar_moment(2, 1000, seed=16)
        b = check_haar_moment(2, 1000, seed=16)
        assert a.deviation == b.deviation

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gate_is_four_sigma_up_to_dim_four(self, dim):
        assert check_haar_moment(dim, 100, seed=0).tolerance == 4.0

    def test_gate_widens_with_the_packed_entry_count(self):
        # at d=8 a correct sampler's largest of 36^2 packed deviations reads
        # 4.14 sigma on this seed, which a fixed 4-sigma gate fails
        r = check_haar_moment(8, 100, seed=103)
        assert r.deviation > 4.0
        assert r.tolerance == pytest.approx(math.sqrt(16 + 2 * math.log(36**2 / 100)))
        assert r.passed, (r.deviation, r.tolerance)

    def test_one_real_basis_in_twenty_fails(self, monkeypatch):
        # real orthogonal bases have a different second moment than Haar
        # unitaries; the check must still see them when 5% of the draws are
        def contaminated(dim, count, rng):
            q = haar_basis_matrices(dim, count, rng)
            q[::20] = haar_basis_matrices(dim, len(q[::20]), rng, field="real")
            return q

        monkeypatch.setattr(verify, "haar_basis_matrices", contaminated)
        r = check_haar_moment(4, 20_000, seed=22)
        assert not r.passed, (r.deviation, r.tolerance)


def einsum_haar_moment(dim, num_samples, seed):
    """Reference: the moment check's max |mean - expected| and max sigma, with
    the per-sample tensor from the five-index einsum, over the same draws."""
    rng = np.random.default_rng(seed)
    chunk = min(num_samples, 65536 // dim**2)
    total, total_sq, remaining = 0.0, 0.0, num_samples
    while remaining > 0:
        c = min(chunk, remaining)
        remaining -= c
        q = haar_basis_matrices(dim, c, rng)
        x = np.einsum("sai,sbi,sci,sdi->sabcd", q, q.conj(), q.conj(), q)
        total = total + x.sum(axis=0)
        total_sq = total_sq + (np.abs(x) ** 2).sum(axis=0)
    mean = total / num_samples
    stderr = np.sqrt((total_sq / num_samples - np.abs(mean) ** 2) / num_samples)
    eye = np.eye(dim)
    expected = np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ab,cd->abcd", eye, eye)
    abs_dev = np.abs(mean - expected / (dim + 1))
    return abs_dev.max(), (abs_dev / stderr).max()


# dim 4 at 5000 samples is two chunks, 4096 samples and 904
@pytest.mark.parametrize(("dim", "num_samples"),
                         [(2, 100), (2, 5000), (3, 100), (3, 5000), (4, 5000), (5, 500)])
def test_haar_moment_matches_einsum_reference(dim, num_samples):
    r = check_haar_moment(dim, num_samples, seed=dim + num_samples)
    ref_dev, ref_sigma = einsum_haar_moment(dim, num_samples, seed=dim + num_samples)
    assert abs(r.context["max_abs_deviation"] - ref_dev) <= 1e-11
    assert abs(r.deviation - ref_sigma) <= 1e-9 * ref_sigma


@pytest.mark.parametrize(("dim", "num_samples", "bound"), [(4, 4096, 16e6), (32, 100, 100e6)])
def test_haar_moment_peak_memory(dim, num_samples, bound):
    # d=4, one chunk of 4096 samples: the packed 10 x 10 block per sample
    # bounds the peak, where the full 16 x 16 block took 25 MB.  d=32: the
    # chunk is bounded by its packed 528 x 528 blocks and the moment is
    # compared packed, where expanding it to d^4 entries took 451 MB
    tracemalloc.start()
    try:
        check_haar_moment(dim, num_samples, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize(("dim", "draws"), [(15, [145, 145, 10]), (16, [128, 128, 44])])
def test_haar_moment_draws_stacks_at_the_sampler_crossover(monkeypatch, dim, draws):
    # at d=16 the packed product bounds a block to 113 bases, below the
    # Householder sampler's 128-basis crossover, so the draws are 128 bases
    # each and the blocks split them; at d=15 the block is 145 bases already
    counts = []

    def spy(dim, count, rng, field="complex"):
        counts.append(count)
        return haar_basis_matrices(dim, count, rng, field)

    monkeypatch.setattr(verify, "haar_basis_matrices", spy)
    r = check_haar_moment(dim, 300, seed=dim)
    assert counts == draws
    assert r.passed, (r.deviation, r.tolerance)


class TestCheckBasisIndependence:
    def test_exact_oracle_passes(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=17))
        r = check_basis_independence(oracle, num_bases=5, seed=18, tol=1e-10)
        assert r.passed, r.deviation

    def test_dim_one_zero_deviation(self):
        oracle = ExactOracle(DensityMatrix([[1.0]]))
        r = check_basis_independence(oracle, num_bases=3, seed=19)
        assert r.deviation == 0.0

    def test_noisy_oracle_negative_control(self):
        oracle = NoisyOracle(random_density_matrix(3, 3, seed=20), shots=10_000, seed=21)
        r = check_basis_independence(oracle, num_bases=3, seed=22, tol=1e-10)
        assert not r.passed  # shot noise dominates the 1e-10 gate

    def test_counter_is_only_mutation(self):
        rho = random_density_matrix(3, 3, seed=23)
        oracle = ExactOracle(rho)
        before_state = oracle._state.copy()
        check_basis_independence(oracle, num_bases=3, seed=24)
        assert np.array_equal(before_state, oracle._state)
        assert oracle.query_count == 3 * 15

    @pytest.mark.parametrize("shots", [None, 1000])
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_estimates_match_the_explicit_route_without_repair(self, d, shots, monkeypatch):
        # the explicit route, one basis after another on one oracle, against
        # the check's one batch on a fresh oracle of the same seed: a noisy
        # oracle draws the same values for the same rows in the same order
        rho = random_density_matrix(d, 2, seed=26)

        def fresh():
            return ExactOracle(rho) if shots is None else NoisyOracle(rho, shots, seed=d)

        oracle = fresh()
        bases = haar_basis_matrices(d, 3, np.random.default_rng(27))
        estimates = [explicit_reconstruct(oracle, OrthonormalBasis(m)).estimate for m in bases]
        worst = max(np.linalg.norm(a - b) for i, a in enumerate(estimates)
                    for b in estimates[i + 1:])
        for name in ("nearest_density_matrix", "_density_from_spectrum"):
            monkeypatch.setattr(reconstruct, name, lambda *a: pytest.fail("a repair was made"))
        oracle = fresh()
        r = check_basis_independence(oracle, num_bases=3, seed=27)
        assert r.deviation == worst
        assert oracle.query_count == 3 * (2 * d * d - d)

    def test_one_batch_holds_every_basis_query_block(self):
        # cli-files' shape: one call of 8 blocks of 2d^2 - d rows, each basis's
        # explicit_query_vectors bit for bit, in draw order
        d, n = 8, 8
        oracle = CallCountingOracle(random_density_matrix(d, d, seed=50))
        assert check_basis_independence(oracle, n, seed=51).passed
        (rows,) = oracle.batches
        assert rows.shape == (n * (2 * d * d - d), d)
        bases = haar_basis_matrices(d, n, np.random.default_rng(51))
        blocks = [explicit_query_vectors(OrthonormalBasis(m)) for m in bases]
        assert rows.tobytes() == np.concatenate(blocks).tobytes()

    def test_batches_stay_within_the_row_cap(self, monkeypatch):
        # above the cap the bases go in chunks, each one batch within it, and
        # the deviation is the one batch's bit for bit
        d, n = 8, 40
        rho = random_density_matrix(d, d, seed=52)
        oracle = CallCountingOracle(rho)
        capped = check_basis_independence(oracle, n, seed=53)
        sizes = [len(rows) for rows in oracle.batches]
        assert len(sizes) > 1 and max(sizes) <= verify._BASIS_ROWS
        assert sum(sizes) == n * (2 * d * d - d)
        monkeypatch.setattr(verify, "_BASIS_ROWS", n * (2 * d * d - d))
        oracle = CallCountingOracle(rho)
        assert check_basis_independence(oracle, n, seed=53).deviation == capped.deviation
        assert len(oracle.batches) == 1

    def test_real_oracle_rejected_before_any_query(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=28, field="real"), field="real")
        with pytest.raises(ValueError, match="complex-mode"):
            check_basis_independence(oracle, num_bases=3, seed=29)
        assert oracle.query_count == 0


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
@pytest.mark.parametrize("check", ["density", "additivity", "unistochastic",
                                   "basis-independence"])
def test_unreachable_tol_is_rejected_before_any_query(check, tol):
    oracle = ExactOracle(random_density_matrix(3, 3, seed=25))
    s = transition_matrix(haar_random_basis(3, 26), haar_random_basis(3, 27))
    run = {
        "density": lambda: check_density(np.eye(3) / 3, tol),
        "additivity": lambda: check_additivity(oracle, 10, 0, tol=tol),
        "unistochastic": lambda: check_unistochastic(s, tol),
        "basis-independence": lambda: check_basis_independence(oracle, 3, 0, tol),
    }[check]
    with pytest.raises(ValueError, match="tol must be >= 0"):
        run()
    assert oracle.query_count == 0
