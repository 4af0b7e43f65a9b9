"""All five reconstruction routes plus transition matrices."""

import itertools
import warnings

import numpy as np
import pytest

from gleason import reconstruct
from gleason.hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    haar_basis_matrices,
    haar_random_basis,
    random_density_matrix,
    spectral_decomposition,
    standard_basis,
)
from gleason.reconstruct import (
    ConvergenceError,
    ImplicitConfig,
    TransitionMatrix,
    explicit_query_vectors,
    explicit_reconstruct,
    explicit_reconstruct_real,
    haar_average_reconstruct,
    implicit_reconstruct,
    pauli_reconstruct_2d,
    transition_matrix,
)
from gleason.reconstruct import _ascend_sphere, _householder_complement, _span_pass
from gleason.serialize import matrix_from_json
from gleason.valuation import ExactOracle, NoisyOracle


def e(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def pure(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


class TestExplicit:
    def test_maximally_mixed_any_basis(self):
        d = 4
        oracle = ExactOracle(DensityMatrix(np.eye(d) / d))
        report = explicit_reconstruct(oracle, haar_random_basis(d, seed=1))
        np.testing.assert_allclose(report.estimate, np.eye(d) / d, atol=1e-13)

    def test_basis_state_off_diagonals_cancel(self):
        d = 3
        rho = pure(e(0, d))
        oracle = ExactOracle(rho)
        basis = standard_basis(d)
        # hand evaluation: the four off-diagonal probes against e_k all give 1/2
        for k in range(1, d):
            for probe in (e(0, d) + e(k, d), e(0, d) - e(k, d),
                          e(0, d) + 1j * e(k, d), e(0, d) - 1j * e(k, d)):
                assert abs(oracle.query_batch(probe / np.sqrt(2))[0] - 0.5) < 1e-14
        report = explicit_reconstruct(oracle, basis)
        np.testing.assert_allclose(report.estimate, np.diag([1.0, 0, 0]), atol=1e-13)

    def test_random_state_haar_basis_exact_with_budget(self):
        rho = random_density_matrix(3, 3, seed=2)
        oracle = ExactOracle(rho)
        report = explicit_reconstruct(oracle, haar_random_basis(3, seed=3))
        assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-12
        assert report.query_count == 15  # 2 d^2 - d at d = 3
        assert report.method == "explicit"
        assert report.residual < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_query_budget(self, dim):
        oracle = ExactOracle(random_density_matrix(dim, dim, seed=dim))
        report = explicit_reconstruct(oracle, haar_random_basis(dim, seed=dim + 1))
        assert report.query_count == 2 * dim**2 - dim
        assert oracle.query_count == report.query_count

    def test_basis_independence(self):
        rho = random_density_matrix(4, 4, seed=4)
        oracle = ExactOracle(rho)
        est_a = explicit_reconstruct(oracle, haar_random_basis(4, seed=5)).estimate
        est_b = explicit_reconstruct(oracle, haar_random_basis(4, seed=6)).estimate
        assert np.linalg.norm(est_a - est_b) <= 1e-12

    def test_spectral_identity_in_eigenbasis(self):
        rho = random_density_matrix(4, 4, seed=7)
        dec = spectral_decomposition(rho)
        eigvecs = np.column_stack(
            [p.matrix[:, np.argmax(np.abs(p.matrix).sum(axis=0))] for p in dec.eigenprojectors]
        )
        eigvecs /= np.linalg.norm(eigvecs, axis=0)
        basis = OrthonormalBasis.from_matrix(eigvecs)
        report = explicit_reconstruct(ExactOracle(rho), basis)
        in_basis = eigvecs.conj().T @ report.estimate @ eigvecs
        off = in_basis - np.diag(np.diag(in_basis))
        assert np.max(np.abs(off)) < 1e-12
        np.testing.assert_allclose(
            np.sort(np.diag(in_basis).real)[::-1], dec.eigenvalues, atol=1e-12
        )

    def test_real_mode_oracle_rejected(self):
        rho = random_density_matrix(3, 3, seed=8, field="real")
        oracle = ExactOracle(rho, field="real")
        with pytest.raises(ValueError):
            explicit_reconstruct(oracle, standard_basis(3))

    def test_dimension_mismatch(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=9))
        with pytest.raises(ValueError):
            explicit_reconstruct(oracle, standard_basis(4))

    def test_query_vector_set_shape(self):
        basis = haar_random_basis(4, seed=10)
        rows = explicit_query_vectors(basis)
        assert rows.shape == (2 * 16 - 4, 4)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_dim_one_trivial(self):
        oracle = ExactOracle(DensityMatrix([[1.0]]))
        report = explicit_reconstruct(oracle, standard_basis(1))
        assert report.estimate.tolist() == [[1.0]]
        assert report.query_count == 0


def pairwise_query_vectors(basis, field):
    """Reference: the probe rows built one pair at a time, in the documented order."""
    b = basis.matrix
    d = basis.dim
    rows = [b[:, j] for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            nj, nk = b[:, j], b[:, k]
            probes = [nj + nk, nj - nk]
            if field == "complex":
                probes += [nj + 1j * nk, nj - 1j * nk]
            for p in probes:
                rows.append(p / np.linalg.norm(p))
    return np.vstack(rows)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 16, 32])
def test_query_vectors_match_pairwise_reference(dim, field):
    basis = haar_random_basis(dim, seed=dim + 30, field=field)
    rows = explicit_query_vectors(basis, field)
    ref = pairwise_query_vectors(basis, field)
    budget = 2 * dim**2 - dim if field == "complex" else dim**2
    assert rows.shape == ref.shape == (budget, dim)
    # same rows in the same order; normalization may round in the last bit
    np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-15)
    assert rows[:dim].tobytes() == basis.matrix.T.tobytes()
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-15
    rho = random_density_matrix(dim, dim, seed=dim, field=field)
    assert ExactOracle(rho, field=field).query_batch(rows).shape == (budget,)
    # a basis orthonormal only within ATOL still gives unit probe rows
    noise = 5e-14 * np.random.default_rng(dim).standard_normal((dim, dim))
    rows = explicit_query_vectors(OrthonormalBasis(basis.matrix + noise), field)
    assert np.max(np.abs(np.linalg.norm(rows[dim:], axis=1) - 1.0), initial=0.0) <= 1e-15


class TestExplicitReal:
    def test_mixed_state_budget(self):
        d = 3
        oracle = ExactOracle(DensityMatrix(np.eye(d) / d), field="real")
        report = explicit_reconstruct_real(oracle, haar_random_basis(d, seed=11, field="real"))
        np.testing.assert_allclose(report.estimate, np.eye(d) / d, atol=1e-13)
        assert report.query_count == d**2

    def test_plus_state_hand_values(self):
        rho = pure([1.0, 1.0])
        oracle = ExactOracle(rho, field="real")
        basis = standard_basis(2)
        # v(e1) = v(e2) = 1/2, v((e1+e2)/sqrt2) = 1, v((e1-e2)/sqrt2) = 0
        vals = oracle.query_batch(explicit_query_vectors(basis, "real"))
        np.testing.assert_allclose(vals, [0.5, 0.5, 1.0, 0.0], atol=1e-14)
        report = explicit_reconstruct_real(oracle, basis)
        np.testing.assert_allclose(report.estimate, np.full((2, 2), 0.5), atol=1e-13)

    def test_random_real_state_exact(self):
        rho = random_density_matrix(4, 4, seed=12, field="real")
        oracle = ExactOracle(rho, field="real")
        report = explicit_reconstruct_real(oracle, haar_random_basis(4, seed=13, field="real"))
        assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-12
        assert report.query_count == 16
        assert np.max(np.abs(report.estimate.imag)) < 1e-14

    def test_complex_oracle_rejected(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=14))
        with pytest.raises(ValueError):
            explicit_reconstruct_real(oracle, standard_basis(3))

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_real_basis_rejected_uncharged(self, d):
        # every basis row is queried, and the oracle rejects the non-real block
        oracle = ExactOracle(random_density_matrix(d, d, seed=15, field="real"), field="real")
        with pytest.raises(ValueError, match="complex vector"):
            explicit_reconstruct_real(oracle, haar_random_basis(d, seed=16))
        assert oracle.query_count == 0

    def test_dim_one_phase_basis_needs_no_query(self):
        oracle = ExactOracle(DensityMatrix([[1.0]]), field="real")
        report = explicit_reconstruct_real(oracle, OrthonormalBasis([[1j]]))
        assert report.query_count == 0 and report.estimate[0, 0] == 1.0


class TestPauli2d:
    def test_maximally_mixed(self):
        oracle = ExactOracle(DensityMatrix(np.eye(2) / 2))
        report = pauli_reconstruct_2d(oracle, standard_basis(2))
        np.testing.assert_allclose(report.estimate, np.eye(2) / 2, atol=1e-14)

    def test_basis_aligned_pure_state(self):
        basis = haar_random_basis(2, seed=15)
        x_hat = basis.matrix[:, 0]
        rho = pure(x_hat)
        oracle = ExactOracle(rho)
        report = pauli_reconstruct_2d(oracle, basis)
        np.testing.assert_allclose(report.estimate, rho.matrix, atol=1e-13)
        # in basis coordinates the state is |x><x| = diag(1, 0)
        in_basis = basis.matrix.conj().T @ report.estimate @ basis.matrix
        np.testing.assert_allclose(in_basis, np.diag([1.0, 0.0]), rtol=0, atol=1e-12)

    def test_agrees_with_explicit_six_queries(self):
        for seed in range(10):
            rho = random_density_matrix(2, 2, seed=seed)
            basis = haar_random_basis(2, seed=seed + 100)
            a = pauli_reconstruct_2d(ExactOracle(rho), basis)
            b = explicit_reconstruct(ExactOracle(rho), basis)
            assert np.linalg.norm(a.estimate - b.estimate) <= 1e-12
            assert a.query_count == 6 and b.query_count == 6

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_is_explicit_route_at_dim_two(self, field):
        explicit = explicit_reconstruct if field == "complex" else explicit_reconstruct_real
        for seed in range(5):
            rho = random_density_matrix(2, 2, seed=seed, field=field)
            basis = haar_random_basis(2, seed=seed + 200, field=field)
            for make in (lambda: ExactOracle(rho, field=field),
                         lambda: NoisyOracle(rho, shots=100, seed=seed, field=field)):
                a = pauli_reconstruct_2d(make(), basis)
                b = explicit(make(), basis)
                assert np.array_equal(a.estimate, b.estimate)
                assert a.query_count == b.query_count == (6 if field == "complex" else 4)
                assert a.method == "pauli2d"

    def test_real_mode_uses_four_queries(self):
        rho = random_density_matrix(2, 2, seed=16, field="real")
        oracle = ExactOracle(rho, field="real")
        report = pauli_reconstruct_2d(oracle, standard_basis(2))
        assert report.query_count == 4
        np.testing.assert_allclose(report.estimate, rho.matrix, atol=1e-13)

    def test_wrong_dim_rejected(self):
        oracle = ExactOracle(random_density_matrix(3, 3, seed=17))
        with pytest.raises(ValueError):
            pauli_reconstruct_2d(oracle, standard_basis(3))


class TestImplicit:
    def test_known_spectrum_in_order(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        report = implicit_reconstruct(ExactOracle(rho))
        got = np.diag(
            standard_basis(3).matrix.conj().T @ report.estimate @ standard_basis(3).matrix
        ).real
        # eigenbasis is the standard basis here, so the estimate is diagonal
        np.testing.assert_allclose(np.sort(got)[::-1], [0.5, 0.3, 0.2], atol=1e-8)
        assert np.linalg.norm(report.estimate - rho.matrix) < 1e-7

    def test_fully_degenerate_returns_mixed(self):
        d = 4
        report = implicit_reconstruct(ExactOracle(DensityMatrix(np.eye(d) / d)))
        np.testing.assert_allclose(report.estimate, np.eye(d) / d, atol=1e-10)

    def test_random_state_spectral_projectors(self):
        rho = random_density_matrix(4, 4, seed=19)
        report = implicit_reconstruct(ExactOracle(rho))
        true_dec = spectral_decomposition(rho)
        est_dec = spectral_decomposition(report.repaired)
        # a random full-rank state has a simple spectrum, so each level is one projector
        assert min(-np.diff(true_dec.eigenvalues)) > 1e-3
        np.testing.assert_allclose(est_dec.eigenvalues, true_dec.eigenvalues, atol=1e-6)
        for p_t, p_e in zip(true_dec.eigenprojectors, est_dec.eigenprojectors):
            assert np.linalg.norm(p_t.matrix - p_e.matrix) < 1e-6

    def test_values_non_increasing(self):
        rho = random_density_matrix(5, 5, seed=20)
        report = implicit_reconstruct(ExactOracle(rho))
        w = np.sort(np.linalg.eigvalsh(report.estimate))[::-1]
        true = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        np.testing.assert_allclose(w, true, atol=1e-8)

    def test_real_mode(self):
        rho = random_density_matrix(3, 3, seed=21, field="real")
        oracle = ExactOracle(rho, field="real")
        report = implicit_reconstruct(oracle)
        assert np.linalg.norm(report.estimate - rho.matrix) < 1e-7

    def test_non_convergence_raises_with_payload(self):
        # tol lies below the noise floor, so the first stage runs all 300
        # iterations, each one residual batch of 3(m-1)+1 = 7 rows (m=3)
        rho = random_density_matrix(3, 3, seed=22)
        oracle = NoisyOracle(rho, shots=100, seed=23)
        with pytest.raises(ConvergenceError) as err:
            implicit_reconstruct(oracle, ImplicitConfig(tol=1e-12, seed=24))
        assert err.value.best_vector.shape == (3,)
        assert 0.0 <= err.value.best_value <= 1.0
        assert err.value.residual > 0
        assert err.value.sweeps == 300
        assert err.value.floor == pytest.approx(3 * 0.05 * np.sqrt(3 * 2))  # sigma = 0.5/sqrt(100)
        assert "noise floor 3.674e-01" in str(err.value)
        assert oracle.query_count == 7 * 300

    def test_noisy_runs_converge_and_scale_like_criterion_09(self):
        # criterion 09's states, bases and oracle seeds; the default tol stops
        # each stage at the noise floor
        errs = {10_000: ([], []), 40_000: ([], [])}  # shots: (implicit, explicit)
        for rep in range(20):
            state = random_density_matrix(3, 3, seed=90_000 + rep)
            basis = haar_random_basis(3, seed=89_000 + rep)
            for shots, (imp, exp) in errs.items():
                report = implicit_reconstruct(NoisyOracle(state, shots=shots, seed=91_000 + rep))
                imp.append(np.linalg.norm(report.estimate - state.matrix))
                oracle = NoisyOracle(state, shots=shots, seed=91_000 + rep)
                exp.append(np.linalg.norm(explicit_reconstruct(oracle, basis).estimate
                                          - state.matrix))
        med = {shots: (np.median(imp), np.median(exp)) for shots, (imp, exp) in errs.items()}
        assert 2 / 1.5 <= med[10_000][0] / med[40_000][0] <= 2 * 1.5
        for med_imp, med_exp in med.values():
            assert med_imp <= 2 * med_exp

    def test_dim_one_trivial(self):
        report = implicit_reconstruct(ExactOracle(DensityMatrix([[1.0]])))
        assert report.estimate.tolist() == [[1.0]]

    # Query counts recorded from the full-span Lanczos pass that every exact
    # run with the default tol makes: one residual batch per point, which
    # skips the couplings to the points before it (read off their stored
    # columns), d + k d(d-1)/2 queries in all, with the estimate taken from
    # the Ritz pairs of the whole space.  A change to the route may lower
    # these counts, never raise them.
    PINNED_QUERIES = {(3, "complex"): 12, (3, "real"): 9, (6, "complex"): 51,
                      (6, "real"): 36, (8, "complex"): 92, (8, "real"): 64,
                      (12, "complex"): 210}

    @pytest.mark.parametrize("dim, field", sorted(PINNED_QUERIES))
    def test_query_count_is_pinned(self, dim, field):
        rho = random_density_matrix(dim, dim, seed=100 + dim, field=field)
        oracle = ExactOracle(rho, field=field)
        report = implicit_reconstruct(oracle, ImplicitConfig(seed=200 + dim))
        assert report.query_count == oracle.query_count == self.PINNED_QUERIES[dim, field]
        assert np.linalg.norm(report.estimate - rho.matrix) < 1e-7

    # A noisy oracle keeps a seeded random start at every stage and queries
    # each maximizer afresh; the ascent is the same Krylov loop, so these
    # counts too may fall with a change to it, never rise.
    PINNED_NOISY_QUERIES = {(3, "complex"): 32, (3, "real"): 24, (6, "complex"): 111,
                            (6, "real"): 86}

    @pytest.mark.parametrize("dim, field", sorted(PINNED_NOISY_QUERIES))
    def test_noisy_query_count_is_pinned(self, dim, field):
        rho = random_density_matrix(dim, dim, seed=300 + dim, field=field)
        oracle = NoisyOracle(rho, shots=10_000, seed=400 + dim, field=field)
        report = implicit_reconstruct(oracle, ImplicitConfig(seed=500 + dim))
        assert report.query_count == self.PINNED_NOISY_QUERIES[dim, field]

    @staticmethod
    def count_draws(monkeypatch):
        """Count the route's random draws: the start vectors, and a pass's
        vectors drawn on breakdown."""
        draws, ginibre = [], reconstruct._ginibre

        def counting(*args):
            draws.append(args[0])
            return ginibre(*args)

        monkeypatch.setattr(reconstruct, "_ginibre", counting)
        return draws

    @staticmethod
    def spy_ascents(monkeypatch, oracle):
        """Record each ascent as (frame width m, rows of each query it makes,
        lengths of the history blocks it appends) and each full-span pass as
        the rows of each query it makes; queries made outside both go to the
        third list returned."""
        ascents, passes, outside = [], [], []
        current = [outside]
        ascend, query = _ascend_sphere, oracle.query_batch

        def in_stage(o, frame, u, tol, history, **kw):
            start, current[0] = len(history), []
            try:
                return ascend(o, frame, u, tol, history, **kw)
            finally:
                blocks = [len(x) for x, _ in history[start:]]
                ascents.append((frame.shape[1], current[0], blocks))
                current[0] = outside

        def in_pass(*args, **kw):
            current[0] = []
            try:
                return _span_pass(*args, **kw)
            finally:
                passes.append(current[0])
                current[0] = outside

        def spy(vectors):
            current[0].append(len(vectors))
            return query(vectors)

        monkeypatch.setattr(reconstruct, "_ascend_sphere", in_stage)
        monkeypatch.setattr(reconstruct, "_span_pass", in_pass)
        monkeypatch.setattr(oracle, "query_batch", spy)
        return ascents, passes, outside

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_every_ascent_query_is_one_residual_batch(self, field, monkeypatch):
        # With the default tol an exact run, full rank or rank 1, is one
        # full-span pass: its j-th point queries itself and the coupling probes
        # of the d-1-j directions not yet measured, and nothing is queried
        # outside it.  tol = 0 lies below the pass's bound and is never met on
        # an exact oracle, so its first ascent restarts until the budget runs
        # out: each iteration queries u and the directions not yet measured
        # since the last restart, 1 + k(m-1), 1 + k(m-2), ... rows, back to
        # 1 + k(m-1) only where a restart begins a new history block.
        d, k = 6, (3 if field == "complex" else 2)
        for rank, tol in ((d, None), (1, None), (d, 0.0)):
            oracle = ExactOracle(random_density_matrix(d, rank, seed=31, field=field), field)
            ascents, passes, outside = self.spy_ascents(monkeypatch, oracle)
            config = ImplicitConfig(tol=tol, seed=32)
            if tol == 0.0:
                with pytest.raises(ConvergenceError):
                    implicit_reconstruct(oracle, config)
                assert len(ascents[0][2]) > 1 and sum(ascents[0][2]) == 300
                assert passes == outside == []
                assert [m for m, _, _ in ascents] == [d]
            else:
                implicit_reconstruct(oracle, config)
                assert ascents == outside == []
                assert passes == [[1 + k * (d - 1 - j) for j in range(d)]]
            for m, widths, blocks in ascents:
                assert widths == [1 + k * (m - 1 - i) for n in blocks for i in range(n)], widths

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_noisy_ascent_batches_stay_full(self, field, monkeypatch):
        # a noisy oracle reuses no coupling: every iteration measures u's
        # whole complement, and each maximizer is queried afresh
        d, k = 6, (3 if field == "complex" else 2)
        rho = random_density_matrix(d, d, seed=31, field=field)
        oracle = NoisyOracle(rho, shots=10_000, seed=33, field=field)
        ascents, passes, outside = self.spy_ascents(monkeypatch, oracle)
        implicit_reconstruct(oracle, ImplicitConfig(seed=32))
        assert [m for m, _, _ in ascents] == list(range(d, 1, -1))
        assert passes == [] and outside == [1] * d
        for m, widths, _ in ascents:
            assert widths and all(n == 1 + k * (m - 1) for n in widths), widths

    # A rank-1 state's Lanczos vectors break down once rho maps the measured
    # span into itself, after two points (or one, if the start is the
    # eigenvector); the pass goes on from a random vector at each of the d-2
    # later points, so the run still fills the space at the cost of any
    # full-rank run.  The start is drawn from its own seed: with the state's
    # seed it would be the eigenvector.
    @pytest.mark.parametrize("field, queries", [("complex", 51), ("real", 36)])
    def test_rank_one_states_fill_the_space_in_one_pass(self, field, queries, monkeypatch):
        for seed in range(5):
            rho = random_density_matrix(6, 1, seed=seed, field=field)
            oracle = ExactOracle(rho, field)
            ascents, passes, outside = self.spy_ascents(monkeypatch, oracle)
            draws = self.count_draws(monkeypatch)
            report = implicit_reconstruct(oracle, ImplicitConfig(seed=seed + 1000))
            assert ascents == outside == [] and len(passes) == 1
            assert len(draws) == 1 + (6 - 2)
            assert report.query_count == sum(passes[0]) == queries
            assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13

    @pytest.mark.parametrize("field, queries", [("complex", 86), ("real", 61)])
    def test_tol_below_the_bound_ascends_every_stage(self, field, queries):
        # n unit columns give s_d <= sqrt(n/d), so the model's bound
        # 2 sqrt(n) delta / s_d is at least 2 sqrt(d) delta, above tol = 1e-13
        # at d = 6: the pinned state keeps the count every stage's ascent costs
        assert 2 * np.sqrt(6) * reconstruct._column_error(6) > 1e-13
        rho = random_density_matrix(6, 6, seed=106, field=field)
        oracle = ExactOracle(rho, field)
        report = implicit_reconstruct(oracle, ImplicitConfig(tol=1e-13, seed=206))
        assert report.query_count == queries
        assert np.linalg.norm(report.estimate - rho.matrix) < 1e-7

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("ratio", [0.1, 0.6, 0.9])
    @pytest.mark.parametrize("d", [8, 16])
    def test_geometric_spectra_are_recovered(self, d, ratio, field):
        # every run is one certified full-span pass, exact to rounding even
        # for the eigenvalues far below the default tol (ratio 0.1)
        k = 3 if field == "complex" else 2
        spectrum = ratio ** np.arange(d)
        spectrum /= spectrum.sum()
        for seed in range(4):
            u = haar_random_basis(d, 1000 * d + seed, field).matrix
            m = (u * spectrum) @ u.conj().T
            rho = DensityMatrix((m + m.conj().T) / 2)
            report = implicit_reconstruct(ExactOracle(rho, field), ImplicitConfig(seed=seed))
            assert report.query_count == d + k * d * (d - 1) // 2
            assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13
            got = np.linalg.eigvalsh(report.estimate)
            assert np.max(np.abs(got - spectrum[::-1])) <= 1e-13

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_first_stage_span_makes_the_model_exact(self, d, field, monkeypatch):
        # implicit-spectral's spectrum: the pass measures points spanning the
        # whole space and certifies a model exact to rounding.  The i-th point
        # (from 0) queries itself and k rows for each of the d-1-i directions
        # still unmeasured: d + k d(d-1)/2 queries in all, (3d^2 - d)/2 in the
        # complex field, below the explicit route's 2d^2 - d for d >= 2, and
        # d^2 in the real field.  On these simple spectra the Lanczos
        # recurrence does not break down, so the start is the only random draw.
        k = 3 if field == "complex" else 2
        draws = self.count_draws(monkeypatch)
        spectrum = 0.6 ** np.arange(d)
        spectrum /= spectrum.sum()
        for seed in range(4):
            u = haar_random_basis(d, 40 + seed, field).matrix
            m = (u * spectrum) @ u.conj().T
            rho = DensityMatrix((m + m.conj().T) / 2)
            draws.clear()
            report = implicit_reconstruct(ExactOracle(rho, field), ImplicitConfig(seed=seed))
            assert len(draws) == 1
            assert report.query_count == d + k * d * (d - 1) // 2
            if field == "complex":
                assert report.query_count < 2 * d * d - d
            assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-12

    def test_unreachable_tol_restarts_until_the_budget(self):
        # Few shots make Ritz steps break down (no direction left outside the
        # measured points) long before tol=1e-12 could be met; each breakdown
        # restarts, and every run must end in ConvergenceError, never in a
        # NaN probe row or a warning.
        for shots, d, field, seed in itertools.product((1, 50), (2, 4), ("complex", "real"),
                                                       range(4)):
            rho = random_density_matrix(d, d, seed=seed, field=field)
            oracle = NoisyOracle(rho, shots=shots, seed=seed, field=field)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceError) as err:
                    implicit_reconstruct(oracle, ImplicitConfig(tol=1e-12, seed=seed))
            assert err.value.sweeps == 300

    @pytest.mark.parametrize("tol", [np.nan, -1e-3, -np.inf])
    def test_unreachable_tol_is_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ImplicitConfig(tol=tol)

    def test_zero_tol_is_accepted(self):
        assert ImplicitConfig(tol=0.0).tol == 0.0

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_warm_starts_keep_stage_values_non_increasing(self, field, monkeypatch):
        # Degenerate levels make a measured span invariant, so a warm start
        # taken from it alone, or the next Lanczos vector, lies in a lower
        # eigenspace (a stage could stop at 0.2 with 0.3 left).  With the
        # default tol the stage values are the full-span pass's Ritz values,
        # which must still run down the whole spectrum.
        spectrum = [0.3, 0.3, 0.2, 0.2, 0.0, 0.0]
        stage_values = []

        def recording(*args):
            theta, z, eta = _span_pass(*args)
            stage_values.extend(theta)
            return theta, z, eta

        monkeypatch.setattr(reconstruct, "_span_pass", recording)
        for seed in range(6):
            u = haar_random_basis(6, seed, field).matrix
            m = (u * spectrum) @ u.conj().T
            rho = DensityMatrix((m + m.conj().T) / 2)
            stage_values.clear()
            report = implicit_reconstruct(ExactOracle(rho, field), ImplicitConfig(seed=seed))
            assert np.linalg.norm(report.estimate - rho.matrix) < 1e-7
            assert len(stage_values) == 6, stage_values
            assert np.all(np.diff(stage_values) <= 0), stage_values
            assert np.max(np.abs(np.subtract(stage_values, spectrum))) <= 1e-12

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_default_tol_takes_no_svd_and_at_most_two_eigh(self, field, monkeypatch):
        # the pass's one eigendecomposition of its Ritz matrix and the PSD
        # repair's: no eigh per point, no SVD of a measured history
        rho = random_density_matrix(8, 8, seed=108, field=field)
        oracle = ExactOracle(rho, field)
        calls = {"svd": 0, "eigh": 0}
        for name in calls:
            def counting(*args, _fn=getattr(np.linalg, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counting)
        report = implicit_reconstruct(oracle, ImplicitConfig(seed=208))
        assert calls["svd"] == 0 and 1 <= calls["eigh"] <= 2, calls
        assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13

    @pytest.mark.parametrize("field, queries", [("complex", 137), ("real", 97)])
    def test_pass_certifies_on_its_measured_orthonormality(self, field, queries):
        # The pass certifies when 2 sqrt(d) delta <= tol (1 - eta).  Just
        # above the bound it does (51 and 36 queries); at the bound itself its
        # points' defect eta > 0 fails the check, so the staged path runs after
        # it, at the cost of the pinned state's staged run (86 and 61) more.
        d, k = 6, (3 if field == "complex" else 2)
        bound = 2 * np.sqrt(d) * reconstruct._column_error(d)
        rho = random_density_matrix(d, d, seed=106, field=field)
        for tol, count in ((bound * (1 + 1e-9), d + k * d * (d - 1) // 2), (bound, queries)):
            config = ImplicitConfig(tol=tol, seed=206)
            report = implicit_reconstruct(ExactOracle(rho, field), config)
            assert report.query_count == count
            assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_householder_complement_matches_complete_qr(m, field):
    rng = np.random.default_rng(m)
    units = [e(0, m), -e(0, m), e(m - 1, m)] + ([1j * e(0, m)] if field == "complex" else [])
    for _ in range(20):
        u = rng.standard_normal(m) + (1j * rng.standard_normal(m) if field == "complex" else 0)
        units.append(u / np.linalg.norm(u))
    for u in units:
        u = u if field == "complex" else u.real
        w = _householder_complement(u, np.empty((m - 1, m), u.dtype))
        ref = np.linalg.qr(u[:, None], mode="complete")[0][:, 1:].T
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-14)
        full = np.vstack([u, w])
        np.testing.assert_allclose(full.conj() @ full.T, np.eye(m), rtol=0, atol=1e-14)


class TestHaarAverage:
    def test_maximally_mixed_is_exact(self):
        d = 3
        oracle = ExactOracle(DensityMatrix(np.eye(d) / d))
        report = haar_average_reconstruct(oracle, 10, seed=33)
        np.testing.assert_allclose(report.estimate, np.eye(d) / d, atol=1e-13)

    @pytest.mark.parametrize("num_bases", [1, 17])
    def test_unit_trace_at_any_sample_count(self, num_bases):
        rho = random_density_matrix(3, 3, seed=34)
        report = haar_average_reconstruct(ExactOracle(rho), num_bases, seed=35)
        assert abs(np.trace(report.estimate).real - 1.0) < 1e-10
        assert report.query_count == num_bases * 3

    def test_error_decays_with_samples(self):
        rho = random_density_matrix(3, 3, seed=36)
        err_small = np.linalg.norm(
            haar_average_reconstruct(ExactOracle(rho), 50, seed=37).estimate - rho.matrix
        )
        err_big = np.linalg.norm(
            haar_average_reconstruct(ExactOracle(rho), 5000, seed=37).estimate - rho.matrix
        )
        assert err_big < err_small

    def test_seed_determinism(self):
        rho = random_density_matrix(3, 3, seed=38)
        a = haar_average_reconstruct(ExactOracle(rho), 300, seed=39).estimate
        b = haar_average_reconstruct(ExactOracle(rho), 300, seed=39).estimate
        assert np.array_equal(a, b)

    def test_real_mode_unsupported(self):
        rho = random_density_matrix(3, 3, seed=40, field="real")
        oracle = ExactOracle(rho, field="real")
        with pytest.raises(ValueError):
            haar_average_reconstruct(oracle, 10, seed=41)

    def test_repaired_is_valid_even_when_estimate_is_not(self):
        rho = random_density_matrix(3, 1, seed=42)  # pure: finite samples go non-PSD
        report = haar_average_reconstruct(ExactOracle(rho), 40, seed=43)
        assert np.linalg.eigvalsh(report.repaired.matrix)[0] >= -1e-10
        assert report.residual >= 0


def einsum_haar_average(oracle, num_bases, seed):
    """Reference: the Haar-average estimate with each chunk summed by the
    three-index einsum, over the same draws, chunks and queries."""
    d = oracle.dim
    rng = np.random.default_rng(seed)
    sums, remaining = [], num_bases
    while remaining > 0:
        c = min(2048, remaining)
        remaining -= c
        q = haar_basis_matrices(d, c, rng)
        vals = oracle.query_batch(np.swapaxes(q, 1, 2).reshape(c * d, d)).reshape(c, d)
        sums.append(np.einsum("si,sai,sbi->ab", vals, q, q.conj()))
    estimate = (d + 1) * sum(sums) / num_bases - np.eye(d)
    return (estimate + estimate.conj().T) / 2


# dim 8 at 4100 bases is two Householder-product chunks and a 4-basis QR tail
@pytest.mark.parametrize(("dim", "num_bases"),
                         [(d, n) for d in (2, 3, 5) for n in (1, 17, 2500)] + [(8, 4100)])
def test_haar_average_matches_einsum_reference(dim, num_bases):
    rho = random_density_matrix(dim, dim, seed=dim + 60)
    report = haar_average_reconstruct(ExactOracle(rho), num_bases, seed=num_bases)
    ref = einsum_haar_average(ExactOracle(rho), num_bases, seed=num_bases)
    # the GEMM sums in another order than the einsum loop
    np.testing.assert_allclose(report.estimate, ref, rtol=0, atol=1e-13)


class TestTransitionMatrix:
    def test_identical_bases_identity(self):
        b = haar_random_basis(3, seed=44)
        s = transition_matrix(b, b)
        np.testing.assert_allclose(s.entries, np.eye(3), atol=1e-13)

    def test_two_dim_rotated_all_halves(self):
        m = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        s = transition_matrix(standard_basis(2), OrthonormalBasis.from_matrix(m))
        np.testing.assert_allclose(s.entries, np.full((2, 2), 0.5), atol=1e-13)

    def test_random_pair_doubly_stochastic_and_consistency(self):
        d = 5
        rho = random_density_matrix(d, d, seed=45)
        dec = spectral_decomposition(rho)
        q = np.column_stack(
            [p.matrix[:, np.argmax(np.abs(np.diag(p.matrix)))] for p in dec.eigenprojectors]
        )
        q /= np.linalg.norm(q, axis=0)
        q_basis = OrthonormalBasis.from_matrix(q)
        p_basis = haar_random_basis(d, seed=46)
        s = transition_matrix(q_basis, p_basis)
        assert np.max(np.abs(s.entries.sum(axis=0) - 1)) < 1e-12
        assert np.max(np.abs(s.entries.sum(axis=1) - 1)) < 1e-12
        oracle = ExactOracle(rho)
        v_q = oracle.query_batch(q_basis.matrix.T)
        v_p = oracle.query_batch(p_basis.matrix.T)
        np.testing.assert_allclose(v_p, v_q @ s.entries, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transition_matrix(standard_basis(2), standard_basis(3))

    def test_validation_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.9, 0.2], [0.1, 0.8]]))
        with pytest.raises(ValueError):
            TransitionMatrix(np.full((2, 2), np.nan))


class TestCrossMethod:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_explicit_vs_implicit(self, dim):
        rho = random_density_matrix(dim, dim, seed=47 + dim)
        exp = explicit_reconstruct(ExactOracle(rho), haar_random_basis(dim, seed=50 + dim))
        imp = implicit_reconstruct(ExactOracle(rho))
        assert np.linalg.norm(exp.estimate - imp.estimate) < 1e-6

    def test_noisy_scaling_smoke(self):
        rho = random_density_matrix(3, 3, seed=60)
        basis = haar_random_basis(3, seed=61)
        oracle = NoisyOracle(rho, shots=10_000, seed=62)
        report = explicit_reconstruct(oracle, basis)
        assert np.linalg.norm(report.estimate - rho.matrix) < 0.1

    def test_report_serialization_round_trip(self):
        rho = random_density_matrix(3, 3, seed=63)
        report = explicit_reconstruct(ExactOracle(rho), haar_random_basis(3, seed=64))
        payload = report.to_json()
        assert payload["method"] == "explicit"
        assert payload["query_count"] == 15
        np.testing.assert_allclose(
            matrix_from_json(payload["estimate"]), report.estimate, atol=0
        )
        np.testing.assert_allclose(
            matrix_from_json(payload["repaired"]), report.repaired.matrix, atol=0
        )
