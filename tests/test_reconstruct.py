"""All five reconstruction routes plus transition matrices."""

import itertools
import warnings

import numpy as np
import pytest

from gleason import hilbert, reconstruct
from gleason.hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    haar_basis_matrices,
    haar_random_basis,
    nearest_density_matrix,
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
from gleason.serialize import matrix_from_json
from gleason.valuation import ExactOracle, NoisyOracle, ValuationOracle
from gleason.verify import check_basis_independence


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

    @pytest.mark.parametrize("field", ["Complex", "quaternion"])
    def test_query_vectors_reject_an_unknown_field(self, field):
        # as the oracle does, not the real field's rows or a KeyError
        basis = haar_random_basis(3, seed=11)
        with pytest.raises(ValueError, match=f"^unknown field '{field}'$"):
            explicit_query_vectors(basis, field)
        with pytest.raises(ValueError, match=f"^unknown field '{field}'$"):
            ValuationOracle(3, field)

    def test_dim_one_trivial(self):
        oracle = ExactOracle(DensityMatrix([[1.0]]))
        report = explicit_reconstruct(oracle, standard_basis(1))
        assert report.estimate.tolist() == [[1.0]]
        assert report.query_count == 0


@pytest.mark.parametrize("route, field, num_bases", [
    (explicit_reconstruct, "complex", 1),
    (explicit_reconstruct_real, "real", 1),
    (pauli_reconstruct_2d, "complex", 1),
    (pauli_reconstruct_2d, "real", 1),
    (check_basis_independence, "complex", 3),
], ids=["explicit", "explicit-real", "pauli2d", "pauli2d-real", "basis-independence"])
def test_every_basis_gets_its_rows_from_explicit_query_vectors(route, field, num_bases,
                                                               monkeypatch):
    # the explicit routes look explicit_query_vectors up at call time, once per
    # basis, so a wrapper on the module attribute (a tracer's span) sees each call
    oracle = ExactOracle(random_density_matrix(2, 2, seed=12, field=field), field)
    calls = []
    rows = reconstruct.explicit_query_vectors

    def spy(basis, field="complex"):
        calls.append(basis.dim)
        return rows(basis, field)

    monkeypatch.setattr(reconstruct, "explicit_query_vectors", spy)
    if route is check_basis_independence:
        assert route(oracle, num_bases, seed=13).passed
    else:
        assert route(oracle, haar_random_basis(2, seed=13, field=field)).residual <= 1e-12
    assert calls == [2] * num_bases
    assert oracle.query_count == num_bases * len(rows(standard_basis(2), field))


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
        # tol lies below the noise floor, so the run raises after its one batch
        # of 3 points, 3 + 2 * 3 = 9 queries, with its basis's top Ritz pair
        rho = random_density_matrix(3, 3, seed=22)
        oracle = NoisyOracle(rho, shots=100, seed=23)
        with pytest.raises(ConvergenceError) as err:
            implicit_reconstruct(oracle, ImplicitConfig(tol=1e-12, seed=24))
        assert err.value.best_vector.shape == (3,)
        assert np.linalg.norm(err.value.best_vector) == pytest.approx(1)
        assert 0.0 <= err.value.best_value <= 1.0
        assert err.value.residual >= err.value.floor > 0
        assert err.value.sweeps == 3
        assert err.value.floor == pytest.approx(3 * 0.05 * np.sqrt(3 * 2))  # sigma = 0.5/sqrt(100)
        assert "noise floor 3.674e-01" in str(err.value)
        assert oracle.query_count == 9

    def test_noisy_runs_converge_and_scale_like_criterion_09(self):
        # criterion 09's states, bases and oracle seeds; the default tol takes
        # whatever the one batch certifies
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

    # Query counts recorded from the one batch every run measures: the d rows
    # of its seeded Haar basis and the k - 1 coupling probes of each pair,
    # d + (k-1) d(d-1)/2 queries in all, d^2 in the complex field and
    # d(d+1)/2 in the real field.  A change to the route may lower these
    # counts, never raise them.
    PINNED_QUERIES = {(3, "complex"): 9, (3, "real"): 6, (6, "complex"): 36,
                      (6, "real"): 21, (8, "complex"): 64, (8, "real"): 36,
                      (12, "complex"): 144}

    @pytest.mark.parametrize("dim, field", sorted(PINNED_QUERIES))
    def test_query_count_is_pinned(self, dim, field):
        rho = random_density_matrix(dim, dim, seed=100 + dim, field=field)
        oracle = ExactOracle(rho, field=field)
        report = implicit_reconstruct(oracle, ImplicitConfig(seed=200 + dim))
        assert report.query_count == oracle.query_count == self.PINNED_QUERIES[dim, field]
        assert np.linalg.norm(report.estimate - rho.matrix) < 1e-7

    # A noisy run is the same one batch, each coupling measured once, so it
    # costs d + (k-1) d(d-1)/2 queries at any shot count; these counts too
    # may fall with a change to the route, never rise.
    PINNED_NOISY_QUERIES = {(3, "complex"): 9, (3, "real"): 6, (6, "complex"): 36,
                            (6, "real"): 21}

    @pytest.mark.parametrize("dim, field", sorted(PINNED_NOISY_QUERIES))
    def test_noisy_query_count_is_pinned(self, dim, field):
        rho = random_density_matrix(dim, dim, seed=300 + dim, field=field)
        oracle = NoisyOracle(rho, shots=10_000, seed=400 + dim, field=field)
        report = implicit_reconstruct(oracle, ImplicitConfig(seed=500 + dim))
        assert report.query_count == self.PINNED_NOISY_QUERIES[dim, field]

    @staticmethod
    def count_draws(monkeypatch):
        """Count the route's random draws: the shape of each Haar stack it
        draws its basis from."""
        draws, haar = [], reconstruct.haar_basis_matrices

        def counting(*args):
            draws.append(args[:2])
            return haar(*args)

        monkeypatch.setattr(reconstruct, "haar_basis_matrices", counting)
        return draws

    @staticmethod
    def spy_batches(monkeypatch, oracle):
        """Record the rows of each query the run makes."""
        batches, query = [], oracle.query_batch

        def spy(vectors):
            batches.append(len(vectors))
            return query(vectors)

        monkeypatch.setattr(oracle, "query_batch", spy)
        return batches

    @staticmethod
    def one_batch(d, field):
        """The rows of the one batch: d points and k - 1 probes per pair."""
        return [d + (2 if field == "complex" else 1) * d * (d - 1) // 2]

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_every_run_is_one_batch_of_one_basis(self, field, monkeypatch):
        # Every run, exact at full rank or rank 1, noisy, or with tol = 0 or
        # 1e-13 (below its bound, so it raises), draws one Haar basis, makes
        # one query_batch call (its d points and the probes of each pair) and
        # takes one eigh, the Ritz matrix's, whose pairs the PSD repair reuses.
        d = 6
        rho, rank_one = (random_density_matrix(d, r, seed=31, field=field) for r in (d, 1))
        runs = [(ExactOracle(rho, field), None), (ExactOracle(rank_one, field), None),
                (NoisyOracle(rho, shots=10_000, seed=33, field=field), None),
                (ExactOracle(rho, field), 0.0), (ExactOracle(rho, field), 1e-13)]
        eighs, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or eigh(m))
        for oracle, tol in runs:
            eighs.clear()
            batches = self.spy_batches(monkeypatch, oracle)
            draws = self.count_draws(monkeypatch)
            config = ImplicitConfig(tol=tol, seed=32)
            if tol is None:
                report = implicit_reconstruct(oracle, config)
                assert report.query_count == sum(self.one_batch(d, field))
            else:
                with pytest.raises(ConvergenceError):
                    implicit_reconstruct(oracle, config)
            assert batches == self.one_batch(d, field)
            assert draws == [(d, 1)]
            assert eighs == [(d, d)]

    # A rank-1 state needs no special case: the basis is drawn before the
    # first query, so the run measures the whole space at the cost of any
    # full-rank run.
    @pytest.mark.parametrize("field, queries", [("complex", 36), ("real", 21)])
    def test_rank_one_states_fill_the_space_in_one_batch(self, field, queries, monkeypatch):
        for seed in range(5):
            rho = random_density_matrix(6, 1, seed=seed, field=field)
            oracle = ExactOracle(rho, field)
            batches = self.spy_batches(monkeypatch, oracle)
            draws = self.count_draws(monkeypatch)
            report = implicit_reconstruct(oracle, ImplicitConfig(seed=seed + 1000))
            assert batches == [queries] and len(draws) == 1
            assert report.query_count == queries
            assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13

    @pytest.mark.parametrize("field, queries", [("complex", 36), ("real", 21)])
    def test_tol_below_the_bound_raises_after_one_batch(self, field, queries):
        # the batch certifies no tol below 2 sqrt(d) delta, above tol = 1e-13 at
        # d = 6, so a random state and the degenerate [0.3, 0.3, 0.2, 0.2, 0, 0]
        # each raise after the one batch, with its top Ritz value, and no more
        bound = 2 * np.sqrt(6) * reconstruct._column_error(6)
        assert bound > 1e-13
        u = haar_random_basis(6, 1, field).matrix
        m = (u * [0.3, 0.3, 0.2, 0.2, 0.0, 0.0]) @ u.conj().T
        states = [(random_density_matrix(6, 6, seed=106, field=field), 206),
                  (DensityMatrix((m + m.conj().T) / 2), 1)]
        for rho, seed in states:
            oracle = ExactOracle(rho, field)
            with pytest.raises(ConvergenceError) as err:
                implicit_reconstruct(oracle, ImplicitConfig(tol=1e-13, seed=seed))
            assert oracle.query_count == queries
            assert err.value.sweeps == 6 and err.value.floor == 0
            assert bound <= err.value.residual <= bound * (1 + 1e-12)
            top = np.linalg.eigvalsh(rho.matrix)[-1]
            assert err.value.best_value == pytest.approx(top, abs=1e-13)

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("ratio", [0.1, 0.6, 0.9])
    @pytest.mark.parametrize("d", [8, 16])
    def test_geometric_spectra_are_recovered(self, d, ratio, field):
        # every run is one certified batch, exact to rounding even for the
        # eigenvalues far below the default tol (ratio 0.1)
        spectrum = ratio ** np.arange(d)
        spectrum /= spectrum.sum()
        for seed in range(4):
            u = haar_random_basis(d, 1000 * d + seed, field).matrix
            m = (u * spectrum) @ u.conj().T
            rho = DensityMatrix((m + m.conj().T) / 2)
            report = implicit_reconstruct(ExactOracle(rho, field), ImplicitConfig(seed=seed))
            assert [report.query_count] == self.one_batch(d, field)
            assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13
            got = np.linalg.eigvalsh(report.estimate)
            assert np.max(np.abs(got - spectrum[::-1])) <= 1e-13

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_one_basis_makes_the_model_exact(self, d, field, monkeypatch):
        # implicit-spectral's spectrum: the batch measures a basis of the
        # whole space and certifies a model exact to rounding, at d^2 queries
        # in the complex field, below the explicit route's 2d^2 - d for
        # d >= 2, and d(d+1)/2 in the real field, below its d^2.  The basis is
        # the only random draw.
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
            assert report.query_count == (d * d if field == "complex" else d * (d + 1) // 2)
            assert report.query_count < (2 * d * d - d if field == "complex" else d * d)
            assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-12

    def test_tol_below_the_noise_floor_raises_after_one_batch(self):
        # Few shots give values of 0 and 1 and Ritz values outside [0, 1];
        # every run must still measure its d points and end in
        # ConvergenceError, never in a NaN or a warning.
        for shots, d, field, seed in itertools.product((1, 50), (2, 4), ("complex", "real"),
                                                       range(4)):
            rho = random_density_matrix(d, d, seed=seed, field=field)
            oracle = NoisyOracle(rho, shots=shots, seed=seed, field=field)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceError) as err:
                    implicit_reconstruct(oracle, ImplicitConfig(tol=1e-12, seed=seed))
            assert err.value.sweeps == d
            assert [oracle.query_count] == self.one_batch(d, field)

    @pytest.mark.parametrize("tol", [np.nan, -1e-3, -np.inf])
    def test_unreachable_tol_is_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ImplicitConfig(tol=tol)

    def test_zero_tol_is_accepted(self):
        assert ImplicitConfig(tol=0.0).tol == 0.0

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_degenerate_spectra_are_recovered(self, field):
        # Degenerate levels leave each eigenspace's basis free; the Ritz values
        # of the measured basis, the estimate's eigenvalues, must still run
        # down the whole spectrum.
        spectrum = [0.3, 0.3, 0.2, 0.2, 0.0, 0.0]
        for seed in range(6):
            u = haar_random_basis(6, seed, field).matrix
            m = (u * spectrum) @ u.conj().T
            rho = DensityMatrix((m + m.conj().T) / 2)
            report = implicit_reconstruct(ExactOracle(rho, field), ImplicitConfig(seed=seed))
            assert np.linalg.norm(report.estimate - rho.matrix) < 1e-7
            values = np.linalg.eigvalsh(report.estimate)[::-1]
            assert np.max(np.abs(values - spectrum)) <= 1e-12, values

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_repair_from_ritz_pairs_is_the_nearest_density_matrix(self, d, field):
        # exact runs at full rank and rank 1, and noisy ones at 30 shots, whose
        # estimates leave the PSD cone (residuals up to ~1)
        for s in range(10):
            oracles = [ExactOracle(random_density_matrix(d, d, s, field), field),
                       ExactOracle(random_density_matrix(d, 1, s, field), field),
                       NoisyOracle(random_density_matrix(d, d, 900 + s, field), shots=30,
                                   seed=s, field=field)]
            for oracle in oracles:
                report = implicit_reconstruct(oracle, ImplicitConfig(seed=s))
                nearest = nearest_density_matrix(report.estimate).matrix
                gap = np.linalg.norm(report.repaired.matrix - nearest)
                assert gap <= 1e-14, (s, gap)
                distance = np.linalg.norm(report.estimate - nearest)
                assert abs(report.residual - distance) <= 1e-14, (s, report.residual)

    def test_both_repairs_check_the_projected_spectrum(self, monkeypatch):
        # nearest_density_matrix and the implicit route share the simplex
        # projection's postcondition
        monkeypatch.setattr(hilbert, "_project_to_simplex", lambda w: np.ones_like(w))
        rho = random_density_matrix(3, 3, seed=42)
        with pytest.raises(ValueError, match="is not a probability vector"):
            nearest_density_matrix(rho.matrix)
        with pytest.raises(ValueError, match="is not a probability vector"):
            implicit_reconstruct(ExactOracle(rho), ImplicitConfig(seed=43))

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_default_tol_takes_no_svd_and_at_most_two_eigh(self, field, monkeypatch):
        # the one eigendecomposition of the Ritz matrix, whose pairs the PSD
        # repair reuses: no eigh per point, no SVD
        rho = random_density_matrix(8, 8, seed=108, field=field)
        oracle = ExactOracle(rho, field)
        calls = {"svd": 0, "eigh": 0}
        for name in calls:
            def counting(*args, _fn=getattr(np.linalg, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counting)
        report = implicit_reconstruct(oracle, ImplicitConfig(seed=208))
        assert calls["svd"] == 0 and calls["eigh"] == 1, calls
        assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13

    @pytest.mark.parametrize("field, queries", [("complex", 36), ("real", 21)])
    def test_batch_certifies_on_its_measured_orthonormality(self, field, queries):
        # The batch certifies tol >= 2 sqrt(d) delta / (1 - eta).  Just above
        # the bound it does; at the bound itself its basis's defect eta > 0
        # fails the check, and the run raises after the same one batch.
        d = 6
        bound = 2 * np.sqrt(d) * reconstruct._column_error(d)
        rho = random_density_matrix(d, d, seed=106, field=field)
        oracle = ExactOracle(rho, field)
        report = implicit_reconstruct(oracle, ImplicitConfig(tol=bound * (1 + 1e-9), seed=206))
        assert report.query_count == queries
        assert np.linalg.norm(report.estimate - rho.matrix) <= 1e-13
        oracle = ExactOracle(rho, field)
        with pytest.raises(ConvergenceError) as err:
            implicit_reconstruct(oracle, ImplicitConfig(tol=bound, seed=206))
        assert oracle.query_count == queries
        assert bound < err.value.residual <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_every_seed_gives_the_same_estimate(self, field, monkeypatch):
        # Courant-Fischer: the Ritz pairs of any orthonormal basis of the
        # space are the same maximizers and values, so each seed measures a
        # different basis and every estimate is rho to rounding.
        d = 5
        rho = random_density_matrix(d, d, seed=41, field=field)
        bases, estimates = [], []
        for seed in range(3):
            oracle = ExactOracle(rho, field)
            query = oracle.query_batch

            def spy(vectors, _query=query):
                bases.append(np.array(vectors[:d]))
                return _query(vectors)

            monkeypatch.setattr(oracle, "query_batch", spy)
            estimates.append(implicit_reconstruct(oracle, ImplicitConfig(seed=seed)).estimate)
        assert len(bases) == 3
        for a, b in itertools.combinations(bases, 2):
            assert np.max(np.abs(a - b)) > 1e-3
        for est in estimates:
            assert np.linalg.norm(est - rho.matrix) <= 1e-13
            assert np.linalg.norm(est - estimates[0]) <= 1e-13


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_batch_measures_the_couplings_of_its_basis(m, field, monkeypatch):
    # The batch opens with the rows x_j of its orthonormal basis, every row is
    # a unit vector, and the matrix the route diagonalizes is
    # T_jk = <x_j|rho|x_k> to within one column's rounding bound.
    rho = random_density_matrix(m, m, seed=m, field=field)
    oracle = ExactOracle(rho, field)
    rows, matrices = [], []
    query, eigh = oracle.query_batch, np.linalg.eigh

    def spy_query(vectors):
        rows.append(np.array(vectors))
        return query(vectors)

    def spy_eigh(a, *args, **kw):
        matrices.append(np.array(a))
        return eigh(a, *args, **kw)

    monkeypatch.setattr(oracle, "query_batch", spy_query)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    implicit_reconstruct(oracle, ImplicitConfig(seed=m))
    assert len(rows) == 1
    x = rows[0][:m]
    np.testing.assert_allclose(x.conj() @ x.T, np.eye(m), rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(rows[0], axis=1), 1, rtol=0, atol=1e-14)
    t = matrices[0]
    np.testing.assert_array_equal(t, t.conj().T)
    np.testing.assert_allclose(t, x.conj() @ rho.matrix @ x.T, rtol=0,
                               atol=reconstruct._column_error(m))


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
