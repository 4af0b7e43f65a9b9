"""Hilbert-space primitives: construction invariants, generators, projections."""

import numpy as np
import pytest

from gleason.hilbert import (
    ATOL,
    DensityMatrix,
    OrthonormalBasis,
    Projector,
    Subspace,
    UnitVector,
    haar_basis_matrices,
    haar_random_basis,
    nearest_density_matrix,
    random_density_matrix,
    spectral_decomposition,
    standard_basis,
)


def e(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


class TestTypes:
    def test_unit_vector_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([1.0, 1.0]))

    def test_unit_vector_is_immutable(self):
        v = UnitVector(e(0, 3))
        with pytest.raises(ValueError):
            v.components[0] = 0.5

    def test_basis_rejects_non_orthonormal(self):
        v2_bad = np.array([1.0, 1e-3]) / np.linalg.norm([1.0, 1e-3])
        OrthonormalBasis(np.column_stack([e(0, 2), e(1, 2)]))  # the honest one is fine
        with pytest.raises(ValueError):
            OrthonormalBasis(np.column_stack([e(0, 2), v2_bad]))
        with pytest.raises(ValueError):
            OrthonormalBasis(np.diag([1.0, 1.1]))  # orthogonal, not unit

    def test_basis_needs_full_count(self):
        with pytest.raises(ValueError):
            OrthonormalBasis(np.eye(3)[:, :2])

    def test_density_matrix_rejections(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.1, -0.1]))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Projector(np.diag([0.5, 0.5]))

    def test_subspace_rejects_non_orthonormal_spanning_set(self):
        w = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        with pytest.raises(ValueError):
            Subspace(np.column_stack([e(0, 3), w]))
        a = Subspace(np.eye(3)[:, :2])  # fine
        assert (a.dim, a.rank) == (3, 2)
        with pytest.raises(ValueError):
            Subspace(np.eye(3)[:2, :])  # more columns than rows

    def test_unit_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([np.nan, 0.0]))

    def test_basis_rejects_nan(self):
        with pytest.raises(ValueError):
            OrthonormalBasis.from_matrix(np.full((2, 2), np.nan))

    def test_density_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.full((2, 2), np.nan))


class TestHaarBasis:
    def test_seed_determinism_is_bit_identical(self):
        a = haar_random_basis(3, seed=42).matrix
        b = haar_random_basis(3, seed=42).matrix
        assert np.array_equal(a, b)

    def test_dim_one_is_unit_modulus(self):
        b = haar_random_basis(1, seed=9)
        assert abs(abs(b.matrix[0, 0]) - 1.0) < 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 6])
    def test_projector_completeness(self, dim):
        basis = haar_random_basis(dim, seed=dim)
        total = sum(np.outer(c, c.conj()) for c in basis.matrix.T)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-12

    def test_real_field_gives_orthogonal_matrix(self):
        b = haar_random_basis(4, seed=1, field="real")
        assert b.is_real()
        np.testing.assert_allclose(b.matrix @ b.matrix.T, np.eye(4), atol=1e-12)

    def test_second_moment_statistics(self):
        # sum_i (P_i)_ab conj((P_i)_cd) averages to
        # (delta_ac delta_bd + delta_ab delta_cd)/(d+1)
        d, n = 2, 20000
        rng = np.random.default_rng(12)
        q = haar_basis_matrices(d, n, rng)
        x = np.einsum("sai,sbi,sci,sdi->sabcd", q, q.conj(), q.conj(), q)
        mean = x.mean(axis=0)
        stderr = np.sqrt(
            np.maximum((np.abs(x) ** 2).mean(axis=0) - np.abs(mean) ** 2, 0) / n
        )
        eye = np.eye(d)
        expected = (
            np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ab,cd->abcd", eye, eye)
        ) / (d + 1)
        sigmas = np.abs(mean - expected) / np.maximum(stderr, 1e-30)
        assert np.max(sigmas) < 4.0


class TestRandomDensityMatrix:
    def test_dim_one_is_scalar_one(self):
        rho = random_density_matrix(1, 1, seed=0)
        np.testing.assert_allclose(rho.matrix, [[1.0]], atol=1e-15)

    def test_rank_one_is_pure(self):
        rho = random_density_matrix(5, 1, seed=2)
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_all_ranks_valid(self, dim):
        for rank in range(1, dim + 1):
            rho = random_density_matrix(dim, rank, seed=dim * 10 + rank)
            w = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
            assert abs(np.sum(w) - 1.0) < 1e-12
            assert np.all(w[:rank] > 1e-12)
            if rank < dim:
                assert np.max(np.abs(w[rank:])) < 1e-12

    def test_full_rank_positive_spectrum(self):
        rho = random_density_matrix(4, 4, seed=3)
        w = np.linalg.eigvalsh(rho.matrix)
        assert np.min(w) > 1e-6 and abs(np.sum(w) - 1) < 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_density_matrix(3, 4, seed=0)
        with pytest.raises(ValueError):
            random_density_matrix(3, 0, seed=0)

    def test_real_field(self):
        rho = random_density_matrix(4, 2, seed=5, field="real")
        assert rho.is_real()


def projector_of(v):
    """Rank-1 projector |v><v| onto the ray of a unit vector."""
    c = UnitVector(v).components
    return Projector(np.outer(c, c.conj()))


class TestProjectorOf:
    def test_basis_vector(self):
        p = projector_of(e(0, 3))
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0, 0]), atol=1e-15)
        assert p.rank == 1

    def test_superposition_all_halves(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(projector_of(v).matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_random_vector_properties(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = UnitVector(x / np.linalg.norm(x))
        p = projector_of(v.components).matrix
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12
        np.testing.assert_allclose(p @ v.components, v.components, atol=1e-12)


def brute_force_two_simplex(h):
    """Grid minimizer of ||diag(p, 1-p) - h||_F over the 2-point simplex."""
    ps = np.linspace(0.0, 1.0, 200001)
    costs = (ps - h[0, 0].real) ** 2 + (1 - ps - h[1, 1].real) ** 2
    p = ps[np.argmin(costs)]
    return np.diag([p, 1 - p])


class TestNearestDensityMatrix:
    def test_idempotent_on_valid_state(self):
        rho = random_density_matrix(4, 4, seed=8)
        again = nearest_density_matrix(rho.matrix)
        assert np.max(np.abs(again.matrix - rho.matrix)) < 1e-12

    def test_two_point_example(self):
        out = nearest_density_matrix(np.diag([1.2, -0.2]))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_equal_shift_example_vs_brute_force(self):
        h = np.diag([0.6, 0.6]).astype(complex)
        out = nearest_density_matrix(h)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)
        brute = brute_force_two_simplex(h)
        np.testing.assert_allclose(out.matrix, brute, atol=1e-5)

    def test_non_expansive_toward_fixed_states(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            d = int(rng.integers(2, 6))
            sigma = random_density_matrix(d, d, seed=trial)
            noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = sigma.matrix + 0.5 * noise
            proj = nearest_density_matrix(m)
            assert (
                np.linalg.norm(proj.matrix - sigma.matrix)
                <= np.linalg.norm(m - sigma.matrix) + 1e-12
            )

    def test_arbitrary_matrix_yields_valid_state(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        out = nearest_density_matrix(m)  # constructor re-validates
        assert out.dim == 5


class TestSpectralDecomposition:
    def test_reassembly_and_ordering(self):
        rho = random_density_matrix(5, 5, seed=11)
        dec = spectral_decomposition(rho)
        assert all(
            dec.eigenvalues[i] >= dec.eigenvalues[i + 1]
            for i in range(len(dec.eigenvalues) - 1)
        )
        assert abs(sum(dec.eigenvalues) - 1.0) < 1e-10
        assert np.max(np.abs(dec.matrix() - rho.matrix)) < 1e-10

    def test_projectors_are_rank_one(self):
        dec = spectral_decomposition(random_density_matrix(4, 4, seed=12))
        assert all(p.rank == 1 for p in dec.eigenprojectors)

    def test_grouped_fully_degenerate(self):
        # one degenerate level: the eigenprojectors are basis-dependent, their sum is not
        dec = spectral_decomposition(DensityMatrix(np.eye(4) / 4))
        np.testing.assert_allclose(dec.eigenvalues, [0.25] * 4, atol=1e-12)
        block = sum(p.matrix for p in dec.eigenprojectors)
        np.testing.assert_allclose(block, np.eye(4), atol=1e-10)

    def test_grouped_splits_distinct_levels(self):
        dec = spectral_decomposition(DensityMatrix(np.diag([0.5, 0.3, 0.2])))
        np.testing.assert_allclose(dec.eigenvalues, [0.5, 0.3, 0.2], atol=1e-12)
        for i, p in enumerate(dec.eigenprojectors):
            np.testing.assert_allclose(p.matrix, np.diag(np.eye(3)[i]), atol=1e-12)

    def test_phase_convention_reproducible(self):
        rho = random_density_matrix(3, 3, seed=13)
        a = spectral_decomposition(rho)
        b = spectral_decomposition(DensityMatrix(rho.matrix.copy()))
        for pa, pb in zip(a.eigenprojectors, b.eigenprojectors):
            assert np.array_equal(pa.matrix, pb.matrix)


def test_standard_basis_is_identity():
    np.testing.assert_allclose(standard_basis(3).matrix, np.eye(3), atol=0)


def test_tolerance_constants():
    assert ATOL == 1e-12
