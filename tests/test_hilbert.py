"""Hilbert-space primitives: construction invariants, generators, projections."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleason.hilbert import (
    ATOL,
    DensityMatrix,
    OrthonormalBasis,
    Projector,
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
        # the norm prints as a plain float, not as a numpy scalar's repr
        with pytest.raises(ValueError, match=r"^vector norm 1\.41421356\d* is not 1 within"):
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

    # P @ P overflows to inf, or to inf - inf = NaN; either fails the check,
    # with no overflow warning before it
    @pytest.mark.parametrize("m", [[[1e308, 0.0], [0.0, 0.0]], [[1e308, 1e308], [1e308, -1e308]]])
    def test_projector_rejects_overflowing_idempotence_check(self, m):
        with pytest.raises(ValueError, match="not idempotent"):
            Projector(np.array(m))

    def test_unit_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([np.nan, 0.0]))

    def test_basis_rejects_nan(self):
        with pytest.raises(ValueError):
            OrthonormalBasis.from_matrix(np.full((2, 2), np.nan))

    def test_density_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("m", [[[1e308, 0.0], [0.0, 1e308]], [[0.0, 1e308], [-1e308, 0.0]]])
    def test_density_matrix_rejects_overflowing_trace_or_asymmetry(self, m):
        # a clean ValueError, with no overflow warning before it
        with pytest.raises(ValueError):
            DensityMatrix(np.array(m))


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
        assert not b.matrix.imag.any()
        np.testing.assert_allclose(b.matrix @ b.matrix.T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize(("dim", "count"),
                             [(d, c) for d in (1, 2, 3, 8, 9) for c in (1, 127)] + [(17, 128)])
    def test_stack_matches_phase_fixed_qr(self, dim, count, field):
        # below the crossover (fewer than 128 bases, or d > 16): the same
        # Ginibre draw through np.linalg.qr, with column j multiplied by the
        # phase of R_jj, the unique Q whose R has a positive real diagonal
        seed = 1000 * dim + count
        q = haar_basis_matrices(dim, count, np.random.default_rng(seed), field)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, dim, dim)).astype(np.complex128)
        if field == "complex":
            z += 1j * rng.standard_normal((count, dim, dim))
        ref, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        ref = ref * (diag / np.abs(diag))[:, None, :]
        assert q.shape == (count, dim, dim)
        assert np.max(np.abs(q - ref)) <= 1e-12
        gram = np.swapaxes(q, 1, 2).conj() @ q
        assert np.max(np.abs(gram - np.eye(dim))) <= ATOL
        if field == "real":
            assert not q.imag.any()

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("count", [128, 255, 2048])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 16])
    def test_large_stack_matches_reflector_product(self, dim, count, field):
        # at and above the crossover: the dense product, matrix by matrix, of
        # the LAPACK reflectors H_m = I - tau w w^H (H_m^H u = beta e_0) built
        # from the same draws, x_m of length m = 1..dim, real parts first:
        # the m-block is H_m diag(beta, (m-1)-block), whose first column is u
        seed = 1000 * dim + count
        q = haar_basis_matrices(dim, count, np.random.default_rng(seed), field)
        rng = np.random.default_rng(seed)
        ref = np.empty((count, 0, 0), np.complex128)
        for m in range(1, dim + 1):
            x = rng.standard_normal((m, count)).astype(np.complex128)
            if field == "complex":
                x += 1j * rng.standard_normal((m, count))
            u = (x / np.linalg.norm(x, axis=0)).T
            beta = -np.copysign(1.0, u[:, 0].real)
            w = u / (u[:, :1] - beta[:, None])
            w[:, 0] = 1.0
            tau = (beta - u[:, 0]) / beta
            h = np.eye(m) - tau[:, None, None] * w[:, :, None] * w.conj()[:, None, :]
            inner = np.zeros((count, m, m), np.complex128)
            inner[:, 0, 0] = beta
            inner[:, 1:, 1:] = ref
            ref = h @ inner
        assert q.shape == (count, dim, dim)
        assert np.max(np.abs(q - ref)) <= 1e-12
        gram = np.swapaxes(q, 1, 2).conj() @ q
        assert np.max(np.abs(gram - np.eye(dim))) <= ATOL
        if field == "real":
            assert not q.imag.any()

    @pytest.mark.parametrize("count", [1, 2048])
    def test_unknown_field_rejected_before_any_draw(self, count):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="unknown field"):
            haar_basis_matrices(3, count, rng, "quaternion")
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("count", [1, 127, 128, 2048])
    def test_dim_one_is_a_phase_or_sign(self, count, field):
        q = haar_basis_matrices(1, count, np.random.default_rng(count), field)
        assert q.shape == (count, 1, 1)
        assert np.max(np.abs(np.abs(q) - 1.0)) <= 1e-15
        if field == "real":
            assert not q.imag.any()

    @pytest.mark.parametrize("count", [1, 127, 128, 2048])
    @pytest.mark.parametrize("dim", [2, 5, 16, 17])
    def test_real_field_has_exactly_zero_imaginary_parts(self, dim, count):
        q = haar_basis_matrices(dim, count, np.random.default_rng(dim + count), "real")
        assert not q.imag.any()

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("dim", [3, 5])
    def test_fourth_moments(self, dim, field):
        # E|q_ij|^4 and E|q_11|^2 |q_22|^2 over the group: 2/(d(d+1)) and
        # 1/(d^2-1) on the unitary one, 3/(d(d+2)) and (d+1)/(d(d-1)(d+2))
        # on the orthogonal one; the first is averaged over the d^2 entries
        # of each matrix, and each is held to 4 standard errors
        d, n = dim, 40000
        q = haar_basis_matrices(d, n, np.random.default_rng(31 + d), field)
        p = np.abs(q) ** 2
        if field == "complex":
            expected = (2 / (d * (d + 1)), 1 / (d * d - 1))
        else:
            expected = (3 / (d * (d + 2)), (d + 1) / (d * (d - 1) * (d + 2)))
        for sample, mean in zip(((p**2).mean(axis=(1, 2)), p[:, 0, 0] * p[:, 1, 1]), expected):
            stderr = sample.std() / np.sqrt(n)
            assert abs(sample.mean() - mean) <= 4 * stderr

    def test_stack_peak_memory_is_near_its_size(self):
        # the stack is built in place in its batch-last array, and each
        # step's draw and temporaries are a few of its columns
        rng = np.random.default_rng(13)
        tracemalloc.start()
        try:
            q = haar_basis_matrices(8, 2048, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * q.nbytes

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
        assert round(np.trace(p.matrix).real) == 1  # rank of a projector

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
        out = nearest_density_matrix(m)
        assert out.dim == 5
        DensityMatrix(out.matrix)  # passes the full public check

    @pytest.mark.parametrize("big", [1e16, 1e300])
    def test_eigenvalue_far_above_one(self, big):
        # unshifted, u - (cumsum(u) - 1)/k > 0 rounds to false at every k here
        out = nearest_density_matrix(np.diag([big, 0.0]))
        np.testing.assert_array_equal(out.matrix, np.diag([1.0, 0.0]))

    def test_hermitian_part_of_entries_near_overflow(self):
        # m + m^H overflows here; halving first does not
        out = nearest_density_matrix(np.diag([1e308, -1e308]))
        np.testing.assert_array_equal(out.matrix, np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="cannot be represented"):
            nearest_density_matrix(np.full((3, 3), 1e308))  # an eigenvalue of 3e308

    def test_repair_matches_reference_on_fixed_seeds(self):
        rng = np.random.default_rng(12)
        for d in range(1, 9):
            for field in ("complex", "real"):
                for scale in (1e-6, 1e-2, 1.0):
                    check_repair(noisy_state(rng, d, field, scale))


def reference_repair(m):
    """The projection in its textbook form: complex eigh, sorted simplex step."""
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h.astype(np.complex128))
    u = np.sort(w)[::-1]
    cumulative = np.cumsum(u) - 1.0
    k = np.flatnonzero(u - cumulative / np.arange(1, w.size + 1) > 0)[-1]
    return (v * np.maximum(w - cumulative[k] / (k + 1), 0.0)) @ v.conj().T


def noisy_state(rng, d, field, scale):
    """A random state plus Gaussian noise of the given scale; a float array when real."""
    rho = random_density_matrix(d, int(rng.integers(1, d + 1)), int(rng.integers(2**32)), field)
    noise = rng.standard_normal((d, d))
    if field == "real":
        return rho.matrix.real + scale * noise
    return rho.matrix + scale * (noise + 1j * rng.standard_normal((d, d)))


def check_repair(m):
    out = nearest_density_matrix(m).matrix
    DensityMatrix(out)  # the full public check passes: the checks it skips would have
    np.testing.assert_allclose(out, reference_repair(m), rtol=0, atol=1e-14)
    if not np.iscomplexobj(m):
        assert not out.imag.any()
    np.testing.assert_allclose(nearest_density_matrix(out).matrix, out, rtol=0, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8),
       field=st.sampled_from(["complex", "real"]), scale=st.floats(1e-8, 1.0))
def test_repair_matches_reference(seed, d, field, scale):
    check_repair(noisy_state(np.random.default_rng(seed), d, field, scale))


class TestSpectralDecomposition:
    def test_reassembly_and_ordering(self):
        rho = random_density_matrix(5, 5, seed=11)
        dec = spectral_decomposition(rho)
        assert all(
            dec.eigenvalues[i] >= dec.eigenvalues[i + 1]
            for i in range(len(dec.eigenvalues) - 1)
        )
        assert abs(sum(dec.eigenvalues) - 1.0) < 1e-10
        reassembled = sum(lam * p.matrix for lam, p in zip(dec.eigenvalues, dec.eigenprojectors))
        assert np.max(np.abs(reassembled - rho.matrix)) < 1e-10

    def test_projectors_are_rank_one(self):
        dec = spectral_decomposition(random_density_matrix(4, 4, seed=12))
        assert all(round(np.trace(p.matrix).real) == 1 for p in dec.eigenprojectors)

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

    def test_rejects_non_hermitian_array(self):
        # its Hermitian part [[0, 1/2], [1/2, 0]] would give eigenvalues (1/2, -1/2)
        with pytest.raises(ValueError, match="not Hermitian"):
            spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_asymmetry_that_overflows(self):
        # m - m^H would overflow; the check compares halves, with no warning
        with pytest.raises(ValueError, match="not Hermitian"):
            spectral_decomposition(np.array([[0.0, 1e308], [-1e308, 0.0]]))

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
