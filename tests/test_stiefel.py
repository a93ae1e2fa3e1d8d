import numpy as np
import pytest

from nlpca.stiefel import (
    StiefelPoint,
    frames_orthonormal,
    is_orthonormal,
    null_space_basis,
    polar_project,
    sample_uniform_stiefel,
    thin_svd,
)


class TestIsOrthonormal:
    def test_identity(self):
        assert is_orthonormal(np.eye(2), tol=1e-10)

    def test_scaled_column_fails(self):
        assert not is_orthonormal(np.array([[1.0, 0.0], [0.0, 2.0]]), tol=1e-10)

    def test_unit_column_vector(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert is_orthonormal(v, tol=1e-10)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            is_orthonormal(np.eye(2), tol=0.0)

    def test_nan_fails(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        assert not is_orthonormal(m)


class TestFramesOrthonormal:
    def test_stack_fails_on_one_bad_frame(self):
        v = np.stack([np.eye(3, 2)] * 4)
        assert frames_orthonormal(v)
        v[2] *= 1.0 + 1e-8
        assert not frames_orthonormal(v)

    def test_nan_fails(self):
        v = np.stack([np.eye(3, 2)] * 4)
        v[1, 0, 0] = np.nan
        assert not frames_orthonormal(v)


class TestStiefelPoint:
    def test_valid_construction(self):
        pt = StiefelPoint(np.eye(3)[:, :2])
        assert (pt.p, pt.d) == (3, 2)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.ones((3, 2)))

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.eye(2, 3))


class TestThinSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        f = thin_svd(m)
        rebuilt = f.u @ np.diag(f.singular_values) @ f.v.T
        assert np.linalg.norm(rebuilt - m) <= 1e-8 * np.linalg.norm(m)
        assert np.all(np.diff(f.singular_values) <= 0)
        assert is_orthonormal(f.u, 1e-8) and is_orthonormal(f.v, 1e-8)


class TestSampleUniformStiefel:
    def test_full_frame_is_orthogonal(self):
        rng = np.random.default_rng(0)
        x = sample_uniform_stiefel(3, 3, rng)
        assert is_orthonormal(x.matrix, 1e-10)
        assert abs(abs(np.linalg.det(x.matrix)) - 1.0) <= 1e-10

    def test_invalid_dimensions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_uniform_stiefel(2, 3, rng)
        with pytest.raises(ValueError):
            sample_uniform_stiefel(2, 0, rng)

    def test_circle_coordinate_means(self):
        # Coordinates of a uniform point on S^1 have mean 0, variance 1/2.
        rng = np.random.default_rng(42)
        n = 100_000
        draws = np.array([sample_uniform_stiefel(2, 1, rng).matrix[:, 0] for _ in range(n)])
        se = np.sqrt(0.5 / n)
        assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se)

    def test_first_column_second_moment(self):
        # E[v v^T] = I_p / p for a uniform sphere point; entrywise variances
        # follow from E[v_a^4] = 3/(p(p+2)) and E[v_a^2 v_b^2] = 1/(p(p+2)).
        rng = np.random.default_rng(7)
        p, n = 4, 100_000
        acc = np.zeros((p, p))
        for _ in range(n):
            v = sample_uniform_stiefel(p, 2, rng).matrix[:, 0]
            acc += np.outer(v, v)
        acc /= n
        var_diag = 3.0 / (p * (p + 2)) - 1.0 / p**2
        var_off = 1.0 / (p * (p + 2))
        tol = np.full((p, p), 4 * np.sqrt(var_off / n))
        np.fill_diagonal(tol, 4 * np.sqrt(var_diag / n))
        assert np.all(np.abs(acc - np.eye(p) / p) <= tol)

    def test_left_rotation_invariance(self):
        # QX has the same distribution as X for fixed orthogonal Q: compare
        # first and second moments of the single column.
        rng = np.random.default_rng(11)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        n = 100_000
        draws = np.array([sample_uniform_stiefel(3, 1, rng).matrix[:, 0] for _ in range(n)])
        rotated = draws @ q.T
        se_mean = np.sqrt((1.0 / 3.0) / n)
        assert np.all(np.abs(rotated.mean(axis=0)) <= 4 * se_mean)
        second = rotated.T @ rotated / n
        var_diag = 3.0 / 15.0 - 1.0 / 9.0
        assert np.all(np.abs(second - np.eye(3) / 3.0) <= 4 * np.sqrt(var_diag / n) + 1e-12)


class TestNullSpaceBasis:
    def test_single_axis_vector(self):
        basis = null_space_basis(np.array([1.0, 0.0, 0.0]))
        assert basis.shape == (3, 2)
        assert np.allclose(basis[0, :], 0.0, atol=1e-10)
        assert np.max(np.abs(basis.T @ basis - np.eye(2))) <= 1e-10

    def test_two_axes(self):
        basis = null_space_basis(np.eye(3)[:, :2])
        assert basis.shape == (3, 1)
        assert abs(abs(basis[2, 0]) - 1.0) <= 1e-10
        assert np.max(np.abs(basis[:2, 0])) <= 1e-10

    def test_random_input_postconditions(self):
        rng = np.random.default_rng(5)
        v = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        basis = null_space_basis(v)
        assert basis.shape == (5, 3)
        assert np.max(np.abs(basis.T @ basis - np.eye(3))) <= 1e-10
        assert np.max(np.abs(v.T @ basis)) <= 1e-10

    def test_rejects_full_rank(self):
        with pytest.raises(ValueError):
            null_space_basis(np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            null_space_basis(np.ones((3, 2)))

    def test_empty_input_gives_identity(self):
        assert np.array_equal(null_space_basis(np.empty((4, 0))), np.eye(4))


class TestPolarProject:
    def test_positive_scaling_of_orthonormal(self):
        assert np.allclose(polar_project(2.0 * np.eye(2)).matrix, np.eye(2), atol=1e-12)

    def test_scaled_rotation(self):
        m = np.array([[0.0, -3.0], [3.0, 0.0]])
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(polar_project(m).matrix, expected, atol=1e-12)

    def test_maximality_against_uniform_draws(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 2))
        best = np.sum(m * polar_project(m).matrix)
        for _ in range(10_000):
            x = sample_uniform_stiefel(3, 2, rng)
            assert np.sum(m * x.matrix) <= best + 1e-12

    def test_idempotent_on_stiefel_points(self):
        rng = np.random.default_rng(13)
        x = sample_uniform_stiefel(4, 2, rng)
        assert np.max(np.abs(polar_project(x.matrix).matrix - x.matrix)) <= 1e-10

    def test_trace_equals_singular_value_sum(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((5, 3))
        s = np.linalg.svd(m, compute_uv=False)
        got = np.sum(m * polar_project(m).matrix)
        assert abs(got - s.sum()) <= 1e-8 * s.sum()

    def test_rank_deficient_warns_but_returns_frame(self):
        m = np.zeros((3, 2))
        m[0, 0] = 1.0  # second singular value is exactly zero
        with pytest.warns(RuntimeWarning):
            x = polar_project(m)
        assert np.max(np.abs(x.matrix.T @ x.matrix - np.eye(2))) <= 1e-10
