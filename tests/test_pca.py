import sys

import numpy as np
import pytest

from nlpca.gibbs import default_hyperparams
from nlpca.pca import (
    Dataset,
    pca_fit,
    pilot_tau2,
    reconstruct_linear,
)
from nlpca.stiefel import is_orthonormal, sample_uniform_stiefel


class TestCenter:
    def test_already_centered_unchanged(self):
        raw = np.array([[1.0, -2.0], [-1.0, 2.0]])
        ds = Dataset(raw)
        assert np.allclose(ds.y, raw, atol=1e-15)
        assert np.allclose(ds.column_means, 0.0, atol=1e-15)

    def test_constant_column_becomes_zero(self):
        raw = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 6.0]])
        ds = Dataset(raw)
        assert np.allclose(ds.y[:, 0], 0.0, atol=1e-15)
        assert ds.column_means[0] == pytest.approx(5.0)

    def test_random_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((10, 3)) * 7.0)
        assert np.max(np.abs(ds.y.sum(axis=0))) <= 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)))

    def test_dataset_rejects_non_finite(self):
        # Refused before the means are taken, which NaN would make NaN.
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-300, 1e-165, 1e-3, 1.0, 7.0, 1e5, 1e150])
    def test_means_are_numpys_bit_for_bit(self, scale):
        raw = scale * np.random.default_rng(5).standard_normal((40, 6)) + scale
        ds = Dataset(raw)
        assert np.array_equal(ds.column_means, raw.mean(axis=0))
        assert np.array_equal(ds.y, raw - raw.mean(axis=0))

    def test_column_sum_beyond_float_range_does_not_overflow(self):
        # The first column sums to 1e308, beyond no double, and would overflow
        # at its own scale; at a power-of-two scale its mean is exact.
        raw = np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 3.0]])
        with np.errstate(all="raise"):
            ds = Dataset(raw)
        assert ds.column_means.tolist() == [1e308 / 3, 2.0]

    def test_centred_values_beyond_float_range_rejected(self):
        # The mean 1.7e308 / 3 is finite, but -1.7e308 minus it is not.
        with pytest.raises(ValueError, match="too large"):
            Dataset(np.array([[1.7e308, 1.0], [1.7e308, 2.0], [-1.7e308, 3.0]]))


class TestPcaFit:
    def test_axis_data_recovers_axis(self):
        rng = np.random.default_rng(1)
        raw = np.zeros((20, 2))
        raw[:, 0] = rng.standard_normal(20)
        ds = Dataset(raw)
        fit = pca_fit(ds, 1)
        assert abs(abs(fit.loadings[0, 0]) - 1.0) <= 1e-10

    def test_full_rank_zero_error(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.standard_normal((10, 4)))
        fit = pca_fit(ds, 4)
        assert np.max(np.abs(reconstruct_linear(fit) - ds.y)) <= 1e-10

    def test_optimal_over_random_projections(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((20, 5)))
        fit = pca_fit(ds, 2)
        best = np.sum((ds.y - reconstruct_linear(fit)) ** 2)
        for _ in range(10_000):
            v = sample_uniform_stiefel(5, 2, rng).matrix
            err = np.sum((ds.y - ds.y @ v @ v.T) ** 2)
            assert err >= best - 1e-10

    def test_latents_match_projection(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.standard_normal((12, 4)))
        fit = pca_fit(ds, 3)
        assert np.array_equal(fit.latents, ds.y @ fit.loadings)
        assert is_orthonormal(fit.loadings, 1e-10)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.standard_normal((15, 4)))
        fit = pca_fit(ds, 2)
        for k in range(2):
            j = np.argmax(np.abs(fit.loadings[:, k]))
            assert fit.loadings[j, k] > 0

    def test_d_out_of_range(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError):
            pca_fit(ds, 4)
        with pytest.raises(ValueError):
            pca_fit(ds, 0)

    def test_error_monotone_in_d(self):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.standard_normal((20, 6)))
        errors = []
        for d in range(1, 7):
            fit = pca_fit(ds, d)
            errors.append(np.sum((ds.y - reconstruct_linear(fit)) ** 2))
        assert np.all(np.diff(errors) <= 1e-10)


class TestReconstructLinear:
    def test_data_in_span_reconstructed_exactly(self):
        rng = np.random.default_rng(9)
        basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        raw = rng.standard_normal((10, 2)) @ basis.T
        ds = Dataset(raw)
        fit = pca_fit(ds, 2)
        assert np.max(np.abs(reconstruct_linear(fit) - ds.y)) <= 1e-10

    def test_residual_orthogonal_to_span(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((20, 5)))
        fit = pca_fit(ds, 2)
        resid = ds.y - reconstruct_linear(fit)
        assert np.max(np.abs(resid @ fit.loadings)) <= 1e-8


class TestPilotTau2:
    def test_perfect_fit_gives_zero(self):
        rng = np.random.default_rng(11)
        basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        ds = Dataset(rng.standard_normal((10, 2)) @ basis.T)
        assert pilot_tau2(ds, pca_fit(ds, 2)) <= 1e-20

    def test_matches_trailing_singular_values(self):
        # Total squared rank-d residual equals n * sum of trailing squared
        # singular values of Y/sqrt(n), so tau^2 = sum_{k>d} s_k^2 / p.
        rng = np.random.default_rng(12)
        ds = Dataset(rng.standard_normal((20, 5)))
        s = np.linalg.svd(ds.y / np.sqrt(20), compute_uv=False)
        for d in (1, 2, 4):
            assert pilot_tau2(ds, pca_fit(ds, d)) == pytest.approx(
                np.sum(s[d:] ** 2) / 5, abs=1e-12
            )

    def test_full_rank_is_zero(self):
        rng = np.random.default_rng(13)
        ds = Dataset(rng.standard_normal((8, 3)))
        assert pilot_tau2(ds, pca_fit(ds, 3)) <= 1e-10


def pilot_a2(ds):
    """default_hyperparams' pilot a^2, the average sample variance."""
    return default_hyperparams(ds, pca_fit(ds, 1), bandwidth=1.0).a2


class TestAvgVariance:
    def test_zero_data(self):
        # A zero variance is raised to the smallest normal double.
        ds = Dataset(np.zeros((5, 3)))
        assert pilot_a2(ds) == sys.float_info.min

    def test_two_point_column(self):
        ds = Dataset(np.array([[-1.0], [1.0]]))
        assert pilot_a2(ds) == pytest.approx(2.0)

    def test_matches_two_pass_computation(self):
        rng = np.random.default_rng(14)
        raw = rng.standard_normal((25, 4)) * 3.0 + 1.0
        ds = Dataset(raw)
        expected = 0.0
        for j in range(4):
            col = raw[:, j]
            mean = col.sum() / 25
            expected += ((col - mean) ** 2).sum() / 24
        expected /= 4
        assert pilot_a2(ds) == pytest.approx(expected, abs=1e-12)

    def test_single_row_rejected(self):
        ds = Dataset(np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least two rows"):
            pilot_a2(ds)
