import math

import numpy as np
import pytest

from conftest import traced_peak, vmf_log_density_unnorm
from nlpca.gibbs import default_hyperparams
from nlpca.mrf import (
    BANDWIDTH_FLOOR,
    InteractionWeights,
    compute_weights,
    conditional_param,
    default_bandwidth,
    mrf_log_density_unnorm,
    pairwise_sq_distances,
)
from nlpca.pca import Dataset, PcaFit, pca_fit
from nlpca.stiefel import sample_uniform_stiefel
from nlpca.vmf import VmfParam, vmf_mode


def naive_weights(latents, c, w):
    """Independent scalar double-loop evaluation of the kernel."""
    n = len(latents)
    lam = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(latents[i], latents[j])))
                lam[i, j] = c * math.exp(-((dist / w) ** 2) / 2.0)
    return lam


class TestComputeWeights:
    def test_coincident_latents_hit_strength(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        lam = compute_weights(x, c_strength=3.0, bandwidth=1.0)
        assert lam[0, 1] == pytest.approx(3.0)

    def test_distance_equal_to_bandwidth(self):
        x = np.array([[0.0], [2.0]])
        lam = compute_weights(x, c_strength=1.0, bandwidth=2.0)
        assert lam[0, 1] == pytest.approx(math.exp(-0.5))

    def test_three_collinear_points(self):
        x = np.array([[0.0], [1.0], [2.0]])
        lam = compute_weights(x, c_strength=1.0, bandwidth=1.0)
        assert lam[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert lam[1, 2] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert lam[0, 2] == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        lam = compute_weights(x, c_strength=0.7, bandwidth=1.3)
        assert np.max(np.abs(lam - naive_weights(x, 0.7, 1.3))) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bits_as_broadcast_form(self, d):
        # With and without out, the kernel of the broadcast distances.
        rng = np.random.default_rng(80 + d)
        for x in scaled_points(rng, d):
            c, w = rng.uniform(0.1, 10.0, 2)
            expected = c * np.exp(-broadcast_sq_distances(x) / (2.0 * w * w))
            np.fill_diagonal(expected, 0.0)
            assert np.array_equal(compute_weights(x, c, w), expected)
            out = np.full((len(x), len(x)), np.nan)
            assert compute_weights(x, c, w, out=out) is out
            assert np.array_equal(out, expected)

    def test_monotone_in_distance(self):
        lam = compute_weights(np.array([[0.0], [1.0], [2.5]]), 1.0, 1.0)
        assert lam[0, 1] > lam[0, 2]

    def test_rejects_bad_parameters(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            compute_weights(x, c_strength=0.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            compute_weights(x, c_strength=1.0, bandwidth=-1.0)
        with pytest.raises(ValueError):
            compute_weights(np.zeros((1, 2)), 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_strength_and_bandwidth_refused(self, value):
        x = np.array([[0.0], [1.0], [2.5]])
        with pytest.raises(ValueError, match="c_strength"):
            compute_weights(x, c_strength=value, bandwidth=1.0)
        with pytest.raises(ValueError, match="bandwidth"):
            compute_weights(x, c_strength=1.0, bandwidth=value)

    def test_bandwidth_below_floor_refused(self):
        x = np.array([[0.0], [BANDWIDTH_FLOOR]])
        with pytest.raises(ValueError, match="bandwidth"):
            compute_weights(x, c_strength=1.0, bandwidth=0.1 * BANDWIDTH_FLOOR)
        lam = compute_weights(x, c_strength=1.0, bandwidth=BANDWIDTH_FLOOR)
        assert lam[0, 1] == pytest.approx(math.exp(-0.5))

    def test_overflowing_exponent_gives_zero_weight(self):
        # 1e300 / (2 w^2) overflows at the floor w; exp of its limit is 0.
        lam = compute_weights(np.array([[0.0], [1e150]]), 1.0, BANDWIDTH_FLOOR)
        assert np.array_equal(lam, np.zeros((2, 2)))

    @pytest.mark.parametrize("bandwidth", [BANDWIDTH_FLOOR, 0.7, 1e300])
    def test_invariants_hold_by_construction(self, bandwidth):
        # No sweep re-checks lambda, so compute_weights must meet every
        # InteractionWeights invariant on its own, bit-exact symmetry included.
        rng = np.random.default_rng(40)
        for n, d in ((2, 1), (17, 2), (60, 3)):
            x = 10.0 ** rng.uniform(-9, 3) * rng.standard_normal((n, d))
            x[n // 2] = x[0]  # a coincident pair
            c = 10.0 ** rng.uniform(-3, 3)
            lam = compute_weights(x, c, bandwidth)
            InteractionWeights(lam, c, bandwidth)
            assert np.array_equal(lam, lam.T)

    def test_invariants_validated_on_construction(self):
        with pytest.raises(ValueError):
            InteractionWeights(np.array([[0.0, 1.0], [2.0, 0.0]]), 3.0, 1.0)
        with pytest.raises(ValueError):
            InteractionWeights(np.array([[1.0, 0.5], [0.5, 0.0]]), 3.0, 1.0)
        with pytest.raises(ValueError):
            InteractionWeights(np.array([[0.0, 5.0], [5.0, 0.0]]), 3.0, 1.0)


def einsum_sq_distances(x):
    """The n x n x d difference tensor reduced by einsum: the form the
    per-coordinate sum replaced."""
    diff = x[:, None, :] - x[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def broadcast_sq_distances(x):
    """The sum of broadcast per-coordinate differences, squared, into zeros:
    the form before the result and one work array took the differences."""
    sq = np.zeros((len(x), len(x)))
    for k in range(x.shape[1]):
        dk = x[:, k, None] - x[None, :, k]
        dk *= dk
        sq += dk
    return sq


def scaled_points(rng, d, count=30):
    """count point sets of 2 to 59 rows in d dimensions, at scales 1e-3 to 1e3."""
    for scale in 10.0 ** rng.uniform(-3, 3, count):
        yield scale * rng.standard_normal((int(rng.integers(2, 60)), d))


class TestPairwiseSqDistances:
    @pytest.mark.parametrize("d", [1, 2])
    def test_same_bits_as_einsum_form_up_to_two_dims(self, d):
        # Every bench chain has d <= 2, so their weights keep their bits.
        rng = np.random.default_rng(30 + d)
        for scale in 10.0 ** rng.uniform(-3, 3, 90):
            x = scale * rng.standard_normal((int(rng.integers(2, 60)), d))
            assert np.array_equal(pairwise_sq_distances(x), einsum_sq_distances(x))

    def test_three_dims_agree_to_rounding(self):
        rng = np.random.default_rng(33)
        for scale in 10.0 ** rng.uniform(-3, 3, 90):
            x = scale * rng.standard_normal((int(rng.integers(2, 60)), 3))
            np.testing.assert_allclose(
                pairwise_sq_distances(x), einsum_sq_distances(x), rtol=1e-15, atol=0
            )

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            pairwise_sq_distances(np.zeros((1, 2)))

    def test_needs_one_coordinate(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            pairwise_sq_distances(np.zeros((3, 0)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bits_as_broadcast_form(self, d):
        rng = np.random.default_rng(40 + d)
        for x in scaled_points(rng, d):
            expected = broadcast_sq_distances(x)
            assert np.array_equal(pairwise_sq_distances(x), expected)
            out = np.full((len(x), len(x)), np.nan)
            assert pairwise_sq_distances(x, out) is out
            assert np.array_equal(out, expected)


class TestWeightsMemory:
    # At n = 600 each (n, n) float array is 2.9 MB, far above everything else.
    N = 600

    @pytest.mark.parametrize("d", [2, 3])
    def test_compute_weights_holds_one_work_array(self, d):
        # The weights and one work array: ~2.0; a difference array per
        # coordinate beside the sum read ~3.0.
        x = np.random.default_rng(50 + d).standard_normal((self.N, d))
        assert traced_peak(lambda: compute_weights(x, 1.0, 1.0)) <= 2.2 * self.N * self.N * 8


class TestDefaultBandwidth:
    def test_two_points(self):
        assert default_bandwidth(np.array([[0.0], [2.0]])) == pytest.approx(2.0)

    def test_three_collinear(self):
        got = default_bandwidth(np.array([[0.0], [1.0], [2.0]]))
        assert got == pytest.approx(4.0 / 3.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2))
        total = 0.0
        count = 0
        for i in range(100):
            for j in range(i + 1, 100):
                total += math.sqrt(((x[i] - x[j]) ** 2).sum())
                count += 1
        assert default_bandwidth(x) == pytest.approx(total / count, abs=1e-12)

    def test_identical_latents_rejected(self):
        with pytest.raises(ValueError):
            default_bandwidth(np.ones((4, 2)))

    @pytest.mark.parametrize("scale", [1e-165, 1e-300, 1e160])
    def test_extreme_scales_scale_the_value(self, scale):
        # Squared distances of such latents underflow to 0 or overflow to inf;
        # the power-of-two scaling inside keeps them, so the bandwidth scales
        # with the data.
        x = np.random.default_rng(2).standard_normal((30, 2))
        assert default_bandwidth(scale * x) == pytest.approx(
            scale * default_bandwidth(x), rel=1e-12
        )

    def test_power_of_two_scaling_is_exact(self):
        x = np.random.default_rng(3).standard_normal((50, 2))
        assert default_bandwidth(x) == float(
            np.sqrt(pairwise_sq_distances(x))[np.triu_indices(50, k=1)].mean()
        )
        assert default_bandwidth(2.0**-600 * x) == 2.0**-600 * default_bandwidth(x)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bits_as_broadcast_form(self, d):
        # The power-of-two scaling, the broadcast distances and the pairs by
        # np.triu_indices: the form before the work array.
        rng = np.random.default_rng(70 + d)
        for x in scaled_points(rng, d):
            exponent = math.frexp(float(np.max(np.abs(x))))[1]
            dist = np.sqrt(broadcast_sq_distances(np.ldexp(x, -exponent)))
            expected = math.ldexp(float(dist[np.triu_indices(len(x), k=1)].mean()), exponent)
            assert default_bandwidth(x) == expected


def pilot_strength(n):
    """default_hyperparams' pilot c for n rows of data."""
    data = Dataset(np.random.default_rng(n).standard_normal((n, 3)))
    return default_hyperparams(data, pca_fit(data, 1), bandwidth=1.0).c_strength


class TestDefaultStrength:
    def test_values(self):
        assert pilot_strength(100) == pytest.approx(1.0)
        assert pilot_strength(150) == pytest.approx(2.0 / 3.0)
        assert pilot_strength(2) == pytest.approx(50.0)

    def test_rejects_zero(self):
        # Fewer than two rows are refused before c = 100/n is formed; a
        # Dataset of zero rows cannot be built at all.
        with pytest.raises(ValueError, match="nonempty"):
            Dataset(np.zeros((0, 3)))
        data = Dataset(np.zeros((1, 3)))
        fit = PcaFit(np.eye(3, 1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="at least two rows"):
            default_hyperparams(data, fit, bandwidth=1.0)


class TestConditionalParam:
    def test_two_sites_single_term(self):
        rng = np.random.default_rng(2)
        frames = np.stack([sample_uniform_stiefel(3, 2, rng).matrix for _ in range(2)])
        lam = compute_weights(np.array([[0.0], [1.0]]), 2.0, 1.0)
        c = conditional_param(0, frames, lam)
        assert np.allclose(c, lam[0, 1] * frames[1], atol=1e-14)

    def test_identical_frames_give_mode_back(self):
        rng = np.random.default_rng(3)
        v = sample_uniform_stiefel(4, 2, rng)
        frames = np.stack([v.matrix] * 5)
        lam = compute_weights(rng.standard_normal((5, 2)), 1.0, 1.0)
        c = conditional_param(2, frames, lam)
        total = lam[2].sum()
        assert np.allclose(c, total * v.matrix, atol=1e-12)
        assert np.max(np.abs(vmf_mode(VmfParam(c)).matrix - v.matrix)) <= 1e-8

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(4)
        frames = np.stack([sample_uniform_stiefel(3, 2, rng).matrix for _ in range(6)])
        lam = compute_weights(rng.standard_normal((6, 2)), 0.9, 0.8)
        i = 3
        expected = sum(
            lam[i, j] * frames[j] for j in range(6) if j != i
        )
        got = conditional_param(i, frames, lam)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_index_out_of_range(self):
        rng = np.random.default_rng(5)
        frames = np.stack([sample_uniform_stiefel(3, 1, rng).matrix for _ in range(2)])
        lam = compute_weights(np.array([[0.0], [1.0]]), 1.0, 1.0)
        with pytest.raises(IndexError):
            conditional_param(2, frames, lam)


class TestJointDensity:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(6)
        frames = np.stack([sample_uniform_stiefel(3, 2, rng).matrix for _ in range(3)])
        assert mrf_log_density_unnorm(frames, np.zeros((3, 3))) == 0.0

    def test_two_identical_frames(self):
        rng = np.random.default_rng(7)
        v = sample_uniform_stiefel(5, 3, rng)
        lam = compute_weights(np.array([[0.0], [1.5]]), 2.0, 1.0)
        got = mrf_log_density_unnorm(np.stack([v.matrix, v.matrix]), lam)
        assert got == pytest.approx(lam[0, 1] * 3.0, abs=1e-12)

    def test_right_rotation_invariance(self):
        rng = np.random.default_rng(8)
        frames = np.stack([sample_uniform_stiefel(4, 2, rng).matrix for _ in range(5)])
        lam = compute_weights(rng.standard_normal((5, 2)), 1.0, 1.0)
        r = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        rotated = frames @ r
        base = mrf_log_density_unnorm(frames, lam)
        assert abs(mrf_log_density_unnorm(rotated, lam) - base) <= 1e-10

    @pytest.mark.parametrize("p, d", [(3, 1), (4, 2), (3, 3)])
    def test_matches_pair_double_loop(self, p, d):
        rng = np.random.default_rng(10)
        n = 7
        frames = [sample_uniform_stiefel(p, d, rng).matrix for _ in range(n)]
        lam = compute_weights(rng.standard_normal((n, d)), 1.3, 0.8)
        pair_sum = sum(
            lam[i, j] * np.trace(frames[i].T @ frames[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        got = mrf_log_density_unnorm(np.stack(frames), lam)
        assert got == pytest.approx(pair_sum, rel=1e-12, abs=0)

    def test_joint_conditional_consistency(self):
        # As a function of V_i alone, the joint log density differs from
        # tr(C_i^T V_i) by a constant.
        rng = np.random.default_rng(9)
        n = 5
        frames = np.stack([sample_uniform_stiefel(3, 2, rng).matrix for _ in range(n)])
        lam = compute_weights(rng.standard_normal((n, 2)), 1.2, 0.9)
        i = 2
        c_i = conditional_param(i, frames, lam)
        offsets = []
        for _ in range(100):
            candidate = sample_uniform_stiefel(3, 2, rng)
            trial = frames.copy()
            trial[i] = candidate.matrix
            joint = mrf_log_density_unnorm(trial, lam)
            cond = vmf_log_density_unnorm(candidate, VmfParam(c_i))
            offsets.append(joint - cond)
        assert max(offsets) - min(offsets) <= 1e-8
