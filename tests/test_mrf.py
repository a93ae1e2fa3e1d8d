import math

import numpy as np
import pytest

from nlpca.mrf import (
    BANDWIDTH_FLOOR,
    InteractionWeights,
    compute_weights,
    conditional_param,
    default_bandwidth,
    default_strength,
    mrf_log_density_unnorm,
    pairwise_sq_distances,
)
from nlpca.stiefel import sample_uniform_stiefel
from nlpca.vmf import VmfParam, vmf_log_density_unnorm, vmf_mode


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
        weights = compute_weights(x, c_strength=3.0, bandwidth=1.0)
        assert weights.lam[0, 1] == pytest.approx(3.0)

    def test_distance_equal_to_bandwidth(self):
        x = np.array([[0.0], [2.0]])
        weights = compute_weights(x, c_strength=1.0, bandwidth=2.0)
        assert weights.lam[0, 1] == pytest.approx(math.exp(-0.5))

    def test_three_collinear_points(self):
        x = np.array([[0.0], [1.0], [2.0]])
        weights = compute_weights(x, c_strength=1.0, bandwidth=1.0)
        assert weights.lam[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert weights.lam[1, 2] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert weights.lam[0, 2] == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        weights = compute_weights(x, c_strength=0.7, bandwidth=1.3)
        assert np.max(np.abs(weights.lam - naive_weights(x, 0.7, 1.3))) <= 1e-12

    def test_monotone_in_distance(self):
        weights = compute_weights(np.array([[0.0], [1.0], [2.5]]), 1.0, 1.0)
        assert weights.lam[0, 1] > weights.lam[0, 2]

    def test_rejects_bad_parameters(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            compute_weights(x, c_strength=0.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            compute_weights(x, c_strength=1.0, bandwidth=-1.0)
        with pytest.raises(ValueError):
            compute_weights(np.zeros((1, 2)), 1.0, 1.0)

    def test_bandwidth_below_floor_refused(self):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="bandwidth"):
            compute_weights(x, c_strength=1.0, bandwidth=0.1 * BANDWIDTH_FLOOR)
        weights = compute_weights(x, c_strength=1.0, bandwidth=BANDWIDTH_FLOOR)
        assert weights.bandwidth == BANDWIDTH_FLOOR

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


class TestDefaultStrength:
    def test_values(self):
        assert default_strength(100) == pytest.approx(1.0)
        assert default_strength(150) == pytest.approx(2.0 / 3.0)
        assert default_strength(1) == pytest.approx(100.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_strength(0)


class TestConditionalParam:
    def test_two_sites_single_term(self):
        rng = np.random.default_rng(2)
        frames = [sample_uniform_stiefel(3, 2, rng) for _ in range(2)]
        weights = compute_weights(np.array([[0.0], [1.0]]), 2.0, 1.0)
        c = conditional_param(0, frames, weights)
        assert np.allclose(c, weights.lam[0, 1] * frames[1].matrix, atol=1e-14)

    def test_identical_frames_give_mode_back(self):
        rng = np.random.default_rng(3)
        v = sample_uniform_stiefel(4, 2, rng)
        frames = [v] * 5
        weights = compute_weights(rng.standard_normal((5, 2)), 1.0, 1.0)
        c = conditional_param(2, frames, weights)
        total = weights.lam[2].sum()
        assert np.allclose(c, total * v.matrix, atol=1e-12)
        assert np.max(np.abs(vmf_mode(VmfParam(c)).matrix - v.matrix)) <= 1e-8

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(4)
        frames = [sample_uniform_stiefel(3, 2, rng) for _ in range(6)]
        weights = compute_weights(rng.standard_normal((6, 2)), 0.9, 0.8)
        i = 3
        expected = sum(
            weights.lam[i, j] * frames[j].matrix for j in range(6) if j != i
        )
        got = conditional_param(i, frames, weights)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_index_out_of_range(self):
        rng = np.random.default_rng(5)
        frames = [sample_uniform_stiefel(3, 1, rng) for _ in range(2)]
        weights = compute_weights(np.array([[0.0], [1.0]]), 1.0, 1.0)
        with pytest.raises(IndexError):
            conditional_param(2, frames, weights)


class TestJointDensity:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(6)
        frames = [sample_uniform_stiefel(3, 2, rng) for _ in range(3)]
        weights = InteractionWeights(np.zeros((3, 3)), c_strength=1.0, bandwidth=1.0)
        assert mrf_log_density_unnorm(frames, weights) == 0.0

    def test_two_identical_frames(self):
        rng = np.random.default_rng(7)
        v = sample_uniform_stiefel(5, 3, rng)
        weights = compute_weights(np.array([[0.0], [1.5]]), 2.0, 1.0)
        got = mrf_log_density_unnorm([v, v], weights)
        assert got == pytest.approx(weights.lam[0, 1] * 3.0, abs=1e-12)

    def test_right_rotation_invariance(self):
        rng = np.random.default_rng(8)
        frames = [sample_uniform_stiefel(4, 2, rng) for _ in range(5)]
        weights = compute_weights(rng.standard_normal((5, 2)), 1.0, 1.0)
        r = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        rotated = [f.matrix @ r for f in frames]
        base = mrf_log_density_unnorm(frames, weights)
        assert abs(mrf_log_density_unnorm(rotated, weights) - base) <= 1e-10

    @pytest.mark.parametrize("p, d", [(3, 1), (4, 2), (3, 3)])
    def test_matches_pair_double_loop(self, p, d):
        rng = np.random.default_rng(10)
        n = 7
        frames = [sample_uniform_stiefel(p, d, rng).matrix for _ in range(n)]
        weights = compute_weights(rng.standard_normal((n, d)), 1.3, 0.8)
        pair_sum = sum(
            weights.lam[i, j] * np.trace(frames[i].T @ frames[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        got = mrf_log_density_unnorm(np.stack(frames), weights)
        assert got == pytest.approx(pair_sum, rel=1e-12, abs=0)

    def test_joint_conditional_consistency(self):
        # As a function of V_i alone, the joint log density differs from
        # tr(C_i^T V_i) by a constant.
        rng = np.random.default_rng(9)
        n = 5
        frames = [sample_uniform_stiefel(3, 2, rng) for _ in range(n)]
        weights = compute_weights(rng.standard_normal((n, 2)), 1.2, 0.9)
        i = 2
        c_i = conditional_param(i, frames, weights)
        offsets = []
        for _ in range(100):
            candidate = sample_uniform_stiefel(3, 2, rng)
            trial = list(frames)
            trial[i] = candidate
            joint = mrf_log_density_unnorm(trial, weights)
            cond = vmf_log_density_unnorm(candidate, VmfParam(c_i))
            offsets.append(joint - cond)
        assert max(offsets) - min(offsets) <= 1e-8
