import math

import numpy as np
import pytest

from nlpca.mrf import (
    InteractionWeights,
    compute_weights,
    conditional_param,
    default_bandwidth,
    default_strength,
    mrf_log_density_unnorm,
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

    def test_invariants_validated_on_construction(self):
        with pytest.raises(ValueError):
            InteractionWeights(np.array([[0.0, 1.0], [2.0, 0.0]]), 3.0, 1.0)
        with pytest.raises(ValueError):
            InteractionWeights(np.array([[1.0, 0.5], [0.5, 0.0]]), 3.0, 1.0)
        with pytest.raises(ValueError):
            InteractionWeights(np.array([[0.0, 5.0], [5.0, 0.0]]), 3.0, 1.0)


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
