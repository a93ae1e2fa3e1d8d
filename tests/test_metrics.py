import math

import numpy as np
import pytest

from nlpca.datasets import generate_sphere
from nlpca.metrics import distance_to_unit_sphere, nn_mismatch_count, reconstruction_errors


class TestReconstructionErrors:
    def test_identical_inputs(self):
        y = np.ones((4, 3))
        assert np.all(reconstruction_errors(y, y) == 0.0)

    def test_three_four_five(self):
        y = np.array([[0.0, 0.0]])
        y_hat = np.array([[3.0, 4.0]])
        assert reconstruction_errors(y, y_hat)[0] == pytest.approx(5.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((10, 4))
        y_hat = rng.standard_normal((10, 4))
        got = reconstruction_errors(y, y_hat)
        for i in range(10):
            expected = math.sqrt(sum((y[i, j] - y_hat[i, j]) ** 2 for j in range(4)))
            assert got[i] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_errors(np.ones((3, 2)), np.ones((3, 3)))


class TestDistanceToUnitSphere:
    def test_point_on_sphere(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        assert np.allclose(distance_to_unit_sphere(pts), 0.0, atol=1e-15)

    def test_radius_three(self):
        pts = np.array([[3.0, 0.0, 0.0]])
        assert distance_to_unit_sphere(pts)[0] == pytest.approx(2.0)

    def test_noisy_sphere_mean(self):
        # Radial noise is N(0, sigma^2) to first order, so the mean distance
        # is close to sigma * sqrt(2/pi).
        rng = np.random.default_rng(1)
        sigma = 0.05
        n = 100_000
        raw, _ = generate_sphere(n, sigma, rng)
        mean_dist = distance_to_unit_sphere(raw).mean()
        target = sigma * math.sqrt(2.0 / math.pi)
        se = sigma * math.sqrt((1.0 - 2.0 / math.pi) / n)
        # Allow the O(sigma^2) tangential bias on top of Monte Carlo error.
        assert abs(mean_dist - target) <= 3 * se + sigma**2

    def test_shape_check(self):
        with pytest.raises(ValueError):
            distance_to_unit_sphere(np.ones((3, 2)))


class TestNnMismatch:
    def test_two_points_same_label(self):
        assert nn_mismatch_count(np.array([[0.0], [1.0]]), np.array([3, 3])) == 0

    def test_two_points_different_labels(self):
        assert nn_mismatch_count(np.array([[0.0], [1.0]]), np.array([1, 2])) == 2

    def test_tie_broken_by_smallest_index(self):
        # Point 1 is equidistant from 0 and 2; index 0 wins, labels differ.
        latents = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 1, 0])
        assert nn_mismatch_count(latents, labels) == 3

    def test_clustered_labels(self):
        latents = np.array([[0.0], [0.1], [5.0], [5.1]])
        labels = np.array([0, 0, 1, 1])
        assert nn_mismatch_count(latents, labels) == 0

    def test_rotation_translation_invariance(self):
        rng = np.random.default_rng(2)
        latents = rng.standard_normal((40, 2))
        labels = rng.integers(0, 3, size=40)
        base = nn_mismatch_count(latents, labels)
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        moved = latents @ q.T + np.array([5.0, -2.0])
        assert nn_mismatch_count(moved, labels) == base

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            nn_mismatch_count(np.ones((3, 2)), None)
