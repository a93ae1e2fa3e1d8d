"""Evaluation quantities: per-point reconstruction errors, distance to the
unit sphere, and nearest-neighbor label mismatches."""

from __future__ import annotations

import numpy as np

from .mrf import pairwise_sq_distances

__all__ = [
    "reconstruction_errors",
    "distance_to_unit_sphere",
    "nn_mismatch_count",
]


def reconstruction_errors(y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm of y - y_hat."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    return np.linalg.norm(y - y_hat, axis=1)


def distance_to_unit_sphere(points: np.ndarray) -> np.ndarray:
    """Per-row |  ||point|| - 1 |, for points in R^3: the distance to the unit
    sphere centred at the origin, so centred data must be de-centred first."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("expected an n x 3 matrix")
    return np.abs(np.linalg.norm(points, axis=1) - 1.0)


def nn_mismatch_count(latents: np.ndarray, labels: np.ndarray) -> int:
    """Number of points whose Euclidean nearest neighbor has a different label.

    Ties go to the smallest index, so the count is deterministic.
    """
    if labels is None:
        raise ValueError("labels are required")
    sq = pairwise_sq_distances(latents)
    labels = np.asarray(labels)
    if labels.shape != (sq.shape[0],):
        raise ValueError("labels must have one entry per point")
    np.fill_diagonal(sq, np.inf)
    nearest = np.argmin(sq, axis=1)  # argmin takes the first, i.e. smallest index
    return int(np.sum(labels[nearest] != labels))
