"""Evaluation quantities: per-point reconstruction errors, distance to the
unit sphere, nearest-neighbor label mismatches, and histogram binning."""

from __future__ import annotations

import numpy as np

from .mrf import pairwise_sq_distances

__all__ = [
    "reconstruction_errors",
    "distance_to_unit_sphere",
    "nn_mismatch_count",
    "histogram",
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


def histogram(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width bins over [min, max], returned as (bin_edges, counts).

    The first bin is closed on both sides and every later bin is
    (left, right], so a value equal to an interior edge counts to the bin on
    its left.  Constant input gets a half-unit margin on both sides.  Values
    spread by less than rounding give ValueError: edges not ascending.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("values must be nonempty")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, n_bins + 1)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly ascending")
    idx = np.clip(np.searchsorted(edges, values, side="left") - 1, 0, n_bins - 1)
    return edges, np.bincount(idx, minlength=n_bins)
