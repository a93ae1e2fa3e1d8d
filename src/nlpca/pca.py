"""Classical PCA and its pilot estimates, on a Dataset that centres its rows."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "PcaFit",
    "pca_fit",
    "reconstruct_linear",
    "pilot_tau2",
]


@dataclass(eq=False)
class Dataset:
    """Rows centred by construction: column_means holds the n x p raw's column
    means and y is raw minus them.  ValueError for an empty or non-2-D raw, a
    non-finite entry, centred values that overflow or labels not one per row."""

    raw: InitVar[np.ndarray]
    labels: np.ndarray | None = None
    y: np.ndarray = field(init=False)
    column_means: np.ndarray = field(init=False)

    def __post_init__(self, raw):
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2 or raw.shape[0] < 1:
            raise ValueError("need a nonempty n x p matrix")
        if not np.all(np.isfinite(raw)):
            raise ValueError("observations contain non-finite values")
        self.column_means = _column_means(raw)
        with np.errstate(over="ignore"):
            self.y = raw - self.column_means
        if not np.all(np.isfinite(self.y)):
            raise ValueError("the data are too large: centring them overflows")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (self.y.shape[0],):
                raise ValueError("labels must have one entry per row")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]


@dataclass(eq=False)
class PcaFit:
    """Rank-d PCA factors: the orthonormal p x d loadings V, a plain array,
    and the latent projections X = Y V.  run checks the start frames that
    init_state copies from V with frames_orthonormal."""

    loadings: np.ndarray
    latents: np.ndarray


def _column_means(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=0), taken of a scaled by the power of two that brings its
    largest magnitude into [1/2, 1) and scaled back, as in default_bandwidth.
    Both scalings are exact, so the means are bit for bit a.mean(axis=0)'s
    unless an entry is subnormal at either scale, and a column sum beyond the
    float range does not overflow."""
    exponent = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    return np.ldexp(np.ldexp(a, -exponent).mean(axis=0), exponent)


def pca_fit(data: Dataset, d: int) -> PcaFit:
    """Top-d SVD fit of Y/sqrt(n); the loadings minimize the total squared
    reconstruction error over all rank-d orthonormal projections.

    Each loading column is sign-flipped so its largest-magnitude entry is
    positive, making the fit deterministic.
    """
    n, p = data.y.shape
    if not 1 <= d <= min(n, p):
        raise ValueError(f"need 1 <= d <= min(n, p) = {min(n, p)}, got d={d}")
    vt = np.linalg.svd(data.y / np.sqrt(n), full_matrices=False)[2]
    v = vt[:d].T.copy()
    for k in range(d):
        j = int(np.argmax(np.abs(v[:, k])))
        if v[j, k] < 0:
            v[:, k] = -v[:, k]
    return PcaFit(loadings=v, latents=data.y @ v)


def reconstruct_linear(fit: PcaFit) -> np.ndarray:
    """Rank-d linear reconstruction X V^T."""
    return fit.latents @ fit.loadings.T


def pilot_tau2(data: Dataset, fit: PcaFit) -> float:
    """Mean squared residual per scalar entry of data's reconstruction by fit."""
    resid = data.y - reconstruct_linear(fit)
    n, p = data.y.shape
    return float(np.sum(resid * resid) / (n * p))
