"""Markov-random-field prior coupling the per-point orthonormal frames.

The joint density over the n frames, relative to the product uniform measure,
is proportional to exp{sum over pairs i<j of lambda_ij tr(V_i^T V_j)}, with
Gaussian-kernel interaction weights lambda_ij driven by the latent positions.
Under this pair convention the full conditional at site i is exactly
vMF(sum_{j != i} lambda_ij V_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stiefel import StiefelPoint

__all__ = [
    "InteractionWeights",
    "compute_weights",
    "default_bandwidth",
    "default_strength",
    "pairwise_sq_distances",
    "conditional_param",
    "mrf_log_density_unnorm",
]

# Smallest kernel width accepted, so that degenerate latent configurations
# cannot divide by zero.
BANDWIDTH_FLOOR = 1e-8


@dataclass(eq=False)
class InteractionWeights:
    """Symmetric nonnegative site-coupling matrix with zero diagonal.

    Off-diagonal entries are c * exp(-||x_i - x_j||^2 / (2 w^2)) for the
    generating latents, hence bounded by c (entries can round to zero only by
    underflow at extreme distances).
    """

    lam: np.ndarray
    c_strength: float
    bandwidth: float

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if self.lam.ndim != 2 or self.lam.shape[0] != self.lam.shape[1]:
            raise ValueError("lambda must be a square matrix")
        if not np.array_equal(self.lam, self.lam.T):
            raise ValueError("lambda must be symmetric")
        if np.any(np.diagonal(self.lam) != 0.0):
            raise ValueError("lambda must have a zero diagonal")
        if np.any(self.lam < 0.0):
            raise ValueError("lambda entries must be nonnegative")
        if np.any(self.lam > self.c_strength * (1.0 + 1e-12)):
            raise ValueError("lambda entries must not exceed the strength c")

    @property
    def n_sites(self) -> int:
        return self.lam.shape[0]


def _stack_frames(transformations) -> np.ndarray:
    """Coerce a list of StiefelPoints or an (n, p, d) array to an ndarray."""
    if isinstance(transformations, np.ndarray):
        v = transformations
    else:
        v = np.stack(
            [t.matrix if isinstance(t, StiefelPoint) else np.asarray(t, dtype=float)
             for t in transformations]
        )
    if v.ndim != 3:
        raise ValueError("expected n stacked p x d frames")
    return v


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """n x n squared Euclidean distances between the rows of points, n >= 2.

    Summed one coordinate at a time, without an n x n x d temporary.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.shape[0] < 2:
        raise ValueError("need at least two points")
    sq = np.zeros((x.shape[0], x.shape[0]))
    for k in range(x.shape[1]):
        dk = x[:, k, None] - x[None, :, k]
        dk *= dk
        sq += dk
    return sq


def compute_weights(
    latents: np.ndarray, c_strength: float, bandwidth: float
) -> InteractionWeights:
    """Gaussian-kernel couplings lambda_ij = c * exp(-||x_i - x_j||^2 / (2 w^2))."""
    if c_strength <= 0:
        raise ValueError(f"c_strength must be positive, got {c_strength}")
    if not bandwidth >= BANDWIDTH_FLOOR:
        raise ValueError(f"bandwidth must be >= {BANDWIDTH_FLOOR:g}, got {bandwidth}")
    sq_dist = pairwise_sq_distances(latents)
    lam = c_strength * np.exp(-sq_dist / (2.0 * bandwidth * bandwidth))
    np.fill_diagonal(lam, 0.0)
    return InteractionWeights(lam=lam, c_strength=c_strength, bandwidth=bandwidth)


def default_bandwidth(latents: np.ndarray) -> float:
    """Mean pairwise Euclidean distance between the latent points."""
    dist = np.sqrt(pairwise_sq_distances(latents))
    iu = np.triu_indices(dist.shape[0], k=1)
    w = float(dist[iu].mean())
    if w == 0.0:
        raise ValueError("all latent points are identical; bandwidth would be zero")
    return w


def default_strength(n: int) -> float:
    """Interaction strength 100 / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 100.0 / n


def conditional_param(
    i: int, transformations, weights: InteractionWeights
) -> np.ndarray:
    """The p x d parameter sum_{j != i} lambda_ij V_j of the vMF full
    conditional at site i.

    The validated public form: gibbs.update_transformation computes the
    same row product on the sweep's raw arrays.
    """
    v = _stack_frames(transformations)
    n = v.shape[0]
    if n != weights.n_sites:
        raise ValueError(f"{n} frames but weights for {weights.n_sites} sites")
    if not 0 <= i < n:
        raise IndexError(f"site {i} out of range for {n} sites")
    # The zero diagonal makes the j = i term vanish.
    return np.tensordot(weights.lam[i], v, axes=(0, 0))


def mrf_log_density_unnorm(transformations, weights: InteractionWeights) -> float:
    """sum over unordered pairs i<j of lambda_ij tr(V_i^T V_j).

    With the n frames viewed as an n x pd matrix W, that is half the inner
    product of Lambda W with W: one BLAS product, O(n^2 pd).
    """
    v = _stack_frames(transformations)
    n = v.shape[0]
    if n != weights.n_sites:
        raise ValueError(f"{n} frames but weights for {weights.n_sites} sites")
    w = v.reshape(n, -1)
    return 0.5 * float(np.vdot(weights.lam @ w, w))
