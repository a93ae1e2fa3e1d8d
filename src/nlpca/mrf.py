"""Markov-random-field prior coupling the per-point orthonormal frames.

The joint density over the n frames, relative to the product uniform measure,
is proportional to exp{sum over pairs i<j of lambda_ij tr(V_i^T V_j)}, with
Gaussian-kernel interaction weights lambda_ij driven by the latent positions.
Under this pair convention the full conditional at site i is exactly
vMF(sum_{j != i} lambda_ij V_j).  The chain holds lambda as the plain
(n, n) array compute_weights returns and the frames as an (n, p, d) stack.

InteractionWeights and conditional_param are test oracles that no command
runs; they stay defined here, outside __all__, until they move into the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "compute_weights",
    "default_bandwidth",
    "pairwise_sq_distances",
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

    The validated record of compute_weights' invariants, kept for the tests
    and the bench's layer table: no command constructs one.
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


def pairwise_sq_distances(points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """n x n squared Euclidean distances between the rows of points, n >= 2
    and d >= 1, in out if given.

    Coordinate 0's squares are written into the result and each later one is
    added from one (n, n) work array: no n x n x d temporary, no third array.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError("need at least two points of at least one coordinate")
    sq = np.subtract.outer(x[:, 0], x[:, 0], out=out)
    sq *= sq
    dk = None  # the work array, made by coordinate 1 and reused after it
    for k in range(1, x.shape[1]):
        dk = np.subtract.outer(x[:, k], x[:, k], out=dk)
        dk *= dk
        sq += dk
    return sq


def compute_weights(latents: np.ndarray, c_strength: float, bandwidth: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The (n, n) couplings lambda_ij = c * exp(-||x_i - x_j||^2 / (2 w^2)),
    zero on the diagonal, in out if given.  c and w are checked here; the
    array meets InteractionWeights' invariants by construction and is not
    re-checked.  The kernel is applied in place to pairwise_sq_distances'
    array, so only its one work array is allocated beside the weights."""
    if not 0 < c_strength < math.inf:
        raise ValueError(f"c_strength must be positive and finite, got {c_strength}")
    if not BANDWIDTH_FLOOR <= bandwidth < math.inf:
        raise ValueError(f"bandwidth must be finite and >= {BANDWIDTH_FLOOR:g}, got {bandwidth}")
    lam = pairwise_sq_distances(latents, out)
    # An exponent that overflows tends to -inf, whose exp, 0, is the weight.
    with np.errstate(over="ignore"):
        np.negative(lam, out=lam)
        lam /= 2.0 * bandwidth * bandwidth
        np.exp(lam, out=lam)
        lam *= c_strength
    np.fill_diagonal(lam, 0.0)
    return lam


def default_bandwidth(latents: np.ndarray) -> float:
    """Mean pairwise Euclidean distance between the latent points.

    The distances are taken between the latents scaled by the power of two
    that brings their largest magnitude into [1/2, 1), and the mean is scaled
    back.  Both scalings are exact, so the value is bit for bit the unscaled
    formula's wherever that formula neither underflows nor overflows; and
    the squared distances of points at ~1e-165 scale no longer round to
    zero, nor do those of points at ~1e160 scale overflow.
    """
    x = np.asarray(latents, dtype=float)
    exponent = math.frexp(float(np.max(np.abs(x))))[1]
    dist = np.sqrt(pairwise_sq_distances(np.ldexp(x, -exponent)))
    iu = np.triu_indices(dist.shape[0], k=1)
    w = math.ldexp(float(dist[iu].mean()), exponent)
    if w == 0.0:
        raise ValueError("all latent points are identical; bandwidth would be zero")
    return w


def conditional_param(i: int, v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The p x d parameter sum_{j != i} lambda_ij V_j of the vMF full
    conditional at site i, for the (n, p, d) frame stack v.

    The checked public form: gibbs.update_transformation computes the
    same row product unchecked.
    """
    n = v.shape[0]
    if lam.shape != (n, n):
        raise ValueError(f"{n} frames but lambda of shape {lam.shape}")
    if not 0 <= i < n:
        raise IndexError(f"site {i} out of range for {n} sites")
    # The zero diagonal makes the j = i term vanish.
    return np.tensordot(lam[i], v, axes=(0, 0))


def mrf_log_density_unnorm(v: np.ndarray, lam: np.ndarray) -> float:
    """sum over unordered pairs i<j of lambda_ij tr(V_i^T V_j) for the
    (n, p, d) frame stack v.

    With the n frames viewed as an n x pd matrix W, that is half the inner
    product of Lambda W with W: one BLAS product, O(n^2 pd).
    """
    n = v.shape[0]
    if lam.shape != (n, n):
        raise ValueError(f"{n} frames but lambda of shape {lam.shape}")
    w = v.reshape(n, -1)
    return 0.5 * float(np.vdot(lam @ w, w))
