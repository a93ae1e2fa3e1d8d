"""Linear algebra on the Stiefel manifold of p x d matrices with orthonormal columns."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Orthonormality check at construction; SVD/QR outputs land well inside this.
ORTHONORMALITY_TOL = 1e-10
# Looser bound for inputs that have already been through factorizations.
DERIVED_TOL = 1e-8

__all__ = [
    "ORTHONORMALITY_TOL",
    "DERIVED_TOL",
    "StiefelPoint",
    "SvdFactors",
    "is_orthonormal",
    "frames_orthonormal",
    "thin_svd",
    "sample_uniform_stiefel",
    "null_space_basis",
    "polar_project",
]


def is_orthonormal(m: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> bool:
    """True iff max |m^T m - I| <= tol.  Any real matrix is accepted."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        return False
    return frames_orthonormal(m, tol)


def frames_orthonormal(v: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> bool:
    """True iff every frame in v, one p x d matrix or an (n, p, d) stack, has
    max |v_i^T v_i - I| <= tol.  A NaN entry makes the answer false."""
    gram = np.swapaxes(v, -1, -2) @ v - np.eye(v.shape[-1])
    return bool(np.all(np.abs(gram) <= tol))


@dataclass(eq=False)
class StiefelPoint:
    """A p x d matrix with orthonormal columns, validated at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=float)
        if self.matrix.ndim == 1:
            self.matrix = self.matrix[:, None]
        if self.matrix.ndim != 2:
            raise ValueError("a Stiefel point is a 2-D matrix")
        p, d = self.matrix.shape
        if not 1 <= d <= p:
            raise ValueError(f"need p >= d >= 1, got shape {p}x{d}")
        if not is_orthonormal(self.matrix, ORTHONORMALITY_TOL):
            raise ValueError(
                f"columns are not orthonormal within {ORTHONORMALITY_TOL:g}"
            )

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


@dataclass(eq=False)
class SvdFactors:
    """Thin SVD m = u @ diag(singular_values) @ v.T with u p x d and v d x d."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def thin_svd(m: np.ndarray) -> SvdFactors:
    """Thin SVD with the reconstruction checked to 1e-8 relative Frobenius error."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    factors = SvdFactors(u=u, singular_values=s, v=vt.T)
    scale = np.linalg.norm(m)
    if scale > 0:
        err = np.linalg.norm(u @ np.diag(s) @ vt - m) / scale
        if err > DERIVED_TOL:
            raise ArithmeticError(f"SVD reconstruction error {err:.3e} exceeds 1e-8")
    return factors


def _uniform_unit_vector(p: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit sphere in R^p via a normalized Gaussian."""
    while True:
        g = rng.standard_normal(p)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def sample_uniform_stiefel(p: int, d: int, rng: np.random.Generator) -> StiefelPoint:
    """Uniform draw from the Stiefel manifold of p x d frames.

    Builds the frame column by column: the first column is uniform on the
    sphere, and column k is a uniform sphere point expressed in an orthonormal
    basis of the complement of the columns drawn so far.
    """
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got p={p}, d={d}")
    cols = np.empty((p, d))
    cols[:, 0] = _uniform_unit_vector(p, rng)
    for k in range(1, d):
        basis = null_space_basis(cols[:, :k])
        cols[:, k] = basis @ _uniform_unit_vector(p - k, rng)
    return StiefelPoint(cols)


def null_space_basis(v_partial: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns of v_partial.

    Computed from the trailing columns of a full QR factorization, so the
    result is deterministic up to the fixed LAPACK sign convention.
    """
    v = np.asarray(v_partial, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    p, k = v.shape
    if k >= p:
        raise ValueError(f"complement is empty: k={k} columns in R^{p}")
    if k == 0:
        return np.eye(p)
    if not is_orthonormal(v, DERIVED_TOL):
        raise ValueError("v_partial does not have orthonormal columns")
    q = np.linalg.qr(v, mode="complete")[0]
    return q[:, k:]


def polar_project(m: np.ndarray) -> StiefelPoint:
    """Closest orthonormal frame to m in Frobenius norm: U V^T from the SVD.

    Maximizes tr(m^T X) over the Stiefel manifold.  Rank-deficient input makes
    the maximizer non-unique; the degenerate directions are completed from the
    SVD's own bases and a RuntimeWarning is emitted.
    """
    factors = thin_svd(m)
    s = factors.singular_values
    if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
        warnings.warn(
            "polar_project: input is numerically rank-deficient; "
            "degenerate directions completed arbitrarily from the SVD bases",
            RuntimeWarning,
            stacklevel=2,
        )
    return StiefelPoint(factors.u @ factors.v.T)
