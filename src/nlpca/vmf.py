"""Matrix von Mises-Fisher distribution on the Stiefel manifold.

Density relative to the uniform measure: p(X | C) proportional to
exp{tr(C^T X)}.  The SVD C = U D V^T gives the mode U V^T; the singular
values D set the concentration.

The Gibbs sampler's frame step is column_gibbs_pass: one pass of
column-wise Gibbs (Hoff 2009) started from the chain's current frame, which
leaves vMF(C) exactly invariant.  Each column (each column pair of a
square frame) is drawn in coordinates of the orthogonal complement of the
other columns, built one way for every shape: from their Householder
reflectors, applied implicitly.  The pass updates a raw array in place and
checks nothing but the concentration of each vector draw;
vmf_sample_column_gibbs is its validated wrapper, as vmf_sample_vector is
for the vector draw.
vmf_sample_rejection, uniform-proposal rejection with the tight envelope
exp{sum(D)}, is the exact reference the tests check the kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stiefel import (
    StiefelPoint,
    _uniform_unit_vector,
    polar_project,
    sample_uniform_stiefel,
    thin_svd,
)

__all__ = [
    "VmfParam",
    "vmf_log_density_unnorm",
    "vmf_mode",
    "vmf_sample_rejection",
    "vmf_sample_vector",
    "column_gibbs_pass",
    "vmf_sample_column_gibbs",
    "vmf_sample",
]


@dataclass(eq=False)
class VmfParam:
    """Concentration/direction parameter C of a matrix vMF distribution."""

    c_matrix: np.ndarray

    def __post_init__(self):
        self.c_matrix = np.array(self.c_matrix, dtype=float)
        if self.c_matrix.ndim == 1:
            self.c_matrix = self.c_matrix[:, None]
        if self.c_matrix.ndim != 2:
            raise ValueError("C must be a 2-D matrix")
        p, d = self.c_matrix.shape
        if not 1 <= d <= p:
            raise ValueError(f"need p >= d >= 1, got shape {p}x{d}")
        if not np.all(np.isfinite(self.c_matrix)):
            raise ValueError("C has non-finite entries")

    @property
    def p(self) -> int:
        return self.c_matrix.shape[0]

    @property
    def d(self) -> int:
        return self.c_matrix.shape[1]


def _as_matrix(x) -> np.ndarray:
    return x.matrix if isinstance(x, StiefelPoint) else np.asarray(x, dtype=float)


def vmf_log_density_unnorm(x, c: VmfParam) -> float:
    """tr(C^T X).  The normalizing constant is intractable and left to callers."""
    xm = _as_matrix(x)
    if xm.shape != c.c_matrix.shape:
        raise ValueError(f"shape mismatch: X is {xm.shape}, C is {c.c_matrix.shape}")
    return float(np.sum(c.c_matrix * xm))


def vmf_mode(c: VmfParam) -> StiefelPoint:
    """The most likely frame, U V^T from the SVD of C."""
    return polar_project(c.c_matrix)


def vmf_sample_rejection(
    c: VmfParam, rng: np.random.Generator, max_attempts: int = 10_000
) -> tuple[StiefelPoint, int]:
    """Exact vMF(C) draw by rejection from the uniform distribution.

    A proposal X is accepted with probability exp{tr(C^T X) - sum(D)}, the
    tight bound for the uniform envelope.  Raises RuntimeError after
    max_attempts rejections.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    p, d = c.p, c.d
    log_envelope = float(thin_svd(c.c_matrix).singular_values.sum())
    for attempt in range(1, max_attempts + 1):
        x = sample_uniform_stiefel(p, d, rng)
        log_accept = float(np.sum(c.c_matrix * x.matrix)) - log_envelope
        # 1 - random() lies in (0, 1], so the log is finite.
        if math.log(1.0 - rng.random()) <= log_accept:
            return x, attempt
    raise RuntimeError(
        f"no acceptance in {max_attempts} uniform proposals; "
        "concentration too high for rejection sampling"
    )


def vmf_sample_vector(
    direction: np.ndarray, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    """Exact draw from the vector vMF density on the unit sphere in R^p.

    The validated form of _vmf_vector_draw: a uniform point when kappa is 0.
    """
    mu = np.asarray(direction, dtype=float)
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError("direction must be a vector in R^p with p >= 2")
    # Written so that NaN fails: a NaN direction would otherwise never pass
    # the tangent step's norm test in the draw.
    if not abs(np.linalg.norm(mu) - 1.0) <= 1e-10:
        raise ValueError("direction must have unit norm")
    if not 0 <= kappa < math.inf:
        raise ValueError("kappa must be nonnegative and finite")
    if kappa == 0.0:
        return _uniform_unit_vector(mu.size, rng)
    return _vmf_vector_draw(mu, kappa, rng)


def _vmf_vector_draw(
    mu: np.ndarray, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    """Vector vMF draw around the unit vector mu (p >= 2), unchecked apart
    from 0 < kappa < inf, without which a NaN kappa would never leave the
    rejection loop.

    The cosine t of the angle to mu has marginal density proportional to
    exp(kappa t) (1 - t^2)^((p-3)/2), sampled by Wood's (1994) beta-envelope
    rejection scheme; the tangent component is uniform.  Norms are
    sqrt(v @ v), the same bits as np.linalg.norm on a contiguous 1-D array.
    """
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    p = mu.size
    dim = p - 1
    b = dim / (math.sqrt(4.0 * kappa * kappa + dim * dim) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c0 = kappa * x0 + dim * math.log(1.0 - x0 * x0)
    while True:
        z = rng.beta(0.5 * dim, 0.5 * dim)
        t = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        if kappa * t + dim * math.log(1.0 - x0 * t) - c0 >= math.log(
            1.0 - rng.random()
        ):
            break

    while True:
        g = rng.standard_normal(p)
        tangent = g - (g @ mu) * mu
        norm = math.sqrt(tangent @ tangent)
        if norm > 1e-12:
            tangent /= norm
            break
    x = t * mu + math.sqrt(max(0.0, 1.0 - t * t)) * tangent
    return x / math.sqrt(x @ x)


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _complement_reflectors(x: np.ndarray, skip: tuple) -> list:
    """Householder reflectors (u, u^T u), H = I - 2 u u^T / (u^T u), of the QR
    factorisation of the columns of x not in skip; Q = H_1 H_2 ... has their
    complement as its trailing columns.  Each reduced column a is a unit
    vector, so u = a + sign(a_0) e_1 needs no norm: LAPACK's convention, so
    the complement basis is null_space_basis's up to rounding.
    """
    reflectors = []
    for j in range(x.shape[1]):
        if j not in skip:
            u = _to_complement(reflectors, x[:, j]).copy()
            u[0] += 1.0 if u[0] >= 0 else -1.0
            reflectors.append((u, u @ u))
    return reflectors


def _to_complement(reflectors: list, c: np.ndarray) -> np.ndarray:
    """Coordinates of c in the complement basis: Q^T c without its leading
    entries, one reflection at a time and out of place."""
    for u, uu in reflectors:
        c = (c - (2.0 * (u @ c) / uu) * u)[1:]
    return c


def _lift(reflectors: list, z: np.ndarray) -> np.ndarray:
    """The vector with complement coordinates z: Q [0; z]."""
    for u, uu in reversed(reflectors):
        w = np.empty(z.size + 1)
        w[0] = 0.0
        w[1:] = z
        z = w - (2.0 * (u @ w) / uu) * u
    return z


def _sample_orthogonal2(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw Q from the density prop. to exp{tr(M^T Q)} on O(2).

    Rotations [[c, -s], [s, c]] give tr(M^T Q) = (m11 + m22) c + (m21 - m12) s
    and reflections [[c, s], [s, -c]] give (m11 - m22) c + (m12 + m21) s.
    Each component has Haar mass 1/2, so its weight is I_0 of the norm of its
    coefficient vector, and the angle within it is a circular vMF draw.
    """
    # Imported here, not at module level: scipy.special adds ~0.3 s and ~25 MB
    # to start-up (2-vCPU x86 VM), and only square frames need it.
    from scipy import special

    rot = np.array([m[0, 0] + m[1, 1], m[1, 0] - m[0, 1]])
    ref = np.array([m[0, 0] - m[1, 1], m[0, 1] + m[1, 0]])
    r_rot, r_ref = math.sqrt(rot @ rot), math.sqrt(ref @ ref)
    # log I_0(r) = log i0e(r) + r keeps the weights finite at any concentration.
    log_odds = (math.log(special.i0e(r_rot)) + r_rot) - (
        math.log(special.i0e(r_ref)) + r_ref
    )
    is_rotation = 1.0 - rng.random() <= _sigmoid(log_odds)
    coef, kappa = (rot, r_rot) if is_rotation else (ref, r_ref)
    if kappa == 0.0:
        c, s = _uniform_unit_vector(2, rng)
    else:
        c, s = _vmf_vector_draw(coef / kappa, kappa, rng)
    if is_rotation:
        return np.array([[c, -s], [s, c]])
    return np.array([[c, s], [s, -c]])


def column_gibbs_pass(cm: np.ndarray, x: np.ndarray, rng: np.random.Generator) -> None:
    """One column-wise Gibbs pass targeting vMF(cm), updating the p x d frame
    x in place.

    Unchecked: x must be orthonormal with the shape of cm.  The Gibbs sweep
    calls this for every site and guards orthonormality once per sweep;
    vmf_sample_column_gibbs is the validated entry point.  Every vector draw
    goes through _vmf_vector_draw, whose one guard, 0 < kappa < inf, makes a
    non-finite cm or x raise ValueError instead of looping forever; p = d = 1,
    which draws no vector, checks its one entry itself.

    Each pass redraws every column from its exact full conditional.  With the
    other columns fixed, column k lives on the unit sphere of their orthogonal
    complement N, where the conditional is a vector vMF with parameter N^T c_k
    (uniform when that vector vanishes).  Started from a draw of vMF(C), one
    pass ends at a draw of vMF(C).

    Square frames (d = p >= 2) are updated two columns at a time instead: a
    single column's complement is one direction, so column moves could only
    flip signs.  Given the other p - 2 columns, a pair is N Q with Q in O(2)
    drawn exactly from its conditional exp{tr(M^T Q)}, M = N^T C_pair.  The
    pairs (k, k+1 mod p) overlap, so their planar moves reach all of O(p).
    For p = d = 1 the conditional is the two-point law on {+1, -1}.

    N is never formed: it is the trailing columns of the Q of the other
    columns' reflectors (none for d = 1 or p = d = 2, where N = I), so
    _to_complement gives N^T c and _lift gives N z.
    """
    p, d = x.shape
    if d == p == 1:
        # No vector draw here, and _sigmoid(nan) would pick -1: refuse it.
        if not math.isfinite(cm[0, 0]):
            raise ValueError("C has non-finite entries")
        plus = 1.0 - rng.random() <= _sigmoid(2.0 * cm[0, 0])
        x[0, 0] = 1.0 if plus else -1.0
    elif d == p:
        for k in range(1 if p == 2 else p):
            j = (k + 1) % p
            reflectors = _complement_reflectors(x, (k, j))
            m = np.column_stack(
                (_to_complement(reflectors, cm[:, k]), _to_complement(reflectors, cm[:, j]))
            )
            q = _sample_orthogonal2(m, rng)
            x[:, k] = _lift(reflectors, q[:, 0])
            x[:, j] = _lift(reflectors, q[:, 1])
    else:
        for k in range(d):
            reflectors = _complement_reflectors(x, (k,))
            m = _to_complement(reflectors, cm[:, k])
            kappa = math.sqrt(m @ m)
            if kappa == 0.0:
                z = _uniform_unit_vector(p - d + 1, rng)
            else:
                z = _vmf_vector_draw(m / kappa, kappa, rng)
            x[:, k] = _lift(reflectors, z)


def vmf_sample_column_gibbs(
    c: VmfParam, x_init: StiefelPoint, sweeps: int, rng: np.random.Generator
) -> StiefelPoint:
    """``sweeps`` passes of column_gibbs_pass targeting vMF(C), started from
    x_init, with the shapes checked on entry and the result validated."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if (x_init.p, x_init.d) != (c.p, c.d):
        raise ValueError(
            f"shape mismatch: init is {x_init.p}x{x_init.d}, C is {c.p}x{c.d}"
        )
    x = x_init.matrix.copy()
    for _ in range(sweeps):
        column_gibbs_pass(c.c_matrix, x, rng)
    return StiefelPoint(x)


def vmf_sample(c: VmfParam, rng: np.random.Generator) -> StiefelPoint:
    """Exact vMF(C) draw: vmf_sample_rejection's frame, with its default
    budget.  Nothing in the package calls it; it stays while
    perfbench/launch.py's LAYERS table names it."""
    return vmf_sample_rejection(c, rng)[0]
