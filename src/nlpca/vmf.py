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
for the vector draw.  That draw is Wood's (1994) scheme, in forms that keep
full precision at any finite concentration; on the circle (the complement
of every d = p - 1 frame, and every pair draw of a square frame) its
uniform tangent is a sign, and _circle_draw draws it in Python floats.  The
3 x 2 frame of the paper's sphere runs its whole column step in Python
floats, _column_pass_3x2: one reflector, the circle draw and the lift, with
no NumPy call but the variate draws and the store of each column.
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

_LOG2 = math.log(2.0)


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
    log_envelope = float(thin_svd(c.c_matrix)[1].sum())
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


def _wood_cosine(
    kappa: float, dim: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Cosine t and sine sqrt(1 - t^2) of the angle between a vector vMF draw
    on the unit sphere in R^(dim+1) and its mean direction.

    t has density proportional to exp(kappa t) (1 - t^2)^((dim-2)/2), sampled
    by Wood's (1994) beta-envelope rejection scheme: for z ~ Beta(dim/2,
    dim/2), the proposal t = (1 - (1 + b) z) / w with w = 1 - (1 - b) z is
    accepted when kappa (t - x0) + dim log((1 - x0 t) / (1 - x0^2)) >= log U,
    where b = dim / (sqrt(4 kappa^2 + dim^2) + 2 kappa) and
    x0 = (1 - b) / (1 + b).

    b falls below machine epsilon for kappa >~ 1e16, where x0 rounds to 1
    and the textbook log(1 - x0^2) fails; and 1 - t^2 cancels at both ends
    of the range of t.  So every quantity is an exact rearrangement in terms
    of b, z and u = 1 - z (which rounds harmlessly, and not at all when
    z >= 1/2):
        w = u + b z,
        kappa (t - x0) = 2 kappa b (1 - 2z) / ((1 + b) w),
        log(1 - x0 t) - log(1 - x0^2) = log1p(b) - log 2 - log w,
        t = (u - b z) / w,   sqrt(1 - t^2) = 2 sqrt(b z u) / w,
    the last from 1 - t = 2 b z / w and 1 + t = 2 u / w.  These forms take
    the same variates as the textbook ones and agree with them to rounding,
    except where the textbook forms lose digits.

    Raises ValueError unless 0 < kappa < inf, before drawing anything: a NaN
    kappa would never leave the rejection loop.
    """
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    half = 0.5 * dim
    b = dim / (math.hypot(2.0 * kappa, dim) + 2.0 * kappa)
    scale = 2.0 * (kappa * b) / (1.0 + b)
    log_level = math.log1p(b) - _LOG2
    while True:
        z = rng.beta(half, half)
        u = 1.0 - z
        bz = b * z
        w = u + bz
        if scale * (1.0 - 2.0 * z) / w + dim * (log_level - math.log(w)) >= math.log(
            1.0 - rng.random()
        ):
            return (u - bz) / w, 2.0 * math.sqrt(bz * u) / w


def _circle_draw(
    mu0: float, mu1: float, kappa: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Vector vMF draw on the unit circle around the unit vector (mu0, mu1),
    in Python floats.

    The draw is t mu + sine u, with (t, sine) from _wood_cosine and u the
    uniform unit tangent at mu, renormalised.  On the circle the tangent
    g - (g . mu) mu of a standard normal pair g is (g . mu_perp) mu_perp with
    mu_perp = (-mu1, mu0), so u is sign(g . mu_perp) mu_perp, with g redrawn
    while |g . mu_perp| is at most 1e-12: the variates and retry condition of
    the general tangent step.
    """
    t, sine = _wood_cosine(kappa, 1, rng)
    while True:
        g0, g1 = rng.standard_normal(2).tolist()
        along = mu0 * g1 - mu1 * g0
        if abs(along) > 1e-12:
            break
    sine = math.copysign(sine, along)
    v0, v1 = t * mu0 - sine * mu1, t * mu1 + sine * mu0
    norm = math.sqrt(v0 * v0 + v1 * v1)
    return v0 / norm, v1 / norm


def _vmf_vector_draw(
    mu: np.ndarray, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    """Vector vMF draw around the unit vector mu (p >= 2), unchecked apart
    from _wood_cosine's guard 0 < kappa < inf.

    The draw is t mu + sqrt(1 - t^2) u, with (t, sqrt(1 - t^2)) from
    _wood_cosine and u a uniform unit tangent at mu, renormalised.  u is
    g - (g . mu) mu normalised, for a standard normal g redrawn while that
    norm is at most 1e-12; norms are sqrt(v @ v), the same bits as
    np.linalg.norm on a contiguous 1-D array.  On the circle (p = 2) the
    draw is _circle_draw's.

    The draw keeps its precision up to kappa ~ 1e300 at least, but
    column_gibbs_pass takes kappa as the norm of its complement coordinates,
    sqrt(m @ m) or its scalar form, whose square overflows above
    kappa ~ 1.3e154; there the kappa is inf and the guard raises instead.
    """
    p = mu.size
    if p == 2:
        return np.array(_circle_draw(*mu.tolist(), kappa, rng))
    t, sine = _wood_cosine(kappa, p - 1, rng)
    while True:
        g = rng.standard_normal(p)
        tangent = g - (g @ mu) * mu
        norm = math.sqrt(tangent @ tangent)
        if norm > 1e-12:
            tangent /= norm
            break
    x = t * mu + sine * tangent
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


def _column_pass_3x2(cm: np.ndarray, x: np.ndarray, rng: np.random.Generator) -> None:
    """column_gibbs_pass on a 3 x 2 frame, in Python floats.

    The general path written out for one reflector: the other column o gives
    u = o + sign(o_0) e_1, m = (H c_k)[1:] and the lift H [0; z], with the
    same variates, retry conditions and kappa = 0 branch, so the frame agrees
    with it to rounding.  The sphere's frames have this shape, where NumPy's
    per-call cost on 3-vectors, not arithmetic, would set the pace.
    """
    cols = x.T.tolist()
    for k, (c0, c1, c2) in enumerate(cm.T.tolist()):
        o0, o1, o2 = cols[1 - k]
        u0 = o0 + (1.0 if o0 >= 0 else -1.0)
        uu = u0 * u0 + o1 * o1 + o2 * o2
        f = 2.0 * (u0 * c0 + o1 * c1 + o2 * c2) / uu
        m0, m1 = c1 - f * o1, c2 - f * o2
        kappa = math.sqrt(m0 * m0 + m1 * m1)
        if kappa == 0.0:
            z0, z1 = _uniform_unit_vector(2, rng).tolist()
        else:
            z0, z1 = _circle_draw(m0 / kappa, m1 / kappa, kappa, rng)
        f = 2.0 * (o1 * z0 + o2 * z1) / uu
        cols[k] = [-f * u0, z0 - f * o1, z1 - f * o2]
        x[:, k] = cols[k]


def column_gibbs_pass(cm: np.ndarray, x: np.ndarray, rng: np.random.Generator) -> None:
    """One column-wise Gibbs pass targeting vMF(cm), updating the p x d frame
    x in place.

    Unchecked: x must be orthonormal with the shape of cm.  The Gibbs sweep
    calls this for every site and guards orthonormality once per sweep;
    vmf_sample_column_gibbs is the validated entry point.  Every vector draw
    starts with _wood_cosine, whose one guard, 0 < kappa < inf, makes a
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
    _to_complement gives N^T c and _lift gives N z.  A 3 x 2 frame (the
    sphere's) has one reflector per column and a circle as complement, and
    _column_pass_3x2 runs that case in Python floats, with the same
    variates and the same frame to rounding; every other shape takes the
    reflector helpers and _vmf_vector_draw.
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
    elif p == 3 and d == 2:
        _column_pass_3x2(cm, x, rng)
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
