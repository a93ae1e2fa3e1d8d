"""Matrix von Mises-Fisher distribution on the Stiefel manifold.

Density relative to the uniform measure: p(X | C) proportional to
exp{tr(C^T X)}.  The SVD C = U D V^T gives the mode U V^T; the singular
values D set the concentration.

The Gibbs sampler's frame step is column_gibbs_pass: one pass of
column-wise Gibbs (Hoff 2009) started from the chain's current frame, which
leaves vMF(C) exactly invariant for a p x d frame with d < p; its docstring
says which code each frame shape runs.  The pass updates a raw array in
place and checks nothing but the concentration of each vector draw;
vmf_sample_column_gibbs is its validated wrapper, as vmf_sample_vector is
for the vector draw.  That draw is Wood's (1994) scheme, in forms that keep
full precision at any finite concentration.  A draw on the circle takes
NumPy's von Mises angle inside its exact band (_VONMISES_BAND, see
_circle_draw) and the same Wood step outside it.
vmf_sample_rejection, uniform-proposal rejection with the tight envelope
exp{sum(D)}, is the exact reference the tests check the kernel against.

Only column_gibbs_pass is exported.  VmfParam, vmf_mode,
vmf_sample_rejection, vmf_sample_vector, vmf_sample_column_gibbs and
vmf_sample are test oracles that no command runs; they stay defined here,
outside __all__, until they move into the tests.
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

__all__ = ["column_gibbs_pass"]

_LOG2 = math.log(2.0)
# The kappa range where Generator.vonmises is Best and Fisher's exact
# sampler; tests/test_vmf.py pins both edges against the installed NumPy.
_VONMISES_BAND = (1e-8, 1e6)
# Largest concentration the frame step takes: column_gibbs_pass takes each
# kappa as a norm sqrt(m @ m), and the square overflows above ~1.3e154.
KAPPA_MAX = 1e154


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

    For _VONMISES_BAND[0] <= kappa <= _VONMISES_BAND[1] the draw is
    (cos theta, sin theta) for theta = rng.vonmises(atan2(mu1, mu0), kappa),
    NumPy's C implementation of Best and Fisher's (1979) exact rejection
    sampler.  It returns theta = mean +- acos(W), so an absolute rounding
    error in W becomes one of ~eps / |sin theta| in the draw (~1e-13 at
    kappa = 1e6, where theta ~ 1e-3): exact in law, but not to full
    precision near the mode.  Outside the band NumPy takes shortcuts that
    are not exact (a uniform angle below it, a wrapped normal above it), so
    there, and for every kappa the band refuses (0, inf, NaN, which
    _wood_cosine's guard turns into ValueError), the draw is
    _vmf_vector_draw's general Wood step on the 2-vector.
    """
    if _VONMISES_BAND[0] <= kappa <= _VONMISES_BAND[1]:
        theta = rng.vonmises(math.atan2(mu1, mu0), kappa)
        return math.cos(theta), math.sin(theta)
    return tuple(_vmf_vector_draw(np.array((mu0, mu1)), kappa, rng).tolist())


def _vmf_vector_draw(
    mu: np.ndarray, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    """Vector vMF draw around the unit vector mu (p >= 2), unchecked apart
    from _wood_cosine's guard 0 < kappa < inf.

    The draw is t mu + sqrt(1 - t^2) u, with (t, sqrt(1 - t^2)) from
    _wood_cosine and u a uniform unit tangent at mu, renormalised.  u is
    g - (g . mu) mu normalised, for a standard normal g redrawn while that
    norm is at most 1e-12; norms are sqrt(v @ v), the same bits as
    np.linalg.norm on a contiguous 1-D array.  On the circle (p = 2) a kappa
    inside _VONMISES_BAND takes _circle_draw's von Mises angle; every other
    draw, on the circle too, is this step.

    Wood's draw keeps its precision up to kappa ~ 1e300 at least, but the
    frame step's kappa is inf above ~1.3e154 (KAPPA_MAX), and the guard
    raises instead.
    """
    p = mu.size
    if p == 2 and _VONMISES_BAND[0] <= kappa <= _VONMISES_BAND[1]:
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


def _column_pass_px2(cm: np.ndarray, x: np.ndarray, rng: np.random.Generator) -> None:
    """column_gibbs_pass on a p x 2 frame with p > 3, on a few products.

    _column_pass_3x2's algebra with (p-1)-vectors, ' dropping the leading
    entry: the other column o gives u = o + sign(o_0) e_1, the complement
    parameter m = c_k' - f o' with f = 2 (u . c_k) / (u . u), and the lift
    H [0; z] = [-h u_0; z - h o'] with h = 2 (o' . z) / (u . u).  The vector
    draw is _vmf_vector_draw's: the tangent g - (g . m / m . m) m of the
    normal g, and z = a m + b tangent with a = t / (kappa r) and
    b = sine / (norm r), r^2 being its squared norm from the Gram entries.
    So the new column's tail is one product (a, -h, b) @ [m; o'; tangent].
    Same variates, retry test and kappa = 0 branch as the reflector helpers,
    and the same frame to rounding.

    m and the tangent are formed as vectors because their norms from Gram
    entries cancel.  The expansion m . m = c'.c' - 2f c'.o' + f^2 o'.o'
    leaves rounding noise of ~1e-16 |c|^2 when c_k lies along o: for
    c_k = 1e12 o it gives kappa ~ 1e4, a concentrated draw, where m itself
    gives kappa < 1e-3, a near-uniform one.  And g . g - (g . m)^2 / m . m
    loses twice the digits of the formed tangent when g lies near m: at
    p = 4 it left 7e-5 of passes more than 1e-12 from orthonormal.
    """
    p = x.shape[0]
    s = np.empty((3, p - 1))
    m, o, g = s
    mo = s[:2]
    heads = x[0].tolist()
    for k, c0 in enumerate(cm[0].tolist()):
        o0 = heads[1 - k]
        o[:] = x[1:, 1 - k]
        m[:] = cm[1:, k]
        oc, oo = mo.dot(o).tolist()
        u0 = o0 + (1.0 if o0 >= 0 else -1.0)
        uu = u0 * u0 + oo
        m -= (2.0 * (u0 * c0 + oc) / uu) * o
        mm, om = mo.dot(m).tolist()
        kappa = math.sqrt(mm)
        if kappa == 0.0:
            g[:] = _uniform_unit_vector(p - 1, rng)
            a, b, ot = 0.0, 1.0, float(o.dot(g))
        else:
            t, sine = _wood_cosine(kappa, p - 2, rng)
            while True:
                rng.standard_normal(out=g)
                g -= (m.dot(g) / mm) * m
                mt, ot, tt = s.dot(g).tolist()
                norm = math.sqrt(tt)
                if norm > 1e-12:
                    break
            a, b = t / kappa, sine / norm
            r = math.sqrt(a * a * mm + 2.0 * a * b * mt + b * b * tt)
            a, b = a / r, b / r
        h = 2.0 * (a * om + b * ot) / uu
        x[1:, k] = np.dot((a, -h, b), s)
        x[0, k] = heads[k] = -h * u0


def column_gibbs_pass(cm: np.ndarray, x: np.ndarray, rng: np.random.Generator) -> None:
    """One column-wise Gibbs pass targeting vMF(cm), updating the p x d frame
    x in place.

    Unchecked: x must be orthonormal with the shape of cm, and d < p.  The
    Gibbs sweep calls this for every site and guards orthonormality once per
    sweep; vmf_sample_column_gibbs is the validated entry point.  Every
    vector draw starts with _wood_cosine, whose one guard, 0 < kappa < inf,
    makes a non-finite cm or x raise ValueError instead of looping forever.

    Each pass redraws every column from its exact full conditional.  With the
    other columns fixed, column k lives on the unit sphere of their orthogonal
    complement N, where the conditional is a vector vMF with parameter N^T c_k
    (uniform when that vector vanishes).  Started from a draw of vMF(C), one
    pass ends at a draw of vMF(C).

    N is never formed: it is the trailing columns of the Q of the other
    columns' reflectors (none for d = 1, where N = I), so _to_complement
    gives N^T c and _lift gives N z; d = 1 and d >= 3 take these helpers and
    _vmf_vector_draw, which meets the circle at d = p - 1.  With d = 2, the
    chain commands' default, each column has one reflector, and the step is
    written out for it, with the same variates and the same frame to
    rounding: in Python floats for the 3 x 2 frames of the paper's sphere,
    whose complement is a circle (_column_pass_3x2), and on a few products
    of (p-1)-vectors for p > 3, the digits and any CSV fit at d = 2
    (_column_pass_px2, whose docstring says why some products are formed as
    vectors).  Every draw is exact in law.  A circle draw (the 3 x 2 frames,
    and d = p - 1) is NumPy's von Mises angle inside _VONMISES_BAND and
    _vmf_vector_draw's Wood step outside it; _circle_draw's docstring gives
    its precision.
    """
    p, d = x.shape
    if d == 2:
        if p == 3:
            _column_pass_3x2(cm, x, rng)
        else:
            _column_pass_px2(cm, x, rng)
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
    x_init, with the shapes checked on entry (d < p) and the result
    validated."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if c.d >= c.p:
        raise ValueError(f"need d < p for a frame draw, got C of shape {c.p}x{c.d}")
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
