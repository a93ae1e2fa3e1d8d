"""Matrix von Mises-Fisher distribution on the Stiefel manifold.

Density relative to the uniform measure: p(X | C) proportional to
exp{tr(C^T X)}.  The SVD C = U D V^T gives the mode U V^T; the singular
values D set the concentration.

The Gibbs sampler's frame step is column_gibbs_pass: one pass of
column-wise Gibbs (Hoff 2009) started from the chain's current frame, which
leaves vMF(C) exactly invariant.  It updates a raw array in place and
checks nothing; vmf_sample_column_gibbs is its validated wrapper.
vmf_sample (uniform-proposal rejection with the tight envelope exp{sum(D)},
falling back to column-wise Gibbs from the mode) and vmf_sample_rejection
serve the vmf-diag command and act as exact references in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .stiefel import (
    StiefelPoint,
    _uniform_unit_vector,
    null_space_basis,
    polar_project,
    sample_uniform_stiefel,
    thin_svd,
)

__all__ = [
    "VmfParam",
    "SamplerPolicy",
    "SampleInfo",
    "RejectionBudgetError",
    "vmf_log_density_unnorm",
    "vmf_mode",
    "vmf_sample_rejection",
    "vmf_sample_vector",
    "column_gibbs_pass",
    "vmf_sample_column_gibbs",
    "vmf_sample",
]

# Rejection is skipped when sum(D) exceeds log(max_attempts) by this much.
# The per-attempt acceptance probability is at least exp(-sum(D)), and in low
# manifold dimensions can be far higher, so a small slack trades a few exact
# draws for not burning the whole budget in the strongly concentrated regime.
_REJECTION_SKIP_SLACK = 4.0


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


@dataclass
class SamplerPolicy:
    """Controls for the rejection sampler and its column-Gibbs fallback."""

    max_attempts: int = 10_000
    fallback_sweeps: int = 10
    # Skip rejection outright when acceptance within the budget is hopeless.
    skip_hopeless: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.fallback_sweeps < 1:
            raise ValueError("fallback_sweeps must be >= 1")


@dataclass
class SampleInfo:
    """Diagnostics for one matrix-vMF draw."""

    method: str  # "rejection" or "column_gibbs"
    attempts: int  # uniform proposals consumed by the rejection stage
    fallback: bool


class RejectionBudgetError(RuntimeError):
    """Raised when the uniform-proposal rejection sampler exhausts its budget."""

    def __init__(self, attempts: int):
        super().__init__(
            f"no acceptance in {attempts} uniform proposals; "
            "concentration too high for rejection sampling"
        )
        self.attempts = attempts


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
    tight bound for the uniform envelope.  Raises RejectionBudgetError after
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
    raise RejectionBudgetError(max_attempts)


def vmf_sample_vector(
    direction: np.ndarray, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    """Exact draw from the vector vMF density on the unit sphere in R^p.

    The cosine t of the angle to ``direction`` has marginal density
    proportional to exp(kappa t) (1 - t^2)^((p-3)/2), sampled by the standard
    beta-envelope rejection scheme; the tangent component is uniform.
    """
    mu = np.asarray(direction, dtype=float)
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError("direction must be a vector in R^p with p >= 2")
    # Written so that NaN fails: a NaN direction or kappa would otherwise
    # never pass the rejection test below.
    if not abs(np.linalg.norm(mu) - 1.0) <= 1e-10:
        raise ValueError("direction must have unit norm")
    if not 0 <= kappa < math.inf:
        raise ValueError("kappa must be nonnegative and finite")
    p = mu.size
    if kappa == 0.0:
        return _uniform_unit_vector(p, rng)

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
        norm = np.linalg.norm(tangent)
        if norm > 1e-12:
            tangent /= norm
            break
    x = t * mu + math.sqrt(max(0.0, 1.0 - t * t)) * tangent
    return x / np.linalg.norm(x)


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _householder_u(v: np.ndarray) -> np.ndarray:
    """Reflector u such that H = I - 2 u u^T / (u^T u) maps e_1 to +/- v.

    Columns 2..p of H are then an orthonormal basis of the complement of v.
    The sign is chosen to avoid cancellation in u[0].
    """
    u = v.copy()
    u[0] += 1.0 if v[0] >= 0 else -1.0
    return u


def _householder_apply(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x - (2.0 * (u @ x) / (u @ u)) * u


def _sample_orthogonal2(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw Q from the density prop. to exp{tr(M^T Q)} on O(2).

    Rotations [[c, -s], [s, c]] give tr(M^T Q) = (m11 + m22) c + (m21 - m12) s
    and reflections [[c, s], [s, -c]] give (m11 - m22) c + (m12 + m21) s.
    Each component has Haar mass 1/2, so its weight is I_0 of the norm of its
    coefficient vector, and the angle within it is a circular vMF draw.
    """
    rot = np.array([m[0, 0] + m[1, 1], m[1, 0] - m[0, 1]])
    ref = np.array([m[0, 0] - m[1, 1], m[0, 1] + m[1, 0]])
    r_rot, r_ref = float(np.linalg.norm(rot)), float(np.linalg.norm(ref))
    # log I_0(r) = log i0e(r) + r keeps the weights finite at any concentration.
    log_odds = (math.log(special.i0e(r_rot)) + r_rot) - (
        math.log(special.i0e(r_ref)) + r_ref
    )
    is_rotation = 1.0 - rng.random() <= _sigmoid(log_odds)
    coef, kappa = (rot, r_rot) if is_rotation else (ref, r_ref)
    if kappa == 0.0:
        c, s = _uniform_unit_vector(2, rng)
    else:
        c, s = vmf_sample_vector(coef / kappa, kappa, rng)
    if is_rotation:
        return np.array([[c, -s], [s, c]])
    return np.array([[c, s], [s, -c]])


def column_gibbs_pass(cm: np.ndarray, x: np.ndarray, rng: np.random.Generator) -> None:
    """One column-wise Gibbs pass targeting vMF(cm), updating the p x d frame
    x in place.

    Unchecked: x must be orthonormal with the shape of cm.  The Gibbs sweep
    calls this for every site and guards orthonormality once per sweep;
    vmf_sample_column_gibbs is the validated entry point.

    Each pass redraws every column from its exact full conditional: with the
    other columns fixed, column k lives on the unit sphere of their orthogonal
    complement, where the conditional is a vector vMF with parameter N^T c_k
    (uniform when that vector vanishes).  Started from a draw of vMF(C), one
    pass ends at a draw of vMF(C).

    Square frames (d = p >= 2) are updated two columns at a time instead: a
    single column's complement is one direction n, so column moves could only
    flip signs.  Given the other p - 2 columns, a pair is N Q with N a basis
    of their 2-D complement and Q in O(2) drawn exactly from its conditional
    exp{tr(M^T Q)}, M = N^T C_pair.  The pairs (k, k+1 mod p) overlap, so
    their planar moves reach all of O(p).  For p = d = 1 the conditional is
    the two-point law on {+1, -1}.
    """
    p, d = x.shape
    if d == p:
        if p == 1:
            plus = 1.0 - rng.random() <= _sigmoid(2.0 * cm[0, 0])
            x[0, 0] = 1.0 if plus else -1.0
            return
        pairs = [(0, 1)] if p == 2 else [(k, (k + 1) % p) for k in range(p)]
        for pair in pairs:
            basis = null_space_basis(np.delete(x, pair, axis=1))
            q = _sample_orthogonal2(basis.T @ cm[:, pair], rng)
            x[:, pair] = basis @ q
        return

    for k in range(d):
        ck = cm[:, k]
        if d == 1:
            # Complement is all of R^p: a single exact vMF vector draw.
            kappa = float(np.linalg.norm(ck))
            if kappa == 0.0:
                x[:, 0] = _uniform_unit_vector(p, rng)
            else:
                x[:, 0] = vmf_sample_vector(ck / kappa, kappa, rng)
        elif d == 2:
            # Complement of one unit column, applied implicitly through a
            # Householder reflection: O(p) instead of a full QR.
            u = _householder_u(x[:, 1 - k])
            m = _householder_apply(u, ck)[1:]
            kappa = float(np.linalg.norm(m))
            if kappa == 0.0:
                z = _uniform_unit_vector(p - 1, rng)
            else:
                z = vmf_sample_vector(m / kappa, kappa, rng)
            lifted = np.empty(p)
            lifted[0] = 0.0
            lifted[1:] = z
            x[:, k] = _householder_apply(u, lifted)
        else:
            others = np.delete(x, k, axis=1)
            basis = null_space_basis(others)
            m = basis.T @ ck
            kappa = float(np.linalg.norm(m))
            if kappa == 0.0:
                z = _uniform_unit_vector(p - d + 1, rng)
            else:
                z = vmf_sample_vector(m / kappa, kappa, rng)
            x[:, k] = basis @ z


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


def vmf_sample(
    c: VmfParam, rng: np.random.Generator, policy: SamplerPolicy | None = None
) -> tuple[StiefelPoint, SampleInfo]:
    """Draw from vMF(C): rejection first, column-Gibbs from the mode on failure."""
    if policy is None:
        policy = SamplerPolicy()
    attempts = 0
    log_envelope = float(thin_svd(c.c_matrix).singular_values.sum())
    hopeless = (
        policy.skip_hopeless
        and log_envelope > math.log(policy.max_attempts) + _REJECTION_SKIP_SLACK
    )
    if not hopeless:
        try:
            x, attempts = vmf_sample_rejection(c, rng, policy.max_attempts)
            return x, SampleInfo(method="rejection", attempts=attempts, fallback=False)
        except RejectionBudgetError as err:
            attempts = err.attempts
    x = vmf_sample_column_gibbs(c, vmf_mode(c), policy.fallback_sweeps, rng)
    return x, SampleInfo(method="column_gibbs", attempts=attempts, fallback=True)
