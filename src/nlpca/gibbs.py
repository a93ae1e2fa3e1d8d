"""Gibbs sampler for the nonlinear PCA model with per-point orthonormal frames.

Model: y_i = V_i x_i + eps_i with V_i on the Stiefel manifold, eps_i isotropic
Gaussian with variance sigma^2, latent prior x_i ~ N(0, a^2 I), an MRF prior
coupling the V_i through Gaussian-kernel weights on the latent positions, and
a conjugate Gamma(ETA/2, rate ETA tau^2 / 2) prior on the precision 1/sigma^2
(so its prior mean is 1/tau^2).

One sweep updates, in order: every V_i by one column-Gibbs pass (Hoff 2009)
started from the current V_i, a kernel that leaves its vMF full conditional
exactly invariant; every x_i from the paper's Gaussian conditional; the
interaction weights from the new latents (c and w stay fixed); and sigma^2
from its Gamma full conditional.  sweep returns the new state and its log
posterior; run is the one loop over sweeps, from the state it is given:
init_state(fit, hp) for a fresh chain, where fit is the rank-d PCA fit that
default_hyperparams also reads.  Per-sweep values reach the caller only
through run's on_sweep hook; the last sweep's state and log posterior are
also in run's PosteriorSummary.  run is the one place where a caller's state
is checked, once: ModelState is a plain record of the (n, p, d) frames, the
(n, d) latents, sigma^2 and the (n, n) weights that compute_weights returns.

The x-step is the paper's approximation: it ignores that the weights
lambda_ij depend on x, so the chain does not exactly target
log_posterior_unnorm, which includes the MRF term.  Both choices are named
in the run output through FRAME_KERNEL and LATENT_UPDATE.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .mrf import BANDWIDTH_FLOOR, compute_weights, default_bandwidth, mrf_log_density_unnorm
from .pca import Dataset, PcaFit, pilot_tau2
from .stiefel import ORTHONORMALITY_TOL, frames_orthonormal
from .vmf import column_gibbs_pass

__all__ = [
    "HyperParams",
    "ModelState",
    "PosteriorSummary",
    "default_hyperparams",
    "init_state",
    "update_transformation",
    "update_latent",
    "update_noise",
    "noise_prior_params",
    "sweep",
    "sweep_rng",
    "kept_sweeps",
    "run",
    "log_posterior_unnorm",
]

# Keeps the pilot tau^2 and sampled noise variances away from exact zero on
# degenerate (noise-free) data, relative to the data's scale where that
# exceeds 1; never binds on data with genuine residual noise.
SIGMA2_FLOOR = 1e-12

# Shape of the Gamma prior on the precision is ETA/2: an exponential prior.
ETA = 2.0

# Stream tag separating per-sweep generators from any other use of the seed.
_SWEEP_STREAM_TAG = 1_000_003

# Names of the frame and latent steps, reported in every run summary.
FRAME_KERNEL = "column_gibbs_1pass_from_current"
LATENT_UPDATE = "paper_gaussian_ignores_lambda_dependence_on_x"


@dataclass
class HyperParams:
    """Model constants and sampler schedule.  a2 may be math.inf for the
    improper uniform latent prior."""

    a2: float
    tau2: float
    c_strength: float
    bandwidth: float
    n_sweeps: int
    burn_in: int
    thin: int

    def __post_init__(self):
        if not self.a2 > 0:
            raise ValueError("a2 must be positive (math.inf allowed)")
        if not self.tau2 > 0:
            raise ValueError("tau2 must be positive")
        if not 0 < self.c_strength < math.inf:
            raise ValueError("c_strength must be positive and finite")
        if not BANDWIDTH_FLOOR <= self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be finite and >= {BANDWIDTH_FLOOR:g}")
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be >= 1")
        if not 0 <= self.burn_in < self.n_sweeps:
            raise ValueError("need 0 <= burn_in < n_sweeps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(eq=False)
class ModelState:
    """Full Gibbs state: n stacked frames, n latents, noise variance, and the
    (n, n) weights lambda that compute_weights built from the latents.
    A plain record of float arrays, unchecked: run checks a caller's state on entry."""

    transformations: np.ndarray  # (n, p, d)
    latents: np.ndarray  # (n, d)
    sigma2: float
    lam: np.ndarray  # (n, n)

    @property
    def n(self) -> int:
        return self.transformations.shape[0]

    @property
    def p(self) -> int:
        return self.transformations.shape[1]

    @property
    def d(self) -> int:
        return self.transformations.shape[2]


@dataclass(eq=False)
class PosteriorSummary:
    """Posterior averages of one Gibbs run, and its last sweep's state and log posterior.

    mean_reconstruction averages the kept draws' V_i x_i, so it is unchanged
    by (V_i R, R^T x_i) for one common rotation R, which the posterior cannot
    tell apart; mean_latents averages the x_i entrywise.
    """

    mean_reconstruction: np.ndarray  # (n, p)
    mean_latents: np.ndarray
    n_kept: int
    total_draws: int  # frame draws made by this run: n per sweep
    final_state: ModelState
    final_log_posterior: float


def default_hyperparams(
    data: Dataset,
    fit: PcaFit,
    *,
    n_sweeps: int = 2000,
    burn_in: int = 1000,
    thin: int = 5,
    a2: float | None = None,
    c_strength: float | None = None,
    bandwidth: float | None = None,
) -> HyperParams:
    """Pilot-study defaults from fit, the rank-d PCA fit of data, which needs
    n >= 2 rows: tau^2 from its residual and, where a2, c_strength or
    bandwidth is None, a^2 from the average sample variance (the per-column
    variance, n - 1 denominator, averaged over columns), c = 100/n, w = mean
    pairwise distance of its latents, raised to BANDWIDTH_FLOOR if tinier.
    tau^2 is at least SIGMA2_FLOOR * max(1, that variance).  The pilot a^2
    is at least the smallest normal double: data below ~1e-154 scale have a
    variance that underflows to a subnormal or to 0."""
    if data.n < 2:
        raise ValueError("need at least two rows for a sample variance")
    variance = float(data.y.var(axis=0, ddof=1).mean())
    tau2 = max(pilot_tau2(data, fit), SIGMA2_FLOOR * max(1.0, variance))
    if a2 is None:
        a2 = max(variance, sys.float_info.min)
    if bandwidth is None:
        bandwidth = max(default_bandwidth(fit.latents), BANDWIDTH_FLOOR)
    return HyperParams(
        a2=a2,
        tau2=tau2,
        c_strength=100.0 / data.n if c_strength is None else c_strength,
        bandwidth=bandwidth,
        n_sweeps=n_sweeps,
        burn_in=burn_in,
        thin=thin,
    )


def init_state(fit: PcaFit, hp: HyperParams) -> ModelState:
    """Start state at the PCA fit: every frame is the fit's loading, latents
    are a copy of its projections V^T y_i, and sigma^2 starts at tau^2."""
    latents = fit.latents.copy()
    return ModelState(
        transformations=np.repeat(fit.loadings[None], latents.shape[0], axis=0),
        latents=latents,
        sigma2=hp.tau2,
        lam=compute_weights(latents, hp.c_strength, hp.bandwidth),
    )


def update_transformation(
    i: int,
    state: ModelState,
    data_term: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Move V_i, in place in state.transformations, by one column-Gibbs pass
    started from the current V_i.

    The target is V_i's full conditional vMF(y_i x_i^T / sigma^2 +
    sum_{j != i} lambda_ij V_j).  Each column is redrawn exactly given the
    rest, so the pass leaves that conditional invariant without an SVD, a
    rejection loop or a fallback.
    Nothing is validated here: sweep checks every frame once per sweep.
    data_term is sweep's (n, p, d) stack of the y_i x_i^T / sigma^2: row i
    holds the same products and division as np.outer(y_i, x_i) / sigma^2.
    The neighbour sum is row i of Lambda times the frames viewed as an
    n x pd matrix, one BLAS product; the zero diagonal drops j = i.
    """
    v = state.transformations
    n, p, d = v.shape
    c = np.dot(state.lam[i:i + 1], v.reshape(n, p * d)).reshape(p, d)
    c += data_term[i]
    column_gibbs_pass(c, v[i], rng)


def update_latent(
    state: ModelState,
    data: Dataset,
    hp: HyperParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw all n latents at once, each x_i from
    N(a^2/(a^2+sigma^2) V_i^T y_i, a^2 sigma^2/(a^2+sigma^2) I); the improper
    a^2 = inf limit is N(V_i^T y_i, sigma^2 I).  Returns the (n, d) draws.

    Given the frames and sigma^2 the x_i are independent, so one batched
    draw takes the same normals from the stream, in the same order, as n
    per-site draws.
    This is the paper's x-step (LATENT_UPDATE): the Gaussian conditional of
    the likelihood and latent prior alone, ignoring how the MRF weights
    lambda_ij change with x_i.
    """
    proj = (state.transformations.transpose(0, 2, 1) @ data.y[:, :, None])[:, :, 0]
    if math.isinf(hp.a2):
        mean, var = proj, state.sigma2
    else:
        shrink = hp.a2 / (hp.a2 + state.sigma2)
        mean = shrink * proj
        var = shrink * state.sigma2
    return mean + math.sqrt(var) * rng.standard_normal((state.n, state.d))


def noise_prior_params(hp: HyperParams) -> tuple[float, float]:
    """Gamma (shape, rate) of the prior on the precision 1/sigma^2.

    shape = ETA/2 and rate = ETA tau^2 / 2, so the prior mean is 1/tau^2 and
    the conjugate update adds (np/2, residual/2).
    """
    return 0.5 * ETA, 0.5 * ETA * hp.tau2


def _total_sq_residual(state: ModelState, data: Dataset) -> float:
    recon = np.einsum("npd,nd->np", state.transformations, state.latents)
    diff = data.y - recon
    return float(np.sum(diff * diff))


def update_noise(
    data: Dataset, hp: HyperParams, sq_residual: float, rng: np.random.Generator
) -> float:
    """Draw the precision 1/sigma^2 from its Gamma full conditional, of shape
    (ETA + np)/2 and rate (ETA tau^2 + sq_residual)/2, where sq_residual is the
    total squared residual of the frames and latents, _total_sq_residual's.
    Returns sigma^2, at least SIGMA2_FLOOR * max(1, tau^2)."""
    shape0, rate0 = noise_prior_params(hp)
    n, p = data.y.shape
    precision = rng.gamma(shape0 + 0.5 * n * p, 1.0 / (rate0 + 0.5 * sq_residual))
    return max(1.0 / precision, SIGMA2_FLOOR * max(1.0, hp.tau2))


def log_posterior_unnorm(
    state: ModelState, data: Dataset, hp: HyperParams, sq_residual: float
) -> float:
    """Unnormalized log posterior: Gaussian likelihood, MRF coupling term,
    latent prior (omitted when a^2 is infinite), and the Gamma prior on the
    precision.  sq_residual is the total squared residual of state's frames
    and latents, _total_sq_residual(state, data), which sweep has already."""
    n, p = data.y.shape
    sigma2 = state.sigma2
    value = -sq_residual / (2.0 * sigma2)
    value -= 0.5 * n * p * math.log(sigma2)
    value += mrf_log_density_unnorm(state.transformations, state.lam)
    if not math.isinf(hp.a2):
        value -= float(np.sum(state.latents * state.latents)) / (2.0 * hp.a2)
    shape0, rate0 = noise_prior_params(hp)
    precision = 1.0 / sigma2
    value += (shape0 - 1.0) * math.log(precision) - rate0 * precision
    return value


def sweep(
    state: ModelState, data: Dataset, hp: HyperParams, rng: np.random.Generator
) -> tuple[ModelState, float]:
    """One full Gibbs pass over a state with d < p, which only run checks;
    returns the new state and its log posterior.  Frames are updated
    sequentially so each draw conditions on the freshest neighbors; weights
    are rebuilt from the new latents before the noise update.  The data part
    y_i x_i^T / sigma^2 of every frame conditional is built once, before the
    frame loop, because the latents and sigma^2 change only after it; and
    the total squared residual once, for both the noise draw and the log
    posterior, because sigma^2 does not enter it."""
    # The frames are redrawn in place, so only they are copied: the latents,
    # weights and sigma^2 are replaced, and the caller's state is left as it was.
    st = ModelState(state.transformations.copy(), state.latents, state.sigma2, state.lam)
    data_term = (data.y[:, :, None] * st.latents[:, None, :]) / st.sigma2
    for i in range(st.n):
        update_transformation(i, st, data_term, rng)
    st.latents = update_latent(st, data, hp, rng)
    st.lam = compute_weights(st.latents, hp.c_strength, hp.bandwidth)
    sq_residual = _total_sq_residual(st, data)
    st.sigma2 = update_noise(data, hp, sq_residual, rng)

    if not frames_orthonormal(st.transformations):
        raise ArithmeticError("orthonormality lost during sweep")
    return st, log_posterior_unnorm(st, data, hp, sq_residual)


def sweep_rng(seed: int, sweep_index: int) -> np.random.Generator:
    """Generator for one sweep, a pure function of (seed, sweep index).

    Keying every sweep's stream this way makes a run resumable from a
    checkpoint holding just the seed and the completed-sweep counter.
    """
    return np.random.default_rng([_SWEEP_STREAM_TAG, seed, sweep_index])


def kept_sweeps(hp: HyperParams, start_sweep: int) -> range:
    """The sweeps t in [start_sweep, n_sweeps) that the posterior averages
    keep: t >= burn_in and (t - burn_in) % thin == 0."""
    kept = range(hp.burn_in, hp.n_sweeps, hp.thin)
    return kept[max(0, math.ceil((start_sweep - hp.burn_in) / hp.thin)):]


def run(
    data: Dataset,
    hp: HyperParams,
    seed: int,
    state: ModelState,
    start_sweep: int = 0,
    on_sweep=None,
) -> PosteriorSummary:
    """Run the Gibbs sampler, the chain's only sweep loop, from state: a fresh
    chain's init_state(fit, hp), or a checkpoint's state after sweep
    start_sweep - 1.  Sweep t, from start_sweep to n_sweeps - 1, draws from
    sweep_rng(seed, t), so the trajectory is bit-identical to the unbroken
    run's.  The states of kept_sweeps(hp, start_sweep) are averaged: their
    latents, and their reconstructions V_i x_i.
    The one check of a caller's state: ValueError is raised before the first
    sweep unless state has d < p, frames orthonormal within
    ORTHONORMALITY_TOL, finite (n, d) latents, an (n, n) lambda and
    0 < sigma^2 < inf, and some sweep is kept.
    ``on_sweep(t, state, log_posterior)`` is called after every sweep, e.g.
    to stream a trace file; it is the only way out for per-sweep values.
    """
    if state.d >= state.p:
        raise ValueError(f"need d < p, got frames of shape {state.p}x{state.d}")
    if not frames_orthonormal(state.transformations):
        raise ValueError(f"frames are not orthonormal within {ORTHONORMALITY_TOL:g}")
    n, d = state.n, state.d
    if state.latents.shape != (n, d) or not np.all(np.isfinite(state.latents)):
        raise ValueError(f"latents must be a finite (n, d) = {(n, d)} array")
    if state.lam.shape != (n, n):
        raise ValueError(f"lambda must be an (n, n) = {(n, n)} array")
    if not 0 < state.sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {state.sigma2}")
    kept = kept_sweeps(hp, start_sweep)
    if not kept:
        raise ValueError("no sweeps were kept; check n_sweeps/burn_in/start_sweep")
    sum_recon = np.zeros((n, state.p))
    sum_x = np.zeros_like(state.latents)

    for t in range(start_sweep, hp.n_sweeps):
        state, log_post = sweep(state, data, hp, sweep_rng(seed, t))
        if t in kept:
            sum_recon += np.einsum("npd,nd->np", state.transformations, state.latents)
            sum_x += state.latents
        if on_sweep is not None:
            on_sweep(t, state, log_post)
    return PosteriorSummary(
        mean_reconstruction=sum_recon / len(kept),
        mean_latents=sum_x / len(kept),
        n_kept=len(kept),
        total_draws=data.n * (hp.n_sweeps - start_sweep),
        final_state=state,
        final_log_posterior=log_post,
    )

