"""Gibbs sampler for the nonlinear PCA model with per-point orthonormal frames.

Model: y_i = V_i x_i + eps_i with V_i on the Stiefel manifold, eps_i isotropic
Gaussian with variance sigma^2, latent prior x_i ~ N(0, a^2 I), an MRF prior
coupling the V_i through Gaussian-kernel weights on the latent positions, and
a conjugate Gamma(eta/2, rate eta tau^2 / 2) prior on the precision 1/sigma^2
(so its prior mean is 1/tau^2).

One sweep updates, in order: every V_i by one column-Gibbs pass (Hoff 2009)
started from the current V_i, a kernel that leaves its vMF full conditional
exactly invariant; every x_i from the paper's Gaussian conditional; the
interaction weights from the new latents (c and w stay fixed); and sigma^2
from its Gamma full conditional.

The x-step is the paper's approximation: it ignores that the weights
lambda_ij depend on x, so the chain does not exactly target
log_posterior_unnorm, which includes the MRF term.  Both choices are named
in the run output through FRAME_KERNEL and LATENT_UPDATE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mrf import InteractionWeights, compute_weights, conditional_param, \
    default_bandwidth, default_strength, mrf_log_density_unnorm
from .pca import Dataset, avg_variance, pca_fit, pilot_tau2
from .stiefel import ORTHONORMALITY_TOL, StiefelPoint, frames_orthonormal, polar_project
from .vmf import column_gibbs_pass

__all__ = [
    "HyperParams",
    "ModelState",
    "PosteriorSummary",
    "SweepStats",
    "default_hyperparams",
    "init_state",
    "update_transformation",
    "update_latent",
    "update_noise",
    "noise_prior_params",
    "noise_posterior_params",
    "sweep",
    "sweep_rng",
    "iterate_sweeps",
    "run",
    "reconstruct_nonlinear",
    "log_posterior_unnorm",
    "state_from_checkpoint",
]

# Keeps sampled noise variances away from exact zero on degenerate
# (noise-free) data; never binds on data with genuine residual noise.
SIGMA2_FLOOR = 1e-12

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
    d: int
    n_sweeps: int
    burn_in: int
    thin: int
    eta: float = 2.0

    def __post_init__(self):
        if not self.a2 > 0:
            raise ValueError("a2 must be positive (math.inf allowed)")
        if not self.tau2 > 0:
            raise ValueError("tau2 must be positive")
        if not 0 < self.c_strength < math.inf:
            raise ValueError("c_strength must be positive and finite")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be >= 1")
        if not 0 <= self.burn_in < self.n_sweeps:
            raise ValueError("need 0 <= burn_in < n_sweeps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(eq=False)
class ModelState:
    """Full Gibbs state: n stacked frames, n latents, noise variance, weights."""

    transformations: np.ndarray  # (n, p, d)
    latents: np.ndarray  # (n, d)
    sigma2: float
    weights: InteractionWeights

    def __post_init__(self):
        self.transformations = np.asarray(self.transformations, dtype=float)
        self.latents = np.asarray(self.latents, dtype=float)
        n, p, d = self.transformations.shape
        if self.latents.shape != (n, d):
            raise ValueError("latents do not match the transformations")
        if self.weights.n_sites != n:
            raise ValueError("weights do not match the number of sites")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")

    @property
    def n(self) -> int:
        return self.transformations.shape[0]

    @property
    def p(self) -> int:
        return self.transformations.shape[1]

    @property
    def d(self) -> int:
        return self.transformations.shape[2]

    def copy(self) -> "ModelState":
        return ModelState(
            transformations=self.transformations.copy(),
            latents=self.latents.copy(),
            sigma2=self.sigma2,
            weights=self.weights,
        )


@dataclass
class SweepStats:
    """Per-sweep trace row."""

    log_posterior: float
    sigma2: float


@dataclass(eq=False)
class PosteriorSummary:
    """Posterior sample averages and traces from one Gibbs run.

    Per-site mean frames are entrywise averages of the kept draws projected
    back to the Stiefel manifold; latents are plain averages.
    """

    mean_transformations: list[StiefelPoint]
    mean_latents: np.ndarray
    sigma2_trace: np.ndarray  # one entry per kept sweep
    log_posterior_trace: np.ndarray  # one entry per sweep
    n_kept: int
    total_draws: int  # frame draws made by this run: n per sweep
    final_state: ModelState


def default_hyperparams(
    data: Dataset,
    d: int,
    *,
    n_sweeps: int = 2000,
    burn_in: int = 1000,
    thin: int = 5,
    a2: float | str = "auto",
    c_strength: float | None = None,
    bandwidth: float | None = None,
    eta: float = 2.0,
) -> HyperParams:
    """Pilot-study defaults: tau^2 from the rank-d PCA residual, a^2 from the
    average sample variance, c = 100/n, w = mean pairwise distance of the
    PCA latents."""
    fit = pca_fit(data, d)
    tau2 = max(pilot_tau2(data, d), SIGMA2_FLOOR)
    if a2 == "auto":
        a2_value = avg_variance(data)
    elif a2 == "inf":
        a2_value = math.inf
    else:
        a2_value = float(a2)
    return HyperParams(
        a2=a2_value,
        tau2=tau2,
        c_strength=default_strength(data.n) if c_strength is None else c_strength,
        bandwidth=default_bandwidth(fit.latents) if bandwidth is None else bandwidth,
        d=d,
        n_sweeps=n_sweeps,
        burn_in=burn_in,
        thin=thin,
        eta=eta,
    )


def init_state(data: Dataset, hp: HyperParams) -> ModelState:
    """PCA initialization: every frame is the PCA loading, latents are the
    orthonormal projections V^T y_i, and sigma^2 starts at tau^2."""
    fit = pca_fit(data, hp.d)
    v = fit.loadings.matrix
    transformations = np.repeat(v[None, :, :], data.n, axis=0)
    latents = fit.latents.copy()
    weights = compute_weights(latents, hp.c_strength, hp.bandwidth)
    return ModelState(
        transformations=transformations,
        latents=latents,
        sigma2=hp.tau2,
        weights=weights,
    )


def update_transformation(
    i: int,
    state: ModelState,
    data: Dataset,
    rng: np.random.Generator,
) -> None:
    """Move V_i, in place in state.transformations, by one column-Gibbs pass
    started from the current V_i.

    The target is V_i's full conditional vMF(y_i x_i^T / sigma^2 +
    sum_{j != i} lambda_ij V_j).  Each column (each overlapping column pair
    when d = p) is redrawn exactly given the rest, so the pass leaves that
    conditional invariant without an SVD, a rejection loop or a fallback.
    Nothing is validated here: sweep checks every frame once per sweep.
    """
    c = np.outer(data.y[i], state.latents[i]) / state.sigma2
    c += conditional_param(i, state.transformations, state.weights)
    column_gibbs_pass(c, state.transformations[i], rng)


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

    shape = eta/2 and rate = eta tau^2 / 2, so the prior mean is 1/tau^2 and
    the conjugate update adds (np/2, residual/2).
    """
    return 0.5 * hp.eta, 0.5 * hp.eta * hp.tau2


def _total_sq_residual(state: ModelState, data: Dataset) -> float:
    recon = np.einsum("npd,nd->np", state.transformations, state.latents)
    diff = data.y - recon
    return float(np.sum(diff * diff))


def noise_posterior_params(
    state: ModelState, data: Dataset, hp: HyperParams
) -> tuple[float, float]:
    """Gamma (shape, rate) of the precision full conditional:
    ((eta + np)/2, (eta tau^2 + total squared residual)/2)."""
    shape0, rate0 = noise_prior_params(hp)
    n, p = data.y.shape
    return shape0 + 0.5 * n * p, rate0 + 0.5 * _total_sq_residual(state, data)


def update_noise(
    state: ModelState, data: Dataset, hp: HyperParams, rng: np.random.Generator
) -> float:
    """Draw the precision from its Gamma full conditional; return sigma^2."""
    shape, rate = noise_posterior_params(state, data, hp)
    precision = rng.gamma(shape, 1.0 / rate)
    return max(1.0 / precision, SIGMA2_FLOOR)


def log_posterior_unnorm(state: ModelState, data: Dataset, hp: HyperParams) -> float:
    """Unnormalized log posterior: Gaussian likelihood, MRF coupling term,
    latent prior (omitted when a^2 is infinite), and the Gamma prior on the
    precision."""
    n, p = data.y.shape
    sigma2 = state.sigma2
    value = -_total_sq_residual(state, data) / (2.0 * sigma2)
    value -= 0.5 * n * p * math.log(sigma2)
    value += mrf_log_density_unnorm(state.transformations, state.weights)
    if not math.isinf(hp.a2):
        value -= float(np.sum(state.latents * state.latents)) / (2.0 * hp.a2)
    shape0, rate0 = noise_prior_params(hp)
    precision = 1.0 / sigma2
    value += (shape0 - 1.0) * math.log(precision) - rate0 * precision
    return value


def sweep(
    state: ModelState, data: Dataset, hp: HyperParams, rng: np.random.Generator
) -> tuple[ModelState, SweepStats]:
    """One full Gibbs pass.  Frames are updated sequentially so each draw
    conditions on the freshest neighbors; weights are rebuilt from the new
    latents before the noise update."""
    st = state.copy()
    for i in range(st.n):
        update_transformation(i, st, data, rng)
    st.latents = update_latent(st, data, hp, rng)
    st.weights = compute_weights(st.latents, hp.c_strength, hp.bandwidth)
    st.sigma2 = update_noise(st, data, hp, rng)

    if not frames_orthonormal(st.transformations):
        raise ArithmeticError("orthonormality lost during sweep")

    stats = SweepStats(
        log_posterior=log_posterior_unnorm(st, data, hp),
        sigma2=st.sigma2,
    )
    return st, stats


def sweep_rng(seed: int, sweep_index: int) -> np.random.Generator:
    """Generator for one sweep, a pure function of (seed, sweep index).

    Keying every sweep's stream this way makes a run resumable from a
    checkpoint holding just the seed and the completed-sweep counter.
    """
    return np.random.default_rng([_SWEEP_STREAM_TAG, seed, sweep_index])


def _check_state(state: ModelState) -> None:
    if not frames_orthonormal(state.transformations):
        raise ValueError(f"frames are not orthonormal within {ORTHONORMALITY_TOL:g}")
    if not (np.all(np.isfinite(state.latents)) and math.isfinite(state.sigma2)):
        raise ValueError("latents and sigma2 must be finite")


def iterate_sweeps(
    data: Dataset,
    hp: HyperParams,
    seed: int,
    state: ModelState | None = None,
    start_sweep: int = 0,
):
    """Yield (sweep_index, state, stats) from start_sweep to n_sweeps - 1.
    sweep checks nothing on entry, so a state passed in must have frames
    orthonormal within ORTHONORMALITY_TOL and finite latents and sigma^2."""
    if state is not None:
        _check_state(state)
    st = init_state(data, hp) if state is None else state
    for t in range(start_sweep, hp.n_sweeps):
        st, stats = sweep(st, data, hp, sweep_rng(seed, t))
        yield t, st, stats


def run(
    data: Dataset,
    hp: HyperParams,
    seed: int,
    state: ModelState | None = None,
    start_sweep: int = 0,
    on_sweep=None,
) -> PosteriorSummary:
    """Run the Gibbs sampler and average the kept post-burn-in states.

    Sweeps t with t >= burn_in and (t - burn_in) % thin == 0 contribute to the
    running sums.  When resuming (start_sweep > 0) only sweeps from the
    resumed portion are averaged; the state trajectory itself is bit-identical
    to the unbroken run.  ``on_sweep(t, state, stats)`` is called after every
    sweep, e.g. to stream a trace file.
    """
    n, p, d = data.n, data.p, hp.d
    sum_v = np.zeros((n, p, d))
    sum_x = np.zeros((n, d))
    n_kept = 0
    sigma2_trace: list[float] = []
    log_post_trace: list[float] = []

    st = None
    for t, st, stats in iterate_sweeps(data, hp, seed, state, start_sweep):
        log_post_trace.append(stats.log_posterior)
        if t >= hp.burn_in and (t - hp.burn_in) % hp.thin == 0:
            sum_v += st.transformations
            sum_x += st.latents
            n_kept += 1
            sigma2_trace.append(st.sigma2)
        if on_sweep is not None:
            on_sweep(t, st, stats)
    if st is None or n_kept == 0:
        raise ValueError("no sweeps were kept; check n_sweeps/burn_in/start_sweep")

    mean_frames = [polar_project(sum_v[i] / n_kept) for i in range(n)]
    return PosteriorSummary(
        mean_transformations=mean_frames,
        mean_latents=sum_x / n_kept,
        sigma2_trace=np.asarray(sigma2_trace),
        log_posterior_trace=np.asarray(log_post_trace),
        n_kept=n_kept,
        total_draws=n * len(log_post_trace),
        final_state=st,
    )


def reconstruct_nonlinear(summary: PosteriorSummary) -> np.ndarray:
    """Reconstructions from the posterior means: row i is V_i x_i."""
    v = np.stack([f.matrix for f in summary.mean_transformations])
    return np.einsum("npd,nd->np", v, summary.mean_latents)


def state_from_checkpoint(
    transformations: np.ndarray,
    latents: np.ndarray,
    sigma2: float,
    hp: HyperParams,
) -> ModelState:
    """Rebuild a ModelState from checkpointed arrays, recomputing the
    interaction weights from the stored latents under the given c and w."""
    weights = compute_weights(latents, hp.c_strength, hp.bandwidth)
    return ModelState(
        transformations=np.asarray(transformations, dtype=float),
        latents=np.asarray(latents, dtype=float),
        sigma2=float(sigma2),
        weights=weights,
    )
