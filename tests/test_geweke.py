"""Whole-sweep Geweke (2004) test of the Gibbs sampler at n = 2, p = 3, d = 1.

Every kernel test checks one step with the rest of the state fixed; this one
checks what the composed sweep samples.  At n = 2 the frames are two unit
vectors in R^3, and for uniform v_1, v_2 the MRF normaliser is closed form:
E exp(lambda v_1 . v_2) = sinh(lambda) / lambda.  So the normalised model
p(x) p(V | x), with x ~ N(0, a^2 I), p(V | x) = exp(lambda(x) v_1 . v_2) /
Z(lambda(x)) and lambda(x) = c exp(-(x_1 - x_2)^2 / (2 w^2)), has exact
independent draws: v_1 uniform, v_2 ~ vMF(v_1, lambda(x)), and the precision
1/sigma^2 from its Gamma prior.  The successive-conditional chain draws
y_i ~ N(v_i x_i, sigma^2 I) given the state and then runs one sweep; if every
step of the sweep leaves the joint of (theta, y) invariant, its states are
draws from the same prior.  Each test function's means on the two sides are
compared by z = (chain - prior) / se, the chain's standard error by batch
means.  The test functions read only the state, so the independent side
draws no y.

The frame step is exact under this model: Z(lambda(x)) does not depend on
V.  The x-step (gibbs.LATENT_UPDATE) ignores how lambda depends on x, which
costs little at weak coupling and, at strong coupling, keeps the marginals
but loses the tie between frame alignment and latent distance.
"""

import math
from types import SimpleNamespace

import numpy as np

from nlpca.gibbs import ETA, HyperParams, ModelState, sweep
from nlpca.mrf import compute_weights
from nlpca.stiefel import _uniform_unit_vector
from nlpca.vmf import vmf_sample_vector

A2, TAU2, W = 1.0, 0.3, 1.0
DRAWS = 10_000
BATCHES = 50
NAMES = ("v1.v2", "(x1-x2)^2", "v1.v2 (x1-x2)^2", "x1^2", "log sigma2")


def hyperparams(c):
    return HyperParams(a2=A2, tau2=TAU2, c_strength=c, bandwidth=W,
                       n_sweeps=1, burn_in=0, thin=1)


def statistics(frames, latents, sigma2):
    v1, v2 = frames[:, :, 0]
    x1, x2 = latents[:, 0]
    align, gap = float(v1 @ v2), (x1 - x2) ** 2
    return align, gap, align * gap, x1 * x1, math.log(sigma2)


def prior_draw(hp, rng):
    """(frames, latents, sigma2) from the normalised model's prior."""
    latents = math.sqrt(hp.a2) * rng.standard_normal((2, 1))
    lam = hp.c_strength * math.exp(-(latents[0, 0] - latents[1, 0]) ** 2
                                   / (2.0 * hp.bandwidth**2))
    v1 = _uniform_unit_vector(3, rng)
    v2 = vmf_sample_vector(v1, lam, rng)
    precision = rng.gamma(0.5 * ETA, 1.0 / (0.5 * ETA * hp.tau2))
    return np.stack([v1, v2])[:, :, None], latents, 1.0 / precision


def prior_side(hp, rng):
    return np.array([statistics(*prior_draw(hp, rng)) for _ in range(DRAWS)])


def chain_side(hp, rng):
    """Successive-conditional draws: y given the state, then one sweep."""
    frames, latents, sigma2 = prior_draw(hp, rng)
    state = ModelState(frames, latents, sigma2,
                       compute_weights(latents, hp.c_strength, hp.bandwidth))
    values = np.empty((DRAWS, len(NAMES)))
    for k in range(DRAWS):
        recon = state.transformations[:, :, 0] * state.latents
        data = SimpleNamespace(y=recon + math.sqrt(state.sigma2) * rng.standard_normal((2, 3)))
        state, _ = sweep(state, data, hp, rng)
        values[k] = statistics(state.transformations, state.latents, state.sigma2)
    return values


def z_scores(c, seed):
    hp = hyperparams(c)
    prior = prior_side(hp, np.random.default_rng([seed, 0]))
    chain = chain_side(hp, np.random.default_rng([seed, 1]))
    se_prior = prior.std(axis=0, ddof=1) / math.sqrt(DRAWS)
    batch_means = chain.reshape(BATCHES, -1, len(NAMES)).mean(axis=1)
    se_chain = batch_means.std(axis=0, ddof=1) / math.sqrt(BATCHES)
    z = (chain.mean(axis=0) - prior.mean(axis=0)) / np.hypot(se_prior, se_chain)
    return dict(zip(NAMES, z.tolist()))


def test_weak_coupling_sweep_matches_normalised_model():
    # At c = 0.01 lambda(x) <= 0.01, so the x-step's neglect of it moves no
    # test function by more than the Monte Carlo error.
    z = z_scores(0.01, 1)
    assert all(abs(value) < 4.0 for value in z.values()), z


def test_strong_coupling_sweep_loses_alignment_distance_coupling():
    # Characterisation of the paper's x-step at c = 10: the marginals still
    # agree, but the chain's frames stay aligned when its latents part, so
    # E[v1.v2 (x1 - x2)^2] reads well above the model's.  A change to the
    # x-step moves this z, and must say so.
    z = z_scores(10.0, 2)
    marginals = {name: z[name] for name in NAMES if name != "v1.v2 (x1-x2)^2"}
    assert all(abs(value) < 4.0 for value in marginals.values()), z
    assert z["v1.v2 (x1-x2)^2"] > 6.0, z
