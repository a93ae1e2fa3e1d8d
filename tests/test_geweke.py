"""Whole-sweep Geweke (2004) test of the Gibbs sampler at n = 2.

Every kernel test checks one step with the rest of the state fixed; this one
checks what the composed sweep samples.  At n = 2 the normalised model
p(x) p(V | x), with x ~ N(0, a^2 I), p(V | x) = exp(lambda(x) tr(V_1^T V_2)) /
Z(lambda(x)) and lambda(x) = c exp(-|x_1 - x_2|^2 / (2 w^2)), has exact
independent draws: Z does not depend on V_1, so V_1 is uniform and
V_2 | V_1 ~ vMF(lambda(x) V_1); the precision 1/sigma^2 comes from its Gamma
prior.  At d = 1 the frames are unit vectors in R^3 and V_2 is Wood's vector
draw; at d = 2 they are p x 2 frames, V_2 is a rejection draw from the
uniform (envelope exp(2 lambda)), and the sweep runs the p = 3 and p > 3
two-column kernels.  The successive-conditional chain draws
y_i ~ N(V_i x_i, sigma^2 I) given the state and then runs one sweep; if every
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
import pytest

from nlpca.gibbs import ETA, HyperParams, ModelState, sweep
from nlpca.mrf import compute_weights
from nlpca.stiefel import _uniform_unit_vector, sample_uniform_stiefel
from nlpca.vmf import VmfParam, vmf_sample_rejection, vmf_sample_vector

A2, TAU2, W = 1.0, 0.3, 1.0
DRAWS = 10_000
BATCHES = 50
NAMES = ("tr(V1'V2)", "|x1-x2|^2", "tr(V1'V2) |x1-x2|^2", "x11^2", "log sigma2")


def hyperparams(c):
    return HyperParams(a2=A2, tau2=TAU2, c_strength=c, bandwidth=W,
                       n_sweeps=1, burn_in=0, thin=1)


def statistics(frames, latents, sigma2):
    align = float(np.vdot(frames[0], frames[1]))
    diff = latents[0] - latents[1]
    gap = float(diff @ diff)
    return align, gap, align * gap, latents[0, 0] ** 2, math.log(sigma2)


def prior_draw(hp, p, d, rng):
    """(frames, latents, sigma2) from the normalised model's prior."""
    latents = math.sqrt(hp.a2) * rng.standard_normal((2, d))
    diff = latents[0] - latents[1]
    lam = hp.c_strength * math.exp(-float(diff @ diff) / (2.0 * hp.bandwidth**2))
    if d == 1:
        v1 = _uniform_unit_vector(p, rng)[:, None]
        v2 = vmf_sample_vector(v1[:, 0], lam, rng)[:, None]
    else:
        v1 = sample_uniform_stiefel(p, d, rng).matrix
        v2 = vmf_sample_rejection(VmfParam(lam * v1), rng)[0].matrix
    precision = rng.gamma(0.5 * ETA, 1.0 / (0.5 * ETA * hp.tau2))
    return np.stack([v1, v2]), latents, 1.0 / precision


def prior_side(hp, p, d, rng):
    return np.array([statistics(*prior_draw(hp, p, d, rng)) for _ in range(DRAWS)])


def chain_side(hp, p, d, rng):
    """Successive-conditional draws: y given the state, then one sweep."""
    frames, latents, sigma2 = prior_draw(hp, p, d, rng)
    state = ModelState(frames, latents, sigma2,
                       compute_weights(latents, hp.c_strength, hp.bandwidth))
    values = np.empty((DRAWS, len(NAMES)))
    for k in range(DRAWS):
        recon = np.einsum("npd,nd->np", state.transformations, state.latents)
        data = SimpleNamespace(y=recon + math.sqrt(state.sigma2) * rng.standard_normal((2, p)))
        state, _ = sweep(state, data, hp, rng)
        values[k] = statistics(state.transformations, state.latents, state.sigma2)
    return values


def z_scores(c, seed, p=3, d=1):
    hp = hyperparams(c)
    prior = prior_side(hp, p, d, np.random.default_rng([seed, 0]))
    chain = chain_side(hp, p, d, np.random.default_rng([seed, 1]))
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
    # E[tr(V1'V2) |x1 - x2|^2] reads well above the model's.  A change to the
    # x-step moves this z, and must say so.
    z = z_scores(10.0, 2)
    marginals = {name: z[name] for name in NAMES if name != "tr(V1'V2) |x1-x2|^2"}
    assert all(abs(value) < 4.0 for value in marginals.values()), z
    assert z["tr(V1'V2) |x1-x2|^2"] > 6.0, z


@pytest.mark.parametrize("p", [3, 5])
def test_weak_coupling_two_column_sweep_matches_normalised_model(p):
    # d = 2 runs _column_pass_3x2 at p = 3 and _column_pass_px2 at p = 5.
    z = z_scores(0.01, seed=p, p=p, d=2)
    assert all(abs(value) < 4.0 for value in z.values()), z
