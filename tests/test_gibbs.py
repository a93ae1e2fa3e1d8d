import copy
import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import circle_vmf_moment, traced_peak
import nlpca.mrf
import nlpca.stiefel
import nlpca.vmf
from nlpca import cli, gibbs
from nlpca.datasets import generate_sphere
from nlpca.gibbs import (
    ETA,
    HyperParams,
    ModelState,
    SIGMA2_FLOOR,
    default_hyperparams,
    init_state,
    kept_sweeps,
    log_posterior_unnorm,
    noise_prior_params,
    run,
    sweep,
    sweep_rng,
    update_latent,
    update_noise,
    update_transformation,
)
from nlpca.mrf import (
    BANDWIDTH_FLOOR,
    compute_weights,
    conditional_param,
)
from nlpca.pca import Dataset, pca_fit, reconstruct_linear
from nlpca.stiefel import (
    StiefelPoint,
    frames_orthonormal,
    sample_uniform_stiefel,
)
from nlpca.vmf import VmfParam, vmf_mode, vmf_sample_column_gibbs, vmf_sample_rejection


def tiny_hp(**kw):
    defaults = dict(
        a2=1.0,
        tau2=1.0,
        c_strength=1.0,
        bandwidth=1.0,
        n_sweeps=10,
        burn_in=5,
        thin=1,
    )
    defaults.update(kw)
    return HyperParams(**defaults)


def weights(state, hp):
    """The (n, n) lambda of state's latents, as run builds it."""
    return compute_weights(state.latents, hp.c_strength, hp.bandwidth)


def frame_conditional(i, state, lam, data):
    """The vMF parameter y_i x_i^T / sigma^2 + sum_j lambda_ij V_j of site i."""
    c = np.outer(data.y[i], state.latents[i]) / state.sigma2
    return c + conditional_param(i, state.transformations, lam)


def chain_site(i, state, lam, data, rng, n):
    """n chained frame updates at site i, neighbours fixed; yields each V_i."""
    data_term = (data.y[:, :, None] * state.latents[:, None, :]) / state.sigma2
    for _ in range(n):
        update_transformation(i, state, lam, data_term, rng)
        yield state.transformations[i].copy()


def reference_sweep(state, lam, data, hp, rng):
    """The per-site sweep: one validated frame draw per site under lam, then
    one Gaussian latent draw per site, then sigma^2."""
    st = ModelState(state.transformations.copy(), state.latents.copy(), state.sigma2)
    for i in range(st.n):
        c = frame_conditional(i, st, lam, data)
        frame = StiefelPoint(st.transformations[i])
        st.transformations[i] = vmf_sample_column_gibbs(VmfParam(c), frame, 1, rng).matrix
    for i in range(st.n):
        proj = st.transformations[i].T @ data.y[i]
        if math.isinf(hp.a2):
            mean, var = proj, st.sigma2
        else:
            shrink = hp.a2 / (hp.a2 + st.sigma2)
            mean, var = shrink * proj, shrink * st.sigma2
        st.latents[i] = mean + math.sqrt(var) * rng.standard_normal(st.d)
    st.sigma2 = update_noise(data, hp, gibbs._total_sq_residual(st, data), rng)
    return st


def reconstructions(state):
    """Row i is V_i x_i, one matrix-vector product per site."""
    return np.stack([v @ x for v, x in zip(state.transformations, state.latents)])


def einsum_reconstructions(state):
    """Row i is V_i x_i, by the one einsum that sphere-demo averages."""
    return np.einsum("npd,nd->np", state.transformations, state.latents)


def latents(state):
    return state.latents


def run_chain(out, data, hp, seed, state, mean_of, start_sweep=0):
    """cli._run_chain, run's one consumer, writing trace.csv into out:
    (out, mean, draw counts, last log posterior)."""
    return cli._run_chain(SimpleNamespace(out=out), data, hp, seed, state, start_sweep, mean_of)


def trace_sigma2(out):
    """The sigma2 column of out/trace.csv, as floats."""
    with open(out / "trace.csv", newline="") as fh:
        return [float(row["sigma2"]) for row in csv.DictReader(fh)]


def batch_mean_se(values, batches=50):
    """Standard error of the mean of a correlated chain, by batch means."""
    means = values[: len(values) // batches * batches].reshape(batches, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(batches)


def tiny_state(rng, data, hp, d=1, sigma2=0.5):
    n = data.n
    frames = np.stack(
        [sample_uniform_stiefel(data.p, d, rng).matrix for _ in range(n)]
    )
    return ModelState(frames, rng.standard_normal((n, d)), sigma2)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_hp(a2=0.0)
        with pytest.raises(ValueError):
            tiny_hp(burn_in=10, n_sweeps=10)
        with pytest.raises(ValueError):
            tiny_hp(thin=0)
        with pytest.raises(ValueError):
            tiny_hp(tau2=-1.0)

    def test_infinite_a2_allowed(self):
        assert math.isinf(tiny_hp(a2=math.inf).a2)

    def test_bandwidth_below_floor_refused(self):
        with pytest.raises(ValueError, match="bandwidth"):
            tiny_hp(bandwidth=0.1 * BANDWIDTH_FLOOR)
        assert tiny_hp(bandwidth=BANDWIDTH_FLOOR).bandwidth == BANDWIDTH_FLOOR

    def test_pilot_bandwidth_floored_on_tiny_scale_data(self):
        data = Dataset(1e-12 * np.random.default_rng(3).standard_normal((10, 3)))
        assert default_hyperparams(data, pca_fit(data, 2)).bandwidth == BANDWIDTH_FLOOR

    def test_defaults_from_pilot_study(self):
        rng = np.random.default_rng(0)
        _, ds = generate_sphere(50, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=10, burn_in=5)
        assert hp.c_strength == pytest.approx(2.0)  # 100 / n
        fit = pca_fit(ds, 2)
        from nlpca.mrf import default_bandwidth
        from nlpca.pca import pilot_tau2

        assert hp.bandwidth == pytest.approx(default_bandwidth(fit.latents))
        assert hp.tau2 == pytest.approx(pilot_tau2(ds, pca_fit(ds, 2)))
        assert hp.a2 == float(ds.y.var(axis=0, ddof=1).mean())

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5, 1e150])
    def test_pilot_tau2_floor_scales_with_the_data(self, scale):
        # Noise-free data on a line: PCA leaves no residual, so tau^2 is the
        # floor, SIGMA2_FLOOR times the average variance where that exceeds 1.
        raw = np.zeros((6, 2))
        raw[:, 0] = scale * np.arange(6.0)
        ds = Dataset(raw)
        hp = default_hyperparams(ds, pca_fit(ds, 1))
        assert hp.tau2 == SIGMA2_FLOOR * max(1.0, hp.a2)

    def test_a2_modes(self):
        rng = np.random.default_rng(1)
        _, ds = generate_sphere(20, 0.05, rng)
        assert math.isinf(default_hyperparams(ds, pca_fit(ds, 2), a2=math.inf).a2)
        assert default_hyperparams(ds, pca_fit(ds, 2), a2=7.5).a2 == 7.5


class TestInitState:
    def test_conditional_mode_is_pca_loading(self):
        rng = np.random.default_rng(2)
        _, ds = generate_sphere(20, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=10, burn_in=5)
        state = init_state(pca_fit(ds, 2), hp)
        v_pca = pca_fit(ds, 2).loadings
        for i in (0, 7, 19):
            c = conditional_param(i, state.transformations, weights(state, hp))
            assert np.max(np.abs(vmf_mode(VmfParam(c)).matrix - v_pca)) <= 1e-8

    def test_log_posterior_finite(self):
        rng = np.random.default_rng(3)
        _, ds = generate_sphere(15, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=10, burn_in=5)
        state = init_state(pca_fit(ds, 2), hp)
        sq_residual = gibbs._total_sq_residual(state, ds)
        assert math.isfinite(log_posterior_unnorm(state, weights(state, hp), ds, hp, sq_residual))

    def test_initial_reconstruction_matches_pca(self):
        rng = np.random.default_rng(4)
        _, ds = generate_sphere(15, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=10, burn_in=5)
        state = init_state(pca_fit(ds, 2), hp)
        recon = np.einsum("npd,nd->np", state.transformations, state.latents)
        pca_recon = reconstruct_linear(pca_fit(ds, 2))
        assert np.max(np.abs(recon - pca_recon)) <= 1e-10
        assert state.sigma2 == hp.tau2


class TestUpdateTransformation:
    def test_zero_latent_no_coupling_gives_uniform(self):
        # x_i = 0 and lambda = 0 make C = 0: V_i is uniform on the sphere,
        # with mean 0 and second moment I/3, wherever the chain starts.
        rng = np.random.default_rng(5)
        data = Dataset(np.vstack([np.eye(3), -np.eye(3)]))
        hp = tiny_hp(c_strength=1e-300)
        state = tiny_state(rng, data, hp, d=1)
        state.latents[:] = 0.0
        lam = np.zeros((data.n, data.n))
        n = 10_000
        draws = np.array([v[:, 0] for v in chain_site(0, state, lam, data, rng, n)])
        se = math.sqrt((1.0 / 3.0) / n)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)
        var_diag = 3.0 / 15.0 - 1.0 / 9.0
        second = draws.T @ draws / n
        assert np.all(np.abs(second - np.eye(3) / 3.0) <= 4 * math.sqrt(var_diag / n))

    def test_small_sigma2_mode_tracks_data(self):
        # As sigma^2 -> 0 the conditional is dominated by y_i x_i^T / sigma^2,
        # a rank-one matrix: along its only determined direction the mode must
        # map x_i/|x_i| to y_i/|y_i| (the remaining mode column is arbitrary).
        rng = np.random.default_rng(6)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=2, sigma2=1e-6)
        i = 2
        mode = vmf_mode(VmfParam(frame_conditional(i, state, weights(state, hp), data))).matrix
        u = data.y[i] / np.linalg.norm(data.y[i])
        v = state.latents[i] / np.linalg.norm(state.latents[i])
        assert np.max(np.abs(mode @ v - u)) <= 1e-4

    def test_circle_conditional_matches_quadrature(self):
        # p = 2, d = 1: the conditional is a circular vMF whose parameter we
        # can evaluate explicitly.
        rng = np.random.default_rng(7)
        data = Dataset(np.array([[1.0, 0.4], [-1.0, -0.4], [0.5, -0.7], [-0.5, 0.7]]))
        hp = tiny_hp(a2=2.0)
        state = tiny_state(rng, data, hp, d=1, sigma2=0.8)
        i, lam = 1, weights(state, hp)
        c_vec = frame_conditional(i, state, lam, data)[:, 0]
        kappa = np.linalg.norm(c_vec)
        direction = c_vec / kappa
        n = 10_000
        cosines = np.array(
            [direction @ v[:, 0] for v in chain_site(i, state, lam, data, rng, n)]
        )
        target = circle_vmf_moment(kappa, math.cos)
        var = circle_vmf_moment(kappa, lambda t: math.cos(t) ** 2) - target**2
        assert abs(cosines.mean() - target) <= 3 * math.sqrt(var / n)

    def test_tall_frame_chain_matches_rejection(self):
        # p = 3, d = 2: the chained kernel's mean of tr(C^T V_i) must match
        # exact rejection draws from the same conditional.
        rng = np.random.default_rng(28)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=2, sigma2=0.5)
        i, lam = 0, weights(state, hp)
        c = frame_conditional(i, state, lam, data)
        chain = np.array(
            [np.sum(c * v) for v in chain_site(i, state, lam, data, rng, 10_000)]
        )
        exact = np.array(
            [np.sum(c * vmf_sample_rejection(VmfParam(c), rng)[0].matrix)
             for _ in range(4_000)]
        )
        joint_se = math.sqrt(batch_mean_se(chain) ** 2 + exact.var(ddof=1) / len(exact))
        assert abs(chain.mean() - exact.mean()) <= 4 * joint_se


class TestUpdateLatent:
    def test_improper_prior_moments(self):
        # a^2 = inf gives x | . ~ N(V^T y, sigma^2 I).
        rng = np.random.default_rng(8)
        data = Dataset(np.array([[2.0, 1.0], [-2.0, -1.0]]))
        hp = tiny_hp(a2=math.inf)
        state = tiny_state(rng, data, hp, d=1, sigma2=0.49)
        i = 0
        target_mean = state.transformations[i][:, 0] @ data.y[i]
        n = 10_000
        draws = np.array([update_latent(state, data, hp, rng)[i, 0] for k in range(n)])
        se_mean = math.sqrt(0.49 / n)
        assert abs(draws.mean() - target_mean) <= 3 * se_mean
        se_var = 0.49 * math.sqrt(2.0 / (n - 1))
        assert abs(draws.var(ddof=1) - 0.49) <= 3 * se_var

    def test_unit_scales_halve(self):
        # a^2 = sigma^2 = 1 with V = I gives N(y/2, I/2).
        rng = np.random.default_rng(9)
        data = Dataset(np.array([[3.0, -1.0], [-3.0, 1.0]]))
        hp = tiny_hp(a2=1.0)
        n = data.n
        frames = np.stack([np.eye(2)] * n)
        state = ModelState(frames, rng.standard_normal((n, 2)), 1.0)
        m = 10_000
        draws = np.array([update_latent(state, data, hp, rng)[0] for _ in range(m)])
        target = data.y[0] / 2.0
        se = math.sqrt(0.5 / m)
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se)
        se_var = 0.5 * math.sqrt(2.0 / (m - 1))
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - 0.5) <= 3 * se_var)

    def test_small_sigma2_concentrates_on_projection(self):
        rng = np.random.default_rng(10)
        data = Dataset(np.array([[2.0, 0.0], [-2.0, 0.0]]))
        hp = tiny_hp(a2=5.0)
        state = tiny_state(rng, data, hp, d=1, sigma2=1e-10)
        proj = state.transformations[0][:, 0] @ data.y[0]
        draws = np.array([update_latent(state, data, hp, rng)[0, 0] for _ in range(100)])
        assert np.max(np.abs(draws - proj)) <= 1e-4


class TestUpdateNoise:
    def test_zero_residual_posterior_mean(self):
        # n = p = 1, eta = 2, tau^2 = 1, zero residual: precision ~
        # Gamma(shape 1.5, rate 1) with mean 1.5.
        rng = np.random.default_rng(11)
        data = Dataset(np.array([[0.0]]))
        hp = tiny_hp(tau2=1.0)
        frames = np.array([[[1.0]]])
        latents = np.array([[0.0]])  # exact reconstruction of the zero row
        state = ModelState(frames, latents, 1.0)
        sq_residual = gibbs._total_sq_residual(state, data)
        assert sq_residual == 0.0
        shape, rate = 1.5, 1.0  # the conjugate (ETA + np)/2, (ETA tau^2 + 0)/2
        draw = update_noise(data, hp, sq_residual, np.random.default_rng(5))
        assert draw == 1.0 / np.random.default_rng(5).gamma(shape, 1.0 / rate)
        n = 10_000
        precisions = np.array([1.0 / update_noise(data, hp, sq_residual, rng)
                               for _ in range(n)])
        se = math.sqrt(1.5 / n)  # Gamma variance = shape / rate^2
        assert abs(precisions.mean() - 1.5) <= 3 * se

    def test_large_residual_concentrates_sigma2(self):
        # Inverse-gamma mean rate/(shape-1) with matching Monte Carlo error.
        rng = np.random.default_rng(12)
        data = Dataset(np.vstack([np.full((5, 4), 3.0), np.full((5, 4), -3.0)]))
        hp = tiny_hp(tau2=0.01)
        state = tiny_state(rng, data, hp, d=1)
        state.latents[:] = 0.0  # residual is the full data norm
        sq_residual = gibbs._total_sq_residual(state, data)
        resid = float(np.sum(data.y**2))
        assert sq_residual == pytest.approx(resid)
        shape, rate = (2.0 + 40.0) / 2.0, (2.0 * 0.01 + resid) / 2.0
        draw = update_noise(data, hp, sq_residual, np.random.default_rng(6))
        expected = 1.0 / np.random.default_rng(6).gamma(shape, 1.0 / rate)
        assert draw == pytest.approx(expected, rel=1e-15)
        n = 10_000
        draws = np.array([update_noise(data, hp, sq_residual, rng) for _ in range(n)])
        mean_ig = rate / (shape - 1.0)
        var_ig = rate**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
        assert abs(draws.mean() - mean_ig) <= 3 * math.sqrt(var_ig / n)

    @pytest.mark.parametrize("tau2", [1e-3, 1.0, 1e200])
    def test_floor_scales_with_tau2(self, tau2):
        # An infinite precision gives sigma^2 = 0, so the floor binds.
        class InfinitePrecision:
            def gamma(self, shape, scale):
                return math.inf

        data = Dataset(np.array([[0.0]]))
        sigma2 = update_noise(data, tiny_hp(tau2=tau2), 0.0, InfinitePrecision())
        assert sigma2 == SIGMA2_FLOOR * max(1.0, tau2)

    def test_prior_parameterization(self):
        # Prior shape eta/2 and rate eta tau^2/2 give prior mean 1/tau^2.
        hp = tiny_hp(tau2=0.25)
        shape, rate = noise_prior_params(hp)
        assert shape == pytest.approx(1.0)
        assert rate == pytest.approx(0.25)
        assert shape / rate == pytest.approx(1.0 / hp.tau2)


class TestSweep:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        _, ds = generate_sphere(12, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=5, burn_in=1)
        state = init_state(pca_fit(ds, 2), hp)
        a1, lp1 = sweep(copy.deepcopy(state), weights(state, hp), ds, hp, sweep_rng(99, 0))
        a2_, lp2 = sweep(copy.deepcopy(state), weights(state, hp), ds, hp, sweep_rng(99, 0))
        assert np.array_equal(a1.transformations, a2_.transformations)
        assert np.array_equal(a1.latents, a2_.latents)
        assert a1.sigma2 == a2_.sigma2
        assert lp1 == lp2

    def test_orthonormality_preserved(self):
        rng = np.random.default_rng(14)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=5, burn_in=1)
        state = init_state(pca_fit(ds, 2), hp)
        lam = weights(state, hp)
        for t in range(3):
            state, _ = sweep(state, lam, ds, hp, sweep_rng(0, t))
            gram = np.einsum("npk,npl->nkl", state.transformations, state.transformations)
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-10
            assert state.sigma2 > 0
            assert np.array_equal(lam, lam.T)

    @pytest.mark.parametrize(
        "p, d, a2",
        [(3, 1, 1.5), (3, 2, math.inf), (2, 1, 1.5), (4, 3, math.inf), (5, 3, 1.5)],
    )
    def test_matches_per_site_reference_loop(self, p, d, a2):
        # The raw-array sweep must be the per-site sweep: from the same state
        # and stream, the same frames exactly, and the same latents and
        # sigma^2 up to rounding.  The latents' V_i^T y_i is one batched
        # matmul here and n matrix-vector products in the reference; whether
        # those sum in the same order depends on the BLAS build.
        rng = np.random.default_rng(30)
        data = Dataset(rng.standard_normal((7, p)))
        hp = tiny_hp(a2=a2, c_strength=2.0)
        state = tiny_state(rng, data, hp, d=d)
        lam = weights(state, hp)
        for t in range(3):
            reference = reference_sweep(state, lam, data, hp, sweep_rng(4, t))
            state, _ = sweep(state, lam, data, hp, sweep_rng(4, t))
            assert np.array_equal(state.transformations, reference.transformations)
            assert np.allclose(state.latents, reference.latents, rtol=0, atol=1e-13)
            assert state.sigma2 == pytest.approx(reference.sigma2, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "p, d, a2",
        [(3, 1, 1.5), (3, 2, math.inf), (2, 1, 1.5), (4, 3, math.inf), (5, 3, 1.5)],
    )
    def test_never_calls_validated_wrappers(self, monkeypatch, p, d, a2):
        # The frame step pays for its arithmetic only: the validated vector
        # draw, neighbour sum and explicit complement basis stay public forms,
        # off the sweep's path.  The start frames are drawn before the patch,
        # since sample_uniform_stiefel builds them with null_space_basis.
        def refuse(*args, **kwargs):
            raise AssertionError("validated wrapper called inside the sweep")

        rng = np.random.default_rng(30)
        data = Dataset(rng.standard_normal((7, p)))
        hp = tiny_hp(a2=a2, c_strength=2.0)
        state = tiny_state(rng, data, hp, d=d)
        monkeypatch.setattr(nlpca.vmf, "vmf_sample_vector", refuse)
        monkeypatch.setattr(nlpca.vmf, "null_space_basis", refuse, raising=False)
        monkeypatch.setattr(nlpca.stiefel, "null_space_basis", refuse)
        monkeypatch.setattr(nlpca.mrf, "conditional_param", refuse)
        monkeypatch.setattr(gibbs, "conditional_param", refuse, raising=False)
        state, _ = sweep(state, weights(state, hp), data, hp, sweep_rng(4, 0))
        assert frames_orthonormal(state.transformations)

    @pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (5, 3)])
    def test_nan_frame_raises(self, p, d):
        # A NaN frame poisons its neighbours' conditionals; the frame step
        # must raise rather than spin in a rejection loop that NaN never exits.
        rng = np.random.default_rng(32)
        data = Dataset(rng.standard_normal((6, p)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=d)
        state.transformations[0] = np.nan
        with pytest.raises(ValueError):
            sweep(state, weights(state, hp), data, hp, sweep_rng(0, 0))

    def test_guard_catches_nan_left_by_frame_step(self, monkeypatch):
        # NaN written by the last frame update reaches no other conditional;
        # the once-per-sweep orthonormality check must still stop it.
        rng = np.random.default_rng(33)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=2)
        frame_step = gibbs.update_transformation

        def nan_last_frame(i, st, lam, data_term, rng):
            frame_step(i, st, lam, data_term, rng)
            if i == st.n - 1:
                st.transformations[i, 0, 0] = np.nan

        monkeypatch.setattr(gibbs, "update_transformation", nan_last_frame)
        monkeypatch.setattr(gibbs, "update_latent", lambda st, *_: st.latents)
        with pytest.raises(ArithmeticError, match="orthonormality"):
            sweep(state, weights(state, hp), data, hp, sweep_rng(0, 0))

    def test_advances_the_given_state_in_place(self):
        # The frames and the lambda sweep is given are written in their own
        # buffers, to the bits a sweep of copies gives.
        rng = np.random.default_rng(15)
        _, ds = generate_sphere(8, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=5, burn_in=1)
        state = init_state(pca_fit(ds, 2), hp)
        frames, lam = state.transformations, weights(state, hp)
        expected_lam = lam.copy()
        expected, expected_lp = sweep(copy.deepcopy(state), expected_lam, ds, hp, sweep_rng(1, 0))
        advanced, lp = sweep(state, lam, ds, hp, sweep_rng(1, 0))
        assert advanced is state
        assert state.transformations is frames
        assert np.array_equal(frames, expected.transformations)
        assert np.array_equal(lam, expected_lam)
        assert np.array_equal(lam, weights(state, hp))
        assert np.array_equal(state.latents, expected.latents)
        assert state.sigma2 == expected.sigma2
        assert lp == expected_lp

    @pytest.mark.parametrize("a2", [1.5, math.inf])
    def test_returned_log_posterior_is_the_new_states(self, a2):
        # sweep passes the noise step's squared residual on to the log
        # posterior; the value is the one computed afresh, bit for bit.
        rng = np.random.default_rng(31)
        data = Dataset(rng.standard_normal((7, 5)))
        hp = tiny_hp(a2=a2, c_strength=2.0)
        state = tiny_state(rng, data, hp, d=2)
        lam = weights(state, hp)
        for t in range(3):
            state, log_post = sweep(state, lam, data, hp, sweep_rng(4, t))
            assert log_post == log_posterior_unnorm(
                state, lam, data, hp, gibbs._total_sq_residual(state, data)
            )


class TestSweepMemory:
    # (n, p, d) as in the paper's digits run, where the frame stack is the
    # largest array a sweep holds.
    @pytest.fixture
    def digits_shaped(self):
        rng = np.random.default_rng(34)
        data = Dataset(rng.standard_normal((150, 196)))
        fit = pca_fit(data, 2)
        hp = default_hyperparams(data, fit, n_sweeps=2, burn_in=1)
        state = init_state(fit, hp)
        lam = weights(state, hp)
        state, _ = sweep(state, lam, data, hp, sweep_rng(0, 0))
        return state, lam, data, hp

    def test_sweep_peaks_below_one_and_a_half_frame_stacks(self, digits_shaped):
        # The sweep redraws the frames in place and holds the data term, which
        # is divided in place and released when the frame loop ends: ~1.3
        # frame stacks.  A copy of the frames on top reads ~2.4.
        state, lam, data, hp = digits_shaped
        peak = traced_peak(lambda: sweep(state, lam, data, hp, sweep_rng(0, 1)))
        assert peak <= 1.5 * state.transformations.nbytes

    def test_sweep_rebuilds_lambda_beside_one_work_array(self):
        # At n = 600, lambda (2.9 MB) dwarfs the frame stack (48 kB).  The
        # weights are rebuilt in lambda's buffer, beside one work array, so
        # a sweep reads ~1.05 lambdas; a new lambda beside the old reads ~3.1.
        rng = np.random.default_rng(40)
        data = Dataset(rng.standard_normal((600, 5)))
        fit = pca_fit(data, 2)
        hp = default_hyperparams(data, fit, n_sweeps=2, burn_in=1)
        state = init_state(fit, hp)
        lam = weights(state, hp)
        peak = traced_peak(lambda: sweep(state, lam, data, hp, sweep_rng(0, 0)))
        assert peak <= 1.3 * lam.nbytes

    def test_run_averaging_the_latents_holds_no_reconstruction(self, digits_shaped):
        # Three kept sweeps averaging the (n, d) latents read ~1.28 frame
        # stacks, the sweep's own peak, beside the lambda that run builds.
        # An (n, p) reconstruction sum kept beside them, as digits-demo and
        # fit once had, reads 0.5 frame stacks more.  The sum is
        # _run_chain's, without its trace.csv writer: CPython's csv writer
        # allocates a 128 kB record buffer at its first row, whatever the
        # row's length.
        _, lam, data, hp = digits_shaped
        hp = default_hyperparams(data, pca_fit(data, 2), n_sweeps=4, burn_in=1, thin=1)
        state = init_state(pca_fit(data, 2), hp)
        kept = kept_sweeps(hp, 0)

        def average_latents():
            total = 0.0
            for t, st, _ in run(data, hp, 0, state):
                if t in kept:
                    total += st.latents
            return total / len(kept)

        peak = traced_peak(average_latents)
        assert len(kept) == 3
        assert peak <= 1.5 * state.transformations.nbytes + lam.nbytes

    def test_residual_is_squared_in_its_einsum_array(self, digits_shaped):
        # One (n, p) array: a difference and a square beside it read ~3.0.
        state, _, data, _ = digits_shaped
        assert traced_peak(lambda: gibbs._total_sq_residual(state, data)) <= 1.5 * data.y.nbytes


class TestRunSummary:
    def test_single_kept_sweep_matches_final_state(self, tmp_path):
        rng = np.random.default_rng(16)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=6, burn_in=5, thin=1)
        for mean_of in (einsum_reconstructions, latents):
            state = init_state(pca_fit(ds, 2), hp)
            _, mean, draws, _ = run_chain(tmp_path, ds, hp, 3, state, mean_of)
            assert draws["kept_sweeps"] == 1
            # One addition to zeros, divided by 1: the same values, bit for bit.
            assert np.array_equal(mean, mean_of(state))

    def test_mean_of_is_read_on_kept_sweeps_only(self, tmp_path):
        rng = np.random.default_rng(42)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=12, burn_in=4, thin=3)
        read = []

        def mean_of(st):
            read.append(st.sigma2)
            return np.array([st.sigma2])

        _, mean, _, _ = run_chain(tmp_path, ds, hp, 4, init_state(pca_fit(ds, 2), hp), mean_of)
        sigma2 = trace_sigma2(tmp_path)
        assert read == [sigma2[4], sigma2[7], sigma2[10]]
        # Summed in sweep order from zero, then divided once.
        assert np.array_equal(mean, [(0.0 + sigma2[4] + sigma2[7] + sigma2[10]) / 3])

    def test_mean_reconstruction_averages_kept_states(self, tmp_path):
        rng = np.random.default_rng(38)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=14, burn_in=3, thin=3)
        seed, states, recon = 9, {}, {}
        for t, st, _ in run(ds, hp, seed, init_state(pca_fit(ds, 2), hp)):
            states[t], recon[t] = copy.deepcopy(st), reconstructions(st)
        _, full_mean, _, _ = run_chain(
            tmp_path, ds, hp, seed, init_state(pca_fit(ds, 2), hp), einsum_reconstructions)
        kept = list(kept_sweeps(hp, 0))
        assert kept == [3, 6, 9, 12]
        expected = np.mean([recon[t] for t in kept], axis=0)
        assert np.max(np.abs(full_mean - expected)) <= 1e-12
        # Resumed past burn-in: only the kept sweeps it runs are averaged.
        _, resumed_mean, draws, _ = run_chain(
            tmp_path, ds, hp, seed, states[6], einsum_reconstructions, start_sweep=7)
        assert draws["kept_sweeps"] == 2
        expected = np.mean([recon[t] for t in (9, 12)], axis=0)
        assert np.max(np.abs(resumed_mean - expected)) <= 1e-12

    def test_trace_lengths(self, tmp_path):
        rng = np.random.default_rng(17)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=12, burn_in=4, thin=3)
        swept = [t for t, _, _ in run(ds, hp, 4, init_state(pca_fit(ds, 2), hp))]
        assert swept == list(range(12))
        _, _, draws, _ = run_chain(tmp_path, ds, hp, 4, init_state(pca_fit(ds, 2), hp), latents)
        assert len(trace_sigma2(tmp_path)) == 12
        # kept sweeps: t = 4, 7, 10
        assert draws["kept_sweeps"] == 3
        assert draws["total_draws"] == 10 * 12

    def test_noiseless_planar_data_not_worse_than_pca(self, tmp_path):
        # Points exactly in a 2-plane: the final fit must not lose to the
        # (exact) PCA initialization.
        rng = np.random.default_rng(18)
        basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        raw = rng.standard_normal((30, 2)) @ basis.T
        ds = Dataset(raw)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=60, burn_in=30, thin=2)
        _, mean, _, _ = run_chain(
            tmp_path, ds, hp, 5, init_state(pca_fit(ds, 2), hp), einsum_reconstructions)
        model_err = np.sum((ds.y - mean) ** 2)
        pca_err = np.sum((ds.y - reconstruct_linear(pca_fit(ds, 2))) ** 2)
        assert model_err <= pca_err + 1e-6 * max(1.0, pca_err)

    def test_bit_identical_traces_for_same_seed(self, tmp_path):
        rng = np.random.default_rng(19)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=8, burn_in=4, thin=2)
        def traced_run(out):
            trace = [(st.sigma2, lp) for _, st, lp in
                     run(ds, hp, 11, init_state(pca_fit(ds, 2), hp))]
            _, mean, _, _ = run_chain(out, ds, hp, 11, init_state(pca_fit(ds, 2), hp), latents)
            return mean, trace, (out / "trace.csv").read_bytes()

        (m1, trace1, file1), (m2, trace2, file2) = (
            traced_run(tmp_path / "a"), traced_run(tmp_path / "b"))
        assert trace1 == trace2
        assert file1 == file2
        assert np.array_equal(m1, m2)

    def test_resume_reproduces_unbroken_run(self):
        # Continuing from (state at sweep k, seed, counter k) must replay the
        # unbroken trajectory bit-exactly.
        rng = np.random.default_rng(20)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=10, burn_in=2, thin=1)
        seed, states, full_lp = 21, {}, {}
        full = init_state(pca_fit(ds, 2), hp)
        for t, st, lp in run(ds, hp, seed, full):
            states[t], full_lp[t] = copy.deepcopy(st), lp
        resumed = states[4]
        resumed_lp = {t: lp for t, _, lp in run(ds, hp, seed, resumed, start_sweep=5)}
        assert resumed_lp == {t: full_lp[t] for t in range(5, 10)}
        assert np.array_equal(resumed.transformations, full.transformations)
        assert np.array_equal(resumed.latents, full.latents)
        assert resumed.sigma2 == full.sigma2

    @pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (4, 3)])
    def test_scaled_start_frame_rejected(self, p, d):
        # The frame step would quietly redraw a bad frame for small d, so a
        # caller's state is checked before the first sweep.
        rng = np.random.default_rng(34)
        data = Dataset(rng.standard_normal((6, p)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=d)
        state.transformations[0] *= 2.0
        with pytest.raises(ValueError, match="not orthonormal"):
            next(run(data, hp, 0, state))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_square_frames_refused_before_first_sweep(self, monkeypatch, p):
        # d = p leaves nothing to reduce, and the frame step has no kernel for it.
        calls = []
        monkeypatch.setattr(gibbs, "sweep", lambda *args: calls.append(1))
        rng = np.random.default_rng(37)
        data = Dataset(rng.standard_normal((6, p)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=p)
        with pytest.raises(ValueError, match="d < p"):
            next(run(data, hp, 0, state))
        assert calls == []

    @pytest.mark.parametrize(
        "field, bad",
        [("latents", np.zeros((5, 2))), ("latents", np.zeros((6, 1))),
         ("latents", np.zeros(12))],
        ids=["latents-n", "latents-d", "latents-flat"],
    )
    def test_misshapen_state_refused_before_first_sweep(self, monkeypatch, field, bad):
        calls = []
        monkeypatch.setattr(gibbs, "sweep", lambda *args: calls.append(1))
        rng = np.random.default_rng(38)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=2)
        setattr(state, field, bad)
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            next(run(data, hp, 0, state))
        assert calls == []

    @pytest.mark.parametrize("fault", ["read-only", "fortran-order"])
    def test_state_not_advanceable_in_place_refused_before_first_sweep(self, monkeypatch, fault):
        # The chain writes the frames in place.  A stack it cannot write is
        # refused, not left to fail inside the first frame step; so is a
        # frame stack that every site's neighbour sum would copy.
        calls = []
        monkeypatch.setattr(gibbs, "sweep", lambda *args: calls.append(1))
        rng = np.random.default_rng(41)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=2)
        if fault == "read-only":
            state.transformations.setflags(write=False)
        else:
            state.transformations = np.asfortranarray(state.transformations)
        with pytest.raises(ValueError, match="frames must be writable and C-contiguous"):
            next(run(data, hp, 0, state))
        assert calls == []

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.inf, math.nan])
    def test_bad_sigma2_refused_before_first_sweep(self, monkeypatch, sigma2):
        calls = []
        monkeypatch.setattr(gibbs, "sweep", lambda *args: calls.append(1))
        rng = np.random.default_rng(39)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=2, sigma2=sigma2)
        with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
            next(run(data, hp, 0, state))
        assert calls == []

    def test_nan_start_latent_rejected(self):
        rng = np.random.default_rng(35)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=2)
        state.latents[0, 0] = np.nan
        with pytest.raises(ValueError, match="latents"):
            next(run(data, hp, 0, state))

    def test_resume_keeping_no_sweep_refused_before_first_sweep(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gibbs, "sweep", lambda *args: calls.append(1))
        rng = np.random.default_rng(36)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp(n_sweeps=20, burn_in=5, thin=100)
        state = tiny_state(rng, data, hp, d=2)
        with pytest.raises(ValueError, match="no sweeps were kept"):
            next(run(data, hp, 0, state, start_sweep=10))
        assert calls == []

    @pytest.mark.parametrize("start_sweep", [0, 4, 5, 6, 7, 9, 10])
    def test_kept_sweeps_match_schedule(self, start_sweep):
        hp = tiny_hp(n_sweeps=10, burn_in=4, thin=3)
        assert list(kept_sweeps(hp, start_sweep)) == [
            t for t in range(start_sweep, 10) if t >= 4 and (t - 4) % 3 == 0
        ]


class TestRunGenerator:
    """run is a generator: its checks wait for the first next(), every yield
    is the caller's state, and a chain closed after sweep k resumes from
    that state with start_sweep = k + 1, as a stop rule needs."""

    @pytest.mark.parametrize("fault, message", [("square", "d < p"),
                                                ("scaled", "not orthonormal")])
    def test_checks_wait_for_the_first_next(self, fault, message):
        rng = np.random.default_rng(43)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp()
        state = tiny_state(rng, data, hp, d=3 if fault == "square" else 2)
        if fault == "scaled":
            state.transformations[0] *= 2.0
        chain = run(data, hp, 0, state)
        with pytest.raises(ValueError, match=message):
            next(chain)

    def test_every_yield_is_the_callers_state(self):
        rng = np.random.default_rng(44)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=5, burn_in=1, thin=1)
        state = init_state(pca_fit(ds, 2), hp)
        frames = state.transformations
        yielded = [(t, st) for t, st, _ in run(ds, hp, 2, state)]
        assert [t for t, _ in yielded] == list(range(5))
        assert all(st is state for _, st in yielded)
        assert state.transformations is frames

    @pytest.fixture
    def unbroken(self):
        rng = np.random.default_rng(45)
        _, ds = generate_sphere(10, 0.05, rng)
        hp = default_hyperparams(ds, pca_fit(ds, 2), n_sweeps=10, burn_in=2, thin=1)
        states, log_posts = {}, {}
        for t, st, lp in run(ds, hp, 6, init_state(pca_fit(ds, 2), hp)):
            states[t], log_posts[t] = copy.deepcopy(st), lp
        return ds, hp, states, log_posts

    @staticmethod
    def closed_after(ds, hp, k):
        """The state of a chain whose caller breaks out after sweep k."""
        state = init_state(pca_fit(ds, 2), hp)
        chain = run(ds, hp, 6, state)
        for t, _, _ in chain:
            if t == k:
                break
        chain.close()
        return state

    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_closing_after_sweep_k_leaves_sweep_k_state(self, unbroken, k):
        ds, hp, states, _ = unbroken
        state = self.closed_after(ds, hp, k)
        assert np.array_equal(state.transformations, states[k].transformations)
        assert np.array_equal(state.latents, states[k].latents)
        assert state.sigma2 == states[k].sigma2

    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_resuming_a_closed_chain_replays_the_rest(self, unbroken, k):
        ds, hp, _, log_posts = unbroken
        state = self.closed_after(ds, hp, k)
        resumed = {t: lp for t, _, lp in run(ds, hp, 6, state, start_sweep=k + 1)}
        assert resumed == {t: log_posts[t] for t in range(k + 1, 10)}


class TestLogPosterior:
    def test_increasing_residual_decreases_value(self):
        rng = np.random.default_rng(22)
        data = Dataset(rng.standard_normal((6, 3)))
        hp = tiny_hp(a2=2.0)
        state = tiny_state(rng, data, hp, d=1)
        # Point each reconstruction at the data, then flip the latent signs:
        # the residual strictly grows while |x| (the latent prior term) and
        # sigma^2 stay fixed, so only the likelihood changes.
        for i in range(data.n):
            state.latents[i] = state.transformations[i].T @ data.y[i]
        lam = weights(state, hp)
        base = log_posterior_unnorm(state, lam, data, hp, gibbs._total_sq_residual(state, data))
        worse = ModelState(state.transformations.copy(), state.latents.copy(), state.sigma2)
        worse.latents = -worse.latents
        resid_base = np.sum(
            (data.y - np.einsum("npd,nd->np", state.transformations, state.latents)) ** 2
        )
        resid_worse = np.sum(
            (data.y - np.einsum("npd,nd->np", worse.transformations, worse.latents)) ** 2
        )
        assert resid_worse > resid_base
        assert log_posterior_unnorm(worse, lam, data, hp, gibbs._total_sq_residual(worse, data)) \
            < base

    def test_right_rotation_invariance(self):
        rng = np.random.default_rng(23)
        data = Dataset(rng.standard_normal((8, 4)))
        hp = tiny_hp(a2=1.5)
        state = tiny_state(rng, data, hp, d=2)
        r = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        rotated = ModelState(
            transformations=np.einsum("npd,de->npe", state.transformations, r),
            latents=state.latents @ r,
            sigma2=state.sigma2,
        )
        lam = weights(state, hp)
        base = log_posterior_unnorm(state, lam, data, hp, gibbs._total_sq_residual(state, data))
        resid_rotated = gibbs._total_sq_residual(rotated, data)
        assert abs(log_posterior_unnorm(rotated, lam, data, hp, resid_rotated) - base) <= 1e-8 * max(
            1.0, abs(base)
        )

    def test_matches_slow_reimplementation(self):
        rng = np.random.default_rng(24)
        data = Dataset(rng.standard_normal((3, 3)))
        hp = tiny_hp(a2=2.0, tau2=0.7)
        state = tiny_state(rng, data, hp, d=1, sigma2=0.6)
        lam = weights(state, hp)

        resid = 0.0
        for i in range(3):
            recon = state.transformations[i] @ state.latents[i]
            resid += sum((data.y[i, j] - recon[j]) ** 2 for j in range(3))
        expected = -resid / (2 * state.sigma2)
        expected -= (9 / 2) * math.log(state.sigma2)
        for i in range(3):
            for j in range(i + 1, 3):
                tr = float(state.transformations[i][:, 0] @ state.transformations[j][:, 0])
                expected += lam[i, j] * tr
        expected -= sum(float(x @ x) for x in state.latents) / (2 * hp.a2)
        prec = 1.0 / state.sigma2
        expected += (ETA / 2 - 1) * math.log(prec) - (ETA * hp.tau2 / 2) * prec

        got = log_posterior_unnorm(state, lam, data, hp, gibbs._total_sq_residual(state, data))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_latent_prior_omitted_when_infinite(self):
        rng = np.random.default_rng(25)
        data = Dataset(rng.standard_normal((4, 3)))
        hp_fin = tiny_hp(a2=2.0)
        hp_inf = tiny_hp(a2=math.inf)
        state = tiny_state(rng, data, hp_fin, d=1)
        sq_residual, lam = gibbs._total_sq_residual(state, data), weights(state, hp_fin)
        gap = (log_posterior_unnorm(state, lam, data, hp_inf, sq_residual)
               - log_posterior_unnorm(state, lam, data, hp_fin, sq_residual))
        assert gap == pytest.approx(float(np.sum(state.latents**2)) / 4.0, abs=1e-10)
