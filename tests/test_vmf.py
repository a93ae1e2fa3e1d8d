import math

import numpy as np
import pytest
from scipy import stats

from conftest import (
    circle_mean_resultant,
    circle_vmf_moment,
    sphere_cosine_moment,
    vmf_log_density_unnorm,
)
from nlpca.stiefel import (
    _uniform_unit_vector,
    frames_orthonormal,
    null_space_basis,
    sample_uniform_stiefel,
)
from nlpca.vmf import (
    _VONMISES_BAND,
    VmfParam,
    _circle_draw,
    _complement_reflectors,
    _lift,
    _to_complement,
    _vmf_vector_draw,
    _wood_cosine,
    column_gibbs_pass,
    vmf_mode,
    vmf_sample_column_gibbs,
    vmf_sample_rejection,
    vmf_sample_vector,
)


def circle_param(kappa):
    return VmfParam(np.array([[kappa], [0.0]]))


def make_param(rng, p, d, scale=1.0):
    return VmfParam(scale * rng.standard_normal((p, d)))


class TestLogDensity:
    def test_zero_param_is_flat(self):
        rng = np.random.default_rng(0)
        c = VmfParam(np.zeros((4, 2)))
        for _ in range(5):
            x = sample_uniform_stiefel(4, 2, rng)
            assert vmf_log_density_unnorm(x, c) == 0.0

    def test_value_at_mode_is_singular_value_sum(self):
        # With singular values (3, 1): tr(C^T U V^T) = tr(D) = 4.
        rng = np.random.default_rng(1)
        u = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        c = VmfParam(u @ np.diag([3.0, 1.0]) @ v.T)
        assert abs(vmf_log_density_unnorm(vmf_mode(c), c) - 4.0) <= 1e-10

    def test_param_equal_to_frame_gives_d(self):
        rng = np.random.default_rng(2)
        x = sample_uniform_stiefel(6, 3, rng)
        assert abs(vmf_log_density_unnorm(x, VmfParam(x.matrix)) - 3.0) <= 1e-10


class TestMode:
    def test_axis_vector(self):
        c = VmfParam(np.array([3.0, 0.0, 0.0]))
        assert np.allclose(vmf_mode(c).matrix[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_scaled_identity(self):
        c = VmfParam(5.0 * np.eye(2))
        assert np.allclose(vmf_mode(c).matrix, np.eye(2), atol=1e-12)

    def test_density_maximal_over_uniform_draws(self):
        rng = np.random.default_rng(4)
        c = make_param(rng, 3, 2)
        best = vmf_log_density_unnorm(vmf_mode(c), c)
        for _ in range(10_000):
            x = sample_uniform_stiefel(3, 2, rng)
            assert vmf_log_density_unnorm(x, c) <= best + 1e-12


class TestRejectionSampler:
    def test_zero_param_accepts_first_proposal(self):
        rng = np.random.default_rng(5)
        c = VmfParam(np.zeros((3, 2)))
        for _ in range(20):
            _, attempts = vmf_sample_rejection(c, rng)
            assert attempts == 1

    def test_acceptance_exponent_zero_at_mode(self):
        rng = np.random.default_rng(6)
        c = make_param(rng, 4, 2)
        s = np.linalg.svd(c.c_matrix, compute_uv=False)
        assert abs(vmf_log_density_unnorm(vmf_mode(c), c) - s.sum()) <= 1e-10

    def test_circle_mean_resultant_kappa_2(self):
        rng = np.random.default_rng(7)
        c = circle_param(2.0)
        n = 10_000
        cosines = np.empty(n)
        for k in range(n):
            x, _ = vmf_sample_rejection(c, rng)
            cosines[k] = x.matrix[0, 0]
        target = circle_mean_resultant(2.0)
        var = circle_vmf_moment(2.0, lambda t: math.cos(t) ** 2) - target**2
        assert abs(cosines.mean() - target) <= 3 * math.sqrt(var / n)

    def test_budget_exhaustion_raises(self):
        rng = np.random.default_rng(8)
        c = VmfParam(200.0 * np.eye(3, 1))
        with pytest.raises(RuntimeError, match="no acceptance in 50 uniform proposals"):
            vmf_sample_rejection(c, rng, max_attempts=50)

    def test_log_ratio_bounded_over_uniform_draws(self):
        # tr(C^T X) <= sum of singular values of C for every Stiefel X.
        rng = np.random.default_rng(9)
        c = make_param(rng, 3, 2)
        bound = np.linalg.svd(c.c_matrix, compute_uv=False).sum()
        for _ in range(100_000):
            x = sample_uniform_stiefel(3, 2, rng)
            assert vmf_log_density_unnorm(x, c) <= bound + 1e-12


class TestVectorSampler:
    def test_uniform_at_zero_kappa(self):
        rng = np.random.default_rng(10)
        n = 20_000
        draws = np.array([vmf_sample_vector(np.eye(3)[0], 0.0, rng) for _ in range(n)])
        se = math.sqrt((1.0 / 3.0) / n)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)

    def test_cosine_moment_kappa_10_p3(self):
        rng = np.random.default_rng(11)
        mu = np.eye(3)[0]
        n = 10_000
        cosines = np.array([vmf_sample_vector(mu, 10.0, rng)[0] for _ in range(n)])
        target = sphere_cosine_moment(10.0, p=3)
        var = sphere_cosine_moment(10.0, p=3, moment=2) - target**2
        assert abs(cosines.mean() - target) <= 3 * math.sqrt(var / n)

    def test_cosine_moment_p2_matches_circle(self):
        rng = np.random.default_rng(12)
        mu = np.eye(2)[0]
        n = 10_000
        cosines = np.array([vmf_sample_vector(mu, 3.0, rng)[0] for _ in range(n)])
        target = circle_mean_resultant(3.0)
        var = circle_vmf_moment(3.0, lambda t: math.cos(t) ** 2) - target**2
        assert abs(cosines.mean() - target) <= 3 * math.sqrt(var / n)

    def test_unit_norm_always(self):
        rng = np.random.default_rng(13)
        mu = np.array([0.6, 0.8, 0.0, 0.0])
        for kappa in (0.0, 1.0, 50.0, 1e6):
            for _ in range(100):
                x = vmf_sample_vector(mu, kappa, rng)
                assert abs(np.linalg.norm(x) - 1.0) <= 1e-10

    def test_rejects_non_unit_direction(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            vmf_sample_vector(np.array([1.0, 1.0]), 2.0, rng)

    def test_rejects_negative_kappa(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            vmf_sample_vector(np.eye(2)[0], -1.0, rng)

    @pytest.mark.parametrize(
        "direction, kappa",
        [(np.eye(3)[0], math.nan), (np.eye(3)[0], math.inf), (np.full(3, math.nan), 2.0)],
    )
    def test_rejects_nan_and_infinite_input(self, direction, kappa):
        # NaN never passes the rejection test, so it must fail on entry.
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            vmf_sample_vector(direction, kappa, rng)


class TestVectorDraw:
    """The unchecked draw behind column_gibbs_pass and vmf_sample_vector."""

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0])
    def test_raises_instead_of_looping(self, kappa):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            _vmf_vector_draw(np.eye(3)[0], kappa, rng)

    @pytest.mark.parametrize("p, kappa", [(2, 0.5), (3, 10.0), (196, 3.0), (5, 1e6)])
    def test_same_bits_as_validated_form(self, p, kappa):
        mu = np.random.default_rng(18).standard_normal(p)
        mu /= np.linalg.norm(mu)
        rng_a, rng_b = np.random.default_rng(19), np.random.default_rng(19)
        for _ in range(20):
            assert np.array_equal(
                _vmf_vector_draw(mu, kappa, rng_a), vmf_sample_vector(mu, kappa, rng_b)
            )
        assert rng_a.random() == rng_b.random()

    def test_circle_tangent_matches_general_step(self):
        # Outside the von Mises band a circle draw is the general Wood step:
        # the tangent projects and normalises a normal pair.  Both entry
        # points, _vmf_vector_draw on the 2-vector and _circle_draw in Python
        # floats, must give this step's bits and leave the stream where it
        # does.  The first two kappas are the nearest doubles outside the
        # band.
        def general_step_draw(mu, kappa, rng):
            t, sine = _wood_cosine(kappa, mu.size - 1, rng)
            while True:
                g = rng.standard_normal(mu.size)
                tangent = g - (g @ mu) * mu
                norm = math.sqrt(tangent @ tangent)
                if norm > 1e-12:
                    tangent /= norm
                    break
            x = t * mu + sine * tangent
            return x / math.sqrt(x @ x)

        rng = np.random.default_rng(20)
        low, high = _VONMISES_BAND
        kappas = np.concatenate([
            [np.nextafter(low, 0.0), np.nextafter(high, math.inf)],
            10.0 ** rng.uniform(-12, math.log10(low), 999),
            10.0 ** rng.uniform(math.log10(high), 16, 999),
        ])
        for k, kappa in enumerate(kappas):
            mu = rng.standard_normal(2)
            mu /= np.linalg.norm(mu)
            rng_a, rng_b, rng_c = (np.random.default_rng(k) for _ in range(3))
            reference = general_step_draw(mu, kappa, rng_b)
            assert np.array_equal(_vmf_vector_draw(mu, kappa, rng_a), reference)
            assert np.array_equal(_circle_draw(*mu.tolist(), kappa, rng_c), reference)
            assert rng_a.random() == rng_b.random() == rng_c.random()

    @pytest.mark.parametrize("kappa", [1e-8, 1e-6, 1e-3, 0.5, 3.0, 100.0, 1e4, 1e6])
    def test_circle_in_band_matches_quadrature(self, kappa):
        # Inside the band the circle draw is NumPy's von Mises angle.  Its
        # angle phi to a random mean direction must have the quadrature mean
        # of the gap 1 - cos(phi) = 2 sin^2(phi / 2), which keeps its digits
        # at large kappa, and a sine of mean 0.  The band's edges are cases.
        rng = np.random.default_rng(30)
        n = 4000
        mu = rng.standard_normal(2)
        mu /= np.linalg.norm(mu)
        draws = np.array([_vmf_vector_draw(mu, kappa, rng) for _ in range(n)])
        phi = np.arctan2(mu[0] * draws[:, 1] - mu[1] * draws[:, 0], draws @ mu)
        gap = 2.0 * np.sin(0.5 * phi) ** 2
        target = circle_vmf_moment(kappa, lambda t: 2.0 * math.sin(0.5 * t) ** 2)
        assert abs(gap.mean() - target) <= 4 * gap.std(ddof=1) / math.sqrt(n)
        sine = np.sin(phi)
        assert abs(sine.mean()) <= 4 * sine.std(ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("p", [2, 3, 196])
    @pytest.mark.parametrize("kappa", [1e15, 1e16, 1e20, 1e100, 1e300])
    def test_concentrated_draw_keeps_its_spread(self, p, kappa):
        # For large kappa, kappa |x_perp|^2 tends to 2 Gamma((p-1)/2, 1), with
        # mean p - 1 and variance 2(p - 1).  mu = e_1 keeps x_perp exact.
        rng = np.random.default_rng(21)
        mu = np.eye(p)[0]
        n = 4000
        stat = np.array(
            [kappa * np.sum(_vmf_vector_draw(mu, kappa, rng)[1:] ** 2) for _ in range(n)]
        )
        se = stat.std(ddof=1) / math.sqrt(n)
        assert abs(stat.mean() - (p - 1)) <= 4 * se


class TestVonMisesBand:
    """Generator.vonmises is Best and Fisher's exact sampler only for
    1e-8 <= kappa <= 1e6.  Below that it returns the uniform angle
    pi (2U - 1) and above it the wrapped normal mu + N / sqrt(kappa), and
    neither is exact.  _circle_draw uses it inside _VONMISES_BAND only, so a
    NumPy whose band differs must fail here, not make the kernel approximate.
    Twin generators show which formula a draw took."""

    MU = 0.25

    def uniform_shortcut(self, rng):
        return math.pi * (2.0 * rng.random() - 1.0)

    def normal_shortcut(self, kappa, rng):
        return self.MU + math.sqrt(1.0 / kappa) * rng.standard_normal()

    def takes(self, shortcut, kappa):
        rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
        return [rng_a.vonmises(self.MU, kappa) == shortcut(rng_b) for _ in range(20)]

    def test_shortcuts_just_outside_band(self):
        low, high = _VONMISES_BAND
        assert all(self.takes(self.uniform_shortcut, np.nextafter(low, 0.0)))
        above = np.nextafter(high, math.inf)
        assert all(self.takes(lambda rng: self.normal_shortcut(above, rng), above))

    @pytest.mark.parametrize("kappa", _VONMISES_BAND)
    def test_exact_sampler_at_band_edges(self, kappa):
        assert not any(self.takes(self.uniform_shortcut, kappa))
        assert not any(self.takes(lambda rng: self.normal_shortcut(kappa, rng), kappa))

    @pytest.mark.parametrize("kappa", _VONMISES_BAND)
    def test_circle_draw_takes_vonmises_at_band_edges(self, kappa):
        mu0, mu1 = 0.6, -0.8
        rng_a, rng_b = np.random.default_rng(32), np.random.default_rng(32)
        for _ in range(20):
            theta = rng_b.vonmises(math.atan2(mu1, mu0), kappa)
            assert _circle_draw(mu0, mu1, kappa, rng_a) == (math.cos(theta), math.sin(theta))
        assert rng_a.random() == rng_b.random()


class TestColumnGibbs:
    def test_circle_matches_rejection_and_quadrature(self):
        # d = 1 makes every column pass an exact draw, so the chain is i.i.d.
        rng = np.random.default_rng(16)
        kappa = 2.0
        c = circle_param(kappa)
        n = 10_000
        start = sample_uniform_stiefel(2, 1, rng)
        gibbs_cos = np.empty(n)
        rej_cos = np.empty(n)
        for k in range(n):
            gibbs_cos[k] = vmf_sample_column_gibbs(c, start, 1, rng).matrix[0, 0]
            x, _ = vmf_sample_rejection(c, rng)
            rej_cos[k] = x.matrix[0, 0]
        target = circle_mean_resultant(kappa)
        var = circle_vmf_moment(kappa, lambda t: math.cos(t) ** 2) - target**2
        se = math.sqrt(var / n)
        assert abs(gibbs_cos.mean() - target) <= 3 * se
        joint = math.sqrt(2.0) * se
        assert abs(gibbs_cos.mean() - rej_cos.mean()) <= 3 * joint

    @pytest.mark.parametrize("p, d", [(3, 2), (4, 3), (196, 2)])
    @pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e4, 1e8, 1e16])
    def test_chained_passes_stay_orthonormal(self, p, d, kappa):
        rng = np.random.default_rng(22)
        g = rng.standard_normal((p, d))
        cm = kappa * g / np.linalg.norm(g)
        x = sample_uniform_stiefel(p, d, rng).matrix.copy()
        for _ in range(2000):
            column_gibbs_pass(cm, x, rng)
            assert frames_orthonormal(x, 1e-12)

    def test_zero_param_stays_uniform(self):
        rng = np.random.default_rng(17)
        c = VmfParam(np.zeros((3, 1)))
        n = 20_000
        start = sample_uniform_stiefel(3, 1, rng)
        draws = np.array(
            [vmf_sample_column_gibbs(c, start, 1, rng).matrix[:, 0] for _ in range(n)]
        )
        se = math.sqrt((1.0 / 3.0) / n)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)
        second = draws.T @ draws / n
        var_diag = 3.0 / 15.0 - 1.0 / 9.0
        assert np.all(np.abs(second - np.eye(3) / 3.0) <= 4 * math.sqrt(var_diag / n) + 1e-12)

    @staticmethod
    def one_pass_from_exact(c, n, rng):
        """One pass from each of n exact rejection draws: asserts that the
        mean of tr(C^T X) is unchanged, and returns X0^T X1 per draw."""
        after = np.empty(n)
        exact = np.empty(n)
        moves = np.empty((n, c.d, c.d))
        for k in range(n):
            x0, _ = vmf_sample_rejection(c, rng)
            exact[k] = vmf_log_density_unnorm(x0, c)
            x1 = vmf_sample_column_gibbs(c, x0, 1, rng)
            after[k] = vmf_log_density_unnorm(x1, c)
            moves[k] = x0.matrix.T @ x1.matrix
        joint_se = math.sqrt(after.var(ddof=1) / n + exact.var(ddof=1) / n)
        assert abs(after.mean() - exact.mean()) <= 3.5 * joint_se
        return moves

    def test_tall_frame_invariance_one_sweep(self):
        # Same one-sweep invariance check on a 3 x 2 frame (one reflector per
        # column) via the rejection sampler as the exact reference.
        rng = np.random.default_rng(20)
        self.one_pass_from_exact(make_param(rng, 3, 2), 3_000, rng)

    def test_tall_frame_two_reflectors_invariance_one_sweep(self):
        # 4 x 3: each column's complement takes two reflectors.
        rng = np.random.default_rng(20)
        self.one_pass_from_exact(make_param(rng, 4, 3, scale=0.6), 2_000, rng)

    def test_px2_step_invariance_one_sweep(self):
        # 5 x 2: the p x 2 step on a few products, against exact draws.
        rng = np.random.default_rng(20)
        self.one_pass_from_exact(make_param(rng, 5, 2, scale=0.6), 3_000, rng)

    @pytest.mark.parametrize("p", [3, 4, 5, 196])
    def test_d2_steps_match_general_helpers(self, p):
        # The d = 2 pass (Python floats at p = 3, a few products above)
        # against the general path composed from its helpers, on twin
        # generators: same variates, same frame.
        # Each column's m = N^T c_k cancels when c_k is nearly in the span of
        # the other column, losing digits in proportion to |c_k| / kappa_k,
        # and column 1 reads column 0's draw, so the tolerance carries the
        # product of both columns' factors.
        # At p = 3 a kappa inside the von Mises band draws the angle theta
        # from the mean as acos(W), with W = (1 + s Z) / (s + Z) for a
        # uniform-derived Z and Best and Fisher's s(kappa).  Its rounding
        # is amplified twice.  An absolute error eps in W moves
        # theta = acos(W) by eps / |sin theta|.  And an error of one ulp in
        # s, eps s, moves W by (dW/ds) eps s = -sin^2(theta) eps s / (s^2 - 1)
        # (from 1 - W^2 = (s^2 - 1)(1 - Z^2) / (s + Z)^2), hence theta by
        # |sin theta| eps s / (s^2 - 1), and s / (s^2 - 1) ~ kappa at both
        # ends of the band (s ~ 1 / kappa when kappa is small, and
        # s - 1 ~ 1 / (2 kappa) when it is large).  The two paths' kappas
        # differ by rounding, and so may their s, so such a column's factor
        # also carries 1 / |sin theta| + kappa |sin theta|, read from the
        # general path's draw.  Near the mode at kappa ~ 1e6 this is ~2e3.
        uniform_draws = []

        def general_pass(cm, x, rng):
            cancellation = 1.0
            for k in range(2):
                reflectors = _complement_reflectors(x, (k,))
                m = _to_complement(reflectors, cm[:, k])
                kappa = math.sqrt(m @ m)
                if kappa == 0.0:
                    uniform_draws.append(k)
                    z = _uniform_unit_vector(p - 1, rng)
                else:
                    mu = m / kappa
                    z = _vmf_vector_draw(mu, kappa, rng)
                    cancellation *= np.linalg.norm(cm[:, k]) / kappa
                    if p == 3 and _VONMISES_BAND[0] <= kappa <= _VONMISES_BAND[1]:
                        sine = abs(mu[0] * z[1] - mu[1] * z[0])
                        cancellation *= 1.0 / sine + kappa * sine
                x[:, k] = _lift(reflectors, z)
            return cancellation

        rng = np.random.default_rng(27)
        scales = np.concatenate(
            [10.0 ** rng.uniform(-8, 8, 1800), 10.0 ** rng.uniform(16, 20, 100)]
        )
        cases = [(scale * rng.standard_normal((p, 2)),
                  sample_uniform_stiefel(p, 2, rng).matrix) for scale in scales]
        # Column 0 of C along column 1 of a signed-permutation frame: m is
        # exactly 0 on both paths, so both take the uniform branch.
        for _ in range(100):
            x = np.eye(p)[rng.permutation(p)[:2]].T * rng.choice([-1.0, 1.0], 2)
            cm = np.column_stack((rng.uniform(-4, 4) * x[:, 1], rng.standard_normal(p)))
            cases.append((cm, x))
        for k, (cm, x) in enumerate(cases):
            fast, general = x.copy(), x.copy()
            rng_a, rng_b = np.random.default_rng(k), np.random.default_rng(k)
            column_gibbs_pass(cm, fast, rng_a)
            cancellation = general_pass(cm, general, rng_b)
            np.testing.assert_allclose(fast, general, rtol=0, atol=1e-14 * cancellation)
            assert rng_a.random() == rng_b.random()
        assert uniform_draws.count(0) == 100

    @pytest.mark.parametrize("p", [3, 5, 196])
    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_param_along_other_column_gives_uniform_column(self, p, scale):
        # c_0 = scale x_1 leaves column 0's complement only the rounding of
        # its entries, kappa ~ 1e-16 scale, so column 0 is uniform there: two
        # passes from one frame give columns whose dot product has mean 0 and
        # variance 1 / (p - 1).  The expansion kappa^2 = c'.c' - 2f c'.o' +
        # f^2 o'.o' leaves rounding noise of ~1e-16 scale^2 instead, which
        # puts both draws near one direction, or is negative.
        rng = np.random.default_rng(29)
        n = 200
        dots = np.empty(n)
        for k in range(n):
            x = sample_uniform_stiefel(p, 2, rng).matrix
            cm = np.column_stack((scale * x[:, 1], rng.standard_normal(p)))
            y0, y1 = x.copy(), x.copy()
            column_gibbs_pass(cm, y0, rng)
            column_gibbs_pass(cm, y1, rng)
            dots[k] = y0[:, 0] @ y1[:, 0]
        assert abs(dots.mean()) <= 5.0 / math.sqrt((p - 1) * n)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("p", [3, 5, 196])
    @pytest.mark.parametrize("bad", ["cm_nan", "cm_inf", "cm_minus_inf", "x_nan", "cm_1e200"])
    def test_non_finite_input_raises(self, p, bad):
        # The guard on kappa refuses each of these before anything non-finite
        # is stored.  kappa's square overflows for entries of 1e200.
        rng = np.random.default_rng(28)
        cm = rng.standard_normal((p, 2))
        x = sample_uniform_stiefel(p, 2, rng).matrix.copy()
        if bad == "x_nan":
            x[0, 1] = math.nan  # column 0's step reads column 1
        elif bad == "cm_1e200":
            cm[:] = 1e200
        else:
            cm[1, 0] = {"cm_nan": math.nan, "cm_inf": math.inf, "cm_minus_inf": -math.inf}[bad]
        before = x.copy()
        with pytest.raises(ValueError):
            column_gibbs_pass(cm, x, rng)
        assert np.array_equal(x, before, equal_nan=True)

    @pytest.mark.parametrize("p, r", [(5, 1), (196, 1), (5, 2), (6, 4)])
    def test_implicit_complement_matches_null_space_basis(self, p, r):
        # The reflectors give the explicit QR complement basis N: N^T c into
        # complement coordinates and N z back, to rounding.
        rng = np.random.default_rng(25)
        others = sample_uniform_stiefel(p, r, rng).matrix
        basis = null_space_basis(others)
        reflectors = _complement_reflectors(others, ())
        c = rng.standard_normal(p)
        z = rng.standard_normal(p - r)
        assert np.allclose(_to_complement(reflectors, c), basis.T @ c, rtol=0, atol=1e-12)
        assert np.allclose(_lift(reflectors, z), basis @ z, rtol=0, atol=1e-12)

    def test_validates_arguments(self):
        rng = np.random.default_rng(21)
        c = make_param(rng, 3, 2)
        start = sample_uniform_stiefel(3, 2, rng)
        with pytest.raises(ValueError):
            vmf_sample_column_gibbs(c, start, 0, rng)
        with pytest.raises(ValueError):
            vmf_sample_column_gibbs(c, sample_uniform_stiefel(4, 2, rng), 1, rng)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_square_frame_refused_before_any_draw(self, p):
        rng = np.random.default_rng(23)
        c = make_param(rng, p, p)
        start = sample_uniform_stiefel(p, p, rng)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="d < p"):
            vmf_sample_column_gibbs(c, start, 1, rng)
        assert rng.bit_generator.state == before


class TestEquivariance:
    def test_left_rotation_of_parameter(self):
        # Samples from vMF(QC) match Q times samples from vMF(C) in mean.
        rng = np.random.default_rng(26)
        kappa = 3.0
        mu = np.array([1.0, 0.0, 0.0])
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        c = VmfParam(kappa * mu[:, None])
        cq = VmfParam(q @ c.c_matrix)
        n = 2_000
        direct = np.empty((n, 3))
        rotated = np.empty((n, 3))
        for k in range(n):
            direct[k] = vmf_sample_rejection(cq, rng)[0].matrix[:, 0]
            rotated[k] = q @ vmf_sample_rejection(c, rng)[0].matrix[:, 0]
        se = np.sqrt(direct.var(axis=0, ddof=1) / n + rotated.var(axis=0, ddof=1) / n)
        assert np.all(np.abs(direct.mean(axis=0) - rotated.mean(axis=0)) <= 4 * se)


class TestCircleGoodnessOfFit:
    @pytest.mark.parametrize("sampler", ["rejection", "column_gibbs"])
    def test_angular_histogram(self, sampler):
        # Chi-square GOF against the quadrature-normalized circular density.
        from scipy import integrate

        kappa = 2.0
        c = circle_param(kappa)
        rng = np.random.default_rng(27)
        n, bins = 10_000, 36
        angles = np.empty(n)
        start = sample_uniform_stiefel(2, 1, rng)
        for k in range(n):
            if sampler == "rejection":
                x, _ = vmf_sample_rejection(c, rng)
            else:
                x = vmf_sample_column_gibbs(c, start, 1, rng)
            angles[k] = math.atan2(x.matrix[1, 0], x.matrix[0, 0])
        edges = np.linspace(-math.pi, math.pi, bins + 1)
        counts, _ = np.histogram(angles, bins=edges)
        den = integrate.quad(lambda t: math.exp(kappa * (math.cos(t) - 1)), -math.pi, math.pi)[0]
        probs = np.array(
            [
                integrate.quad(
                    lambda t: math.exp(kappa * (math.cos(t) - 1)), edges[i], edges[i + 1]
                )[0]
                / den
                for i in range(bins)
            ]
        )
        expected = n * probs
        stat = float(np.sum((counts - expected) ** 2 / expected))
        p_value = stats.chi2.sf(stat, df=bins - 1)
        assert p_value > 0.001
