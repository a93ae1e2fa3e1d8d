import math

import numpy as np
import pytest
from scipy import stats

from conftest import circle_mean_resultant, circle_vmf_moment, sphere_cosine_moment
from nlpca.stiefel import (
    _uniform_unit_vector,
    frames_orthonormal,
    null_space_basis,
    sample_uniform_stiefel,
)
from nlpca.vmf import (
    VmfParam,
    _complement_reflectors,
    _lift,
    _to_complement,
    _vmf_vector_draw,
    _wood_cosine,
    column_gibbs_pass,
    vmf_log_density_unnorm,
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

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        x = sample_uniform_stiefel(4, 2, rng)
        with pytest.raises(ValueError):
            vmf_log_density_unnorm(x, VmfParam(np.zeros((3, 2))))


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
        # On the circle the tangent is a sign times mu_perp; the general step
        # projects and normalises a normal pair.  Same variates, same draw.
        # The projection g - (g . mu) mu cancels when g is nearly along mu, so
        # the general step loses digits in proportion to |g| / |tangent|, and
        # the tolerance carries that factor.
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
            return x / math.sqrt(x @ x), math.sqrt(g @ g) / norm

        rng = np.random.default_rng(20)
        kappas = np.concatenate([[1e-8], 10.0 ** rng.uniform(-8, 8, 1999)])
        for k, kappa in enumerate(kappas):
            mu = rng.standard_normal(2)
            mu /= np.linalg.norm(mu)
            rng_a, rng_b = np.random.default_rng(k), np.random.default_rng(k)
            reference, cancellation = general_step_draw(mu, kappa, rng_b)
            np.testing.assert_allclose(
                _vmf_vector_draw(mu, kappa, rng_a),
                reference,
                rtol=0,
                atol=1e-14 * cancellation,
            )
            assert rng_a.random() == rng_b.random()

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

    @pytest.mark.parametrize("p, d", [(3, 2), (2, 2)])
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

    def test_square_frame_sign_flip_probability(self):
        # p = d = 1: support {+1, -1} with odds exp(2c); the update is exact.
        rng = np.random.default_rng(18)
        c = VmfParam(np.array([[1.5]]))
        start = sample_uniform_stiefel(1, 1, rng)
        n = 10_000
        hits = 0
        for _ in range(n):
            hits += vmf_sample_column_gibbs(c, start, 1, rng).matrix[0, 0] > 0
        prob = 1.0 / (1.0 + math.exp(-3.0))
        se = math.sqrt(prob * (1 - prob) / n)
        assert abs(hits / n - prob) <= 3 * se

    def test_orthogonal_group_invariance_one_sweep(self):
        # Start each repetition from an exact rejection draw; one full sweep
        # must leave the target invariant.  Checked on O(2), where the
        # two-point conditional branch is exercised, against a quadrature
        # oracle over both connected components.
        kappa_major, kappa_minor = 2.0, 1.0
        c = VmfParam(np.diag([kappa_major, kappa_minor]))

        def rot_trace(t):
            return (kappa_major + kappa_minor) * math.cos(t)

        def ref_trace(t):
            return (kappa_major - kappa_minor) * math.cos(t)

        from scipy import integrate

        num = integrate.quad(lambda t: rot_trace(t) * math.exp(rot_trace(t)), -math.pi, math.pi)[0]
        num += integrate.quad(lambda t: ref_trace(t) * math.exp(ref_trace(t)), -math.pi, math.pi)[0]
        den = integrate.quad(lambda t: math.exp(rot_trace(t)), -math.pi, math.pi)[0]
        den += integrate.quad(lambda t: math.exp(ref_trace(t)), -math.pi, math.pi)[0]
        target = num / den

        rng = np.random.default_rng(19)
        n = 4_000
        traces = np.empty(n)
        for k in range(n):
            x0, _ = vmf_sample_rejection(c, rng)
            x1 = vmf_sample_column_gibbs(c, x0, 1, rng)
            traces[k] = vmf_log_density_unnorm(x1, c)
        se = traces.std(ddof=1) / math.sqrt(n)
        assert abs(traces.mean() - target) <= 3.5 * se

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

    def square_pairs_move_exactly(self, p, scale):
        # One pass of overlapping pair updates from an exact draw must stay
        # exact, and must move the frame by more than column sign flips
        # (which would keep X0^T X1 diagonal).
        rng = np.random.default_rng(30)
        moves = self.one_pass_from_exact(make_param(rng, p, p, scale=scale), 2_000, rng)
        off_diagonal = np.abs(moves * (1.0 - np.eye(p))).max(axis=(1, 2))
        assert np.mean(off_diagonal > 0.25) > 0.5

    def test_square_frame_pairs_invariant_and_not_sign_flips(self):
        self.square_pairs_move_exactly(3, 0.6)

    def test_square_frame_o4_pairs_invariant_and_not_sign_flips(self):
        # O(4): each pair's complement takes two reflectors.
        self.square_pairs_move_exactly(4, 0.5)

    def test_3x2_float_step_matches_general_helpers(self):
        # The 3 x 2 pass in Python floats against the general path composed
        # from its helpers, on twin generators: same variates, same frame.
        # Each column's m = N^T c_k cancels when c_k is nearly in the span of
        # the other column, losing digits in proportion to |c_k| / kappa_k,
        # and column 1 reads column 0's draw, so the tolerance carries the
        # product of both columns' factors.
        uniform_draws = []

        def general_pass(cm, x, rng):
            cancellation = 1.0
            for k in range(2):
                reflectors = _complement_reflectors(x, (k,))
                m = _to_complement(reflectors, cm[:, k])
                kappa = math.sqrt(m @ m)
                if kappa == 0.0:
                    uniform_draws.append(k)
                    z = _uniform_unit_vector(2, rng)
                else:
                    z = _vmf_vector_draw(m / kappa, kappa, rng)
                    cancellation *= np.linalg.norm(cm[:, k]) / kappa
                x[:, k] = _lift(reflectors, z)
            return cancellation

        rng = np.random.default_rng(27)
        scales = np.concatenate(
            [10.0 ** rng.uniform(-8, 8, 1800), 10.0 ** rng.uniform(16, 20, 100)]
        )
        cases = [(scale * rng.standard_normal((3, 2)),
                  sample_uniform_stiefel(3, 2, rng).matrix) for scale in scales]
        # Column 0 of C along column 1 of a signed-permutation frame: m is
        # exactly 0 on both paths, so both take the uniform branch.
        for _ in range(100):
            x = np.eye(3)[rng.permutation(3)[:2]].T * rng.choice([-1.0, 1.0], 2)
            cm = np.column_stack((rng.uniform(-4, 4) * x[:, 1], rng.standard_normal(3)))
            cases.append((cm, x))
        for k, (cm, x) in enumerate(cases):
            fast, general = x.copy(), x.copy()
            rng_a, rng_b = np.random.default_rng(k), np.random.default_rng(k)
            column_gibbs_pass(cm, fast, rng_a)
            cancellation = general_pass(cm, general, rng_b)
            np.testing.assert_allclose(fast, general, rtol=0, atol=1e-14 * cancellation)
            assert rng_a.random() == rng_b.random()
        assert uniform_draws.count(0) == 100

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("p", [3, 5])
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
