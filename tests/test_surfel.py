"""Tests for the per-surfel variational updates."""

import math

import numpy as np
import pytest

from stmmap.distributions import (
    GaussianCanonical,
    GaussianMoment,
    InverseGammaFactor,
    gauss_divide,
    gauss_product,
    ig_divide,
    ig_product,
    kl_gaussian,
)
from stmmap.surfel import (
    ALPHA_BETA_PRIOR_VAR,
    INIT_HEIGHT_VAR,
    NU_MSG_EXPONENT,
    Measurement,
    SurfelState,
    _fused_cluster_joint,
    apportion_nu_scales,
    compute_incoming_message,
    init_likelihood_cluster,
    jacobian_f,
    mean_plane_eval,
    update_mean_plane_factor,
    update_planar_deviation_factor,
)

LABELS = ("h0", "ha", "hb")


def fresh_state(prior_var=100.0, a_p=1.0, b_p=1.0):
    omega = np.eye(3) / prior_var
    return SurfelState(
        sid=0,
        labels=LABELS,
        prior_h=GaussianCanonical(np.zeros(3), omega),
        prior_nu=InverseGammaFactor.normalized(a_p, b_p),
    )


def fixed_nu_state(nu, prior_var=1e12):
    # an essentially point-mass deviation belief pins nu at a known value
    a = 1e12
    omega = np.eye(3) / prior_var
    return SurfelState(
        sid=0,
        labels=LABELS,
        prior_h=GaussianCanonical(np.zeros(3), omega),
        prior_nu=InverseGammaFactor.normalized(a, nu * a),
    )


class TestMeanPlaneEval:
    def test_vertices(self):
        h = (1.0, 2.0, 3.0)
        assert mean_plane_eval(0, 0, h) == 1.0
        assert mean_plane_eval(1, 0, h) == 2.0
        assert mean_plane_eval(0, 1, h) == 3.0

    def test_centroid(self):
        h = (1.0, 2.0, 3.0)
        assert mean_plane_eval(1 / 3, 1 / 3, h) == pytest.approx(2.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        eps = 1e-7
        for _ in range(100):
            h = rng.normal(size=3)
            a, b = rng.uniform(0, 0.5, 2)
            grad = jacobian_f(np.concatenate([h, [a, b]]))
            num = []
            for k in range(3):
                hp = h.copy()
                hp[k] += eps
                num.append((mean_plane_eval(a, b, hp) - mean_plane_eval(a, b, h)) / eps)
            num.append((mean_plane_eval(a + eps, b, h) - mean_plane_eval(a, b, h)) / eps)
            num.append((mean_plane_eval(a, b + eps, h) - mean_plane_eval(a, b, h)) / eps)
            np.testing.assert_allclose(grad, num, atol=1e-6)


class TestJacobian:
    def test_zero_point(self):
        np.testing.assert_array_equal(
            jacobian_f(np.zeros(5)), [1.0, 0.0, 0.0, 0.0, 0.0]
        )

    def test_given_point(self):
        np.testing.assert_allclose(
            jacobian_f([1, 2, 3, 0.2, 0.3]), [0.5, 0.2, 0.3, 1.0, 2.0]
        )


class TestMeasurement:
    def test_fields_are_private_and_read_only(self):
        mean, cov = np.array([0.1, 0.2, 0.3]), 0.01 * np.eye(3)
        m = Measurement(mean, cov, 0)
        mean[2] = cov[0, 0] = 9.0
        np.testing.assert_array_equal(m.mean, [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(m.cov, 0.01 * np.eye(3))
        for arr in (m.mean, m.cov):
            assert arr.base is None  # owned, not a view of the caller's buffer
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestInitialization:
    def test_single_measurement_mean(self):
        state = fresh_state(prior_var=1e12)
        m = Measurement([0.2, 0.3, 2.0], 0.01 * np.eye(3), 0)
        cluster = init_likelihood_cluster(m, nu_scale=1.0)
        state.clusters.append(cluster)
        state.recompute_beliefs()
        mom = state.belief_h.to_moments()
        np.testing.assert_allclose(mom.mu, [2.0, 2.0, 2.0], atol=1e-3)

    def test_init_height_message_variance(self):
        m = Measurement([0.2, 0.3, 2.0], 0.01 * np.eye(3), 0)
        cluster = init_likelihood_cluster(m, nu_scale=1.0)
        np.testing.assert_allclose(
            cluster.out_msg_h.omega, np.eye(3) / INIT_HEIGHT_VAR
        )
        assert cluster.out_msg_nu.exponent == NU_MSG_EXPONENT

    def test_two_measurement_population_variance(self):
        # gammas {1, 3} have population variance 1
        state = fresh_state(a_p=1.0, b_p=1.0)
        gammas = np.array([1.0, 3.0])
        scale = apportion_nu_scales(
            gammas,
            existing_exponent=state.prior_nu.exponent,
            existing_scale=state.prior_nu.scale,
            fallback_var=1.0,
        )
        for k, g in enumerate(gammas):
            m = Measurement([0.2, 0.3, g], 0.01 * np.eye(3), k)
            state.clusters.append(init_likelihood_cluster(m, scale))
        state.recompute_beliefs()
        assert state.expected_deviation() == pytest.approx(1.0)

    def test_zero_measurement_surfel_keeps_prior(self):
        state = fresh_state()
        mom = state.belief_h.to_moments()
        np.testing.assert_allclose(mom.mu, np.zeros(3), atol=1e-12)
        assert state.belief_nu == state.prior_nu

    def test_target_var_preserved(self):
        # re-observation passes the current expectation as the target
        scale = apportion_nu_scales(
            np.array([0.0, 10.0]),
            existing_exponent=2.0,
            existing_scale=0.5,
            fallback_var=1.0,
            target_var=0.5,
        )
        shape_after = 1.0 + 2 * NU_MSG_EXPONENT
        assert (0.5 + 2 * scale) / shape_after == pytest.approx(0.5)


class TestIncomingMessage:
    def _three_cluster_state(self, seed):
        rng = np.random.default_rng(seed)
        state = fresh_state()
        for k in range(3):
            m = Measurement(
                np.concatenate([rng.uniform(0, 0.5, 2), rng.normal(size=1)]),
                0.05 * np.eye(3),
                k,
            )
            state.clusters.append(init_likelihood_cluster(m, 0.5))
        state.recompute_beliefs()
        return state

    def test_single_cluster_vacuous_context(self):
        state = fresh_state(prior_var=1e18)
        m = Measurement([0.2, 0.3, 2.0], 0.01 * np.eye(3), 0)
        state.clusters.append(init_likelihood_cluster(m, 1.0))
        state.recompute_beliefs()
        in_h, _ = compute_incoming_message(state, state.clusters[0])
        assert np.max(np.abs(in_h.omega)) < 1e-12

    def test_incoming_times_outgoing_is_belief(self):
        state = self._three_cluster_state(21)
        c = state.clusters[1]
        in_h, in_nu = compute_incoming_message(state, c)
        recomposed = gauss_product(in_h, c.out_msg_h)
        np.testing.assert_allclose(recomposed.xi, state.belief_h.xi, atol=1e-12)
        nu = ig_product(in_nu, c.out_msg_nu)
        assert nu.exponent == pytest.approx(state.belief_nu.exponent)
        assert nu.scale == pytest.approx(state.belief_nu.scale)

    def test_matches_direct_product(self):
        for seed in range(5):
            state = self._three_cluster_state(30 + seed)
            c = state.clusters[0]
            in_h, _ = compute_incoming_message(state, c)
            direct = gauss_product(state.prior_h, state.neighbor_in_msg)
            for other in state.clusters[1:]:
                direct = gauss_product(direct, other.out_msg_h)
            np.testing.assert_allclose(in_h.xi, direct.xi, atol=1e-9)
            np.testing.assert_allclose(in_h.omega, direct.omega, atol=1e-9)

    def test_refit_leaves_fused_joint_unchanged(self):
        # the deviation refit reuses the joint the mean-plane refit built
        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(a))

        state = self._three_cluster_state(40)
        for _ in range(3):
            for c in state.clusters:
                joint = update_mean_plane_factor(state, c)
                xi, omega, in_h, in_nu = _fused_cluster_joint(state, c)
                assert rel(joint[0], xi) < 1e-10
                assert rel(joint[1], omega) < 1e-10
                assert rel(joint[2].xi, in_h.xi) < 1e-10
                assert rel(joint[2].omega, in_h.omega) < 1e-10
                assert joint[3] == in_nu
                update_planar_deviation_factor(state, c, joint)


class TestMeanPlaneUpdate:
    def test_corner_measurement_conjugate_posterior(self):
        # a measurement at (alpha, beta) = (0, 0) with deterministic
        # position constrains only h0: posterior N(z_gamma, r + nu)
        nu = 0.05
        r = 0.02
        prior_var = 1e6
        state = fixed_nu_state(nu, prior_var=prior_var)
        m = Measurement([0.0, 0.0, 1.7], np.diag([1e-12, 1e-12, r]), 0)
        state.clusters.append(init_likelihood_cluster(m, nu))
        state.recompute_beliefs()
        for _ in range(40):
            update_mean_plane_factor(state, state.clusters[0])
        mom = state.belief_h.to_moments()
        # conjugate posterior with the (near-vacuous) prior folded in
        var_expect = 1.0 / (1.0 / (r + nu) + 1.0 / prior_var)
        assert mom.mu[0] == pytest.approx(1.7, rel=1e-5)
        assert mom.sigma[0, 0] == pytest.approx(var_expect, rel=1e-5)
        assert mom.sigma[1, 1] > 0.1 * prior_var  # h_alpha unconstrained
        assert mom.sigma[2, 2] > 0.1 * prior_var

    def test_uninformative_update_preserves_belief(self):
        state = fixed_nu_state(0.1, prior_var=1.0)
        mom = state.belief_h.to_moments()
        m = Measurement([1 / 3, 1 / 3, 0.0], 1e9 * np.eye(3), 0)
        state.clusters.append(init_likelihood_cluster(m, 0.1))
        state.recompute_beliefs()
        before = state.belief_h
        update_mean_plane_factor(state, state.clusters[0])
        assert kl_gaussian(state.belief_h, before) < 1e-6

    def test_fixed_point_of_repeated_update(self):
        state = fresh_state()
        m = Measurement([0.3, 0.3, 1.0], 0.05 * np.eye(3), 0)
        state.clusters.append(init_likelihood_cluster(m, 0.5))
        state.recompute_beliefs()
        for _ in range(60):
            update_mean_plane_factor(state, state.clusters[0])
        before = state.clusters[0].out_msg_h
        update_mean_plane_factor(state, state.clusters[0])
        after = state.clusters[0].out_msg_h
        assert np.max(np.abs(after.xi - before.xi)) < 1e-10
        assert np.max(np.abs(after.omega - before.omega)) < 1e-10


class TestDeviationUpdate:
    def _converged_state(self, meas_mean, meas_cov):
        state = fresh_state()
        m = Measurement(meas_mean, meas_cov, 0)
        state.clusters.append(init_likelihood_cluster(m, 0.5))
        state.recompute_beliefs()
        return state

    def test_exponent_is_half(self):
        state = self._converged_state([0.3, 0.3, 1.0], 0.05 * np.eye(3))
        joint = update_mean_plane_factor(state, state.clusters[0])
        update_planar_deviation_factor(state, state.clusters[0], joint)
        assert state.clusters[0].out_msg_nu.exponent == 0.5

    def test_deterministic_residual(self):
        # with a point-mass joint the scale is half the squared residual;
        # emulate by fixing heights at 0 via a tight prior and a precise
        # (alpha, beta) measurement with residual 2
        state = fixed_nu_state(1.0, prior_var=1e-14)
        m = Measurement([0.25, 0.25, 2.0], np.diag([1e-14, 1e-14, 1e-14]), 0)
        state.clusters.append(init_likelihood_cluster(m, 1.0))
        state.recompute_beliefs()
        c = state.clusters[0]
        update_planar_deviation_factor(state, c, _fused_cluster_joint(state, c))
        assert c.out_msg_nu.scale == pytest.approx(2.0, rel=1e-3)

    def test_monte_carlo_expected_residual(self):
        # b tracks half the expected squared residual of the fused joint
        rng = np.random.default_rng(22)
        state = fresh_state(prior_var=0.3, a_p=3.0, b_p=0.6)
        m = Measurement([0.3, 0.4, 0.8], np.diag([0.001, 0.001, 0.05]), 0)
        state.clusters.append(init_likelihood_cluster(m, 0.2))
        state.recompute_beliefs()
        joint = update_mean_plane_factor(state, state.clusters[0])
        update_planar_deviation_factor(state, state.clusters[0], joint)

        xi, omega, _, _ = joint
        sigma = np.linalg.inv(omega)
        mu = sigma @ xi
        draws = rng.multivariate_normal(mu, sigma, size=200_000)
        resid = draws[:, 5] - (
            (1 - draws[:, 3] - draws[:, 4]) * draws[:, 0]
            + draws[:, 3] * draws[:, 1]
            + draws[:, 4] * draws[:, 2]
        )
        mc = 0.5 * float(np.mean(resid**2))
        assert state.clusters[0].out_msg_nu.scale == pytest.approx(mc, rel=0.05)


class TestBeliefBookkeeping:
    def test_additive_invariant_through_updates(self):
        rng = np.random.default_rng(23)
        state = fresh_state()
        for k in range(4):
            m = Measurement(
                np.concatenate([rng.uniform(0, 0.5, 2), rng.normal(size=1)]),
                np.diag([0.001, 0.001, 0.04]),
                k,
            )
            state.clusters.append(init_likelihood_cluster(m, 0.3))
        state.recompute_beliefs()
        for _ in range(5):
            for c in state.clusters:
                joint = update_mean_plane_factor(state, c)
                update_planar_deviation_factor(state, c, joint)
                # additive bookkeeping: belief = prior * neighbors * messages
                direct = gauss_product(state.prior_h, state.neighbor_in_msg)
                nu = state.prior_nu
                for other in state.clusters:
                    direct = gauss_product(direct, other.out_msg_h)
                    nu = ig_product(nu, other.out_msg_nu)
                np.testing.assert_allclose(
                    state.belief_h.xi, direct.xi, atol=1e-9
                )
                np.testing.assert_allclose(
                    state.belief_h.omega, direct.omega, atol=1e-9
                )
                assert state.belief_nu.exponent == pytest.approx(nu.exponent)
                assert state.belief_nu.scale == pytest.approx(nu.scale, rel=1e-9)

    def test_shape_bookkeeping(self):
        # after any number of updates: belief shape = a_p + N/2
        rng = np.random.default_rng(24)
        a_p = 1.5
        state = fresh_state(a_p=a_p, b_p=1.0)
        n = 7
        for k in range(n):
            m = Measurement(
                np.concatenate([rng.uniform(0, 0.4, 2), rng.normal(size=1)]),
                np.diag([0.001, 0.001, 0.04]),
                k,
            )
            state.clusters.append(init_likelihood_cluster(m, 0.3))
        state.recompute_beliefs()
        for _ in range(3):
            for c in state.clusters:
                joint = update_mean_plane_factor(state, c)
                update_planar_deviation_factor(state, c, joint)
        assert state.belief_nu.shape == pytest.approx(a_p + n / 2)
