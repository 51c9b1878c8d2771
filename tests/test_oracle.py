"""Tests for the Metropolis-Hastings posterior oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from stmmap.cli import make_emulation_case
from stmmap.distributions import GaussianMoment, inv_psd
from stmmap.mapgraph import PriorConfig
from stmmap.oracle import (
    _LOG_2PI,
    AdaptationFailed,
    ChainConfig,
    ChainResult,
    _log_ig,
    compare_marginals,
    exact_log_joint,
    run_mh,
)
from stmmap.surfel import ALPHA_BETA_PRIOR_VAR, Measurement, MeasurementBatch, SurfelState
from stmmap.distributions import GaussianCanonical, InverseGammaFactor


def independent_log_joint(h, nu, m, measurements, prior):
    """Second, direct implementation from the distribution primitives."""
    if nu <= 0:
        return -math.inf
    h = np.asarray(h, dtype=float)
    m = np.asarray(m, dtype=float).reshape(len(measurements), 3)
    total = 0.0
    for i, meas in enumerate(measurements):
        total += GaussianMoment(meas.mean, meas.cov).log_density(m[i])
        f = (1 - m[i, 0] - m[i, 1]) * h[0] + m[i, 0] * h[1] + m[i, 1] * h[2]
        total += GaussianMoment([f], [[nu]]).log_density([m[i, 2]])
        total += GaussianMoment(
            meas.mean[:2], ALPHA_BETA_PRIOR_VAR * np.eye(2)
        ).log_density(m[i, :2])
    total += GaussianMoment(np.zeros(3), prior.height_covariance()).log_density(h)
    total += InverseGammaFactor.normalized(prior.a_p, prior.b_p).log_density(nu)
    return float(total)


def random_measurements(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        a = rng.normal(size=(3, 3)) * 0.1
        out.append(
            Measurement(
                np.concatenate([rng.uniform(0, 0.5, 2), rng.normal(size=1)]),
                a @ a.T + 0.01 * np.eye(3),
                i,
            )
        )
    return out


def batch_means(x, batches=10):
    """A chain's mean and its batch-means Monte Carlo standard error."""
    means = x[: len(x) - len(x) % batches].reshape(batches, -1).mean(axis=1)
    return float(x.mean()), float(means.std(ddof=1) / math.sqrt(batches))


# The random-walk sampler as it was before it carried sufficient statistics
# and drew h and nu from their conditionals: every move evaluates the
# log-likelihood of both states in full. Kept verbatim, with its own starting
# proposal stds, as the reference that run_mh must agree with in distribution.
START_STDS = {"h0": 0.1, "ha": 0.1, "hb": 0.1, "lognu": 0.3, "m": 0.05}


def reference_run_mh(
    measurements: list[Measurement],
    prior: PriorConfig,
    config: ChainConfig = None,
) -> ChainResult:
    """Component-wise Gaussian random-walk Metropolis over (h, log nu, m).

    nu is sampled on the log scale with the Jacobian correction, which
    keeps proposals unconstrained. The latent points m_i are conditionally
    independent given (h, nu), so their accept/reject steps are vectorized
    across measurements. Burn-in adapts the proposal stds toward a
    0.23-0.44 acceptance rate, then freezes them.
    """
    if config is None:
        config = ChainConfig()
    rng = np.random.default_rng(config.seed)
    n = len(measurements)

    cov_h = prior.height_covariance()
    lam_h = inv_psd(cov_h)
    if n > 0:
        z = np.array([meas.mean for meas in measurements])  # (n, 3)
        lam_z = np.array([inv_psd(meas.cov) for meas in measurements])
    else:
        z = np.zeros((0, 3))
        lam_z = np.zeros((0, 3, 3))

    # state
    h = np.zeros(3)
    if n > 0:
        h[:] = float(np.mean(z[:, 2]))
    u = math.log(prior.b_p / prior.a_p) if n == 0 else math.log(
        max(float(np.var(z[:, 2])), 1e-4)
    )
    m = z.copy()

    def gamma_loglik(h_, nu_, m_) -> float:
        if n == 0:
            return 0.0
        f = (1.0 - m_[:, 0] - m_[:, 1]) * h_[0] + m_[:, 0] * h_[1] + m_[:, 1] * h_[2]
        r = m_[:, 2] - f
        return -0.5 * float(np.sum(_LOG_2PI + math.log(nu_) + r * r / nu_))

    def u_logpost(u_) -> float:
        # IG prior on nu plus the log-scale Jacobian term
        nu_ = math.exp(u_)
        return gamma_loglik(h, nu_, m) + _log_ig(nu_, prior.a_p, prior.b_p) + u_

    def m_logpost_terms(m_) -> np.ndarray:
        # per-measurement log density terms that depend on m_i
        d = m_ - z
        quad = np.einsum("ij,ijk,ik->i", d, lam_z, d)
        f = (1.0 - m_[:, 0] - m_[:, 1]) * h[0] + m_[:, 0] * h[1] + m_[:, 1] * h[2]
        r = m_[:, 2] - f
        nu_ = math.exp(u)
        ab = d[:, :2]  # latent alpha/beta priors are centered on z
        return (
            -0.5 * quad
            - 0.5 * r * r / nu_
            - 0.5 * np.sum(ab * ab, axis=1) / ALPHA_BETA_PRIOR_VAR
        )

    stds = dict(START_STDS)
    acc = {k: 0 for k in stds}
    tries = {k: 0 for k in stds}

    n_burn = int(config.burn_in * config.n_samples)
    kept_h, kept_nu = [], []
    cur_m_terms = m_logpost_terms(m)

    for it in range(config.n_samples):
        # vertex heights, one scalar at a time
        for k, name in enumerate(("h0", "ha", "hb")):
            h_prop = h.copy()
            h_prop[k] += rng.normal(0.0, stds[name])
            delta = (
                gamma_loglik(h_prop, math.exp(u), m)
                - gamma_loglik(h, math.exp(u), m)
                - 0.5 * (h_prop @ lam_h @ h_prop - h @ lam_h @ h)
            )
            tries[name] += 1
            if math.log(rng.random()) < delta:
                h = h_prop
                acc[name] += 1
        # log deviation
        u_prop = u + rng.normal(0.0, stds["lognu"])
        tries["lognu"] += 1
        if math.log(rng.random()) < u_logpost(u_prop) - u_logpost(u):
            u = u_prop
            acc["lognu"] += 1
        # all latent points at once (conditionally independent)
        if n > 0:
            m_prop = m + rng.normal(0.0, stds["m"], size=(n, 3))
            new_terms = m_logpost_terms(m_prop)
            cur_m_terms = m_logpost_terms(m)
            take = np.log(rng.random(n)) < new_terms - cur_m_terms
            m[take] = m_prop[take]
            tries["m"] += n
            acc["m"] += int(np.sum(take))

        if it < n_burn and (it + 1) % config.adapt_interval == 0:
            for k in stds:
                if tries[k] == 0:
                    continue
                rate = acc[k] / tries[k]
                if not 0.23 <= rate <= 0.44:
                    # smooth multiplicative step toward ~0.33 acceptance
                    stds[k] *= math.exp(2.0 * (rate - 0.335))
                acc[k] = 0
                tries[k] = 0
        if it == n_burn - 1:
            for k in stds:
                acc[k] = 0
                tries[k] = 0
        if it >= n_burn and (it - n_burn) % config.thinning == 0:
            kept_h.append(h.copy())
            kept_nu.append(math.exp(u))

    rates = {k: acc[k] / tries[k] for k in stds if tries[k] > 0}
    for k, rate in rates.items():
        if not 0.05 <= rate <= 0.9:
            raise AdaptationFailed(
                f"post-adaptation acceptance for {k} is {rate:.3f}, "
                "outside [0.05, 0.9]"
            )
    return ChainResult(
        h_samples=np.asarray(kept_h).reshape(len(kept_nu), 3),
        nu_samples=np.array(kept_nu),
        acceptance=rates,
        proposal_stds=dict(stds),
    )


class TestExactLogJoint:
    def test_rejects_nonpositive_nu(self):
        meas = random_measurements(2, 0)
        m = np.array([mm.mean for mm in meas])
        prior = PriorConfig()
        assert exact_log_joint(np.zeros(3), 0.0, m, meas, prior) == -math.inf
        assert exact_log_joint(np.zeros(3), -1.0, m, meas, prior) == -math.inf

    def test_fit_state_is_modal_in_gamma(self):
        # with m at the measurement mean and gamma on the plane, the density
        # is maximal over gamma perturbations
        prior = PriorConfig()
        meas = [Measurement([0.2, 0.3, 0.5], 0.01 * np.eye(3), 0)]
        h = np.array([0.5, 0.5, 0.5])
        m_fit = np.array([[0.2, 0.3, 0.5]])
        base = exact_log_joint(h, 0.1, m_fit, meas, prior)
        for d in (-0.2, -0.05, 0.05, 0.2):
            m_alt = m_fit.copy()
            m_alt[0, 2] += d
            assert exact_log_joint(h, 0.1, m_alt, meas, prior) < base

    def test_nu_scaling_changes_normalization(self):
        prior = PriorConfig()
        meas = [Measurement([0.2, 0.3, 0.5], 0.01 * np.eye(3), 0)]
        h = np.zeros(3)
        m = np.array([[0.2, 0.3, 0.0]])  # residual 0 at h = 0
        l1 = exact_log_joint(h, 0.1, m, meas, prior)
        l2 = exact_log_joint(h, 0.2, m, meas, prior)
        # difference = Gaussian normalization delta + IG prior delta
        expect = (
            -0.5 * math.log(2.0)
            + InverseGammaFactor.normalized(prior.a_p, prior.b_p).log_density(0.2)
            - InverseGammaFactor.normalized(prior.a_p, prior.b_p).log_density(0.1)
        )
        assert l2 - l1 == pytest.approx(expect, abs=1e-12)

    def test_double_entry_agreement(self):
        rng = np.random.default_rng(50)
        meas = random_measurements(4, 51)
        prior = PriorConfig(rho=0.5, sigma2=10.0, a_p=2.0, b_p=0.5)
        for _ in range(100):
            h = rng.normal(size=3)
            nu = float(rng.uniform(0.05, 2.0))
            m = rng.normal(size=(4, 3))
            a = exact_log_joint(h, nu, m, meas, prior)
            b = independent_log_joint(h, nu, m, meas, prior)
            assert a == pytest.approx(b, abs=1e-10)


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(burn_in=0.0)
        with pytest.raises(ValueError):
            ChainConfig(thinning=0)
        for bad in ({"n_samples": 1e4}, {"thinning": 2.5}, {"adapt_interval": 500.0},
                    {"n_samples": True}, {"thinning": "10"}):
            with pytest.raises(ValueError):
                ChainConfig(**bad)
        assert ChainConfig(n_samples=np.int64(100)).n_samples == 100


class TestRunMH:
    def test_prior_only_standard_normal(self):
        prior = PriorConfig(rho=0.0, sigma2=1.0, a_p=3.0, b_p=2.0)
        res = run_mh([], prior, ChainConfig(n_samples=60_000, seed=1))
        n = len(res.nu_samples)
        for k in range(3):
            se = np.std(res.h_samples[:, k]) / math.sqrt(n)
            # thinned samples remain correlated; allow a generous factor
            assert abs(np.mean(res.h_samples[:, k])) < 3 * se * 5

    def test_detailed_balance_gaussian_target(self):
        # pure-Gaussian target: empirical covariance approaches the prior
        prior = PriorConfig(rho=0.5, sigma2=1.0, a_p=3.0, b_p=2.0)
        res = run_mh([], prior, ChainConfig(n_samples=200_000, seed=2))
        emp = np.cov(res.h_samples.T)
        target = prior.height_covariance()
        err = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert err < 0.10

    def test_linear_gaussian_posterior_means(self):
        # near-deterministic (alpha, beta) and pinned nu: posterior over h
        # is conjugate-Gaussian with a closed form
        nu = 0.04
        a_fix = 1e8
        prior = PriorConfig(rho=0.0, sigma2=4.0, a_p=a_fix, b_p=nu * a_fix)
        rng = np.random.default_rng(3)
        meas = []
        omega = np.eye(3) / 4.0
        xi = np.zeros(3)
        for i in range(12):
            a, b = rng.uniform(0, 0.5, 2)
            g = 0.5 + a - b + rng.normal(0, 0.1)
            r = 0.01
            meas.append(Measurement([a, b, g], np.diag([1e-10, 1e-10, r]), i))
            f = np.array([1 - a - b, a, b])
            omega += np.outer(f, f) / (r + nu)
            xi += f * g / (r + nu)
        expect = np.linalg.solve(omega, xi)
        cov = np.linalg.inv(omega)
        res = run_mh(meas, prior, ChainConfig(n_samples=120_000, seed=4))
        n = len(res.nu_samples)
        for k in range(3):
            mc_se = np.std(res.h_samples[:, k]) / math.sqrt(n)
            # 3 standard errors with an autocorrelation allowance
            tol = 3 * mc_se * 6 + 1e-3
            assert abs(np.mean(res.h_samples[:, k]) - expect[k]) < tol
            assert np.std(res.h_samples[:, k]) == pytest.approx(
                math.sqrt(cov[k, k]), rel=0.2
            )

    def test_deterministic_given_seed(self):
        prior = PriorConfig()
        meas = random_measurements(3, 60)
        r1 = run_mh(meas, prior, ChainConfig(n_samples=20_000, seed=7))
        r2 = run_mh(meas, prior, ChainConfig(n_samples=20_000, seed=7))
        np.testing.assert_array_equal(r1.h_samples, r2.h_samples)
        np.testing.assert_array_equal(r1.nu_samples, r2.nu_samples)

    # iterations by case: each chain's 10 batches of retained draws are more
    # than ten times the longest integrated autocorrelation time measured
    # for either sampler (stereo's h0, about 400 iterations)
    AGREE = {"stereo": 60_000, "lidar": 20_000, "random": 20_000, "prior_only": 20_000}

    @pytest.mark.parametrize("case", list(AGREE))
    def test_agrees_in_distribution_with_reference(self, case):
        # the chains differ draw for draw, but each marginal mean of (h0,
        # h_alpha, h_beta, nu) lies within 3 batch-means Monte Carlo
        # standard errors of their difference
        prior = PriorConfig()
        if case in ("stereo", "lidar"):
            meas = make_emulation_case(case)
        elif case == "random":
            meas = random_measurements(5, 61)
        else:
            meas = []
            prior = PriorConfig(rho=0.0, sigma2=1.0, a_p=3.0, b_p=2.0)
        cfg = ChainConfig(n_samples=self.AGREE[case], adapt_interval=500, thinning=1, seed=12)
        ours, ref = run_mh(meas, prior, cfg), reference_run_mh(meas, prior, cfg)
        for x, y in zip(np.column_stack([ours.h_samples, ours.nu_samples]).T,
                        np.column_stack([ref.h_samples, ref.nu_samples]).T):
            (mx, sx), (my, sy) = batch_means(x), batch_means(y)
            assert abs(mx - my) < 3 * math.hypot(sx, sy), (mx, sx, my, sy)
        assert (list(ours.acceptance), list(ours.proposal_stds)) == (["m"] if meas else [], ["m"])

    def test_prior_only_draws_are_exact(self):
        # without measurements h and nu are independent draws from their
        # priors: no lag-1 correlation, and the moments of N(0, Sigma_h)
        # and IG(a_p, b_p) within 4 standard errors
        prior = PriorConfig(rho=0.5, sigma2=2.0, a_p=6.0, b_p=5.0)
        res = run_mh([], prior, ChainConfig(n_samples=40_000, thinning=1, seed=3))
        assert res.acceptance == {}
        x = np.column_stack([res.h_samples, res.nu_samples])
        n = len(x)
        d = x - x.mean(axis=0)
        lag1 = (d[1:] * d[:-1]).mean(axis=0) / d.var(axis=0)
        assert np.all(abs(lag1) < 4 / math.sqrt(n)), lag1
        sigma, (a, b) = prior.height_covariance(), (prior.a_p, prior.b_p)
        mean = [0.0, 0.0, 0.0, b / (a - 1)]
        assert np.all(abs(x.mean(axis=0) - mean) < 4 * x.std(axis=0) / math.sqrt(n))
        for i in range(3):
            for j in range(3):
                se = math.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / n)
                assert abs(np.mean(x[:, i] * x[:, j]) - sigma[i, j]) < 4 * se
        sq = d[:, 3] ** 2
        nu_var = b * b / ((a - 1) ** 2 * (a - 2))
        assert abs(sq.mean() - nu_var) < 4 * sq.std() / math.sqrt(n)

    def test_batch_and_list_give_equal_chains(self):
        meas, prior = make_emulation_case("lidar"), PriorConfig()
        cfg = ChainConfig(n_samples=5_000, adapt_interval=500, seed=12)
        ours, ref = run_mh(MeasurementBatch.of(meas), prior, cfg), run_mh(meas, prior, cfg)
        np.testing.assert_array_equal(ours.h_samples, ref.h_samples)
        np.testing.assert_array_equal(ours.nu_samples, ref.nu_samples)
        assert (ours.acceptance, ours.proposal_stds) == (ref.acceptance, ref.proposal_stds)
        m = np.array([mm.mean for mm in meas]) + 1e-3
        assert exact_log_joint(np.ones(3), 0.1, m, MeasurementBatch.of(meas), prior) == \
            exact_log_joint(np.ones(3), 0.1, m, meas, prior)

    def test_memory_does_not_grow_with_chain_length(self):
        # two chains keeping 1,600 samples each, one twice as long as the
        # other: even one float64 per iteration would add 80 KB to the peak,
        # and pre-drawing the chain's random numbers megabytes
        meas, prior = make_emulation_case("lidar"), PriorConfig()
        peaks = []
        tracemalloc.start()
        try:
            for n_samples, thinning in ((10_000, 5), (20_000, 10)):
                cfg = ChainConfig(n_samples=n_samples, thinning=thinning,
                                  adapt_interval=500, seed=5)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                res = run_mh(meas, prior, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                assert len(res.nu_samples) == 1_600
                del res
        finally:
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks

    def test_acceptance_in_range(self):
        prior = PriorConfig()
        meas = random_measurements(5, 61)
        res = run_mh(meas, prior, ChainConfig(n_samples=40_000, seed=8))
        for rate in res.acceptance.values():
            assert 0.05 <= rate <= 0.9

    def test_adaptation_failure_detected(self):
        # a burn-in of one or two adaptation intervals cannot bring the latent
        # points' proposal down to scale: their acceptance ends near 0.02
        meas = make_emulation_case("lidar")
        for seed in (3, 5, 7):
            cfg = ChainConfig(n_samples=4_000, adapt_interval=500, seed=seed)
            with pytest.raises(AdaptationFailed, match="for m is 0.02"):
                run_mh(meas, PriorConfig(), cfg)


class TestInvalidMeasurements:
    # a row `validate_batch` rejects, by reason
    BAD = {
        "non_finite": ([0.2, 0.1, np.nan], 1e-4 * np.eye(3)),
        "asymmetric_cov": ([0.2, 0.1, 0.0], np.array([[1e-4, 5e-5, 0], [0, 1e-4, 0], [0, 0, 1e-4]])),
        "cov_not_positive_definite": ([0.2, 0.1, 0.0], np.diag([1e-4, -1e-4, 1e-4])),
    }

    def _lidar_with(self, reason):
        meas = make_emulation_case("lidar")
        meas[3] = Measurement(*self.BAD[reason], meas[3].id)
        return meas

    @pytest.mark.parametrize("reason", sorted(BAD))
    def test_run_mh_raises_before_sampling(self, reason, monkeypatch):
        # a NaN gamma used to run the whole chain and then raise AdaptationFailed
        def no_chain(*args, **kwargs):
            raise AssertionError("the chain started")

        meas = self._lidar_with(reason)
        monkeypatch.setattr(np.random, "default_rng", no_chain)
        with pytest.raises(ValueError, match=f"^invalid measurements: 1 {reason}$"):
            run_mh(meas, PriorConfig(), ChainConfig(n_samples=5_000, adapt_interval=500))

    @pytest.mark.parametrize("reason", sorted(BAD))
    def test_exact_log_joint_raises(self, reason):
        meas = self._lidar_with(reason)
        m = np.array([mm.mean for mm in make_emulation_case("lidar")])
        with pytest.raises(ValueError, match=f"^invalid measurements: 1 {reason}$"):
            exact_log_joint(np.zeros(3), 0.1, m, meas, PriorConfig())

    def test_every_reason_is_named(self):
        meas = self._lidar_with("non_finite")
        meas[5] = Measurement(*self.BAD["asymmetric_cov"], meas[5].id)
        meas[6] = Measurement(*self.BAD["asymmetric_cov"], meas[6].id)
        with pytest.raises(ValueError, match="^invalid measurements: 2 asymmetric_cov, 1 non_finite$"):
            run_mh(MeasurementBatch.of(meas), PriorConfig(), ChainConfig(n_samples=100))


class TestCompareMarginals:
    def _result_from_samples(self, h, nu):
        return ChainResult(
            h_samples=h, nu_samples=nu, acceptance={}, proposal_stds={}
        )

    def _belief_from_moments(self, mu, sigma, shape, scale):
        mom = GaussianMoment(mu, sigma)
        return SurfelState(
            sid=0,
            prior_h=mom.to_canonical(),
            prior_nu=InverseGammaFactor.normalized(shape, scale),
        )

    def test_matching_moments_zero_discrepancy(self):
        rng = np.random.default_rng(70)
        h = rng.normal(size=(5000, 3))
        nu = rng.gamma(5.0, 0.1, size=5000)
        res = self._result_from_samples(h, nu)
        # belief matched to the empirical moments
        mu = h.mean(axis=0)
        sigma = np.cov(h.T)
        shape = 2 + nu.mean() ** 2 / nu.var()
        scale = nu.mean() * (shape - 1)
        belief = self._belief_from_moments(mu, sigma, shape, scale)
        rep = compare_marginals(res, belief)
        for k in ("h0", "h_alpha", "h_beta"):
            assert rep[k]["std_mean_discrepancy"] < 0.05

    def test_one_std_shift(self):
        rng = np.random.default_rng(71)
        h = rng.normal(size=(20_000, 3))
        nu = rng.gamma(5.0, 0.1, size=20_000)
        res = self._result_from_samples(h, nu)
        sd = h[:, 0].std()
        belief = self._belief_from_moments(
            h.mean(axis=0) + np.array([sd, 0, 0]), np.cov(h.T), 5.0, 0.5
        )
        rep = compare_marginals(res, belief)
        assert rep["h0"]["std_mean_discrepancy"] == pytest.approx(1.0, abs=0.05)

    def test_undefined_deviation_variance_reads_infinite(self):
        rng = np.random.default_rng(72)
        res = self._result_from_samples(rng.normal(size=(200, 3)), rng.gamma(5.0, 0.1, size=200))
        belief = self._belief_from_moments(np.zeros(3), np.eye(3), 2.0, 1.0)  # shape 2: mean 1, no variance
        rep = compare_marginals(res, belief)
        assert (rep["nu"]["belief_mean"], rep["nu"]["belief_std"], rep["nu"]["std_ratio"]) == (1.0, math.inf, math.inf)
        assert all(math.isfinite(rep[k]["belief_std"]) for k in ("h0", "h_alpha", "h_beta"))

    def test_requires_enough_samples(self):
        res = self._result_from_samples(np.zeros((50, 3)), np.ones(50))
        belief = self._belief_from_moments(np.zeros(3), np.eye(3), 3.0, 1.0)
        with pytest.raises(ValueError):
            compare_marginals(res, belief)

