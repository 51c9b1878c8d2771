"""Metropolis-within-Gibbs sampler of the exact surfel posterior.

Independent reference implementation used to validate the variational
surfel updates: it samples the joint over the vertex heights h, the
planar deviation nu, and every measurement's latent true point m_i,
then compares the (h, nu) marginals against a surfel belief.

The sampler is deliberately decoupled from the message-passing code: the
log joint below is written directly from the generative model and never
calls into the surfel update routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import NotADistribution, inv_psd
from .mapgraph import PriorConfig, require_count, validate_batch
from .surfel import ALPHA_BETA_PRIOR_VAR, MeasurementBatch, SurfelState

_LOG_2PI = math.log(2.0 * math.pi)

# The latent points' starting random-walk proposal std. Burn-in adapts it toward
# a 0.23-0.44 acceptance rate and then freezes it.
START_STDS = {"m": 0.05}


class AdaptationFailed(Exception):
    """Proposal adaptation ended outside the acceptable acceptance range."""


@dataclass
class ChainConfig:
    """Chain settings; the latent points' proposal starts at `START_STDS`."""

    n_samples: int = 500_000
    burn_in: float = 0.2
    thinning: int = 10
    adapt_interval: int = 2_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.burn_in < 1.0:
            raise ValueError("burn_in fraction must lie in (0, 1)")
        for name in ("n_samples", "thinning", "adapt_interval"):
            require_count(name, getattr(self, name))


@dataclass
class ChainResult:
    """Retained post-burn-in samples and chain diagnostics."""

    h_samples: np.ndarray  # (S, 3)
    nu_samples: np.ndarray  # (S,)
    acceptance: dict[str, float]
    proposal_stds: dict[str, float]


def _log_ig(nu: float, shape: float, scale: float) -> float:
    return (
        shape * math.log(scale)
        - math.lgamma(shape)
        - (shape + 1.0) * math.log(nu)
        - scale / nu
    )


def _checked(measurements) -> MeasurementBatch:
    """The measurements as a batch; ValueError naming why if `validate_batch` rejects any."""
    batch = MeasurementBatch.of(measurements)
    if rejected := validate_batch(batch)[1]:
        raise ValueError("invalid measurements: " + ", ".join(f"{c} {r}" for r, c in sorted(rejected.items())))
    return batch


def exact_log_joint(
    h: np.ndarray,
    nu: float,
    m_points: np.ndarray,
    measurements,
    prior: PriorConfig,
) -> float:
    """Unnormalized log posterior of (h, nu, m_1..m_N).

    The measurements are a `MeasurementBatch` or a list of `Measurement`;
    one that `validate_batch` rejects raises ValueError. Terms: each
    measurement z_i given its latent point m_i, each latent gamma_i given
    the mean plane and nu, the correlated Gaussian height prior, the
    inverse-gamma deviation prior, and the broad Gaussian priors on each
    latent (alpha_i, beta_i).
    """
    batch = _checked(measurements)
    if nu <= 0.0:
        return -math.inf
    h = np.asarray(h, dtype=float).reshape(3)
    m = np.asarray(m_points, dtype=float).reshape(len(batch.ids), 3)

    total = 0.0
    # measurement terms z_i ~ N(m_i, Sigma_i)
    for i, (mean, cov) in enumerate(zip(batch.means, batch.covs)):
        d = mean - m[i]
        lam = inv_psd(cov)
        _, logdet = np.linalg.slogdet(cov)
        total += -0.5 * (3.0 * _LOG_2PI + logdet + d @ lam @ d)

    if len(batch.ids) > 0:
        a, b, g = m[:, 0], m[:, 1], m[:, 2]
        f = (1.0 - a - b) * h[0] + a * h[1] + b * h[2]
        r = g - f
        total += -0.5 * np.sum(_LOG_2PI + math.log(nu) + r * r / nu)
        # broad latent-position priors centered on the observed coordinates
        dz = np.concatenate(m[:, :2] - batch.means[:, :2])
        total += -0.5 * np.sum(
            _LOG_2PI + math.log(ALPHA_BETA_PRIOR_VAR) + dz * dz / ALPHA_BETA_PRIOR_VAR
        )

    cov_h = prior.height_covariance()
    _, logdet = np.linalg.slogdet(cov_h)
    total += -0.5 * (3.0 * _LOG_2PI + logdet + h @ inv_psd(cov_h) @ h)
    total += _log_ig(nu, prior.a_p, prior.b_p)
    return float(total)


def run_mh(
    measurements,
    prior: PriorConfig,
    config: ChainConfig = None,
) -> ChainResult:
    """Metropolis-within-Gibbs over (h, nu, m): exact draws of the heights and
    the deviation, and a Gaussian random walk for the latent points.

    The measurements are a `MeasurementBatch` or a list of `Measurement`;
    one that `validate_batch` rejects raises ValueError before any draw.

    With C the n x 3 design matrix of rows (1 - alpha_i - beta_i, alpha_i,
    beta_i) of the latent points, Lambda the prior precision of h and
    r = gamma - C h the residuals, each iteration draws, in this order:

    - h from its Gaussian conditional N(P^-1 c, P^-1), with P = Lambda + G / nu,
      G = C'C and c = C'gamma / nu: one 3 x 3 Cholesky factor of P in floats,
      a forward solve, three standard normals added, a back solve;
    - nu from its inverse-gamma conditional, (b_p + SS / 2) / Gamma(a_p + n / 2),
      with SS = r.r at the new h;
    - with n > 0, n x 3 normals and n uniforms for the latent points m_i, which
      are conditionally independent given (h, nu), so their accept/reject steps
      are vectorized across measurements. Burn-in adapts their proposal std
      toward a 0.23-0.44 acceptance rate, then freezes it; a post-burn-in rate
      outside [0.05, 0.9] raises AdaptationFailed.

    The latent-point move takes each row's m-only log density (its
    measurement and the latent alpha/beta prior, both centered on z_i) as one
    quadratic form in m_i - z_i, whose matrix folds 1/ALPHA_BETA_PRIOR_VAR
    into the first two diagonal entries of the measurement precision, and
    caches it where a row is accepted. Its residuals are
    r = m @ (h0 - ha, h0 - hb, 1) - h0, and a row's log ratio subtracts
    (r_new - r)(r_new + r) / (2 nu). The points are stored by coordinate in
    the 4 x n rows (1, alpha, beta, gamma); after every latent-point move one
    product of these with their transpose gives the sums of products of 1,
    alpha, beta and gamma, which the fixed map (1, alpha, beta) ->
    (1 - alpha - beta, alpha, beta) turns into G and C'gamma.
    """
    if config is None:
        config = ChainConfig()
    batch = _checked(measurements)
    rng = np.random.default_rng(config.seed)
    n = len(batch.ids)

    lam = inv_psd(prior.height_covariance()).tolist()
    # -1/2 times each row's precision of m_i, with the latent alpha/beta prior's
    half_lam_m = -0.5 * (np.array([inv_psd(cov) for cov in batch.covs]).reshape(n, 3, 3)
                         + np.diag([1.0 / ALPHA_BETA_PRIOR_VAR] * 2 + [0.0]))

    # state; m holds the latent points by coordinate, as rows 1-3 of the
    # rows (1, alpha, beta, gamma), whose products give G and C'gamma
    rows = np.ones((4, n))
    m = rows[1:]
    m[:] = z = batch.means.T.copy()
    h = [0.0, 0.0, 0.0] if n == 0 else [float(np.mean(z[2]))] * 3
    nu = prior.b_p / prior.a_p if n == 0 else max(float(np.var(z[2])), 1e-4)
    m_prop, r = np.empty_like(m), np.empty(n)
    cur = np.zeros(n)  # each row's m-only log density term; 0 at m = z
    w = np.ones(3)  # r = gamma - C h = w @ m - h0, with w = (h0 - ha, h0 - hb, 1)

    def stats() -> tuple[list, list]:
        # G and C'gamma of the latent points
        (n1, sa, sb, sg), (_, saa, sab, sag), (_, _, sbb, sbg), _ = (rows @ rows.T).tolist()
        # (1, alpha, beta) -> (1 - alpha - beta, alpha, beta)
        g01, g02 = sa - saa - sab, sb - sab - sbb
        g00 = n1 - sa - sb - g01 - g02
        return [[g00, g01, g02], [g01, saa, sab], [g02, sab, sbb]], [sg - sag - sbg, sag, sbg]

    gram, cg = stats()
    half_n_a = 0.5 * n + prior.a_p
    std, acc = START_STDS["m"], 0

    n_burn = int(config.burn_in * config.n_samples)
    kept = len(range(n_burn, config.n_samples, config.thinning))
    kept_h = np.empty((kept, 3))
    kept_nu = np.empty(kept)

    for it in range(config.n_samples):
        # heights: P = L L', y = L^-1 c + e with e standard normal, h = L'^-1 y
        t = 1.0 / nu
        l00 = math.sqrt(lam[0][0] + gram[0][0] * t)
        l10 = (lam[1][0] + gram[1][0] * t) / l00
        l20 = (lam[2][0] + gram[2][0] * t) / l00
        l11 = math.sqrt(lam[1][1] + gram[1][1] * t - l10 * l10)
        l21 = (lam[2][1] + gram[2][1] * t - l20 * l10) / l11
        l22 = math.sqrt(lam[2][2] + gram[2][2] * t - l20 * l20 - l21 * l21)
        y0 = cg[0] * t / l00
        y1 = (cg[1] * t - l10 * y0) / l11
        y2 = (cg[2] * t - l20 * y0 - l21 * y1) / l22
        e0, e1, e2 = rng.standard_normal(3).tolist()
        h2 = (y2 + e2) / l22
        h1 = (y1 + e1 - l21 * h2) / l11
        h = [(y0 + e0 - l10 * h1 - l20 * h2) / l00, h1, h2]
        # deviation, from the residuals at the new heights
        w[:2] = h[0] - h[1], h[0] - h[2]
        np.subtract(w.dot(m), h[0], out=r)
        nu = (prior.b_p + 0.5 * float(r.dot(r))) / rng.gamma(half_n_a)
        # all latent points at once (conditionally independent)
        if n > 0:
            np.add(m, rng.normal(0.0, std, size=(n, 3)).T, out=m_prop)
            dz = m_prop - z
            new = np.einsum("in,nij,jn->n", dz, half_lam_m, dz)
            r_new = w.dot(m_prop) - h[0]
            take = np.log(rng.random(n)) < (new - cur) - (0.5 / nu) * (r_new - r) * (r_new + r)
            np.copyto(m, m_prop, where=take)
            np.copyto(cur, new, where=take)
            acc += int(np.count_nonzero(take))
            gram, cg = stats()

            if it < n_burn and (it + 1) % config.adapt_interval == 0:
                rate = acc / (config.adapt_interval * n)
                if not 0.23 <= rate <= 0.44:
                    # smooth multiplicative step toward ~0.33 acceptance
                    std *= math.exp(2.0 * (rate - 0.335))
                acc = 0
        if it == n_burn - 1:
            acc = 0
        if it >= n_burn and (it - n_burn) % config.thinning == 0:
            j = (it - n_burn) // config.thinning
            kept_h[j] = h
            kept_nu[j] = nu

    rates = {"m": acc / ((config.n_samples - n_burn) * n)} if n > 0 else {}
    for k, rate in rates.items():
        if not 0.05 <= rate <= 0.9:
            raise AdaptationFailed(
                f"post-adaptation acceptance for {k} is {rate:.3f}, "
                "outside [0.05, 0.9]"
            )
    return ChainResult(
        h_samples=kept_h,
        nu_samples=kept_nu,
        acceptance=rates,
        proposal_stds={"m": std},
    )


def compare_marginals(result: ChainResult, belief: SurfelState) -> dict:
    """Per-variable comparison of chain marginals against a surfel belief.

    Reports, for each of (h0, h_alpha, h_beta, nu): the chain mean and
    std with Monte Carlo standard errors, the belief mean and std, and
    the standardized mean discrepancy |mean_mh - mean_belief| / std_mh.
    """
    S = len(result.nu_samples)
    if S < 100:
        raise ValueError("need at least 100 retained samples to compare")

    mom = belief.belief_h.to_moments()
    names = ("h0", "h_alpha", "h_beta", "nu")
    chains = [result.h_samples[:, 0], result.h_samples[:, 1],
              result.h_samples[:, 2], result.nu_samples]
    bel_mean = [float(mom.mu[0]), float(mom.mu[1]), float(mom.mu[2]),
                belief.belief_nu.mean()]
    bel_std = [math.sqrt(float(mom.sigma[k, k])) for k in range(3)]
    try:
        bel_std.append(math.sqrt(belief.belief_nu.variance()))
    except NotADistribution:
        bel_std.append(math.inf)

    report = {}
    for name, x, bm, bs in zip(names, chains, bel_mean, bel_std):
        mu = float(np.mean(x))
        sd = float(np.std(x, ddof=1))
        report[name] = {
            "mh_mean": mu,
            "mh_std": sd,
            "mh_mean_se": sd / math.sqrt(S),
            "mh_std_se": sd / math.sqrt(2.0 * (S - 1)),
            "belief_mean": bm,
            "belief_std": bs,
            "std_mean_discrepancy": abs(mu - bm) / sd if sd > 0 else math.inf,
            "std_ratio": bs / sd if sd > 0 else math.inf,
        }
    return report
