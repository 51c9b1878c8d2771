"""Metropolis-Hastings sampler of the exact surfel posterior.

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

# Starting random-walk proposal stds: the heights, log nu and the latent points.
# Burn-in adapts them toward a 0.23-0.44 acceptance rate and then freezes them.
START_STDS = {"h0": 0.1, "ha": 0.1, "hb": 0.1, "lognu": 0.3, "m": 0.05}


class AdaptationFailed(Exception):
    """Proposal adaptation ended outside the acceptable acceptance range."""


@dataclass
class ChainConfig:
    """Random-walk chain settings; the proposals start at `START_STDS`."""

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
    """Component-wise Gaussian random-walk Metropolis over (h, log nu, m).

    The measurements are a `MeasurementBatch` or a list of `Measurement`;
    one that `validate_batch` rejects raises ValueError before any draw.

    nu is sampled on the log scale with the Jacobian correction, which
    keeps proposals unconstrained. The latent points m_i are conditionally
    independent given (h, nu), so their accept/reject steps are vectorized
    across measurements. Burn-in adapts the proposal stds toward a
    0.23-0.44 acceptance rate, then freezes them.

    The chain carries sufficient statistics of its current state instead
    of evaluating the log joint. With C the n x 3 design matrix of rows
    (1 - alpha_i - beta_i, alpha_i, beta_i) and r = gamma - C h the
    residuals, these are G = C'C, s = C'r, SS = r.r and Lambda h (the
    prior precision times h), so a height or log-nu move costs a few
    scalar operations. The latent-point move takes each row's m-only log
    density (its measurement and the latent alpha/beta prior, both centered
    on z_i) as one quadratic form in m_i - z_i, whose matrix folds
    1/ALPHA_BETA_PRIOR_VAR into the first two diagonal entries of the
    measurement precision, and caches it where a row is accepted. Its
    residuals are r = m @ (h0 - ha, h0 - hb, 1) - h0, and a row's log ratio
    subtracts (r_new - r)(r_new + r) / (2 nu). The points are stored by
    coordinate in the 5 x n rows (1, alpha, beta, gamma, r); one product
    of these with their transpose gives the sums of products of 1, alpha,
    beta and r, which the fixed map (1, alpha, beta) -> (1 - alpha - beta,
    alpha, beta) turns into G, s and SS. Two invariants hold:

    - The draw order and the proposals are fixed. Each iteration draws a
      normal and a uniform for each height, then for log nu, then n x 3
      normals and n uniforms for the latent points, and proposes
      h[k] + d, u + d and m + noise. A seed thus gives the chain that
      evaluating the full log joint gives, unless an accept test lands
      within rounding of its threshold.
    - After every latent-point move, r, s, SS, G and Lambda h are
      recomputed from the state, so the rounding of the incremental
      updates never outlives one iteration.
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
    # rows (1, alpha, beta, gamma, r), whose products give G, s and SS
    rows = np.ones((5, n))
    m, r = rows[1:4], rows[4]
    m[:] = z = batch.means.T.copy()
    h = [0.0, 0.0, 0.0] if n == 0 else [float(np.mean(z[2]))] * 3
    u = math.log(prior.b_p / prior.a_p) if n == 0 else math.log(
        max(float(np.var(z[2])), 1e-4)
    )
    nu = math.exp(u)
    m_prop = np.empty_like(m)
    cur = np.zeros(n)  # each row's m-only log density term; 0 at m = z
    w = np.ones(3)  # r = gamma - C h = w @ m - h0, with w = (h0 - ha, h0 - hb, 1)
    gram, s, lam_hh = [[0.0] * 3 for _ in range(3)], [0.0] * 3, [0.0] * 3

    def refresh() -> float:
        # every statistic again from the state and its residuals r; returns SS
        lam_hh[:] = [row[0] * h[0] + row[1] * h[1] + row[2] * h[2] for row in lam]
        if n == 0:
            return 0.0
        (n1, sa, sb, _, sr), (_, saa, sab, _, sar), (_, _, sbb, _, sbr), _, (*_, srr) = (
            rows @ rows.T).tolist()
        # (1, alpha, beta) -> (1 - alpha - beta, alpha, beta)
        g01, g02 = sa - saa - sab, sb - sab - sbb
        g00 = n1 - sa - sb - g01 - g02
        gram[:] = [[g00, g01, g02], [g01, saa, sab], [g02, sab, sbb]]
        s[:] = [sr - sar - sbr, sar, sbr]
        return srr

    r[:] = z[2] - h[0]  # the heights start equal
    ss = refresh()
    half_n_a = 0.5 * n + prior.a_p

    stds = dict(START_STDS)
    acc = dict.fromkeys(stds, 0)
    # every variable is tried once an iteration, each latent point too
    per_iteration = {k: n if k == "m" else 1 for k in stds}

    n_burn = int(config.burn_in * config.n_samples)
    kept = len(range(n_burn, config.n_samples, config.thinning))
    kept_h = np.empty((kept, 3))
    kept_nu = np.empty(kept)

    for it in range(config.n_samples):
        # vertex heights, one scalar at a time
        for k, name in enumerate(("h0", "ha", "hb")):
            hk = h[k] + rng.normal(0.0, stds[name])
            d = hk - h[k]  # the step as stored, not as drawn
            d_ss = d * (d * gram[k][k] - 2.0 * s[k])
            delta = -0.5 * d_ss / nu - 0.5 * d * (2.0 * lam_hh[k] + d * lam[k][k])
            if math.log(rng.random()) < delta:
                h[k] = hk
                ss += d_ss
                for j in range(3):
                    s[j] -= d * gram[j][k]
                    lam_hh[j] += d * lam[j][k]
                acc[name] += 1
        # log deviation: IG prior on nu plus the log-scale Jacobian term
        u_prop = u + rng.normal(0.0, stds["lognu"])
        nu_prop = math.exp(u_prop)
        delta = -half_n_a * (u_prop - u) - (0.5 * ss + prior.b_p) * (
            1.0 / nu_prop - 1.0 / nu
        )
        if math.log(rng.random()) < delta:
            u, nu = u_prop, nu_prop
            acc["lognu"] += 1
        # all latent points at once (conditionally independent)
        if n > 0:
            np.add(m, rng.normal(0.0, stds["m"], size=(n, 3)).T, out=m_prop)
            dz = m_prop - z
            new = np.einsum("in,nij,jn->n", dz, half_lam_m, dz)
            w[:2] = h[0] - h[1], h[0] - h[2]
            np.subtract(w.dot(m), h[0], out=r)
            r_new = w.dot(m_prop) - h[0]
            take = np.log(rng.random(n)) < (new - cur) - (0.5 / nu) * (r_new - r) * (r_new + r)
            np.copyto(m, m_prop, where=take)
            np.copyto(cur, new, where=take)
            np.copyto(r, r_new, where=take)
            acc["m"] += int(np.count_nonzero(take))
        ss = refresh()

        if it < n_burn and (it + 1) % config.adapt_interval == 0:
            for k in stds:
                if per_iteration[k] == 0:
                    continue
                rate = acc[k] / (config.adapt_interval * per_iteration[k])
                if not 0.23 <= rate <= 0.44:
                    # smooth multiplicative step toward ~0.33 acceptance
                    stds[k] *= math.exp(2.0 * (rate - 0.335))
                acc[k] = 0
        if it == n_burn - 1:
            acc = dict.fromkeys(stds, 0)
        if it >= n_burn and (it - n_burn) % config.thinning == 0:
            j = (it - n_burn) // config.thinning
            kept_h[j] = h
            kept_nu[j] = nu

    rates = {k: acc[k] / ((config.n_samples - n_burn) * per_iteration[k])
             for k in stds if per_iteration[k] > 0}
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
        proposal_stds=dict(stds),
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
