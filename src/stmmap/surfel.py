"""Per-surfel variational message passing.

Each surfel carries a Gaussian belief over its three vertex heights
h = (h0, h_alpha, h_beta) and an inverse-gamma belief over its planar
deviation nu. Every measurement owns a likelihood cluster whose outgoing
messages are refit in turn by local information projections, in Python
floats, with f(alpha, beta, h) linearized at the incoming height mean and
the measured (alpha, beta). The mean-plane message is then the rank-one
likelihood of the measured gamma given h, in closed form. The planar
deviation message fits an inverse-gamma scale to the expected squared
residual gamma - f under the cluster's joint over (h0, h_alpha, h_beta,
alpha, beta, gamma); eliminating (alpha, beta, gamma) from it leaves the
refitted height belief. Each refit is one straight-line kernel in floats
read from the belief's `GaussianCanonical.t`: its 3x3 Cholesky factors (one
for the mean-plane refit, two for the deviation refit) are `_factor`, the
step of `cholesky_flat` with `cholesky_psd`'s counted jitter retry behind it,
the height messages are `height_message`'s, and the solves and the factor
algebra are written out, in the order of the calls they replace. A batch's
clusters are seeded from float rows that `cluster_rows` computes for the
whole batch at once.

Beliefs satisfy the additive bookkeeping invariant at all times:
belief = prior * neighbor_in_msg * product(cluster out messages)
in natural parameters, for both the Gaussian and inverse-gamma factors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import add, sub
from typing import NamedTuple

import numpy as np

from .distributions import (  # gauss_divide, solve_psd: the benchmark's tracer patches them here
    GaussianCanonical,
    InverseGammaFactor,
    NotADistribution,
    _read_only,
    cholesky_psd,
    gauss_divide,
    gauss_product,
    ig_expected_deviation,
    ig_product,
    solve_psd,
)

# Near-vacuous height initialization variance and the uninformative prior
# variance placed on a measurement's (alpha, beta) coordinates.
INIT_HEIGHT_VAR = 1e6
ALPHA_BETA_PRIOR_VAR = 1e4

# Exponent carried by every likelihood cluster's deviation message.
NU_MSG_EXPONENT = 0.5

# Numerical fallbacks the refits took, by kind, over the process: "refit_jitter" counts refit
# factors that took `cholesky_psd`'s jitter retry, "deviation_floor" deviation scales raised to 1e-300.
FALLBACKS: Counter = Counter()


@dataclass(frozen=True)
class Measurement:
    """A 3-D Gaussian point belief over (alpha, beta, gamma).

    Within a surfel the coordinates are normalized-element coordinates.
    """

    mean: np.ndarray
    cov: np.ndarray
    id: int

    def __post_init__(self):
        # one owned copy each, so the caller's buffers cannot alias them
        object.__setattr__(self, "mean", _read_only(np.asarray(self.mean, dtype=float).reshape(3).copy()))
        object.__setattr__(self, "cov", _read_only(np.asarray(self.cov, dtype=float).reshape(3, 3).copy()))


class MeasurementBatch(NamedTuple):
    """Measurements as arrays: means (n, 3), covariances (n, 3, 3) and ids (n,)."""

    means: np.ndarray
    covs: np.ndarray
    ids: np.ndarray

    @classmethod
    def of(cls, batch) -> "MeasurementBatch":
        """The batch as float arrays, from a batch or from any iterable of
        `Measurement`; TypeError or ValueError for anything else."""
        if not isinstance(batch, cls):
            batch = list(batch)  # one pass, so an iterator is read once
            if not all(isinstance(m, Measurement) for m in batch):
                raise TypeError("a measurement batch is a MeasurementBatch or an iterable of Measurement")
            batch = cls(np.array([m.mean for m in batch]).reshape(-1, 3),
                        np.array([m.cov for m in batch]).reshape(-1, 3, 3), [m.id for m in batch])
        means, covs, ids = (np.asarray(x, dtype=t) for x, t in zip(batch, (float, float, None)))
        if ids.ndim != 1 or means.shape != (len(ids), 3) or covs.shape != (len(ids), 3, 3):
            raise ValueError(f"means {means.shape}, covs {covs.shape} and ids {ids.shape} "
                             "are not (n, 3), (n, 3, 3) and (n,)")
        return cls(means, covs, ids)


@dataclass(slots=True)
class LikelihoodClusterState:
    """One measurement's likelihood cluster: its height message of weight w (see
    `height_message`), its deviation message (NU_MSG_EXPONENT, nu_scale), its mean z
    and covariance R's upper triangle by rows as floats, and the information B of
    (alpha, beta, gamma) from z and the (alpha, beta) prior, as B's upper
    triangle and B z."""

    mean: tuple
    cov: tuple
    point_info: tuple
    nu_scale: float
    w: float | None = None
    batch: int = 0
    converged: bool = False

    @property
    def out_msg_h(self) -> GaussianCanonical:
        return GaussianCanonical.of(height_message(self, self.w), 3)

    @property
    def out_msg_nu(self) -> InverseGammaFactor:
        return InverseGammaFactor(NU_MSG_EXPONENT, self.nu_scale)


class SurfelState:
    """Belief state of one surfel; updates replace its factors, never write them."""

    def __init__(self, sid: int, prior_h: GaussianCanonical, prior_nu: InverseGammaFactor,
                 neighbor_in_msg: GaussianCanonical = None, belief_h: GaussianCanonical = None,
                 belief_nu: InverseGammaFactor = None):
        self.sid = sid
        self.prior_h, self.prior_nu = prior_h, prior_nu
        self.clusters: list[LikelihoodClusterState] = []
        self.neighbor_in_msg = neighbor_in_msg or GaussianCanonical.vacuous(3)
        self.n_meas_total = 0
        # belief snapshot at the end of this surfel's last processed sweep,
        # used to decide whether converged clusters need refitting
        self.ref_belief_h = self.ref_belief_nu = None
        self.belief_h, self.belief_nu = belief_h, belief_nu
        if belief_h is None or belief_nu is None:
            self.recompute_beliefs()

    def recompute_beliefs(self):
        """Rebuild beliefs from scratch per the additive bookkeeping."""
        h, nu = gauss_product(self.prior_h, self.neighbor_in_msg).t, self.prior_nu
        for c in self.clusters:
            h = (*map(add, h, height_message(c, c.w)),)
            nu = ig_product(nu, c.out_msg_nu)
        self.belief_h, self.belief_nu = GaussianCanonical.of(h, 3), nu

    def expected_deviation(self) -> float:
        return ig_expected_deviation(self.belief_nu)


def _factor(o) -> tuple:
    """Lower Cholesky factor, by rows, of the symmetric 3x3 with upper triangle o:
    `cholesky_flat` written out; where it finds no factor, `_retry_factor`."""
    o00, o01, o02, o11, o12, o22 = o
    if o00 > 0.0:
        l00 = math.sqrt(o00)
        l10 = o01 / l00
        s = o11 - l10 * l10
        if s > 0.0:
            l11, l20 = math.sqrt(s), o02 / l00
            l21 = (o12 - l20 * l10) / l11
            s = o22 - l20 * l20 - l21 * l21
            if s > 0.0:
                return l00, l10, l11, l20, l21, math.sqrt(s)
    return _retry_factor(o)


def _retry_factor(o) -> tuple:
    """`cholesky_psd` with its jitter retry, counted in FALLBACKS, for `_factor`."""
    FALLBACKS["refit_jitter"] += 1
    m = [o[:3], (o[1], o[3], o[4]), (o[2], o[4], o[5])]
    return tuple(cholesky_psd(np.array(m))[np.tril_indices(3)].tolist())


def height_message(cluster: LikelihoodClusterState, w: float | None) -> tuple:
    """The cluster's height message as the nine floats of a factor's t.

    Given h, the measured gamma has mean F.h, F = (1 - alpha - beta, alpha,
    beta), so the message is omega = w F F^T, xi = w gamma F. With w None it
    is the initial one: centred at gamma, variance INIT_HEIGHT_VAR per vertex.
    """
    alpha, beta, gamma = cluster.mean
    if w is None:
        p = 1.0 / INIT_HEIGHT_VAR
        return (gamma * p,) * 3 + (p, 0.0, 0.0, p, 0.0, p)
    f0, wg = 1.0 - alpha - beta, w * gamma
    return (wg * f0, wg * alpha, wg * beta, w * f0 * f0, w * f0 * alpha, w * f0 * beta,
            w * alpha * alpha, w * alpha * beta, w * beta * beta)


def cluster_rows(means: np.ndarray, covs: np.ndarray, cov_invs: np.ndarray) -> list[tuple]:
    """The floats each new likelihood cluster keeps (see `LikelihoodClusterState`):
    its mean, its covariance's upper triangle by rows and its point information,
    from stacked element-frame means (k, 3), covariances and their inverses (k, 3, 3).
    """
    omega = cov_invs + np.diag([1.0 / ALPHA_BETA_PRIOR_VAR] * 2 + [0.0])
    o = omega.reshape(-1, 9)
    info = np.column_stack([o[:, 0], 0.5 * (o[:, 1] + o[:, 3]), 0.5 * (o[:, 2] + o[:, 6]), o[:, 4],
                            0.5 * (o[:, 5] + o[:, 7]), o[:, 8], (omega @ means[..., None])[..., 0]])
    upper = covs.reshape(-1, 9)[:, [0, 1, 2, 4, 5, 8]]
    return list(zip(map(tuple, means.tolist()), map(tuple, upper.tolist()), map(tuple, info.tolist())))


def init_likelihood_cluster(row: tuple, nu_scale: float, batch: int = 0) -> LikelihoodClusterState:
    """Initial near-vacuous messages for a new measurement's cluster, from its
    `cluster_rows` row: the initial height message (see `height_message`) and
    the caller-apportioned deviation scale (see `apportion_nu_scales`)."""
    return LikelihoodClusterState(*row, float(nu_scale), batch=batch)


def apportion_nu_scales(
    gammas: np.ndarray,
    existing_exponent: float,
    existing_scale: float,
    fallback_var: float,
    target_var: float | None = None,
) -> float:
    """Per-cluster initial deviation scale for one surfel's new measurements.

    Solves for the uniform per-message scale that makes the surfel's initial
    expected deviation equal the population variance of the new measurements'
    gamma components (the fallback variance when fewer than two measurements
    are available). A caller with an informed deviation belief already in
    place passes target_var to keep that expectation unperturbed instead.
    Without target_var the existing scale usually exceeds that variance times
    the shape, as a fresh surfel's prior scale does: the scale is then 1e-12.
    """
    n = len(gammas)
    if target_var is not None and target_var > 0.0:
        var = float(target_var)
    else:
        var = float(np.var(gammas)) if n >= 2 else 0.0
        if var <= 0.0:
            var = max(float(fallback_var), 1e-12)
    shape_after = (existing_exponent - 1.0) + n * NU_MSG_EXPONENT
    total = var * shape_after - existing_scale
    return max(total / n, 1e-12)


def update_mean_plane_factor(state: SurfelState, cluster: LikelihoodClusterState) -> tuple:
    """Refit the cluster's height message weight w and the surfel height belief.

    Returns the expected deviation and the incoming height mean, for
    `update_planar_deviation_factor`, and the height message before and after (see `height_message`).
    """
    shape, nu_scale = state.belief_nu.exponent - 1.0, state.belief_nu.scale
    if not (shape > 0.0 and nu_scale > 0.0):
        raise NotADistribution("expected deviation requires a normalizable belief")
    nu_bar = nu_scale / shape
    old = height_message(cluster, cluster.w)
    x0, x1, x2, o00, o01, o02, o11, o12, o22 = map(sub, state.belief_h.t, old)
    l00, l10, l11, l20, l21, l22 = _factor((o00, o01, o02, o11, o12, o22))
    y0 = x0 / l00  # mu, the incoming mean: L L^T mu = x
    y1 = (x1 - l10 * y0) / l11
    mu2 = (x2 - l20 * y0 - l21 * y1) / l22 / l22
    mu1 = (y1 - l21 * mu2) / l11
    mu0 = (y0 - l10 * mu1 - l20 * mu2) / l00
    # Linearized, gamma - F.h = g.d + deviation + e_gamma, with g the slope at
    # mu, d ~ N(0, P I) the true minus the measured (alpha, beta) and e ~ N(0, R)
    # the noise. The measurement pins d + e_ab = 0, which leaves 1/w = nu_bar +
    # Var(u.e | d + e_ab = 0), u = (-g, 1): a 2x2 Schur complement with terms
    # the size of R. Taken on the full innovation covariance it cancels at P >> R.
    u0, u1 = mu0 - mu1, mu0 - mu2
    r00, r01, r02, r11, r12, r22 = cluster.cov
    c0, c1, c2 = r00 * u0 + r01 * u1 + r02, r01 * u0 + r11 * u1 + r12, r02 * u0 + r12 * u1 + r22
    a00, a11 = r00 + ALPHA_BETA_PRIOR_VAR, r11 + ALPHA_BETA_PRIOR_VAR
    explained = (a11 * c0 * c0 - 2.0 * r01 * c0 * c1 + a00 * c1 * c1) / (a00 * a11 - r01 * r01)
    cluster.w = 1.0 / (nu_bar + (u0 * c0 + u1 * c1 + c2) - explained)
    n0, n1, n2, n3, n4, n5, n6, n7, n8 = new = height_message(cluster, cluster.w)
    state.belief_h = GaussianCanonical.of(
        (x0 + n0, x1 + n1, x2 + n2, o00 + n3, o01 + n4, o02 + n5, o11 + n6, o12 + n7, o22 + n8), 3)
    return nu_bar, (mu0, mu1, mu2), old, new


def update_planar_deviation_factor(state: SurfelState, cluster: LikelihoodClusterState, incoming: tuple) -> None:
    """Refit the cluster's deviation message and the surfel deviation belief.

    The message scale is half the expected squared residual gamma - f under
    the cluster's joint, linearized at the joint's mean; `incoming` is what
    `update_mean_plane_factor` returned. With u = (h0 - h_alpha, h0 - h_beta,
    1) at the incoming mean, eliminating (alpha, beta, gamma) from the joint
    leaves the refitted height belief S; the point block's information is
    B + u u^T / nu_bar. A residual gradient g has variance |r|^2 + |v|^2,
    r = L_B^-1 g_B, rho = (L_B^-1 u).r / nu_bar, v = L_S^-1 (g_h + rho F).
    A scale below 1e-300 is raised to it, counted in FALLBACKS. The new belief
    divides the old message out of the old belief, then multiplies the new in.
    """
    nu_bar, (h0, ha, hb), _, _ = incoming
    alpha, beta, _ = cluster.mean
    f0, u0, u1 = 1.0 - alpha - beta, h0 - ha, h0 - hb
    h = state.belief_h.t
    s00, s10, s11, s20, s21, s22 = _factor(h[3:])
    y0 = h[0] / s00  # m, the refitted belief's mean
    y1 = (h[1] - s10 * y0) / s11
    m2 = (h[2] - s20 * y0 - s21 * y1) / s22 / s22
    m1 = (y1 - s21 * m2) / s11
    m0 = (y0 - s10 * m1 - s20 * m2) / s00
    b00, b01, b02, b11, b12, b22, p0, p1, p2 = cluster.point_info
    l00, l10, l11, l20, l21, l22 = _factor((b00 + u0 * u0 / nu_bar, b01 + u0 * u1 / nu_bar, b02 + u0 / nu_bar,
                                            b11 + u1 * u1 / nu_bar, b12 + u1 / nu_bar, b22 + 1.0 / nu_bar))
    d = (u0 * alpha + u1 * beta + f0 * m0 + alpha * m1 + beta * m2) / nu_bar
    y0 = (p0 + u0 * d) / l00  # (a2, b2, g2), the joint's mean of the point
    y1 = (p1 + u1 * d - l10 * y0) / l11
    g2 = (p2 + d - l20 * y0 - l21 * y1) / l22 / l22
    b2 = (y1 - l21 * g2) / l11
    a2 = (y0 - l10 * b2 - l20 * g2) / l00
    # the residual gradient at the joint's mean: -F2 on h, u2 on (alpha, beta, gamma)
    f2 = 1.0 - a2 - b2
    r0, q0 = (m0 - m1) / l00, u0 / l00
    r1, q1 = (m0 - m2 - l10 * r0) / l11, (u1 - l10 * q0) / l11
    r2, q2 = (1.0 - l20 * r0 - l21 * r1) / l22, (1.0 - l20 * q0 - l21 * q1) / l22
    rho = (q0 * r0 + q1 * r1 + q2 * r2) / nu_bar
    v0 = (rho * f0 - f2) / s00
    v1 = (rho * alpha - a2 - s10 * v0) / s11
    v2 = (rho * beta - b2 - s20 * v0 - s21 * v1) / s22
    resid = g2 - (f2 * m0 + a2 * m1 + b2 * m2)
    scale = 0.5 * (r0 * r0 + r1 * r1 + r2 * r2 + v0 * v0 + v1 * v1 + v2 * v2) + 0.5 * resid**2
    if scale < 1e-300:
        FALLBACKS["deviation_floor"] += 1
        scale = 1e-300
    nu, old = state.belief_nu, cluster.nu_scale
    cluster.nu_scale = scale
    state.belief_nu = InverseGammaFactor((nu.exponent - NU_MSG_EXPONENT) + NU_MSG_EXPONENT, (nu.scale - old) + scale)
