"""Per-surfel variational message passing.

Each surfel carries a Gaussian belief over its three vertex heights
h = (h0, h_alpha, h_beta) and an inverse-gamma belief over its planar
deviation nu. Every measurement owns a likelihood cluster whose outgoing
messages are iteratively refit by local information projections, with
f(alpha, beta, h) linearized at the incoming height mean and the measured
(alpha, beta). The mean-plane message is then the rank-one likelihood of
the measured gamma given h, in closed form. The planar deviation message
fits an inverse-gamma scale to the expected squared residual gamma - f
under the cluster's 6-D joint over (h0, h_alpha, h_beta, alpha, beta,
gamma), assembled and factored in information form.

Beliefs satisfy the additive bookkeeping invariant at all times:
belief = prior * neighbor_in_msg * product(cluster out messages)
in natural parameters, for both the Gaussian and inverse-gamma factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    GaussianCanonical,
    InverseGammaFactor,
    cholesky_psd,
    gauss_divide,
    gauss_product,
    ig_divide,
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
        mean = np.asarray(self.mean, dtype=float).reshape(3).copy()
        cov = np.asarray(self.cov, dtype=float).reshape(3, 3).copy()
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass
class LikelihoodClusterState:
    """One measurement's likelihood cluster and its outgoing messages."""

    measurement: Measurement
    out_msg_h: GaussianCanonical
    out_msg_nu: InverseGammaFactor
    point_info: GaussianCanonical  # on (alpha, beta, gamma): measurement and (alpha, beta) prior
    batch: int = 0
    converged: bool = False


@dataclass
class SurfelState:
    """Belief state of a single surfel."""

    sid: int
    labels: tuple  # vertex ids, in the position order of the height factors
    prior_h: GaussianCanonical
    prior_nu: InverseGammaFactor
    clusters: list[LikelihoodClusterState] = field(default_factory=list)
    neighbor_in_msg: GaussianCanonical = None
    belief_h: GaussianCanonical = None
    belief_nu: InverseGammaFactor = None
    n_meas_total: int = 0
    # belief snapshot at the end of this surfel's last processed sweep,
    # used to decide whether converged clusters need refitting
    ref_belief_h: GaussianCanonical = None
    ref_belief_nu: InverseGammaFactor = None

    def __post_init__(self):
        if self.neighbor_in_msg is None:
            self.neighbor_in_msg = GaussianCanonical.vacuous(3)
        if self.belief_h is None or self.belief_nu is None:
            self.recompute_beliefs()

    def recompute_beliefs(self):
        """Rebuild beliefs from scratch per the additive bookkeeping."""
        h = gauss_product(self.prior_h, self.neighbor_in_msg)
        nu = self.prior_nu
        for c in self.clusters:
            h = gauss_product(h, c.out_msg_h)
            nu = ig_product(nu, c.out_msg_nu)
        self.belief_h = h
        self.belief_nu = nu

    def expected_deviation(self) -> float:
        return ig_expected_deviation(self.belief_nu)


def mean_plane_eval(alpha: float, beta: float, h) -> float:
    """Barycentric interpolation of the vertex heights."""
    h = np.asarray(h, dtype=float)
    return float((1.0 - alpha - beta) * h[0] + alpha * h[1] + beta * h[2])


def residual_gradient(h0: float, ha: float, hb: float, alpha: float, beta: float) -> np.ndarray:
    """Gradient of gamma - f(alpha, beta, h) over (h0, h_alpha, h_beta, alpha, beta, gamma)."""
    return np.array([alpha + beta - 1.0, -alpha, -beta, h0 - ha, h0 - hb, 1.0])


def init_likelihood_cluster(
    measurement: Measurement,
    nu_scale: float,
    batch: int = 0,
) -> LikelihoodClusterState:
    """Initial near-vacuous messages for a new measurement's cluster.

    The height message is centered at the measurement's gamma component with
    variance INIT_HEIGHT_VAR per vertex; the deviation message carries the
    caller-apportioned scale (see `apportion_nu_scales`).
    """
    gamma = float(measurement.mean[2])
    omega = np.eye(3) / INIT_HEIGHT_VAR
    xi = omega @ np.full(3, gamma)
    point_omega = np.linalg.inv(measurement.cov)  # checked by `validate_batch`, `_associate`
    point_omega[[0, 1], [0, 1]] += 1.0 / ALPHA_BETA_PRIOR_VAR
    return LikelihoodClusterState(
        measurement=measurement,
        out_msg_h=GaussianCanonical(xi, omega),
        out_msg_nu=InverseGammaFactor(NU_MSG_EXPONENT, float(nu_scale)),
        point_info=GaussianCanonical(point_omega @ measurement.mean, point_omega),
        batch=batch,
    )


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
    Clamped to a small positive value when the existing belief already
    implies a smaller deviation.
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


def compute_incoming_message(
    state: SurfelState, cluster: LikelihoodClusterState
) -> tuple[GaussianCanonical, InverseGammaFactor]:
    """Incoming message to a cluster: belief divided by its outgoing message."""
    in_h = gauss_divide(state.belief_h, cluster.out_msg_h)
    in_nu = ig_divide(state.belief_nu, cluster.out_msg_nu)
    return in_h, in_nu


def update_mean_plane_factor(
    state: SurfelState, cluster: LikelihoodClusterState
) -> tuple[GaussianCanonical, InverseGammaFactor, np.ndarray]:
    """Refit the cluster's height message and the surfel height belief.

    Given h, the measured gamma has mean F.h, F = (1 - alpha - beta, alpha,
    beta), and variance 1/w once the measured (alpha, beta) is conditioned
    on, so the message is omega = w F F^T, xi = w gamma F. Returns the
    incoming messages and height mean for `update_planar_deviation_factor`.
    """
    in_h, in_nu = compute_incoming_message(state, cluster)
    mu = solve_psd(in_h.omega, in_h.xi)
    h0, ha, hb = mu.tolist()
    alpha, beta, gamma = cluster.measurement.mean.tolist()
    # Linearized, gamma - F.h = g.d + deviation + e_gamma, with g the slope at
    # mu, d ~ N(0, P I) the true minus the measured (alpha, beta) and e ~ N(0, R)
    # the noise. The measurement pins d + e_ab = 0, which leaves 1/w = nu_bar +
    # Var(u.e | d + e_ab = 0), u = (-g, 1): a 2x2 Schur complement with terms
    # the size of R. Taken on the full innovation covariance it cancels at P >> R.
    u = np.array([h0 - ha, h0 - hb, 1.0])
    ru = cluster.measurement.cov @ u
    c0, c1, _ = ru.tolist()
    (r00, r01, _), (_, r11, _), _ = cluster.measurement.cov.tolist()
    a00, a11 = r00 + ALPHA_BETA_PRIOR_VAR, r11 + ALPHA_BETA_PRIOR_VAR
    explained = (a11 * c0 * c0 - 2.0 * r01 * c0 * c1 + a00 * c1 * c1) / (a00 * a11 - r01 * r01)
    w = 1.0 / (ig_expected_deviation(state.belief_nu) + float(u @ ru) - explained)
    f_h = np.array([1.0 - alpha - beta, alpha, beta])
    new_out = GaussianCanonical((w * gamma) * f_h, np.outer(w * f_h, f_h))
    cluster.out_msg_h = new_out
    state.belief_h = gauss_product(in_h, new_out)
    return in_h, in_nu, mu


def update_planar_deviation_factor(
    state: SurfelState,
    cluster: LikelihoodClusterState,
    incoming: tuple[GaussianCanonical, InverseGammaFactor, np.ndarray],
) -> InverseGammaFactor:
    """Refit the cluster's deviation message and the surfel deviation belief.

    The message scale is half the expected squared residual gamma - f under
    the cluster's 6-D joint, linearized at the joint's mean. `incoming` is
    what `update_mean_plane_factor` returned: the height refit moves the
    message and the belief together, so the incoming messages stay as they
    were up to rounding.
    """
    in_h, in_nu, mu_in = incoming
    nu_bar = ig_expected_deviation(state.belief_nu)
    alpha, beta, _ = cluster.measurement.mean.tolist()
    h0, ha, hb = mu_in.tolist()
    # the linearized residual grad.x - offset is N(0, nu_bar); f is linear
    # in h, so offset = -g.(alpha, beta) with g the slope at mu_in
    grad = residual_gradient(h0, ha, hb, alpha, beta)
    omega = np.outer(grad, grad / nu_bar)
    omega[:3, :3] += in_h.omega
    omega[3:, 3:] += cluster.point_info.omega
    xi = grad * (((h0 - ha) * alpha + (h0 - hb) * beta) / nu_bar)
    xi[:3] += in_h.xi
    xi[3:] += cluster.point_info.xi

    root_inv = np.linalg.inv(cholesky_psd(omega))  # sigma = root_inv^T root_inv
    h0, ha, hb, alpha, beta, gamma = ((root_inv @ xi) @ root_inv).tolist()
    resid_grad = root_inv @ residual_gradient(h0, ha, hb, alpha, beta)
    resid = gamma - mean_plane_eval(alpha, beta, (h0, ha, hb))
    scale = 0.5 * float(resid_grad @ resid_grad) + 0.5 * resid**2
    new_out = InverseGammaFactor(NU_MSG_EXPONENT, max(scale, 1e-300))
    cluster.out_msg_nu = new_out
    state.belief_nu = ig_product(in_nu, new_out)
    return new_out
