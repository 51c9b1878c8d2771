"""Per-surfel variational message passing.

Each surfel carries a Gaussian belief over its three vertex heights
h = (h0, h_alpha, h_beta) and an inverse-gamma belief over its planar
deviation nu. Every measurement owns a likelihood cluster whose outgoing
messages are iteratively refit by local information projections: the
mean-plane factor update is an extended-information-filter step on the
6-D joint over (h0, h_alpha, h_beta, alpha, beta, gamma), and the planar
deviation factor update fits an inverse-gamma message from the linearized
expected squared residual gamma - f(alpha, beta, h).

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
    gauss_divide,
    gauss_product,
    ig_divide,
    ig_expected_deviation,
    ig_product,
    inv_psd,
    solve_psd,
)

# Near-vacuous height initialization variance and the uninformative prior
# variance placed on a measurement's (alpha, beta) coordinates.
INIT_HEIGHT_VAR = 1e6
ALPHA_BETA_PRIOR_VAR = 1e4

# Exponent carried by every likelihood cluster's deviation message.
NU_MSG_EXPONENT = 0.5

# A cluster's fused joint: (xi, omega, incoming h message, incoming nu message).
FusedJoint = tuple[np.ndarray, np.ndarray, GaussianCanonical, InverseGammaFactor]


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


def jacobian_f(mu_c) -> np.ndarray:
    """Row gradient of f at mu_c ordered (h0, h_alpha, h_beta, alpha, beta)."""
    h0, ha, hb, alpha, beta = np.asarray(mu_c, dtype=float)
    return np.array([1.0 - alpha - beta, alpha, beta, ha - h0, hb - h0])


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
    return LikelihoodClusterState(
        measurement=measurement,
        out_msg_h=GaussianCanonical(xi, omega),
        out_msg_nu=InverseGammaFactor(NU_MSG_EXPONENT, float(nu_scale)),
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


def _fused_cluster_joint(
    state: SurfelState, cluster: LikelihoodClusterState
) -> FusedJoint:
    """Fused 6-D canonical joint over (h, alpha, beta, gamma) for one cluster.

    Builds the linearized prediction joint from the incoming-message context,
    then adds the measurement information on the (alpha, beta, gamma) block.
    """
    in_h, in_nu = compute_incoming_message(state, cluster)
    nu_bar = ig_expected_deviation(state.belief_nu)

    sigma_in = inv_psd(in_h.omega)
    mu_in = sigma_in @ in_h.xi
    z = cluster.measurement.mean
    mu_c = np.concatenate([mu_in, z[:2]])
    sigma_c = np.zeros((5, 5))
    sigma_c[:3, :3] = sigma_in
    sigma_c[3, 3] = ALPHA_BETA_PRIOR_VAR
    sigma_c[4, 4] = ALPHA_BETA_PRIOR_VAR

    f_row = jacobian_f(mu_c)
    fs = f_row @ sigma_c
    sigma_bar = np.empty((6, 6))
    sigma_bar[:5, :5] = sigma_c
    sigma_bar[:5, 5] = fs
    sigma_bar[5, :5] = fs
    sigma_bar[5, 5] = fs @ f_row + nu_bar
    omega_bar = inv_psd(sigma_bar)
    pred_mean = np.append(mu_c, mean_plane_eval(mu_c[3], mu_c[4], mu_c[:3]))
    xi_bar = omega_bar @ pred_mean

    prec_z = inv_psd(cluster.measurement.cov)
    omega = omega_bar.copy()
    omega[3:, 3:] += prec_z
    xi = xi_bar.copy()
    xi[3:] += prec_z @ z
    return xi, omega, in_h, in_nu


def update_mean_plane_factor(
    state: SurfelState, cluster: LikelihoodClusterState
) -> FusedJoint:
    """Refit the cluster's height message and the surfel height belief.

    Marginalizes (alpha, beta, gamma) out of the fused joint with the
    incoming message divided out, and recomposes the belief from the new
    outgoing message. Returns the fused joint it built, which the refit
    leaves unchanged, for `update_planar_deviation_factor`.
    """
    joint = _fused_cluster_joint(state, cluster)
    xi, omega, in_h, _ = joint
    ohm = omega[:3, 3:]
    sol_o = solve_psd(omega[3:, 3:], ohm.T)
    sol_x = solve_psd(omega[3:, 3:], xi[3:])
    omega_out = omega[:3, :3] - in_h.omega - ohm @ sol_o
    xi_out = xi[:3] - in_h.xi - ohm @ sol_x
    new_out = GaussianCanonical(xi_out, omega_out)
    cluster.out_msg_h = new_out
    state.belief_h = gauss_product(in_h, new_out)
    return joint


def update_planar_deviation_factor(
    state: SurfelState,
    cluster: LikelihoodClusterState,
    joint: FusedJoint,
) -> InverseGammaFactor:
    """Refit the cluster's deviation message and the surfel deviation belief.

    The message scale is half the linearized expectation of the squared
    residual gamma - f under the fused joint belief, linearized at its mean.
    `joint` is the cluster's `_fused_cluster_joint` as returned by
    `update_mean_plane_factor`: the height refit moves the cluster's message
    and the belief together, so the incoming messages, and with them the
    joint, stay as they were up to rounding.
    """
    xi, omega, _, in_nu = joint
    sigma = inv_psd(omega)
    mu = sigma @ xi
    f_row = jacobian_f(mu[:5])
    f_aug = np.append(-f_row, 1.0)  # gradient of the residual gamma - f
    resid = mu[5] - mean_plane_eval(mu[3], mu[4], mu[:3])
    scale = 0.5 * float(f_aug @ sigma @ f_aug) + 0.5 * resid**2
    new_out = InverseGammaFactor(NU_MSG_EXPONENT, max(scale, 1e-300))
    cluster.out_msg_nu = new_out
    state.belief_nu = ig_product(in_nu, new_out)
    return new_out
