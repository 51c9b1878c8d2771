"""Float references shared by the tests of the unrolled kernels: the loops
`cholesky_flat`, `kl_gaussian` and the sepset messages unroll, the calls
that the straight-line cluster refits and the sweep's cluster test write
out, and `kl_gaussian` and `neighbor_out_message` as they were before their
kernels were written out as one straight-line block per size.

Every sum here adds its terms left to right from 0, as `sum()` did before
Python 3.12. From 3.12 on, `sum()` of floats compensates its rounding, so a
sum of three or more terms can differ in the last bit from the plain `+` of
the kernels it is checked against.
"""

import math
from functools import reduce
from operator import add, sub

import numpy as np

from stmmap.distributions import (
    GaussianCanonical,
    NotADistribution,
    _RANK_RTOL,
    _same_size,
    cholesky_flat,
    cholesky_psd,
    gauss_divide,
    gauss_marginalize,
    ig_divide,
    ig_expected_deviation,
    ig_product,
    upper_index,
)
from stmmap.mapgraph import _natural_divergence
from stmmap.surfel import ALPHA_BETA_PRIOR_VAR, FALLBACKS, height_message


def add_up(terms) -> float:
    """The terms added left to right from 0, on every Python version."""
    return reduce(add, terms, 0)


def cholesky_small(o: list, idx, rtol: float = 0.0) -> list | None:
    """Lower Cholesky factor of the block o[idx][idx] of a nested-list matrix,
    as rows [[l00], [l10, l11], ...], by the unblocked step in Python floats;
    None unless positive definite with every pivot above rtol times its
    diagonal entry. The loop that `cholesky_flat` unrolls, correct for any n."""
    lower = []
    for r in idx:
        row = []
        for c, prev in zip(idx, lower):
            x = o[r][c]
            for a, b in zip(row, prev):
                x -= a * b
            row.append(x / prev[-1])
        s = o[r][r]
        for a in row:
            s -= a * a
        if not s > 0.0 or s <= rtol * o[r][r]:
            return None
        row.append(math.sqrt(s))
        lower.append(row)
    return lower


def forward_small(lower: list, v) -> list:
    """Solve lower @ t = v for a factor from `cholesky_small`: the loop that
    `forward3`, `kl_gaussian` and the sepset messages unroll."""
    t = []
    for row, x in zip(lower, v):
        for a, b in zip(row, t):
            x -= a * b
        t.append(x / row[-1])
    return t


def forward3(lower: tuple, v) -> tuple:
    """Solve lower @ t = v for a 3-variable factor from `cholesky_flat`, each
    row's products subtracted left to right."""
    l00, l10, l11, l20, l21, l22 = lower
    t0 = v[0] / l00
    t1 = (v[1] - l10 * t0) / l11
    return t0, t1, (v[2] - l20 * t0 - l21 * t1) / l22


def outcome(f, *args):
    """f's result, or the type of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # compared, not handled
        return type(exc)


def same_bits(a, b) -> bool:
    """Equal float sequences, signed zeros included; NaN matches NaN."""
    return len(a) == len(b) and all(
        (x != x and y != y) or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
        for x, y in zip(a, b))


# The cluster refits and the sweep's cluster test as they were before their
# kernels were written as straight-line floats, kept verbatim: the bit
# references of `tests/test_refit_bits.py`.
def _factor(o) -> tuple:
    """`cholesky_flat` of the symmetric 3x3 with upper triangle o; where it finds
    no factor, `cholesky_psd` with its jitter retry, counted in FALLBACKS."""
    lower = cholesky_flat(o)
    if lower is None:
        FALLBACKS["refit_jitter"] += 1
        m = [o[:3], (o[1], o[3], o[4]), (o[2], o[4], o[5])]
        lower = tuple(cholesky_psd(np.array(m))[np.tril_indices(3)].tolist())
    return lower


def _solve(lower: tuple, v) -> tuple:
    """x with L L^T x = v, for a factor from `_factor`."""
    l00, l10, l11, l20, l21, l22 = lower
    t0, t1, t2 = forward3(lower, v)
    x2 = t2 / l22
    x1 = (t1 - l21 * x2) / l11
    return (t0 - l10 * x1 - l20 * x2) / l00, x1, x2


def update_mean_plane_factor(state, cluster) -> tuple:
    """Refit the cluster's height message weight w and the surfel height belief.

    Returns the expected deviation, the incoming deviation message and the
    incoming height mean, for `update_planar_deviation_factor`.
    """
    nu_bar = ig_expected_deviation(state.belief_nu)
    # (*map(..),) sizes the tuple exactly; tuple(map(..)) shrinks a 10-slot one,
    # which CPython then frees onto its 9-slot free list until that holds 2,000
    in_h = (*map(sub, state.belief_h.t, height_message(cluster, cluster.w)),)
    in_nu = ig_divide(state.belief_nu, cluster.out_msg_nu)
    mu = _solve(_factor(in_h[3:]), in_h[:3])
    # Linearized, gamma - F.h = g.d + deviation + e_gamma, with g the slope at
    # mu, d ~ N(0, P I) the true minus the measured (alpha, beta) and e ~ N(0, R)
    # the noise. The measurement pins d + e_ab = 0, which leaves 1/w = nu_bar +
    # Var(u.e | d + e_ab = 0), u = (-g, 1): a 2x2 Schur complement with terms
    # the size of R. Taken on the full innovation covariance it cancels at P >> R.
    u0, u1 = mu[0] - mu[1], mu[0] - mu[2]
    r00, r01, r02, r11, r12, r22 = cluster.cov
    c0, c1, c2 = r00 * u0 + r01 * u1 + r02, r01 * u0 + r11 * u1 + r12, r02 * u0 + r12 * u1 + r22
    a00, a11 = r00 + ALPHA_BETA_PRIOR_VAR, r11 + ALPHA_BETA_PRIOR_VAR
    explained = (a11 * c0 * c0 - 2.0 * r01 * c0 * c1 + a00 * c1 * c1) / (a00 * a11 - r01 * r01)
    cluster.w = 1.0 / (nu_bar + (u0 * c0 + u1 * c1 + c2) - explained)
    state.belief_h = GaussianCanonical.of((*map(add, in_h, height_message(cluster, cluster.w)),), 3)
    return nu_bar, in_nu, mu


def update_planar_deviation_factor(state, cluster, incoming: tuple) -> None:
    """Refit the cluster's deviation message and the surfel deviation belief.

    The message scale is half the expected squared residual gamma - f under
    the cluster's joint, linearized at the joint's mean; `incoming` is what
    `update_mean_plane_factor` returned. With u = (h0 - h_alpha, h0 - h_beta,
    1) at the incoming mean, eliminating (alpha, beta, gamma) from the joint
    leaves the refitted height belief S; the point block's information is
    B + u u^T / nu_bar. A residual gradient g has variance |r|^2 + |v|^2,
    r = L_B^-1 g_B, rho = (L_B^-1 u).r / nu_bar, v = L_S^-1 (g_h + rho F).
    """
    nu_bar, in_nu, (h0, ha, hb) = incoming
    alpha, beta, _ = cluster.mean
    f0, u0, u1 = 1.0 - alpha - beta, h0 - ha, h0 - hb
    h = state.belief_h.t
    lower_s = _factor(h[3:])
    m0, m1, m2 = _solve(lower_s, h[:3])
    b00, b01, b02, b11, b12, b22, p0, p1, p2 = cluster.point_info
    lower_b = _factor((b00 + u0 * u0 / nu_bar, b01 + u0 * u1 / nu_bar, b02 + u0 / nu_bar,
                      b11 + u1 * u1 / nu_bar, b12 + u1 / nu_bar, b22 + 1.0 / nu_bar))
    d = (u0 * alpha + u1 * beta + f0 * m0 + alpha * m1 + beta * m2) / nu_bar
    a2, b2, g2 = _solve(lower_b, (p0 + u0 * d, p1 + u1 * d, p2 + d))
    # the residual gradient at the joint's mean: -F2 on h, u2 on (alpha, beta, gamma)
    f2 = 1.0 - a2 - b2
    r0, r1, r2 = forward3(lower_b, (m0 - m1, m0 - m2, 1.0))
    q0, q1, q2 = forward3(lower_b, (u0, u1, 1.0))
    rho = (q0 * r0 + q1 * r1 + q2 * r2) / nu_bar
    v0, v1, v2 = forward3(lower_s, (rho * f0 - f2, rho * alpha - a2, rho * beta - b2))
    resid = g2 - (f2 * m0 + a2 * m1 + b2 * m2)
    scale = 0.5 * (r0 * r0 + r1 * r1 + r2 * r2 + v0 * v0 + v1 * v1 + v2 * v2) + 0.5 * resid**2
    cluster.nu_scale = max(scale, 1e-300)
    state.belief_nu = ig_product(in_nu, cluster.out_msg_nu)


def _scale_change(new: float, old: float) -> float:
    return abs(new - old) / (1.0 + abs(old))


def cluster_converged(cluster, old_h: tuple, old_scale: float, tol: float) -> bool:
    """The sweep's test of one refitted cluster, from its height message and
    deviation scale before the refit: a height message has rank one, so no KL;
    both nu messages carry NU_MSG_EXPONENT."""
    return (_natural_divergence(height_message(cluster, cluster.w), old_h, 3) < tol
            and _scale_change(cluster.nu_scale, old_scale) < tol)



# `kl_gaussian` on `cholesky_flat` and `forward3`, and `neighbor_out_message`
# on `cholesky_flat` and nested `upper_index` lookups, as they were before
# each was written out as one straight-line block per size, kept verbatim:
# the bit references of `tests/test_refit_bits.py`.
def kl_gaussian(q: GaussianCanonical, p: GaussianCanonical) -> float:
    """Exclusive KL divergence KL(q || p) for normalizable Gaussians of one scope.

    With omega = L L^T and y = L^-1 xi: tr(omega_p sigma_q) = |Lq^-1 Lp|_F^2,
    and the Mahalanobis term is |Lp^T (mu_p - mu_q)|^2 = |y_p - (Lq^-1 Lp)^T y_q|^2.
    A Cholesky pivot within rounding of its diagonal entry (_RANK_RTOL) makes
    a factor singular: rounding leaves some rank-one w F F^T a tiny pivot.
    Map factors have one to three variables. Each size unrolls the loop of
    the unblocked Cholesky step and its forward solve, with the same
    operations in the same order, so the result is the loop's to the bit; the
    0.0 * y terms keep the loop's NaNs.
    """
    _same_size(q, p, "KL divergence")
    n, x, z = q.n, q.t, p.t
    if n == 0:
        raise NotADistribution("a factor of no variables has no density")
    if n > 3:
        raise ValueError(f"KL divergence of {n} variables; map factors have one to three")
    lq, lp = cholesky_flat(x[n:], _RANK_RTOL), cholesky_flat(z[n:], _RANK_RTOL)
    if not (lq and lp):
        raise NotADistribution("information matrix is not positive definite")
    if n == 3:
        (a00, _, a11, _, a21, a22), (b00, b10, b11, b20, b21, b22) = lq, lp
        m00, m10, m20 = forward3(lq, (b00, b10, b20))  # the columns of Lq^-1 Lp
        m11, m22 = b11 / a11, b22 / a22
        m21 = (b21 - a21 * m11) / a22
        (yq0, yq1, yq2), (yp0, yp1, yp2) = forward3(lq, x), forward3(lp, z)
        d0 = yp0 - (m00 * yq0 + m10 * yq1 + m20 * yq2)
        d1 = yp1 - (0.0 * yq0 + m11 * yq1 + m21 * yq2)
        d2 = yp2 - (0.0 * yq0 + 0.0 * yq1 + m22 * yq2)
        log_det_ratio = 2.0 * (math.log(a00 / b00) + math.log(a11 / b11) + math.log(a22 / b22))
        kl = 0.5 * (m00 * m00 + m10 * m10 + m20 * m20 + m11 * m11 + m21 * m21 + m22 * m22
                    + (d0 * d0 + d1 * d1 + d2 * d2) - 3 + log_det_ratio)
    elif n == 2:
        (a00, a10, a11), (b00, b10, b11) = lq, lp
        m00, m11 = b00 / a00, b11 / a11
        m10 = (b10 - a10 * m00) / a11
        yq0, yp0 = x[0] / a00, z[0] / b00
        yq1, yp1 = (x[1] - a10 * yq0) / a11, (z[1] - b10 * yp0) / b11
        d0 = yp0 - (m00 * yq0 + m10 * yq1)
        d1 = yp1 - (0.0 * yq0 + m11 * yq1)
        log_det_ratio = 2.0 * (math.log(a00 / b00) + math.log(a11 / b11))
        kl = 0.5 * (m00 * m00 + m10 * m10 + m11 * m11 + (d0 * d0 + d1 * d1) - 2 + log_det_ratio)
    else:
        (a,), (b,) = lq, lp
        m = b / a
        d = z[0] / b - m * (x[0] / a)
        kl = 0.5 * (m * m + d * d - 1 + 2.0 * math.log(a / b))
    return max(kl, 0.0)


_UPPER3 = upper_index(3)


def neighbor_out_message(stm, sid: int, link: tuple) -> GaussianCanonical:
    """Outgoing LBP message from surfel sid over one of its `STMMap.links`.

    Marginal of the surfel height belief divided by the reverse message.
    The dropped block is the belief's own, so the message is its Schur
    complement, in closed form: the unblocked Cholesky step and its forward
    solve unrolled, each sum of products added left to right from 0.0. A dropped
    block without a Cholesky factor takes the generic path, with its jitter
    retry and `SingularMarginalization`.
    """
    stm.message_count += 1
    _, pos, _, key_in, _ = link
    reverse = stm.messages.get(key_in) or stm._vacuous[len(pos)]
    belief = stm.states.get(sid, stm.untouched).belief_h
    x, r, u = belief.t, reverse.t, _UPPER3
    if len(pos) == 2:
        (a, b), d = pos, 3 - sum(pos)
        if x[u[d][d]] > 0.0:
            ld = math.sqrt(x[u[d][d]])
            ya, yb, z = x[u[a][d]] / ld, x[u[b][d]] / ld, x[d] / ld
            return GaussianCanonical.of((
                x[a] - r[0] - (0.0 + ya * z), x[b] - r[1] - (0.0 + yb * z), x[u[a][a]] - r[2] - ya * ya,
                x[u[a][b]] - r[3] - (0.0 + ya * yb), x[u[b][b]] - r[4] - yb * yb), 2)
    elif len(pos) == 1:
        (k,), (d, e) = pos, [i for i in range(3) if i not in pos]
        lower = cholesky_flat((x[u[d][d]], x[u[d][e]], x[u[e][e]]))
        if lower is not None:
            l00, l10, l11 = lower
            y0, z0 = x[u[k][d]] / l00, x[d] / l00
            y1, z1 = (x[u[k][e]] - l10 * y0) / l11, (x[e] - l10 * z0) / l11
            return GaussianCanonical.of((x[k] - r[0] - (0.0 + y0 * z0 + y1 * z1),
                                         x[u[k][k]] - r[1] - (y0 * y0 + y1 * y1)), 1)
    return gauss_marginalize(gauss_divide(belief, reverse.embed(pos, 3)), pos)
