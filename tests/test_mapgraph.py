"""Tests for the full-map cluster graph, LBP, and incremental updates."""

import itertools
import math
from operator import sub

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stmmap.cli import make_emulation_case
from stmmap.distributions import (
    GaussianCanonical,
    NotADistribution,
    SingularMarginalization,
    gauss_divide,
    gauss_marginalize,
    gauss_product,
    ig_product,
    kl_gaussian,
    scatter_index,
)
import stmmap.mapgraph as mapgraph
import stmmap.surfel as surfel
from stmmap.geometry import OutsideSubmap, TriGrid
from stmmap.mapgraph import (
    ConvergenceConfig,
    ConvergenceReport,
    PriorConfig,
    MapQueryResult,
    STMMap,
    _associate,
    _gauss_divergence,
    _ig_divergence,
    _natural_divergence,
    _relative_change,
    apportion_nu_scales,
    enforce_rip,
    incremental_update,
    map_height,
    neighbor_out_message,
    query_map,
    run_inference,
    validate_batch,
)
from stmmap.surfel import (
    Measurement,
    MeasurementBatch,
    init_likelihood_cluster,
    update_mean_plane_factor,
    update_planar_deviation_factor,
)
from batchref import one_cluster, reference_associate, reference_row
from floatref import add_up, cholesky_small, forward_small, same_bits

EPS = np.finfo(float).eps


def reference_run_inference(stm, batch, converged):
    """The full-scan sweep loop: every sweep scans all surfels and skips those
    marked in the bool array `converged`, which the caller keeps between calls."""
    per_surfel, skipped, _ = reference_associate(stm.grid, batch)
    n_used = sum(len(v) for v in per_surfel.values())

    gamma_all = np.array(
        [m.mean[2] for ms in per_surfel.values() for m, _ in ms], dtype=float
    )
    fallback_var = float(np.var(gamma_all)) if gamma_all.size >= 2 else 1e-2

    for sid, ms in per_surfel.items():
        state = stm.surfels[sid]
        gammas = np.array([m.mean[2] for m, _ in ms])
        target = state.expected_deviation() if state.n_meas_total > 0 else None
        nu_scale = apportion_nu_scales(
            gammas,
            state.belief_nu.exponent,
            state.belief_nu.scale,
            fallback_var,
            target_var=target,
        )
        for m, cov_inv in ms:
            state.clusters.append(
                init_likelihood_cluster(reference_row(m, cov_inv), nu_scale, batch=stm.batch)
            )
        state.n_meas_total += len(ms)
        state.recompute_beliefs()
        converged[sid] = False

    tol = stm.convergence.kl_threshold
    messages_before = stm.message_count
    sweeps = 0
    converged_all = bool(converged.all())
    while not converged_all and sweeps < stm.convergence.max_sweeps:
        sweeps += 1
        stm.sweep_count += 1
        for sid in range(len(stm.surfels)):
            if converged[sid]:
                continue
            state = stm.surfels[sid]
            changed = False
            belief_h_start = state.belief_h
            belief_nu_start = state.belief_nu

            # LBP: refresh the incoming neighbor message and ratio-update.
            new_in = GaussianCanonical.vacuous(3)
            for _, pos, _, key_in, _ in stm.links(sid):
                msg = stm.messages.get(key_in, GaussianCanonical.vacuous(len(pos)))
                new_in = gauss_product(new_in, msg.embed(pos, 3))
            ratio = gauss_divide(new_in, state.neighbor_in_msg)
            state.belief_h = gauss_product(state.belief_h, ratio)
            state.neighbor_in_msg = new_in

            # VMP: refit likelihood clusters. A cluster whose messages are
            # at their fixed point only needs refitting once the surfel
            # belief has moved since its last update.
            if state.ref_belief_h is None:
                belief_moved = True
            else:
                belief_moved = (
                    _gauss_divergence(state.belief_h, state.ref_belief_h) >= tol
                    or _ig_divergence(state.belief_nu, state.ref_belief_nu) >= tol
                )
            any_refit = False
            for cluster in state.clusters:
                if cluster.converged and not belief_moved:
                    continue
                old_h = cluster.out_msg_h
                old_nu = cluster.out_msg_nu
                incoming = update_mean_plane_factor(state, cluster)
                update_planar_deviation_factor(state, cluster, incoming)
                stm.message_count += 1
                any_refit = True
                # a height message has rank one: KL is undefined
                cluster.converged = (
                    _natural_divergence(cluster.out_msg_h.t, old_h.t, 3) < tol
                    and _ig_divergence(cluster.out_msg_nu, old_nu) < tol
                )
                if not cluster.converged:
                    belief_moved = True
            if any_refit:
                state.ref_belief_h = state.belief_h
                state.ref_belief_nu = state.belief_nu

            # The surfel settles once its belief stops moving over a sweep;
            # internal message churn that cancels in the belief is ignored.
            if (
                _gauss_divergence(state.belief_h, belief_h_start) >= tol
                or _ig_divergence(state.belief_nu, belief_nu_start) >= tol
            ):
                changed = True

            # LBP: emit messages to each neighbor.
            for link in stm.links(sid):
                other, pos, _, _, key_out = link
                old = stm.messages.get(key_out, GaussianCanonical.vacuous(len(pos)))
                msg = stm.messages[key_out] = neighbor_out_message(stm, sid, link)
                if _gauss_divergence(msg, old) >= tol:
                    changed = True
                    converged[other] = False

            converged[sid] = not changed
        converged_all = bool(converged.all())

    return ConvergenceReport(
        converged=converged_all,
        sweeps=sweeps,
        messages=stm.message_count - messages_before,
        n_measurements=n_used,
        n_skipped_outside=skipped,
    )


def reference_incremental_update(stm, batch, converged):
    """The full fold: every surfel's clusters are visited on every batch."""
    stm.batch += 1
    cutoff = stm.batch - stm.window
    for state in stm.surfels:
        fold = [c for c in state.clusters if c.batch <= cutoff]
        keep = [c for c in state.clusters if c.batch > cutoff]
        for cluster in fold:
            state.prior_h = gauss_product(state.prior_h, cluster.out_msg_h)
            state.prior_nu = ig_product(state.prior_nu, cluster.out_msg_nu)
        state.clusters = keep
    return reference_run_inference(stm, batch, converged)


def reference_neighbor_out_message(belief, reverse, pos):
    """The generic LBP message: the marginal of belief / reverse on `pos`."""
    return gauss_marginalize(gauss_divide(belief, reverse.embed(pos, 3)), pos)


def reference_schur_message(belief, reverse, pos):
    """The sepset message by the `cholesky_small` and `forward_small` loops, the
    steps `neighbor_out_message` unrolls; the generic message without a factor."""
    o = belief.rows()
    drop = [i for i in range(3) if i not in pos]
    lower = cholesky_small(o, drop) if pos else None
    if lower is None:
        return reference_neighbor_out_message(belief, reverse, pos)
    x, r, m = belief.t, reverse.t, len(pos)
    y = [forward_small(lower, [o[k][d] for d in drop]) for k in pos]
    z = forward_small(lower, [x[d] for d in drop])
    t = [x[k] - r[i] - add_up(a * b for a, b in zip(y[i], z)) for i, k in enumerate(pos)]
    pairs = enumerate([(i, j) for i in range(m) for j in range(i, m)], m)  # omega's, by place in t
    t += [o[pos[i]][pos[j]] - r[q] - add_up(a * b for a, b in zip(y[i], y[j])) for q, (i, j) in pairs]
    return GaussianCanonical.of(tuple(t), m)


# The divergence check before one scalar Cholesky kernel served every size:
# eigenvalue conditioning tests in front of a scalar KL on 1- and 2-variable
# factors and a LAPACK-factor KL on 3-variable ones. References for
# `_gauss_divergence`, `kl_gaussian`, `cholesky_small` and `forward_small`.
def reference_cholesky_small(o: list, d) -> list | None:
    """Lower Cholesky factor [[l00], [l10, l11]] of the 1x1 or 2x2 block o[d][d]
    of a nested list, as LAPACK's unblocked step; None unless positive definite."""
    a = o[d[0]][d[0]]
    if not a > 0.0:
        return None
    l00 = math.sqrt(a)
    if len(d) == 1:
        return [[l00]]
    l10 = o[d[1]][d[0]] / l00
    s = o[d[1]][d[1]] - l10 * l10
    return [[l00], [l10, math.sqrt(s)]] if s > 0.0 else None


def reference_forward(lower: list, v) -> list:
    """Solve lower @ t = v for a factor from `reference_cholesky_small`."""
    t0 = v[0] / lower[0][0]
    return [t0] if len(lower) == 1 else [t0, (v[1] - lower[1][0] * t0) / lower[1][1]]


def reference_well_conditioned(g: GaussianCanonical) -> bool:
    """Lowest eigenvalue of omega above 1e-9 times the highest."""
    if g.n == 3:
        lam = np.linalg.eigvalsh(g.omega)
        lo, hi = lam[0], lam[-1]
    elif g.n == 1:
        lo = hi = float(g.omega[0, 0])
    else:
        (a, b), (_, c) = g.omega.tolist()
        mid, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        lo, hi = mid - radius, mid + radius
    return lo > 1e-9 * max(hi, 1e-300)


def reference_kl_small(q: GaussianCanonical, p: GaussianCanonical) -> float:
    """`kl_gaussian` on 1- or 2-variable factors, from scalar Cholesky factors."""
    n = q.n
    lq, lp = (reference_cholesky_small(g.omega.tolist(), range(n)) for g in (q, p))
    cols = [reference_forward(lq, [row[j] if j < len(row) else 0.0 for row in lp]) for j in range(n)]
    y_q, y_p = reference_forward(lq, q.xi.tolist()), reference_forward(lp, p.xi.tolist())
    d = [y_p[j] - add_up(m * y for m, y in zip(col, y_q)) for j, col in enumerate(cols)]
    log_det_ratio = 2.0 * add_up(math.log(lq[i][i] / lp[i][i]) for i in range(n))
    kl = 0.5 * (add_up(m * m for col in cols for m in col) + add_up(e * e for e in d) - n + log_det_ratio)
    return max(kl, 0.0)


def reference_cholesky(g: GaussianCanonical) -> np.ndarray:
    """Lower Cholesky factor of omega; NotADistribution unless positive definite."""
    try:
        if g.n:
            return np.linalg.cholesky(g.omega)
    except np.linalg.LinAlgError:
        pass
    raise NotADistribution("information matrix is not positive definite")


def reference_kl_gaussian(q: GaussianCanonical, p: GaussianCanonical) -> float:
    """Exclusive KL divergence KL(q || p) for normalizable Gaussians of one scope.

    With omega = L L^T and y = L^-1 xi: tr(omega_p sigma_q) = |Lq^-1 Lp|_F^2,
    and the Mahalanobis term is |Lp^T (mu_p - mu_q)|^2 = |y_p - (Lq^-1 Lp)^T y_q|^2.
    """
    lq, lp = reference_cholesky(q), reference_cholesky(p)
    sol = np.linalg.solve(lq, np.column_stack((lp, q.xi)))
    lq_lp, y_q = sol[:, :-1], sol[:, -1]
    d = np.linalg.solve(lp, p.xi) - lq_lp.T @ y_q
    log_det_ratio = 2.0 * np.sum(np.log(np.diagonal(lq) / np.diagonal(lp)))
    kl = 0.5 * (np.sum(lq_lp * lq_lp) + d @ d - q.n + log_det_ratio)
    return max(float(kl), 0.0)


def reference_gauss_divergence(new: GaussianCanonical, old: GaussianCanonical) -> float:
    """Exclusive KL between message iterates, with a relative natural-parameter
    surrogate when either iterate is improper (KL is then undefined)."""
    if reference_well_conditioned(new) and reference_well_conditioned(old):
        return reference_kl_gaussian(new, old) if new.n == 3 else reference_kl_small(new, old)
    return _natural_divergence(new.t, old.t, new.n)


# The per-vertex union-find scope reduction, and the map reads that convert
# one surfel belief per surfel or query point: references for `enforce_rip`,
# `query_map` and `map_height`.


def reference_enforce_rip(grid: TriGrid) -> list[tuple]:
    """Reduce sepset scopes so each vertex's sepsets form a spanning tree.

    Per-variable Kruskal over the edges containing the vertex, edges ordered
    by (low surfel id, high surfel id) for determinism; off-tree edges drop
    the vertex from their scope.
    """
    keep = [set(shared) for (_, _, shared) in grid.adjacency]
    by_vertex: dict[int, list[int]] = {}
    for idx, (_, _, shared) in enumerate(grid.adjacency):
        for v in shared:
            by_vertex.setdefault(v, []).append(idx)
    for v, edge_ids in by_vertex.items():
        edge_ids.sort(key=lambda i: (grid.adjacency[i][0], grid.adjacency[i][1]))
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for idx in edge_ids:
            a, b, _ = grid.adjacency[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                keep[idx].discard(v)
            else:
                parent[ra] = rb
    return [tuple(sorted(k)) for k in keep]


def reference_query_map(stm: STMMap) -> MapQueryResult:
    """Summarize the map belief: per-surfel moments and fused vertex marginals."""
    n_s = len(stm.surfels)
    means = np.zeros((n_s, 3))
    stds = np.zeros((n_s, 3))
    devs = np.zeros(n_s)
    n_meas = np.zeros(n_s, dtype=int)
    observed = np.zeros(n_s, dtype=bool)
    vertex_w = np.zeros(stm.grid.n_vertices)
    vertex_wm = np.zeros(stm.grid.n_vertices)
    vertex_wv = np.zeros(stm.grid.n_vertices)
    for i, state in enumerate(stm.surfels):
        mom = state.belief_h.to_moments()
        means[i] = mom.mu
        var = np.diag(mom.sigma)
        stds[i] = np.sqrt(np.maximum(var, 0.0))
        devs[i] = state.expected_deviation()
        n_meas[i] = state.n_meas_total
        observed[i] = state.n_meas_total > 0
        for k, v in enumerate(stm.grid.vertex_ids(state.sid)):
            w = 1.0 / max(var[k], 1e-300)
            vertex_w[v] += w
            vertex_wm[v] += w * mom.mu[k]
            vertex_wv[v] += w * var[k]
    nz = vertex_w > 0
    vertex_mean = np.zeros(stm.grid.n_vertices)
    vertex_var = np.zeros(stm.grid.n_vertices)
    vertex_mean[nz] = vertex_wm[nz] / vertex_w[nz]
    vertex_var[nz] = vertex_wv[nz] / vertex_w[nz]
    return MapQueryResult(
        surfel_mean_heights=means,
        surfel_height_stds=stds,
        expected_deviation=devs,
        n_meas=n_meas,
        observed=observed,
        vertex_mean=vertex_mean,
        vertex_std=np.sqrt(vertex_var),
    )


def reference_map_height(stm: STMMap, alpha: float, beta: float) -> float:
    """Mean-mesh height at a submap coordinate."""
    sid = stm.grid.locate(alpha, beta)
    (a,), (v0,) = stm.grid.element_frames([sid])
    la, lb = a[:2, :2] @ (np.array([alpha, beta]) - v0[:2])
    h = stm.surfels[sid].belief_h.to_moments().mu
    return float((1.0 - la - lb) * h[0] + la * h[1] + lb * h[2])


def drawn_factor(rng, n, scale, log_ratios, xi_scale=1.0):
    """An n-variable factor with a random eigenbasis and eigenvalues
    scale * 10**log_ratios."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    omega = (q * (scale * 10.0 ** np.asarray(log_ratios[:n]))) @ q.T
    return GaussianCanonical(xi_scale * rng.normal(size=n) * np.sqrt(abs(np.diag(omega))), omega)


def relative_gap(a, b):
    return abs(a - b).max() / max(abs(a).max(), abs(b).max(), 1e-300)


def make_measurements(grid, density, seed, truth=lambda a, b: 0.0, noise=0.05,
                      ab_var=1e-6):
    """Noisy measurements over the grid with deterministic-ish positions."""
    rng = np.random.default_rng(seed)
    out = []
    mid = 0
    target = int(density * grid.n_surfels)
    while mid < target:
        a, b = rng.uniform(0, 1, 2)
        if a + b >= 1 or b >= grid.rows / grid.n:
            continue
        g = truth(a, b) + rng.normal(0, noise)
        out.append(
            Measurement([a, b, g], np.diag([ab_var, ab_var, noise**2]), mid)
        )
        mid += 1
    return out


def wls_posterior(measurements, grid, prior, nu):
    """Closed-form weighted-least-squares posterior over all vertex heights.

    Valid when measurement (alpha, beta) are (near-)deterministic and the
    deviation is fixed at nu: each measurement is then a linear observation
    of the three vertex heights of its element.
    """
    n_v = grid.n_vertices
    sigma_p = prior.height_covariance()
    omega_p = np.linalg.inv(sigma_p)
    omega = np.zeros((n_v, n_v))
    xi = np.zeros(n_v)
    for sid in range(grid.n_surfels):
        idx = list(grid.vertex_ids(sid))
        omega[np.ix_(idx, idx)] += omega_p
    for m in measurements:
        sid = grid.locate(m.mean[0], m.mean[1])
        from stmmap.distributions import GaussianMoment

        local = grid.normalize_to_element(sid, GaussianMoment(m.mean, m.cov))
        a, b = local.mu[0], local.mu[1]
        f = np.array([1 - a - b, a, b])
        var = local.sigma[2, 2] + nu
        idx = list(grid.vertex_ids(sid))
        omega[np.ix_(idx, idx)] += np.outer(f, f) / var
        xi[idx] += f * local.mu[2] / var
    cov = np.linalg.inv(omega)
    return cov @ xi, cov


def fixed_nu_prior(nu, rho=0.0, sigma2=100.0):
    a = 1e12
    return PriorConfig(rho=rho, sigma2=sigma2, a_p=a, b_p=nu * a)


class TestBuildMap:
    def test_prior_covariance_rho_half(self):
        p = PriorConfig(rho=0.5, sigma2=1.0)
        np.testing.assert_allclose(
            p.height_covariance(),
            [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]],
        )

    def test_prior_covariance_rho_zero(self):
        p = PriorConfig(rho=0.0, sigma2=2.0)
        np.testing.assert_allclose(p.height_covariance(), 2.0 * np.eye(3))

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            PriorConfig(rho=1.0)
        with pytest.raises(ValueError):
            PriorConfig(sigma2=-1.0)

    @pytest.mark.parametrize("config,field,value", [
        (PriorConfig, "rho", math.nan),
        (PriorConfig, "sigma2", math.nan),
        (PriorConfig, "sigma2", math.inf),
        (PriorConfig, "a_p", math.inf),
        (PriorConfig, "b_p", math.nan),
        (ConvergenceConfig, "kl_threshold", 0.0),
        (ConvergenceConfig, "kl_threshold", math.nan),
        (ConvergenceConfig, "kl_threshold", math.inf),
        (ConvergenceConfig, "max_sweeps", 0),
        (ConvergenceConfig, "max_sweeps", 1.5),
        (ConvergenceConfig, "max_sweeps", 2.0),
        (ConvergenceConfig, "max_sweeps", True),
        (ConvergenceConfig, "max_sweeps", "2"),
    ])
    def test_config_rejects_out_of_range(self, config, field, value):
        with pytest.raises(ValueError, match=field):
            config(**{field: value})

    def test_fresh_map_query_zero_means(self):
        stm = STMMap(TriGrid.triangle(2), PriorConfig())
        q = query_map(stm)
        np.testing.assert_allclose(q.vertex_mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            q.expected_deviation, stm.prior.b_p / stm.prior.a_p
        )


def rip_scopes(grid: TriGrid) -> list[tuple]:
    """The scope `enforce_rip` leaves on every edge, in adjacency order."""
    return [enforce_rip(grid, *edge)[0] for sid in range(grid.n_surfels) if not grid.cell(sid)[2]
            for edge in grid.edges(sid)]


class TestEnforceRIP:
    def test_depth0_no_sepsets(self):
        assert rip_scopes(TriGrid.triangle(0)) == []

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_per_variable_tree(self, depth):
        grid = TriGrid.triangle(depth)
        var_lists = rip_scopes(grid)
        # collect, per vertex, the sepset edges that carry it
        vertices = {}
        for (a, b, _), variables in zip(grid.adjacency, var_lists):
            for v in variables:
                vertices.setdefault(v, []).append((a, b))
        for v, edges in vertices.items():
            incident = {sid for sid in range(grid.n_surfels) if v in grid.vertex_ids(sid)}
            # acyclic and spanning: a tree over the incident surfels
            nodes = set()
            for a, b in edges:
                nodes.update((a, b))
            assert nodes <= incident
            parent = {n: n for n in incident}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in edges:
                ra, rb = find(a), find(b)
                assert ra != rb, f"cycle through vertex {v}"
                parent[ra] = rb
            roots = {find(n) for n in incident}
            assert len(roots) == 1, f"vertex {v} subgraph not connected"


    @pytest.mark.parametrize("shape,size", [("triangle", d) for d in range(8)]
                             + [("strip", n) for n in range(1, 13)])
    def test_matches_union_find(self, shape, size):
        grid = getattr(TriGrid, shape)(size)
        assert rip_scopes(grid) == reference_enforce_rip(grid)


class TestNeighborMessage:
    def test_vacuous_map_messages(self):
        stm = STMMap(TriGrid.triangle(1), PriorConfig())
        for sid in range(stm.grid.n_surfels):
            for link in stm.links(sid):
                msg = neighbor_out_message(stm, sid, link)
                # prior-only map: messages carry prior information only, and
                # must be well-defined
                assert msg.n == len(link[1])

    def test_observed_surfel_informs_neighbor(self):
        grid = TriGrid.strip(2)
        prior = fixed_nu_prior(0.01)
        stm = STMMap(grid, prior)
        meas = [
            Measurement([0.1, 0.1, 1.0], np.diag([1e-8, 1e-8, 1e-4]), 0),
            Measurement([0.2, 0.2, 1.0], np.diag([1e-8, 1e-8, 1e-4]), 1),
        ]
        run_inference(stm, meas)
        sid = grid.locate(0.1, 0.1)
        msg = neighbor_out_message(stm, sid, stm.links(sid)[0])
        assert np.linalg.eigvalsh(msg.omega).max() > 1.0

    def test_message_ratio_identity(self):
        # message from s * incoming from c = marginal of belief(s)
        grid = TriGrid.strip(3)
        stm = STMMap(grid, PriorConfig())
        meas = make_measurements(grid, 6, seed=3, truth=lambda a, b: a)
        run_inference(stm, meas)
        from stmmap.distributions import gauss_product

        for sid in range(grid.n_surfels):
            for link in stm.links(sid):
                _, pos, _, key_in, _ = link
                out = neighbor_out_message(stm, sid, link)
                combined = gauss_product(out, stm.messages[key_in])
                marg = gauss_marginalize(stm.surfels[sid].belief_h, pos)
                np.testing.assert_allclose(combined.xi, marg.xi, atol=1e-8)
                np.testing.assert_allclose(combined.omega, marg.omega, atol=1e-8)

    # every sepset position pattern: one or two kept heights, in any order
    PATTERNS = [p for k in (1, 2) for p in itertools.permutations(range(3), k)]

    @staticmethod
    def _out_message(belief, reverse, pos):
        stm = STMMap(TriGrid.triangle(0), PriorConfig())
        stm.surfels[0].belief_h = belief
        stm.messages[1, 0] = reverse
        return neighbor_out_message(stm, 0, (1, pos, scatter_index(pos, 3), (1, 0), (0, 1)))

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-4, 8), log_cond=st.floats(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_generic_path(self, seed, log_scale, log_cond):
        rng = np.random.default_rng(seed)
        belief = drawn_factor(rng, 3, 10.0**log_scale, rng.uniform(0, log_cond, 3))
        for pos in self.PATTERNS:
            # a reverse message of up to the marginal's size, of either sign
            marg = gauss_marginalize(belief, pos)
            size = abs(marg.omega).max()
            reverse = GaussianCanonical(
                rng.normal(size=len(pos)) * abs(marg.xi).max(),
                rng.uniform(-0.5, 0.9) * marg.omega
                + 0.1 * size * drawn_factor(rng, len(pos), rng.uniform(-1, 1), [0.0, 0.0]).omega,
            )
            got = self._out_message(belief, reverse, pos)
            want = reference_neighbor_out_message(belief, reverse, pos)
            assert relative_gap(got.xi, want.xi) <= 1e-9
            assert relative_gap(got.omega, want.omega) <= 1e-9

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8, 8),
           kind=st.sampled_from(["proper", "signed_zeros", "no_pivot"]))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_loop_bit_for_bit(self, seed, log_scale, kind):
        # both sepset shapes, every position order; zeros of either sign in
        # the belief and the reverse message; dropped blocks without a factor
        rng = np.random.default_rng(seed)
        t = list(drawn_factor(rng, 3, 10.0**log_scale, rng.uniform(0, 8, 3)).t)
        zeros = [0.0, -0.0]
        if kind == "signed_zeros":  # xi and omega's off-diagonal entries
            for k in (0, 1, 2, 4, 5, 7):
                t[k] = zeros[rng.integers(0, 2)] if rng.random() < 0.5 else t[k]
        elif kind == "no_pivot":  # a diagonal entry at or below zero, or an indefinite 2x2 block
            k = [3, 6, 8][rng.integers(0, 3)]
            t[k] = [0.0, -0.0, -t[k]][rng.integers(0, 3)]
            t[7] = 10.0 * math.sqrt(abs(t[6] * t[8])) if rng.random() < 0.5 else t[7]
        belief = GaussianCanonical.of(tuple(t), 3)
        for pos in self.PATTERNS:
            r = [x if rng.random() < 0.5 else zeros[rng.integers(0, 2)]
                 for x in drawn_factor(rng, len(pos), 10.0**log_scale, rng.uniform(-1, 1, 2)).t]
            reverse = GaussianCanonical.of(tuple(r), len(pos))
            try:
                want = reference_schur_message(belief, reverse, pos)
            except SingularMarginalization:
                with pytest.raises(SingularMarginalization):
                    self._out_message(belief, reverse, pos)
                continue
            got = self._out_message(belief, reverse, pos)
            assert got.n == want.n and same_bits(got.t, want.t)

    @pytest.mark.parametrize("block", ["zero", "negative", "indefinite"])
    def test_dropped_block_without_factor_takes_generic_path(self, block):
        # the generic path's jitter retry rescues a zero block and raises
        # SingularMarginalization on the others; the message does the same
        rng = np.random.default_rng(4)
        reverse = {k: drawn_factor(rng, k, 1.0, [0.0, 0.5]) for k in (1, 2)}
        for pos in self.PATTERNS:
            omega = drawn_factor(rng, 3, 10.0, [0.0, 0.5, 1.0]).omega.copy()
            drop = [i for i in range(3) if i not in pos]
            fill = {"zero": 0.0, "negative": -1.0, "indefinite": 1.0}[block]
            omega[np.ix_(drop, drop)] = fill * np.eye(len(drop))
            if block == "indefinite":
                omega[drop[-1], drop[-1]] = -1.0
            belief = GaussianCanonical(rng.normal(size=3), omega)
            try:
                want = reference_neighbor_out_message(belief, reverse[len(pos)], pos)
            except SingularMarginalization:
                with pytest.raises(SingularMarginalization):
                    self._out_message(belief, reverse[len(pos)], pos)
                continue
            got = self._out_message(belief, reverse[len(pos)], pos)
            assert got.xi.tobytes() == want.xi.tobytes()
            assert got.omega.tobytes() == want.omega.tobytes()


class TestGaussDivergence:
    KINDS = ["proper", "near_threshold", "improper", "vacuous"]

    @staticmethod
    def _draw(rng, n, kind, log_ratio):
        if kind == "vacuous":
            return GaussianCanonical.vacuous(n)
        scale = 10.0 ** rng.uniform(-3, 6)
        if kind == "near_threshold":  # lowest eigenvalue log_ratio decades below the highest
            eig = 10.0 ** np.array([0.0, log_ratio, rng.uniform(log_ratio, 0.0)])
        else:
            eig = 10.0 ** rng.uniform(0, 3, 3)
        if kind == "improper":  # one eigenvalue of the other sign
            eig[0] = -eig[0]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        omega = (q * (scale * eig[:n])) @ q.T
        return GaussianCanonical(rng.normal(size=n) * np.sqrt(abs(np.diag(omega))), omega)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 2, 3]),
        kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS + ["close"])),
        offset=st.floats(0.02, 0.3),
        side=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=400, deadline=None)
    def test_small_factors_match_eigvalsh_and_kl_gaussian(self, seed, n, kinds, offset, side):
        # conditioning ratios 10**(-9 +- offset) sit near the reference's 1e-9
        # cut-off but not within the eigenvalues' rounding of it
        rng = np.random.default_rng(seed)
        q = self._draw(rng, n, kinds[0], -9.0 + side * offset)
        if kinds[1] == "close":
            p = GaussianCanonical(q.xi * (1 + 1e-3 * rng.normal(size=n)),
                                  q.omega * (1 + 1e-3 * rng.normal()))
        else:
            p = self._draw(rng, n, kinds[1], -9.0 - side * offset)
        proper = [k in ("proper", "near_threshold") for k in kinds]
        if kinds[1] == "close":
            proper[1] = proper[0]
        got, want = _gauss_divergence(q, p), reference_gauss_divergence(q, p)
        if not all(proper):
            assert got == want == _natural_divergence(q.t, p.t, n)
            return
        # Both KL forms lose about eps * condition relative to the KL, and,
        # in the Mahalanobis term |y_p - M^T y_q|^2 (y = L^-1 xi), eps *
        # condition times |y| |d|. Near copies of a factor conditioned near
        # 1e9 make that second error dominate: there both forms are off by up
        # to 1e-3 relative (checked against 60-digit arithmetic).
        ref_kl = reference_kl_gaussian(q, p)
        cond = max(np.linalg.cond(q.omega), np.linalg.cond(p.omega))
        y = [np.linalg.solve(reference_cholesky(g), g.xi) for g in (q, p)]
        size = math.sqrt((y[0] @ y[0] + y[1] @ y[1] + n) * (ref_kl + 1.0))
        assert got == pytest.approx(ref_kl, rel=64 * EPS * cond, abs=64 * EPS * cond * size)
        # where the reference took the KL, 1- and 2-variable factors take the
        # same scalar steps; where it took the surrogate (a proper factor
        # conditioned beyond 1e9), the KL is the one rule change
        if reference_well_conditioned(q) and reference_well_conditioned(p) and n < 3:
            assert got == want

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6, 6), log_cond=st.floats(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_the_small_steps_and_lapack(self, seed, log_scale, log_cond):
        # on 1x1 and 2x2 blocks the kernel takes the reference's steps bit for
        # bit, signed zeros included; on any size it matches LAPACK's factor
        rng = np.random.default_rng(seed)
        o = drawn_factor(rng, 3, 10.0**log_scale, rng.uniform(0, log_cond, 3)).omega.tolist()
        v = [0.0, -0.0, rng.normal()]
        for d in itertools.chain.from_iterable(itertools.permutations(range(3), k) for k in (1, 2)):
            lower = cholesky_small(o, d)
            assert lower == reference_cholesky_small(o, d)
            if lower is not None:
                for w in (v, v[::-1], [o[0][k] for k in d]):
                    got, want = forward_small(lower, w[:len(d)]), reference_forward(lower, w[:len(d)])
                    assert same_bits(got, want)
        for n in range(1, 6):
            g = drawn_factor(rng, n, 10.0**log_scale, rng.uniform(0, min(log_cond, 6), n))
            want = np.linalg.cholesky(g.omega)
            lower = cholesky_small(g.omega.tolist(), range(n))
            got = np.array([row + [0.0] * (n - len(row)) for row in lower])
            assert relative_gap(got, want) <= 64 * EPS * np.linalg.cond(g.omega)
            t = forward_small(lower, g.xi.tolist())
            assert relative_gap(got @ np.array(t), g.xi) <= 64 * EPS * np.linalg.cond(g.omega)

    @pytest.mark.parametrize("omega", [np.zeros((0, 0)), np.zeros((3, 3)), np.diag([1.0, -1.0, 1.0]),
                                       np.diag([1.0, 1.0, 0.0]), np.full((3, 3), np.nan)])
    def test_kernel_rejects_what_has_no_factor(self, omega):
        # no variables, or no positive-definite factor: no moments and no KL
        n = len(omega)
        g = GaussianCanonical(np.ones(n), omega)
        assert not cholesky_small(omega.tolist(), range(n))
        assert not g.is_normalizable()
        with pytest.raises(NotADistribution):
            g.to_moments()
        good = GaussianCanonical(np.zeros(n), np.eye(n))
        for q, p in ((g, good), (good, g)):
            with pytest.raises(NotADistribution):
                kl_gaussian(q, p)

    def test_reference_divergence_gives_the_same_trajectory(self, monkeypatch):
        # on a depth-3 map at a tight threshold, every decision the old rule
        # made is made again: same sweeps, messages, active sets and bits
        grid = TriGrid.triangle(3)
        batches = [make_measurements(grid, 3, seed=s, truth=lambda a, b: 0.4 * a - b) for s in (31, 32)]

        def run():
            stm = STMMap(grid, PriorConfig(), window=2, convergence=ConvergenceConfig(1e-7, 400))
            reports = [incremental_update(stm, b) for b in batches]
            beliefs = [(s.belief_h.xi.tobytes(), s.belief_h.omega.tobytes(), s.belief_nu)
                       for s in stm.surfels]
            return [(r.sweeps, r.messages, r.active_per_sweep) for r in reports], beliefs

        got = run()
        monkeypatch.setattr(mapgraph, "_gauss_divergence", reference_gauss_divergence)
        want = run()
        assert got[0] == want[0]
        assert got[1] == want[1]


class TestRelativeChange:
    def test_overflowed_improper_factor_is_a_change(self):
        # an infinity in the old factor once made the surrogate divide by inf and read 0
        a = GaussianCanonical.of((1.0, math.inf, 1.0, 0.0, 0.0), 2)
        b = GaussianCanonical.of((5.0, math.inf, 1.0, 0.0, 0.0), 2)
        assert _gauss_divergence(a, b) == _gauss_divergence(b, a) == math.inf
        # a NaN that does not come first was dropped by `max`
        t = (1.0, 2.0, 1.0, 0.0, 0.0)
        for nan_at in range(5):
            u = tuple(math.nan if k == nan_at else x for k, x in enumerate(t))
            assert _natural_divergence(u, t, 2) == _natural_divergence(t, u, 2) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([0.0, 1.0, 30.0, 300.0, 307.5]))
    def test_finite_inputs_keep_their_bits(self, seed, n, log_scale):
        # the old rule, kept for finite inputs, including those whose differences
        # or sums overflow
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        old = tuple((rng.normal(size=n + n * (n + 1) // 2) * scale).tolist())
        with np.errstate(over="ignore"):
            step = rng.normal(size=len(old)) * scale * rng.choice([0.0, 1e-9, 1.0])
            new = tuple((np.array(old) + step).tolist())
        assume(all(map(math.isfinite, new)))

        def change(a, b):
            return max(map(abs, map(sub, a, b))) / (1.0 + max(map(abs, b)))

        want = max(change(new[n:], old[n:]), change(new[:n], old[:n]))
        assert same_bits([_natural_divergence(new, old, n)], [want])
        assert same_bits([_relative_change(new, old)], [change(new, old)])


class TestSharedFactors:
    def test_shared_factors_are_never_written(self):
        # One prior, one empty message and one initial belief serve every
        # surfel; updates must rebind a surfel's factors, never write them.
        grid = TriGrid.triangle(3)
        stm = STMMap(grid, PriorConfig(), convergence=ConvergenceConfig(0.1, 200))
        first = stm.surfels[0]
        prior, empty, initial = first.prior_h, first.neighbor_in_msg, first.belief_h
        prior_bytes = prior.xi.tobytes() + prior.omega.tobytes()
        assert all(
            s.prior_h is prior and s.neighbor_in_msg is empty and s.belief_h is initial
            for s in stm.surfels
        )
        sid = grid.locate(0.05, 0.05)
        for batch in range(2):  # the second update folds the first into a prior
            meas = [Measurement([0.05, 0.05, 1.0], 0.01 * np.eye(3), batch)]
            incremental_update(stm, meas)
            factors = [f for s in stm.surfels for f in (
                s.prior_h, s.neighbor_in_msg, s.belief_h,
                *(c.out_msg_h for c in s.clusters))]
            factors += stm.messages.values()
            for f in factors:
                assert not f.xi.flags.writeable and not f.omega.flags.writeable
            untouched = [s for s in stm.surfels if s.belief_h is initial]
            assert untouched and stm.surfels[sid] not in untouched
            assert all(
                s.prior_h is prior and s.neighbor_in_msg is empty for s in untouched
            )
            assert prior.xi.tobytes() + prior.omega.tobytes() == prior_bytes
        assert stm.surfels[sid].prior_h is not prior


class TestRunInference:
    def test_empty_batch(self):
        stm = STMMap(TriGrid.triangle(2), PriorConfig())
        report = run_inference(stm, [])
        assert report.converged
        assert report.messages == 0
        assert report.n_measurements == 0

    def test_outside_measurements_skipped(self):
        stm = STMMap(TriGrid.triangle(1), PriorConfig())
        meas = [Measurement([0.9, 0.9, 1.0], 0.01 * np.eye(3), 0)]
        report = run_inference(stm, meas)
        assert report.n_skipped_outside == 1

    def test_depth0_linear_gaussian_exactness(self):
        nu = 0.02
        grid = TriGrid.triangle(0)
        prior = fixed_nu_prior(nu, rho=0.5, sigma2=50.0)
        stm = STMMap(grid, prior, convergence=ConvergenceConfig(1e-10, 400))
        meas = make_measurements(grid, 12, seed=4, truth=lambda a, b: 1 + a - b,
                                 ab_var=1e-12)
        report = run_inference(stm, meas)
        assert report.converged
        mu, cov = wls_posterior(meas, grid, prior, nu)
        mom = stm.surfels[0].belief_h.to_moments()
        idx = list(grid.vertex_ids(0))
        assert np.max(np.abs(mom.mu - mu[idx])) < 1e-8
        assert np.max(np.abs(mom.sigma - cov[np.ix_(idx, idx)])) < 1e-8

    def test_depth1_sepset_consistency(self):
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig(), convergence=ConvergenceConfig(1e-8, 400))
        meas = make_measurements(grid, 10, seed=5, truth=lambda a, b: a + b)
        report = run_inference(stm, meas)
        assert report.converged
        pos = {key: p for sid in range(grid.n_surfels) for _, p, _, _, key in stm.links(sid)}
        for (a, b), pos_a in pos.items():
            m1 = gauss_marginalize(stm.surfels[a].belief_h, pos_a)
            m2 = gauss_marginalize(stm.surfels[b].belief_h, pos[b, a])
            assert kl_gaussian(m1, m2) < 1e-6
            assert kl_gaussian(m2, m1) < 1e-6

    def test_message_counter_counts_work(self):
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig())
        before = stm.message_count
        report = run_inference(stm, make_measurements(grid, 5, seed=6))
        assert stm.message_count - before == report.messages
        assert report.messages > 0

    def test_nan_divergence_is_not_convergence(self):
        # a sepset message whose xi overflowed gives its receiver a belief
        # whose KL from the last one is NaN: a change, not convergence
        stm = STMMap(TriGrid.strip(2), PriorConfig(), convergence=ConvergenceConfig(1e-3, 5))
        _, pos, _, key_in, _ = stm.links(0)[0]
        n = len(pos)
        stm.messages[key_in] = GaussianCanonical(np.r_[math.inf, np.zeros(n - 1)], np.eye(n))
        stm._active.add(0)
        report = run_inference(stm, [])
        assert not report.converged
        assert report.sweeps == 5

    def test_cluster_test_is_the_divergence_surrogate(self):
        # a refit height message has rank one, so `_gauss_divergence` takes
        # its natural-parameter surrogate for every refit, the first (from
        # the full-rank initial message) included
        stm = STMMap(TriGrid.triangle(0), PriorConfig())
        run_inference(stm, make_emulation_case("stereo")[:30])
        state = stm.surfels[0]
        for c in state.clusters[:5]:
            c.w = None  # back to the initial message
        state.recompute_beliefs()
        for _ in range(3):
            for c in state.clusters:
                old = c.out_msg_h
                update_planar_deviation_factor(state, c, update_mean_plane_factor(state, c))
                assert _natural_divergence(c.out_msg_h.t, old.t, 3) == _gauss_divergence(c.out_msg_h, old)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**31), st.floats(-3.0, 14.0))
    def test_rank_one_messages_have_no_kl(self, seed, log_w):
        # rounding leaves about one w F F^T in ten a positive scalar pivot;
        # `kl_gaussian` must still find no factor for it
        rng = np.random.default_rng(seed)
        alpha, beta = rng.uniform(-0.2, 1.2, 2)
        cluster = one_cluster(Measurement([alpha, beta, rng.uniform(-5, 5)], np.eye(3), 0), 1.0)
        cluster.w = 10.0**log_w
        msg = cluster.out_msg_h
        with pytest.raises(NotADistribution):
            kl_gaussian(msg, GaussianCanonical(np.zeros(3), np.eye(3)))
        cluster.w *= 1.5
        old = cluster.out_msg_h
        assert _gauss_divergence(msg, old) == _natural_divergence(msg.t, old.t, 3)


class TestFallbackCount:
    def test_report_counts_the_refit_jitter_retry(self, monkeypatch):
        grid = TriGrid.triangle(1)
        meas = make_measurements(grid, 5, seed=6)
        clean = run_inference(STMMap(grid, PriorConfig()), meas)
        assert clean.fallbacks == {}
        # the second 3x3 factor of the update takes the retry
        calls = [0]
        factor, retry = surfel._factor, surfel._retry_factor

        def failing(o):
            calls[0] += 1
            return retry(o) if calls[0] == 2 else factor(o)

        monkeypatch.setattr(surfel, "_factor", failing)
        report = run_inference(STMMap(grid, PriorConfig()), meas)
        assert report.fallbacks == {"refit_jitter": 1}
        assert (report.sweeps, report.messages) == (clean.sweeps, clean.messages)

    def test_report_counts_the_deviation_floor(self):
        # heights and a point pinned to about 1e-305 leave a deviation scale
        # of about 1e-305, which the refit raises to 1e-300
        stm = STMMap(TriGrid.triangle(0), PriorConfig(sigma2=1e-305))
        report = run_inference(stm, [Measurement([0.3, 0.3, 0.0], 1e-305 * np.eye(3), 0)])
        assert report.fallbacks == {"deviation_floor": 1}
        assert stm.surfels[0].clusters[0].nu_scale == 1e-300


class TestWorklist:
    @given(
        depth=st.integers(2, 3),
        n_batches=st.integers(1, 4),
        window=st.integers(1, 2),
        max_sweeps=st.integers(1, 12),
        tol=st.sampled_from([1e-3, 0.1]),
        radius=st.floats(0.1, 1.5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_full_scan(self, depth, n_batches, window, max_sweeps, tol, radius, seed):
        # a small max_sweeps leaves surfels unconverged; both carry them over
        grid = TriGrid.triangle(depth)
        config = ConvergenceConfig(tol, max_sweeps)
        stm = STMMap(grid, PriorConfig(), window, config)
        ref = STMMap(grid, PriorConfig(), window, config)
        converged = np.ones(grid.n_surfels, dtype=bool)
        rng = np.random.default_rng(seed)
        for b in range(n_batches):
            centre = rng.uniform(0.0, 0.5, 2)
            batch = [m for m in make_measurements(grid, 0.5, seed + b, truth=lambda a, b: a - 0.5 * b)
                     if np.hypot(*(m.mean[:2] - centre)) < radius]
            rep = incremental_update(stm, batch)
            want = reference_incremental_update(ref, batch, converged)
            assert (rep.converged, rep.sweeps, rep.messages) == (want.converged, want.sweeps, want.messages)
            assert len(rep.active_per_sweep) == rep.sweeps
            assert stm._active == set(np.flatnonzero(~converged).tolist())
            for s, r in zip(stm.surfels, ref.surfels):
                assert len(s.clusters) == len(r.clusters)
                assert relative_gap(s.belief_h.xi, r.belief_h.xi) <= 1e-12
                assert relative_gap(s.belief_h.omega, r.belief_h.omega) <= 1e-12
                assert s.belief_nu.exponent == r.belief_nu.exponent
                assert s.belief_nu.scale == pytest.approx(r.belief_nu.scale, rel=1e-12)

    @staticmethod
    def _corner_batch(depth):
        # 16 points in the up element of lattice cell (column 3, row 2), with
        # the same element coordinates at every depth
        n = 2**depth
        rng = np.random.default_rng(21)
        out = []
        while len(out) < 16:
            u, v = rng.uniform(0.0, 1.0, 2)
            if u + v < 1.0:
                gamma = 0.2 + 0.1 * u + rng.normal(0.0, 0.01)
                cov = np.diag([1e-6 / n**2, 1e-6 / n**2, 1e-4])
                out.append(Measurement([(3 + u) / n, (2 + v) / n, gamma], cov, len(out)))
        return out

    def test_batch_cost_does_not_depend_on_map_size(self):
        # the same batch near one corner of a depth-5 map (1,024 surfels)
        # and of a depth-7 map (16,384) visits the same surfels
        reports = []
        for depth in (5, 7):
            stm = STMMap(TriGrid.triangle(depth), PriorConfig(),
                         convergence=ConvergenceConfig(kl_threshold=0.1))
            reports.append(incremental_update(stm, self._corner_batch(depth)))
        small, large = reports
        assert small.converged and large.converged
        assert small.active_per_sweep[0] == 1  # the surfel holding the batch
        assert len(small.active_per_sweep) == small.sweeps
        assert small.messages == large.messages
        assert small.active_per_sweep == large.active_per_sweep


class TestTreeExactness:
    def test_strip_matches_dense_solve(self):
        nu = 0.01
        grid = TriGrid.strip(8)
        prior = fixed_nu_prior(nu, rho=0.5, sigma2=25.0)
        stm = STMMap(grid, prior, convergence=ConvergenceConfig(1e-10, 400))
        meas = make_measurements(
            grid, 8, seed=7, truth=lambda a, b: np.sin(4 * a), ab_var=1e-12
        )
        report = run_inference(stm, meas)
        assert report.converged
        mu, _ = wls_posterior(meas, grid, prior, nu)
        worst = 0.0
        for state in stm.surfels:
            mom = state.belief_h.to_moments()
            idx = list(grid.vertex_ids(state.sid))
            worst = max(worst, float(np.max(np.abs(mom.mu - mu[idx]))))
        assert worst < 1e-6


class TestIncrementalUpdate:
    def test_window_covers_all_matches_batch_run(self):
        grid = TriGrid.triangle(1)
        meas = make_measurements(grid, 8, seed=8, truth=lambda a, b: a)
        half = len(meas) // 2

        stm_inc = STMMap(grid, PriorConfig(), window=10,
                         convergence=ConvergenceConfig(1e-8, 400))
        incremental_update(stm_inc, meas[:half])
        incremental_update(stm_inc, meas[half:])

        stm_all = STMMap(grid, PriorConfig(), window=10,
                         convergence=ConvergenceConfig(1e-8, 400))
        incremental_update(stm_all, meas)

        for s_inc, s_all in zip(stm_inc.surfels, stm_all.surfels):
            assert kl_gaussian(s_inc.belief_h, s_all.belief_h) < 1e-6
            assert s_inc.expected_deviation() == pytest.approx(
                s_all.expected_deviation(), rel=1e-3
            )

    def test_folding_preserves_belief(self):
        # a second empty batch folds the old clusters into the priors
        # without moving the belief
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig(), window=1)
        incremental_update(stm, make_measurements(grid, 6, seed=9))
        before = [s.belief_h for s in stm.surfels]
        before_nu = [s.belief_nu for s in stm.surfels]
        incremental_update(stm, [])
        assert all(len(s.clusters) == 0 for s in stm.surfels)
        for s, bh, bn in zip(stm.surfels, before, before_nu):
            np.testing.assert_allclose(s.belief_h.xi, bh.xi, rtol=1e-9)
            np.testing.assert_allclose(s.belief_h.omega, bh.omega, rtol=1e-9)
            assert s.belief_nu.exponent == pytest.approx(bn.exponent)
            assert s.belief_nu.scale == pytest.approx(bn.scale, rel=1e-9)

    @pytest.mark.parametrize("window", [0, -3, 1.5, 2.0, True, "2", None])
    def test_window_is_validated(self, window):
        with pytest.raises(ValueError, match="window"):
            STMMap(TriGrid.triangle(1), PriorConfig(), window=window)

    def test_window_takes_any_integer_type(self):
        assert STMMap(TriGrid.triangle(0), PriorConfig(), window=np.int64(3)).window == 3

    def test_reobservation_sweeps_decrease(self):
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig(),
                     convergence=ConvergenceConfig(0.05, 400))
        meas = make_measurements(grid, 10, seed=10, truth=lambda a, b: a)
        sweeps = []
        for _ in range(4):
            report = incremental_update(stm, meas)
            sweeps.append(report.sweeps)
        assert sweeps[-1] <= sweeps[0]


SINGULAR_COV = np.array([
    [0.008583898172182396, -0.00143644858117874, -0.0031768363768153473],
    [-0.00143644858117874, 0.00854291232040117, -0.003222481615708486],
    [-0.0031768363768153473, -0.003222481615708486, 0.0028731895074164326],
])


class TestValidateBatch:
    BAD = {
        "nan_gamma": ([0.2, 0.1, np.nan], np.eye(3) * 1e-4, "non_finite"),
        "inf_gamma": ([0.2, 0.1, np.inf], np.eye(3) * 1e-4, "non_finite"),
        "nan_position": ([np.nan, 0.1, 0.0], np.eye(3) * 1e-4, "non_finite"),
        "nan_cov": ([0.2, 0.1, 0.0], np.full((3, 3), np.nan), "non_finite"),
        "negative_cov": ([0.2, 0.1, 0.0], -np.eye(3) * 1e-4, "cov_not_positive_definite"),
        "zero_cov": ([0.2, 0.1, 0.0], np.zeros((3, 3)), "cov_not_positive_definite"),
        "indefinite_cov": ([0.2, 0.1, 0.0], np.diag([1e-4, -1e-4, 1e-4]), "cov_not_positive_definite"),
        "asymmetric_cov": ([0.2, 0.1, 0.0], np.array([[1e-4, 5e-5, 0], [0, 1e-4, 0], [0, 0, 1e-4]]),
                           "asymmetric_cov"),
        # eigenvalues 1e-2, 1e-2 and 1.3e-18: a Cholesky factor, but no LU
        # inverse in element coordinates (depths 0-3, either orientation)
        "singular_cov": ([0.3, 0.1, 0.1], SINGULAR_COV, "cov_singular"),
    }

    @staticmethod
    def _beliefs(stm):
        return [(s.belief_h.xi.tobytes(), s.belief_h.omega.tobytes(), s.belief_nu, s.n_meas_total)
                for s in stm.surfels]

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_bad_rows_leave_the_clean_batch_result(self, kind):
        # bad rows inside a batch are skipped and counted; the map ends as
        # after the clean rows alone, and the next batch runs as usual
        grid = TriGrid.triangle(1)
        clean = make_measurements(grid, 4, seed=15, truth=lambda a, b: a)
        later = make_measurements(grid, 4, seed=16, truth=lambda a, b: a)
        mean, cov, reason = self.BAD[kind]
        bad = [Measurement(mean, cov, 100 + k) for k in range(2)]
        mixed = [bad[0]] + clean[:5] + [bad[1]] + clean[5:]
        stm_clean, stm_mixed = STMMap(grid, PriorConfig()), STMMap(grid, PriorConfig())
        rep_clean = incremental_update(stm_clean, clean)
        rep_mixed = incremental_update(stm_mixed, mixed)
        assert rep_clean.n_rejected == {}
        assert rep_mixed.n_rejected == {reason: 2}
        assert rep_mixed.n_measurements == rep_clean.n_measurements
        assert self._beliefs(stm_mixed) == self._beliefs(stm_clean)
        assert stm_mixed.batch == stm_clean.batch == 1
        incremental_update(stm_clean, later)
        assert incremental_update(stm_mixed, later).converged
        assert self._beliefs(stm_mixed) == self._beliefs(stm_clean)

    @pytest.mark.parametrize("kind", ["nan_gamma", "negative_cov", "zero_cov"])
    def test_run_inference_skips_bad_rows(self, kind):
        # the same guarantee without the window fold of `incremental_update`
        grid = TriGrid.triangle(1)
        clean = make_measurements(grid, 4, seed=15, truth=lambda a, b: a)
        later = make_measurements(grid, 4, seed=16, truth=lambda a, b: a)
        mean, cov, reason = self.BAD[kind]
        mixed = [Measurement(mean, cov, 100)] + clean[:5] + [Measurement(mean, cov, 101)] + clean[5:]
        stm_clean, stm_mixed = STMMap(grid, PriorConfig()), STMMap(grid, PriorConfig())
        run_inference(stm_clean, clean)
        rep_mixed = run_inference(stm_mixed, mixed)
        assert rep_mixed.n_rejected == {reason: 2}
        assert self._beliefs(stm_mixed) == self._beliefs(stm_clean)
        run_inference(stm_clean, later)
        assert run_inference(stm_mixed, later).converged
        assert self._beliefs(stm_mixed) == self._beliefs(stm_clean)

    def test_one_inverse_per_measurement(self, monkeypatch):
        # one stacked inverse whose rows are the used measurements, each once,
        # in element coordinates; the clusters keep the rows' point information
        grid = TriGrid.triangle(1)
        batch = make_measurements(grid, 4, seed=15, truth=lambda a, b: a)
        stm, stacks = STMMap(grid, PriorConfig()), []
        inv = np.linalg.inv

        def recorded(a):
            stacks.append(a)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recorded)
        report = run_inference(stm, batch)
        monkeypatch.undo()
        assert len(stacks) == 1 and stacks[0].shape == (report.n_measurements, 3, 3)
        assert report.n_measurements == len(batch)
        per_surfel = reference_associate(grid, batch)[0]
        want = [m.cov.tobytes() for pairs in per_surfel.values() for m, _ in pairs]
        assert sorted(c.tobytes() for c in stacks[0]) == sorted(want)
        for sid, pairs in per_surfel.items():
            got = [x for c in stm.surfels[sid].clusters for x in c.point_info]
            assert same_bits(got, [x for m, c in pairs for x in reference_row(m, c)[2]])

    def test_counts_by_reason(self):
        # a singular covariance is found where the map inverts it, in element
        # coordinates, so `validate_batch` passes it and the report counts it
        rows = [Measurement(mean, cov, k) for k, (mean, cov, _) in enumerate(self.BAD.values())]
        rows.append(Measurement([0.2, 0.1, 0.0], np.eye(3) * 1e-4, 99))
        valid, rejected = validate_batch(MeasurementBatch.of(rows))
        assert valid.ids.tolist() == [list(self.BAD).index("singular_cov"), 99]
        assert rejected == {"non_finite": 4, "cov_not_positive_definite": 3, "asymmetric_cov": 1}
        empty, none = validate_batch(MeasurementBatch.of([]))
        assert none == {} and empty.means.shape == (0, 3) and empty.covs.shape == (0, 3, 3)
        report = run_inference(STMMap(TriGrid.triangle(1), PriorConfig()), rows)
        assert report.n_rejected == {**rejected, "cov_singular": 1}
        assert report.n_measurements == 1


def drawn_points(grid, rng, k):
    """k points on the grid's lattice lines and element diagonals, on the
    hypotenuse, at beta == 1, at signed zeros and outside the grid."""
    n, top = grid.n, grid.rows / grid.n
    pts = []
    for _ in range(k):
        u, i, m = rng.uniform(), int(rng.integers(0, n + 1)), int(rng.integers(0, grid.rows + 1))
        pts.append([(i / n, m / n), (u, m / n), (i / n, u * top), (u * i / n, i / n - u * i / n),
                    (u, 1.0 - u), (0.0, 1.0), (u, 1.0), (-0.0, u * top), (u, -0.0),
                    tuple(rng.uniform(-0.1, 1.1, 2)), (u * 0.5, top + u * 0.1),
                    (u * (1.0 - top), u * top)][int(rng.integers(0, 12))])
    return np.array(pts)


def drawn_covs(rng, k, singular_share):
    """k positive-definite covariances, some diagonal (signed zeros), a share
    of them singular: a zero row and column."""
    b = rng.normal(size=(k, 3, 3)) * 10.0 ** rng.uniform(-3, 0, (k, 1, 1))
    covs = b @ b.swapaxes(1, 2) + 1e-8 * np.eye(3)
    covs[rng.uniform(size=k) < 0.3] *= np.eye(3)
    for i in np.flatnonzero(rng.uniform(size=k) < singular_share):
        d = rng.integers(0, 3)
        covs[i, d, :] = covs[i, :, d] = 0.0
    return covs


GRIDS = {"depth0": lambda: TriGrid.triangle(0), "depth2": lambda: TriGrid.triangle(2),
         "depth3": lambda: TriGrid.triangle(3), "strip12": lambda: TriGrid.strip(12),
         "strip5": lambda: TriGrid.strip(5)}


class TestBatchedAssociation:
    @settings(max_examples=150, deadline=None)
    @given(grid=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 40),
           singular_share=st.sampled_from([0.0, 0.2, 1.0]))
    def test_matches_the_per_point_reference(self, grid, seed, k, singular_share):
        grid, rng = GRIDS[grid](), np.random.default_rng(seed)
        pts = drawn_points(grid, rng, k)
        means = np.column_stack([pts.reshape(-1, 2), rng.normal(size=k)])
        covs = drawn_covs(rng, k, singular_share)
        batch = [Measurement(mean, cov, i) for i, (mean, cov) in enumerate(zip(means, covs))]

        def scalar(a, b):
            try:
                return grid.locate(a, b)
            except OutsideSubmap:
                return -1

        want = [scalar(a, b) for a, b in means[:, :2].tolist()]
        assert grid.locate_all(means[:, 0], means[:, 1]).tolist() == want
        per_surfel, skipped, singular = reference_associate(grid, batch)
        sids, rows, gammas, got_skipped, got_singular = _associate(STMMap(grid, PriorConfig()),
                                                                   MeasurementBatch.of(batch))
        assert (got_skipped, got_singular) == (skipped, singular)
        assert singular_share < 1.0 or not rows
        got = {}
        for sid, row, gamma in zip(sids.tolist(), rows, gammas.tolist()):
            got.setdefault(sid, []).append((row, gamma))
        assert list(got) == list(per_surfel)
        for sid, pairs in per_surfel.items():
            for (row, gamma), (m, cov_inv) in zip(got[sid], pairs, strict=True):
                assert all(same_bits(a, b) for a, b in zip(row, reference_row(m, cov_inv), strict=True))
                assert same_bits([gamma], [m.mean[2]])

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.array([[-0.1, 0.2], [0.6, 0.6], [1.0, -1e-300]])])
    def test_empty_and_all_outside_batches(self, points):
        grid = TriGrid.triangle(2)
        stm = STMMap(grid, PriorConfig())
        batch = [Measurement([a, b, 0.0], 1e-4 * np.eye(3), i) for i, (a, b) in enumerate(points)]
        sids, rows, gammas, skipped, singular = _associate(stm, MeasurementBatch.of(batch))
        assert (sids.tolist(), rows, gammas.tolist(), skipped, singular) == ([], [], [], len(points), 0)
        report = incremental_update(stm, MeasurementBatch.of(batch))
        assert (report.n_measurements, report.n_skipped_outside, report.sweeps) == (0, len(points), 0)
        assert stm.batch == 1 and not any(s.clusters for s in stm.surfels)

    def test_any_iterable_gives_the_list_result(self):
        # a generator is read once, so its points all reach the map
        grid = TriGrid.triangle(2)
        meas = make_measurements(grid, 3, seed=17) + [Measurement([0.9, 0.9, 0.0], 1e-4 * np.eye(3), 99)]
        results = []
        for form in (list, tuple, lambda ms: (m for m in ms)):
            stm = STMMap(grid, PriorConfig())
            rep = incremental_update(stm, form(meas))
            results.append((rep, [(s.belief_h.t, s.belief_nu, s.n_meas_total) for s in stm.surfels]))
        assert (results[0][0].n_measurements, results[0][0].n_skipped_outside) == (len(meas) - 1, 1)
        assert results[1] == results[0] and results[2] == results[0]

    @staticmethod
    def _state(stm):
        return stm.batch, [(s.prior_h.t, s.prior_nu, s.belief_h.t, s.belief_nu, s.n_meas_total,
                            [(id(c), c.batch, c.w, c.nu_scale) for c in s.clusters]) for s in stm.surfels]

    @pytest.mark.parametrize("bad", ["short_means", "short_covs", "ids", "not_a_measurement"])
    def test_malformed_batch_leaves_the_map_unchanged(self, bad):
        # raised before the window fold would fold the first batch's clusters
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig())
        incremental_update(stm, make_measurements(grid, 4, seed=15))
        before = self._state(stm)
        later = make_measurements(grid, 2, seed=16)
        batch = MeasurementBatch.of(later)
        malformed = {"short_means": batch._replace(means=batch.means[:, :2]),
                     "short_covs": batch._replace(covs=batch.covs[:-1]),
                     "ids": batch._replace(ids=batch.ids[:, None]),
                     "not_a_measurement": later + [(0.2, 0.1, 0.0)]}[bad]
        with pytest.raises(TypeError if bad == "not_a_measurement" else ValueError):
            incremental_update(stm, malformed)
        assert self._state(stm) == before
        assert incremental_update(stm, later).converged


class TestQueryMap:
    def test_single_surfel_vertex_stds(self):
        grid = TriGrid.triangle(0)
        stm = STMMap(grid, PriorConfig())
        run_inference(stm, make_measurements(grid, 10, seed=11))
        q = query_map(stm)
        mom = stm.surfels[0].belief_h.to_moments()
        np.testing.assert_allclose(
            q.vertex_std, np.sqrt(np.diag(mom.sigma)), rtol=1e-9
        )

    def test_flat_truth_recovered(self):
        grid = TriGrid.triangle(2)
        stm = STMMap(grid, PriorConfig())
        meas = make_measurements(
            grid, 20, seed=12, truth=lambda a, b: 1.0, noise=0.01
        )
        run_inference(stm, meas)
        q = query_map(stm)
        for v in range(grid.n_vertices):
            assert abs(q.vertex_mean[v] - 1.0) <= 3 * q.vertex_std[v] + 0.02

    def test_map_height_interpolates(self):
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig())
        meas = make_measurements(
            grid, 30, seed=13, truth=lambda a, b: a, noise=0.01
        )
        run_inference(stm, meas)
        assert map_height(stm, 0.45, 0.1) == pytest.approx(0.45, abs=0.1)


@pytest.fixture(scope="module", params=["strip6", "depth2", "depth5"])
def read_map(request):
    """A converged map whose measurements cover part of the grid."""
    grid = {"strip6": TriGrid.strip(6), "depth2": TriGrid.triangle(2),
            "depth5": TriGrid.triangle(5)}[request.param]
    stm = STMMap(grid, PriorConfig(), convergence=ConvergenceConfig(0.1, 200))
    meas = make_measurements(grid, 3 if grid.n_surfels < 100 else 1, seed=21,
                             truth=lambda a, b: np.sin(3.0 * a) + b * b)
    run_inference(stm, [m for m in meas if m.mean[0] < 0.6])
    assert not all(s.n_meas_total for s in stm.surfels)
    return stm


def grid_points(grid, n, seed):
    """n uniform points on the grid's rows, in up and down elements alike."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(4 * n, 2)) * [1.0, grid.rows / grid.n]
    pts = pts[pts.sum(axis=1) < 1.0][:n]
    assert len(pts) == n and len({grid.cell(grid.locate(a, b))[2] for a, b in pts}) == 2
    return pts


def indefinite_belief():
    return GaussianCanonical(np.zeros(3), np.diag([1.0, -1.0, 1.0]))


class TestBatchedRead:
    def test_query_map_matches_reference(self, read_map):
        got, want = query_map(read_map), reference_query_map(read_map)
        for name in MapQueryResult.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)

    def test_map_height_matches_reference(self, read_map):
        for a, b in grid_points(read_map.grid, 200, seed=22):
            assert map_height(read_map, a, b) == pytest.approx(reference_map_height(read_map, a, b),
                                                               rel=1e-12, abs=0.0)

    def test_blocks_do_not_change_the_result(self, read_map, monkeypatch):
        whole = query_map(read_map)
        monkeypatch.setattr(mapgraph, "_READ_BLOCK", 7)
        blocked = query_map(read_map)
        for name in MapQueryResult.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name), err_msg=name)

    def test_indefinite_belief_raises(self):
        grid = TriGrid.triangle(2)
        stm = STMMap(grid, PriorConfig())
        run_inference(stm, make_measurements(grid, 3, seed=23))
        stm.surfels[5].belief_h = indefinite_belief()
        inside, other = (grid.vertex_coords[list(grid.vertex_ids(s))].mean(axis=0) for s in (5, 0))
        for read in (query_map, reference_query_map):
            with pytest.raises(NotADistribution):
                read(stm)
        for height in (map_height, reference_map_height):
            with pytest.raises(NotADistribution):
                height(stm, *inside)
            assert np.isfinite(height(stm, *other))


class TestDeterminism:
    def test_bitwise_identical_runs(self):
        grid = TriGrid.triangle(2)
        meas = make_measurements(grid, 6, seed=14, truth=lambda a, b: a * b)
        beliefs = []
        for _ in range(2):
            stm = STMMap(grid, PriorConfig())
            run_inference(stm, meas)
            beliefs.append(
                [(s.belief_h.xi.tobytes(), s.belief_h.omega.tobytes(),
                  s.belief_nu.exponent, s.belief_nu.scale)
                 for s in stm.surfels]
            )
        assert beliefs[0] == beliefs[1]
