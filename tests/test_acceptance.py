"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line with the measured quantity at its stated tolerance. The criteria:

 1. Linear-Gaussian exactness of converged beliefs (1e-8, < 1 s)
 2. Agreement with a Metropolis-Hastings oracle on stereo and lidar cases
 3. Exact posterior means on an acyclic strip graph (1e-6)
 4. Two-sided sepset marginal consistency (exclusive KL < 1e-4)
 5. Accuracy advantage over the elevation baseline (2-D and 3-D)
 6. Incremental-update cost linearity (push-broom and re-observation)
 7. Prior-reach monotonicity in the inter-vertex correlation rho
 8. Exact deviation-belief shape bookkeeping (a_p + N/2)
 9. Consistency suite: fuzzed belief additivity, grid invariants,
    unscented-transform exactness, determinism and manifests
10. Per-measurement update cost bounded across map fill levels (< 3x)
"""

import math
import time

import numpy as np
import pytest

from stmmap.baseline import ElevationMap
from stmmap.cli import main, make_emulation_case
from stmmap.distributions import (
    GaussianMoment,
    gauss_marginalize,
    gauss_product,
    kl_gaussian,
    unscented_transform,
)
from stmmap.geometry import TriGrid
from stmmap.mapgraph import (
    ConvergenceConfig,
    PriorConfig,
    STMMap,
    incremental_update,
    query_map,
    run_inference,
)
from stmmap.oracle import ChainConfig, compare_marginals, run_mh
from stmmap.simulate import (
    SUBMAP_TRIANGLE,
    NoiseSpec,
    evaluate_loglik_ratio,
    evaluate_mse,
    perlin_surface,
    profile_surface,
    sample_measurements,
    scenario_pushbroom,
    scenario_reobserve,
)
from stmmap.surfel import Measurement


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared helpers


def fixed_nu_prior(nu, **kw):
    """Pin the planar deviation by an overwhelming inverse-gamma prior."""
    a = 1e12
    return PriorConfig(a_p=a, b_p=nu * a, **kw)


def plane_measurements(grid, density, seed, noise_var=0.01):
    """Noisy observations of z = 0.1 + 0.4a - 0.2b with near-deterministic
    (alpha, beta), uniformly over the grid's support."""
    rng = np.random.default_rng(seed)
    n = max(1, int(round(density * grid.n_surfels)))
    rows = grid.rows
    out = []
    made = 0
    while made < n:
        a = rng.uniform(0, 1)
        b = rng.uniform(0, rows / grid.n)
        if b >= rows / grid.n or a + b > 1:
            continue
        g = 0.1 + 0.4 * a - 0.2 * b + rng.normal(0, math.sqrt(noise_var))
        out.append(
            Measurement([a, b, g], np.diag([1e-12, 1e-12, noise_var]), made)
        )
        made += 1
    return out


def wls_posterior(grid, measurements, prior, nu):
    """Dense closed-form Gaussian posterior over all vertex heights."""
    nv = grid.n_vertices
    omega = np.zeros((nv, nv))
    xi = np.zeros(nv)
    pc = prior.height_covariance()
    for sid in range(grid.n_surfels):
        ids = np.array(grid.vertex_ids(sid))
        omega[np.ix_(ids, ids)] += np.linalg.inv(pc)
    for m in measurements:
        sid = grid.locate(m.mean[0], m.mean[1])
        (aff,), (v0,) = grid.element_frames([sid])
        la, lb, _ = aff @ (m.mean - v0)
        f = np.zeros(nv)
        f[list(grid.vertex_ids(sid))] = 1 - la - lb, la, lb
        var = m.cov[2, 2] + nu
        omega += np.outer(f, f) / var
        xi += f * m.mean[2] / var
    cov = np.linalg.inv(omega)
    return cov @ xi, cov


# ---------------------------------------------------------------------------


def test_criterion_1_linear_gaussian_exactness(capsys):
    t0 = time.perf_counter()
    nu = 0.05
    grid = TriGrid.triangle(0)
    prior = fixed_nu_prior(nu, rho=0.5, sigma2=50.0)
    meas = plane_measurements(grid, 40, seed=1)
    stm = STMMap(grid, prior, convergence=ConvergenceConfig(kl_threshold=1e-9,
                                                            max_sweeps=500))
    run_inference(stm, meas)
    mom = stm.surfels[0].belief_h.to_moments()
    mean, cov = wls_posterior(grid, meas, prior, nu)
    err = max(np.abs(mom.mu - mean).max(), np.abs(mom.sigma - cov).max())
    elapsed = time.perf_counter() - t0
    report(capsys, 1, err < 1e-8 and elapsed < 1.0,
           f"max |belief - WLS| = {err:.2e} (tol 1e-8), {elapsed:.2f} s (< 1 s)")


def test_criterion_2_mcmc_agreement(capsys):
    t0 = time.perf_counter()
    prior = PriorConfig()
    worst_disc, worst_ratio_lo, worst_ratio_hi = 0.0, math.inf, 0.0
    chain_s = {}
    for case, chain_seed in (("stereo", 11), ("lidar", 21)):
        meas = make_emulation_case(case)
        stm = STMMap(TriGrid.triangle(0), prior,
                     convergence=ConvergenceConfig(kl_threshold=1e-7,
                                                   max_sweeps=500))
        run_inference(stm, meas)
        t_chain = time.perf_counter()
        result = run_mh(meas, prior, ChainConfig(seed=chain_seed))
        chain_s[case] = time.perf_counter() - t_chain
        rep = compare_marginals(result, stm.surfels[0])
        for row in rep.values():
            worst_disc = max(worst_disc, row["std_mean_discrepancy"])
            worst_ratio_lo = min(worst_ratio_lo, row["std_ratio"])
            worst_ratio_hi = max(worst_ratio_hi, row["std_ratio"])
    elapsed = time.perf_counter() - t0
    ok = (worst_disc < 0.5 and 0.5 <= worst_ratio_lo
          and worst_ratio_hi <= 2.0 and elapsed < 300)
    report(capsys, 2, ok,
           f"max mean discrepancy {worst_disc:.3f} MH stds (< 0.5), "
           f"std ratios in [{worst_ratio_lo:.2f}, {worst_ratio_hi:.2f}] "
           f"(within [0.5, 2.0]), {elapsed:.0f} s (< 300 s; chains: "
           + ", ".join(f"{case} {t:.0f} s" for case, t in chain_s.items()) + ")")


def test_criterion_3_tree_exactness(capsys):
    nu = 0.05
    grid = TriGrid.strip(8)  # 15 surfels in an acyclic chain
    prior = fixed_nu_prior(nu, rho=0.5, sigma2=50.0)
    meas = plane_measurements(grid, 12, seed=3)
    stm = STMMap(grid, prior, convergence=ConvergenceConfig(kl_threshold=1e-10,
                                                            max_sweeps=1000))
    run_inference(stm, meas)
    q = query_map(stm)
    mean, _ = wls_posterior(grid, meas, prior, nu)
    err = np.abs(q.vertex_mean - mean).max()
    report(capsys, 3, err < 1e-6,
           f"{grid.n_surfels} surfels, max |vertex mean - dense solve| = "
           f"{err:.2e} (tol 1e-6)")


def test_criterion_4_sepset_consistency(capsys):
    grid = TriGrid.triangle(3)
    surface = perlin_surface(seed=4, amplitude=1.0)
    meas = sample_measurements(
        surface, SUBMAP_TRIANGLE, 10.0, NoiseSpec.lidar_like(), seed=4,
        n_elements_per_unit_area=grid.n_surfels / 0.5,
    )
    stm = STMMap(grid, PriorConfig(), convergence=ConvergenceConfig(
        kl_threshold=1e-7, max_sweeps=500))
    rep = run_inference(stm, meas)
    worst = 0.0
    pos = {key: p for sid in range(grid.n_surfels) for _, p, _, _, key in stm.links(sid)}
    for (a, b), pos_a in pos.items():
        m1 = gauss_marginalize(stm.surfels[a].belief_h, pos_a)
        m2 = gauss_marginalize(stm.surfels[b].belief_h, pos[b, a])
        worst = max(worst, kl_gaussian(m1, m2), kl_gaussian(m2, m1))
    report(capsys, 4, rep.converged and worst < 1e-4,
           f"{len(grid.adjacency)} sepsets, worst two-sided KL = {worst:.2e} "
           f"(tol 1e-4)")


def test_criterion_5_accuracy_vs_elevation(capsys):
    t0 = time.perf_counter()
    noise = NoiseSpec.stereo_like()
    conv = ConvergenceConfig(kl_threshold=1e-5, max_sweeps=200)

    # 2-D: ridge-profile surface on strip maps of 1..6 divisions
    surface = profile_surface(amplitude=1.0)
    all_better_2d = True
    best_llr = -math.inf
    for n in range(1, 7):
        grid = TriGrid.strip(n)
        region = [[0, 0], [1, 0], [1 - 1 / n, 1 / n], [0, 1 / n]]
        per_area = grid.n_surfels / (1 / n - 0.5 / n**2)
        meas = sample_measurements(surface, region, 10.0, noise, seed=1,
                                   n_elements_per_unit_area=per_area)
        stm = STMMap(grid, PriorConfig(), convergence=conv)
        incremental_update(stm, meas)
        elev = ElevationMap(grid)
        elev.update(meas)
        mse_s = evaluate_mse(stm, surface, 4000, seed=1, companion=elev)
        mse_e = evaluate_mse(elev, surface, 4000, seed=1, companion=stm)
        all_better_2d = all_better_2d and mse_s < mse_e
        best_llr = max(best_llr,
                       evaluate_loglik_ratio(stm, elev, surface, 4000, seed=1))

    # 3-D: gradient-noise surfaces, 10 seeds per depth
    bad_depths = []
    for depth in range(1, 5):
        mse_s, mse_e = [], []
        for k in range(10):
            surf3 = perlin_surface(seed=100 + k, amplitude=1.0)
            grid = TriGrid.triangle(depth)
            meas = sample_measurements(
                surf3, SUBMAP_TRIANGLE, 10.0, noise, seed=k,
                n_elements_per_unit_area=grid.n_surfels / 0.5)
            stm = STMMap(TriGrid.triangle(depth), PriorConfig(),
                         convergence=conv)
            incremental_update(stm, meas)
            elev = ElevationMap(TriGrid.triangle(depth))
            elev.update(meas)
            mse_s.append(evaluate_mse(stm, surf3, 2000, seed=1, companion=elev))
            mse_e.append(evaluate_mse(elev, surf3, 2000, seed=1, companion=stm))
        if depth > 2 and np.mean(mse_s) >= np.mean(mse_e):
            bad_depths.append(depth)
    elapsed = time.perf_counter() - t0
    ok = all_better_2d and best_llr >= 100 and not bad_depths and elapsed < 600
    report(capsys, 5, ok,
           f"2-D: mesh MSE lower at all divisions 1..6 = {all_better_2d}, "
           f"best log-likelihood margin {best_llr:.0f} nats (>= 100); "
           f"3-D: divisions > 2 with mesh worse: {bad_depths or 'none'}; "
           f"{elapsed:.0f} s (< 600 s)")


def test_criterion_6_cost_linearity(capsys):
    surface = perlin_surface(seed=0, amplitude=1.0)

    # push-broom at depth 5
    stm = STMMap(TriGrid.triangle(5), PriorConfig(), window=1,
                 convergence=ConvergenceConfig(kl_threshold=0.1, max_sweeps=50))
    push = scenario_pushbroom(stm, surface, 8, density=10.0,
                              noise=NoiseSpec.stereo_like(), seed=0)
    normalized = np.array([s.normalized for s in push.steps])
    cov = normalized.std() / normalized.mean()
    totals = np.array([s.messages for s in push.steps], dtype=float)
    slope = np.polyfit(np.arange(len(totals)), totals, 1)[0]

    # repeated re-observation of the same region at depth 2
    stm2 = STMMap(TriGrid.triangle(2), PriorConfig(), window=1,
                  convergence=ConvergenceConfig(kl_threshold=0.3, max_sweeps=50))
    reobs = scenario_reobserve(stm2, surface, 5, density=10.0,
                               noise=NoiseSpec.lidar_like(), seed=0)
    msgs = [s.messages for s in reobs.steps]
    non_increasing = all(msgs[i + 1] <= msgs[i] for i in range(1, len(msgs) - 1))
    ratio = msgs[4] / msgs[0]

    ok = cov < 0.35 and slope < 0 and non_increasing and ratio < 0.5
    report(capsys, 6, ok,
           f"push-broom: message CoV {cov:.2f} (< 0.35), total slope "
           f"{slope:.0f}/step (< 0); re-observe: counts {msgs} "
           f"non-increasing after step 2 = {non_increasing}, "
           f"step5/step1 = {ratio:.2f} (< 0.5)")


def test_criterion_7_prior_reach_monotone(capsys):
    distances = []
    for rho in (0.0, 0.5, 0.75, 0.875):
        grid = TriGrid.strip(12)
        stm = STMMap(grid, PriorConfig(rho=rho, sigma2=100.0),
                     convergence=ConvergenceConfig(kl_threshold=1e-6,
                                                   max_sweeps=500))
        rng = np.random.default_rng(0)
        meas = []
        for i in range(30):
            a = rng.uniform(0.001, 0.9 / 12)
            b = rng.uniform(0.0005, max(1 / 12 - a, 0.001) * 0.9)
            meas.append(Measurement([a, b, 5.0 + rng.normal(0, 0.05)],
                                    np.diag([1e-8, 1e-8, 0.01]), i))
        run_inference(stm, meas)
        q = query_map(stm)
        coords = grid.vertex_coords
        d = max((coords[v][0] for v in range(grid.n_vertices)
                 if abs(q.vertex_mean[v]) > 0.25), default=0.0)
        distances.append(float(d))
    mono = all(d2 >= d1 for d1, d2 in zip(distances, distances[1:]))
    report(capsys, 7, mono,
           "influence distance over rho {0, 0.5, 0.75, 0.875} = "
           f"{[round(d, 3) for d in distances]}, non-decreasing = {mono}")


def test_criterion_8_shape_bookkeeping(capsys):
    a_p = 1.5
    grid = TriGrid.triangle(0)
    prior = PriorConfig(a_p=a_p, b_p=1.0)
    meas = plane_measurements(grid, 37, seed=8)
    stm = STMMap(grid, prior, convergence=ConvergenceConfig())
    run_inference(stm, meas)
    shape = stm.surfels[0].belief_nu.shape
    expect = a_p + len(meas) / 2
    report(capsys, 8, shape == expect,
           f"deviation shape after {len(meas)} measurements = {shape} "
           f"(expected exactly a_p + N/2 = {expect})")


def test_criterion_9_consistency_suite(capsys, tmp_path):
    # (a) fuzz: 10^3 measurement insertions, additivity after every batch
    rng = np.random.default_rng(9)
    grid = TriGrid.triangle(2)
    stm = STMMap(grid, PriorConfig(), window=2,
                 convergence=ConvergenceConfig(kl_threshold=0.3, max_sweeps=20))
    n_ops = 0
    additive_ok = True
    while n_ops < 1000:
        k = int(rng.integers(1, 5))
        batch = []
        for _ in range(k):
            a, b = rng.uniform(0, 1, 2)
            if a + b > 1:
                a, b = 1 - a, 1 - b
            batch.append(Measurement(
                [a, b, rng.normal()], np.diag(rng.uniform(1e-4, 0.1, 3)),
                n_ops))
            n_ops += 1
        incremental_update(stm, batch)
        state = stm.surfels[int(rng.integers(grid.n_surfels))]
        fresh = gauss_product(state.prior_h, state.neighbor_in_msg)
        for c in state.clusters:
            fresh = gauss_product(fresh, c.out_msg_h)
        additive_ok = additive_ok and np.allclose(
            fresh.xi, state.belief_h.xi, atol=1e-9) and np.allclose(
            fresh.omega, state.belief_h.omega, atol=1e-9)

    # (b) grid invariants for depths 0..6
    grid_ok = True
    for depth in range(7):
        g = TriGrid.triangle(depth)
        n = 2**depth
        grid_ok = grid_ok and g.n_surfels == n * n
        grid_ok = grid_ok and g.n_vertices == (n + 1) * (n + 2) // 2
        # tiling: total area of all faces equals the submap triangle
        tot = 0.0
        for sid in range(g.n_surfels):
            p = g.vertex_coords[list(g.vertex_ids(sid))]
            e1, e2 = p[1] - p[0], p[2] - p[0]
            tot += 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        grid_ok = grid_ok and abs(tot - 0.5) < 1e-12
        # shared vertices: adjacent faces agree on exactly 2 vertex ids
        for s1, s2, shared in g.adjacency:
            common = set(g.vertex_ids(s1)) & set(g.vertex_ids(s2))
            grid_ok = grid_ok and len(common) == 2 and set(shared) == common

    # (c) unscented transform exact on random affine maps
    ut_err = 0.0
    for trial in range(20):
        r2 = np.random.default_rng(trial)
        d = int(r2.integers(1, 5))
        mu = r2.normal(size=d)
        a = r2.normal(size=(d, d))
        sigma = a @ a.T + 0.1 * np.eye(d)
        m = r2.normal(size=(d, d))
        c = r2.normal(size=d)
        out = unscented_transform(GaussianMoment(mu, sigma),
                                  lambda x: m @ x + c)
        ut_err = max(ut_err, np.abs(out.mu - (m @ mu + c)).max(),
                     np.abs(out.sigma - m @ sigma @ m.T).max())

    # (d) determinism: identical CLI runs produce identical bytes
    cfgp = tmp_path / "cfg.ini"
    cfgp.write_text("[map]\ndepth = 2\n[scenario]\nsteps = 3\ndensity = 5\n"
                    "[convergence]\nkl_threshold = 0.3\n")
    for name in ("r1", "r2"):
        assert main(["simulate", "--scenario", "reobserve", "--config",
                     str(cfgp), "--out", str(tmp_path / name)]) == 0
    det_ok = all(
        (tmp_path / ("r1" + ext)).read_bytes() ==
        (tmp_path / ("r2" + ext)).read_bytes()
        for ext in (".csv", ".json", ".ply", ".map.json", ".manifest.json"))

    ok = additive_ok and grid_ok and ut_err < 1e-9 and det_ok
    report(capsys, 9, ok,
           f"additivity over {n_ops} fuzzed insertions = {additive_ok}; "
           f"grid invariants depths 0..6 = {grid_ok}; UT affine error "
           f"{ut_err:.1e} (< 1e-9); byte-identical reruns = {det_ok}")


def test_criterion_10_throughput(capsys):
    surface = perlin_surface(seed=3, amplitude=1.0)
    noise = NoiseSpec.stereo_like()
    per_area = TriGrid.triangle(5).n_surfels / 0.5
    probe = sample_measurements(
        surface, [[0, 0], [1, 0], [0.9, 0.1], [0, 0.1]], 10.0, noise,
        seed=99, n_elements_per_unit_area=per_area)
    times = []
    for f in (0.1, 0.25, 0.5, 0.75, 1.0):
        stm = STMMap(TriGrid.triangle(5), PriorConfig(), window=1,
                     convergence=ConvergenceConfig(kl_threshold=0.1,
                                                   max_sweeps=50))
        pre = sample_measurements(
            surface, [[0, 0], [1, 0], [1 - f, f], [0, f]], 10.0, noise,
            seed=int(f * 10), n_elements_per_unit_area=per_area)
        incremental_update(stm, pre)
        t0 = time.perf_counter()
        rep = incremental_update(stm, probe)
        dt = time.perf_counter() - t0
        n = rep.n_measurements
        times.append(1e3 * dt / max(n, 1))
    ratio = max(times) / min(times)
    report(capsys, 10, ratio < 3.0,
           f"probe update cost at fill 10%..100% = "
           f"{[round(t, 2) for t in times]} ms/measurement, "
           f"max/min = {ratio:.2f} (< 3.0)")
