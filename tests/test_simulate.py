"""Tests for synthetic surfaces, measurement sampling, and scenarios."""

import math
from typing import Union

import numpy as np
import pytest

import stmmap.simulate as simulate
from stmmap.baseline import ElevationMap
from stmmap.distributions import GaussianCanonical, kl_gaussian
from stmmap.geometry import OutsideSubmap, TriGrid
from stmmap.mapgraph import ConvergenceConfig, PriorConfig, STMMap, incremental_update
from stmmap.simulate import (
    SUBMAP_TRIANGLE,
    EmptyRegion,
    NoiseSpec,
    Surface,
    _eval_points,
    evaluate_loglik_ratio,
    evaluate_mse,
    perlin_surface,
    profile_surface,
    sample_measurements,
    scenario_pushbroom,
    scenario_reobserve,
)
from stmmap.surfel import Measurement


def flat_surface(height: float = 0.0) -> Surface:
    return lambda a, b: np.full(np.broadcast(a, b).shape, float(height))


# The belief-change KLs of every surfel, and the accuracy metrics with a
# model dispatch and a belief conversion per evaluation point: references
# for the scenario reports and for `evaluate_mse` / `evaluate_loglik_ratio`.


def reference_belief_change_kls(stm: STMMap, before: list) -> np.ndarray:
    kls = np.zeros(len(stm.surfels))
    for i, state in enumerate(stm.surfels):
        old = before[i]
        new = state.belief_h
        if old.is_normalizable() and new.is_normalizable():
            kls[i] = kl_gaussian(new, old)
    return kls


def reference_map_height(stm: STMMap, alpha: float, beta: float) -> float:
    """Mean-mesh height at a submap coordinate."""
    sid = stm.grid.locate(alpha, beta)
    (a,), (v0,) = stm.grid.element_frames([sid])
    la, lb = a[:2, :2] @ (np.array([alpha, beta]) - v0[:2])
    h = stm.surfels[sid].belief_h.to_moments().mu
    return float((1.0 - la - lb) * h[0] + la * h[1] + lb * h[2])


def reference_model_mean(model: Union[STMMap, ElevationMap], alpha: float, beta: float) -> float:
    if isinstance(model, STMMap):
        return reference_map_height(model, alpha, beta)
    return model.height(alpha, beta)


def reference_observed_at(model: Union[STMMap, ElevationMap], sid: int) -> bool:
    if isinstance(model, STMMap):
        return model.surfels[sid].n_meas_total > 0
    return model.cells[sid].observed


def reference_evaluate_mse(
    model: Union[STMMap, ElevationMap],
    surface: Surface,
    n_eval: int,
    seed: int = 0,
    companion: Union[STMMap, ElevationMap, None] = None,
) -> float:
    """Mean squared height error at uniform evaluation points.

    Passing a companion model restricts evaluation to elements observed by
    both, keeping comparisons symmetric.
    """
    pts = _eval_points(n_eval, seed)
    errs = []
    for a, b in pts:
        try:
            sid = model.grid.locate(a, b)
            if companion is not None:
                companion.grid.locate(a, b)
        except OutsideSubmap:
            continue
        if not reference_observed_at(model, sid):
            continue
        if companion is not None and not reference_observed_at(companion, sid):
            continue
        truth = float(surface(a, b))
        errs.append((truth - reference_model_mean(model, a, b)) ** 2)
    if not errs:
        raise ValueError("no evaluable points: models unobserved everywhere")
    return float(np.mean(errs))


def reference_evaluate_loglik_ratio(
    stm: STMMap,
    elev: ElevationMap,
    surface: Surface,
    n_eval: int,
    seed: int = 0,
) -> float:
    """Summed log-likelihood difference, mesh map minus elevation map.

    Positive values mean the mesh map assigns higher density to the true
    surface. Both sides use the plug-in rule: the mesh model scores
    N(gamma; mean plane, expected deviation), the elevation model scores
    N(gamma; cell mean, cell variance).
    """
    pts = _eval_points(n_eval, seed)
    total = 0.0
    used = 0
    for a, b in pts:
        try:
            sid = stm.grid.locate(a, b)
            elev.grid.locate(a, b)
        except OutsideSubmap:
            continue
        if not (reference_observed_at(stm, sid) and reference_observed_at(elev, sid)):
            continue
        truth = float(surface(a, b))
        mu = reference_map_height(stm, a, b)
        nu = stm.surfels[sid].expected_deviation()
        d = truth - mu
        ll_stm = -0.5 * (math.log(2.0 * math.pi * nu) + d * d / nu)
        ll_elev = elev.log_likelihood(a, b, truth)
        total += ll_stm - ll_elev
        used += 1
    if used == 0:
        raise ValueError("no evaluable points: models unobserved everywhere")
    return total


class TestSurfaces:
    def test_perlin_deterministic(self):
        rng = np.random.default_rng(40)
        pts = rng.uniform(0, 0.5, size=(100, 2))
        s1 = perlin_surface(seed=3)
        s2 = perlin_surface(seed=3)
        v1 = s1(pts[:, 0], pts[:, 1])
        v2 = s2(pts[:, 0], pts[:, 1])
        np.testing.assert_array_equal(v1, v2)

    def test_perlin_zero_amplitude_flat(self):
        s = perlin_surface(seed=1, amplitude=0.0)
        rng = np.random.default_rng(41)
        pts = rng.uniform(0, 0.5, size=(50, 2))
        np.testing.assert_array_equal(s(pts[:, 0], pts[:, 1]), 0.0)

    def test_perlin_bounded(self):
        amp = 0.7
        bound = amp * sum(simulate._PERLIN_PERSISTENCE**o for o in range(simulate._PERLIN_OCTAVES))
        s = perlin_surface(seed=5, amplitude=amp)
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 1, size=(10_000, 2))
        vals = s(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(vals)) <= bound

    def test_profile_depends_on_alpha_only(self):
        s = profile_surface()
        a = np.array([0.1, 0.4])
        assert np.array_equal(s(a, np.array([0.0, 0.1])),
                              s(a, np.array([0.3, 0.5])))

    def test_flat(self):
        s = flat_surface(2.0)
        assert s(0.2, 0.3) == 2.0


class TestNoiseSpec:
    def test_cov_positive_definite(self):
        rng = np.random.default_rng(43)
        for spec in (NoiseSpec.stereo_like(), NoiseSpec.lidar_like()):
            for _ in range(20):
                cov = spec.draw_cov(rng)
                assert np.linalg.eigvalsh(cov).min() > 0
                np.testing.assert_allclose(cov, cov.T, atol=1e-15)

    def test_rotation_preserves_eigenvalues(self):
        rng = np.random.default_rng(44)
        spec = NoiseSpec.stereo_like()
        cov = spec.draw_cov(rng)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(cov)),
            np.sort(np.array(spec.sigmas) ** 2),
            rtol=1e-9,
        )


class TestSampleMeasurements:
    def test_zero_noise_on_surface(self):
        s = profile_surface()
        spec = NoiseSpec(sigmas=(0.0, 0.0, 0.0), rotate=False)
        meas = sample_measurements(s, SUBMAP_TRIANGLE, 10.0, spec, seed=1,
                                   n_elements_per_unit_area=2.0)
        for m in meas:
            assert m.mean[2] == pytest.approx(float(s(m.mean[0], m.mean[1])),
                                              abs=1e-9)

    def test_density_scales_with_surfel_count(self):
        s = flat_surface()
        spec = NoiseSpec.lidar_like()
        grid = TriGrid.triangle(5)
        meas = sample_measurements(s, SUBMAP_TRIANGLE, 10.0, spec, seed=2,
                                   n_elements_per_unit_area=grid.n_surfels / 0.5)
        assert len(meas) == pytest.approx(10 * 1024, rel=0.02)

    def test_noise_mean_zero(self):
        s = flat_surface()
        spec = NoiseSpec.lidar_like()
        meas = sample_measurements(s, SUBMAP_TRIANGLE, 1e5, spec, seed=3,
                                   n_elements_per_unit_area=1.0)
        gammas = np.array([m.mean[2] for m in meas])
        se = np.std(gammas) / np.sqrt(len(gammas))
        assert abs(np.mean(gammas)) < 4 * se + 1e-12

    def test_empty_region(self):
        with pytest.raises(EmptyRegion):
            sample_measurements(flat_surface(), [[0, 0], [0, 0], [0, 0]],
                                10.0, NoiseSpec.lidar_like(), seed=0,
                                n_elements_per_unit_area=1.0)

    def test_deterministic(self):
        s = perlin_surface(seed=9)
        spec = NoiseSpec.stereo_like()
        m1 = sample_measurements(s, SUBMAP_TRIANGLE, 20.0, spec, seed=5,
                                 n_elements_per_unit_area=2.0)
        m2 = sample_measurements(s, SUBMAP_TRIANGLE, 20.0, spec, seed=5,
                                 n_elements_per_unit_area=2.0)
        assert len(m1) == len(m2)
        for a, b in zip(m1, m2):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)


def small_map(depth=2, tol=0.3):
    return STMMap(TriGrid.triangle(depth), PriorConfig(),
                  convergence=ConvergenceConfig(tol, 200))


class TestScenarios:
    def test_reobserve_non_increasing(self):
        stm = small_map()
        report = scenario_reobserve(stm, perlin_surface(seed=1), 5, seed=0)
        msgs = [s.messages for s in report.steps]
        assert all(b <= a for a, b in zip(msgs[1:], msgs[2:]))
        assert report.total_messages == sum(msgs)

    def test_reobserve_beliefs_settle(self):
        stm = small_map()
        report = scenario_reobserve(stm, perlin_surface(seed=1), 6, seed=0)
        assert report.steps[-1].total_kl < report.steps[0].total_kl

    def test_pushbroom_band_locality(self):
        stm = small_map(depth=3, tol=0.1)
        report = scenario_pushbroom(stm, perlin_surface(seed=2), 6, seed=0)
        # most of the belief movement happens in newly observed surfels
        for step in report.steps:
            assert step.n_new > 0
        msgs = [s.messages for s in report.steps]
        slope = np.polyfit(np.arange(len(msgs)), msgs, 1)[0]
        assert slope < 0  # linearly decreasing band

    def test_step_kl_sums_every_changed_belief(self, monkeypatch):
        want = []

        def update(stm, batch):
            before = [s.belief_h for s in stm.surfels]
            report = incremental_update(stm, batch)
            want.append(float(reference_belief_change_kls(stm, before).sum()))
            return report

        monkeypatch.setattr(simulate, "incremental_update", update)
        report = scenario_pushbroom(small_map(depth=3, tol=0.1), perlin_surface(seed=2), 6, seed=0)
        assert [s.total_kl for s in report.steps] == want
        assert all(kl > 0.0 for kl in want)

    def test_step_kl_factors_each_changed_belief_once(self, monkeypatch):
        # the step KLs take one KL per changed surfel and keep the bits of the
        # checked-first reference
        calls, want = [0], []

        def counted(q, p):
            calls[0] += 1
            return kl_gaussian(q, p)

        def kls(stm, before):  # before: the beliefs of the states held before the step
            initial = stm.untouched.belief_h
            changed = sum(s.belief_h is not before.get(sid, initial) for sid, s in stm.states.items())
            every = [before.get(sid, initial) for sid in range(len(stm.surfels))]
            want.append(float(reference_belief_change_kls(stm, every).sum()))
            calls[0] = 0
            with monkeypatch.context() as m:
                m.setattr(simulate, "kl_gaussian", counted)
                got = belief_change_kls(stm, before)
            assert calls[0] == changed > 0
            return got

        belief_change_kls = simulate._belief_change_kls
        monkeypatch.setattr(simulate, "_belief_change_kls", kls)
        report = scenario_pushbroom(small_map(depth=3, tol=0.1), perlin_surface(seed=2), 6, seed=0)
        assert [s.total_kl for s in report.steps] == want

    @pytest.mark.parametrize("name, runner", [("pushbroom", scenario_pushbroom), ("reobserve", scenario_reobserve)])
    def test_steps_below_the_minimum_raise(self, name, runner):
        least = simulate.MIN_STEPS[name]
        stm = small_map(depth=1)
        with pytest.raises(ValueError, match=f"steps must be >= {least}"):
            runner(stm, perlin_surface(seed=1), least - 1)
        assert not stm.states  # raised before the first batch

    def test_an_improper_belief_change_has_no_kl(self):
        stm = small_map(depth=1)
        incremental_update(stm, sample_measurements(perlin_surface(seed=1), SUBMAP_TRIANGLE, 10.0,
                                                    NoiseSpec.lidar_like(), 0, stm.grid.element_density))
        first, *rest = sorted(stm.states)
        improper = GaussianCanonical(np.zeros(3), -np.eye(3))
        kls = simulate._belief_change_kls(stm, {first: improper})
        assert kls[first] == 0.0
        assert [kls[sid] for sid in rest] == [kl_gaussian(stm.states[sid].belief_h, stm.untouched.belief_h)
                                              for sid in rest]
        assert all(kls[sid] > 0.0 for sid in rest)

    def test_scenarios_run_on_a_strip(self):
        # a width-4 strip has 7 elements of area 1/32: density draws per element,
        # with (alpha, beta) noise too small to move a point across the strip's edge
        n, density, noise = 4, 10.0, NoiseSpec((1e-9, 1e-9, 0.005), rotate=False)
        stm = STMMap(TriGrid.strip(n), convergence=ConvergenceConfig(0.3, 200))
        report = scenario_pushbroom(stm, perlin_surface(seed=2), n, density=density, noise=noise, seed=0)
        # the first of n bands is the strip; the others lie past its row
        assert [s.n_new for s in report.steps] == [density * (2 * k + 1) for k in range(n - 1, -1, -1)]
        assert sum(s.n_meas_total for s in stm.states.values()) == density * (2 * n - 1)
        stm = STMMap(TriGrid.strip(n), convergence=ConvergenceConfig(0.3, 200))
        report = scenario_reobserve(stm, perlin_surface(seed=2), 3, density=density, noise=noise, seed=0)
        assert [s.n_new for s in report.steps] == [density * n * n] * 3  # over the whole triangle
        inside, p = sum(s.n_meas_total for s in stm.states.values()) / 3, (2 * n - 1) / n**2
        assert abs(inside - density * (2 * n - 1)) < 4.0 * math.sqrt(density * n * n * p * (1.0 - p))


class TestEvaluation:
    def test_mse_flat_truth_zero_prior(self):
        # a fresh map predicts 0 everywhere, so MSE against flat truth c
        # is c^2; force "observed" with a single tiny-information update
        grid = TriGrid.triangle(0)
        stm = STMMap(grid, PriorConfig())
        from stmmap.surfel import Measurement

        incremental_update(
            stm, [Measurement([0.3, 0.3, 0.0], np.diag([1e-4, 1e-4, 1e8]), 0)]
        )
        c = 2.0
        mse = evaluate_mse(stm, flat_surface(c), 500, seed=1)
        assert mse == pytest.approx(c * c, rel=0.01)

    def test_mse_consistency_dense_data(self):
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig())
        spec = NoiseSpec(sigmas=(1e-4, 1e-4, 1e-4), rotate=False)
        meas = sample_measurements(flat_surface(1.0), SUBMAP_TRIANGLE, 200.0,
                                   spec, seed=4, n_elements_per_unit_area=8.0)
        incremental_update(stm, meas)
        assert evaluate_mse(stm, flat_surface(1.0), 500, seed=1) < 1e-5

    def test_loglik_ratio_identical_support(self):
        # on flat truth with matched variances the ratio is near zero and
        # flips sign depending on which model's variance is inflated
        grid = TriGrid.triangle(1)
        stm = STMMap(grid, PriorConfig())
        elev = ElevationMap(grid)
        spec = NoiseSpec(sigmas=(1e-3, 1e-3, 0.05), rotate=False)
        meas = sample_measurements(flat_surface(0.5), SUBMAP_TRIANGLE, 60.0,
                                   spec, seed=5, n_elements_per_unit_area=8.0)
        incremental_update(stm, meas)
        elev.update(meas)
        ratio = evaluate_loglik_ratio(stm, elev, flat_surface(0.5), 400, seed=1)
        # the elevation cell variance shrinks as 1/N, the mesh keeps the
        # planar-deviation floor: flat truth favors the elevation map
        assert ratio < 0


@pytest.fixture(scope="module", params=["strip5", "depth3"])
def accuracy_models(request):
    """A mesh map and an elevation map that saw part of the submap, the
    elevation map only every other measurement."""
    def grid():
        return TriGrid.strip(5) if request.param == "strip5" else TriGrid.triangle(3)

    surface = perlin_surface(seed=7)
    region = np.array([[0.0, 0.0], [0.6, 0.0], [0.0, 0.6]])
    meas = sample_measurements(surface, region, 3.0, NoiseSpec.stereo_like(), seed=8,
                               n_elements_per_unit_area=128.0)
    stm = STMMap(grid(), PriorConfig(), convergence=ConvergenceConfig(0.1, 200))
    incremental_update(stm, meas)
    elev = ElevationMap(grid())
    elev.update(meas[::2])
    observed = [s.n_meas_total > 0 for s in stm.surfels]
    assert not all(observed) and [c.observed for c in elev.cells] != observed
    return stm, elev, surface


class TestEvaluationMatchesReference:
    @pytest.mark.parametrize("mesh_first", [True, False])
    @pytest.mark.parametrize("with_companion", [False, True])
    def test_mse(self, accuracy_models, mesh_first, with_companion):
        stm, elev, surface = accuracy_models
        model, other = (stm, elev) if mesh_first else (elev, stm)
        companion = other if with_companion else None
        want = reference_evaluate_mse(model, surface, 1500, seed=3, companion=companion)
        assert evaluate_mse(model, surface, 1500, seed=3, companion=companion) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_loglik_ratio(self, accuracy_models):
        stm, elev, surface = accuracy_models
        want = reference_evaluate_loglik_ratio(stm, elev, surface, 1500, seed=3)
        assert evaluate_loglik_ratio(stm, elev, surface, 1500, seed=3) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_same_error_without_an_evaluable_point(self, accuracy_models):
        stm, _, surface = accuracy_models
        unobserved = ElevationMap(stm.grid)
        calls = [
            (evaluate_mse, reference_evaluate_mse, (stm, surface, 500), {"companion": unobserved}),
            (evaluate_mse, reference_evaluate_mse, (unobserved, surface, 500), {}),
            (evaluate_loglik_ratio, reference_evaluate_loglik_ratio, (stm, unobserved, surface, 500), {}),
        ]
        for evaluate, reference, args, kwargs in calls:
            messages = []
            for f in (evaluate, reference):
                with pytest.raises(ValueError) as err:
                    f(*args, **kwargs)
                messages.append(str(err.value))
            assert messages[0] == messages[1]

    def test_unobserved_indefinite_belief_is_not_read(self, accuracy_models):
        stm, elev, surface = accuracy_models
        state = next(s for s in stm.surfels if not s.n_meas_total)
        saved = state.belief_h
        state.belief_h = GaussianCanonical(np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        try:
            for companion in (None, elev):
                assert evaluate_mse(stm, surface, 1500, seed=3, companion=companion) == pytest.approx(
                    reference_evaluate_mse(stm, surface, 1500, seed=3, companion=companion),
                    rel=1e-12, abs=0.0)
            assert evaluate_loglik_ratio(stm, elev, surface, 1500, seed=3) == pytest.approx(
                reference_evaluate_loglik_ratio(stm, elev, surface, 1500, seed=3), rel=1e-12, abs=0.0)
        finally:
            state.belief_h = saved
