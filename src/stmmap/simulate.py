"""Synthetic environments, measurement synthesis, and benchmark scenarios.

Surfaces are deterministic functions (alpha, beta) -> gamma over the unit
submap triangle. Measurement synthesis draws uniform samples in a polygonal
region, perturbs them with a configurable noise model, and attaches the
exact generating covariance to each measurement. Scenario drivers exercise
the incremental-update path of a mesh map and record messaging cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Union

import numpy as np

from .baseline import ElevationMap, elev_likelihood
from .distributions import NotADistribution, kl_gaussian
from .mapgraph import STMMap, incremental_update, mean_plane_heights
from .surfel import Measurement


class EmptyRegion(Exception):
    """Raised when a sampling polygon has no interior."""


# ---------------------------------------------------------------------------
# synthetic surfaces


# A surface maps (alpha, beta) arrays to the heights gamma there.
Surface = Callable[[np.ndarray, np.ndarray], np.ndarray]

_PERLIN_FREQUENCY = 4.0
_PERLIN_OCTAVES = 4
_PERLIN_PERSISTENCE = 0.5


def _fade(t: np.ndarray) -> np.ndarray:
    # quintic smoothstep, C2 at lattice boundaries
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def perlin_surface(seed: int, amplitude: float = 1.0) -> Surface:
    """Gradient-noise heightfield with seeded lattice gradients.

    Octave o of `_PERLIN_OCTAVES` contributes at lattice frequency
    `_PERLIN_FREQUENCY` * 2^o with weight amplitude * `_PERLIN_PERSISTENCE`^o,
    so the output is bounded by amplitude * sum of octave weights.
    """
    rng = np.random.default_rng(seed)
    grids = []
    for o in range(_PERLIN_OCTAVES):
        res = max(1, int(round(_PERLIN_FREQUENCY * 2**o)))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(res + 1, res + 1))
        grads = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        grids.append((res, grads))

    def surface(alpha, beta) -> np.ndarray:
        a = np.clip(np.asarray(alpha, dtype=float), 0.0, 1.0)
        b = np.clip(np.asarray(beta, dtype=float), 0.0, 1.0)
        total = np.zeros(np.broadcast(a, b).shape)
        amp = amplitude
        for res, grads in grids:
            x = np.minimum(a * res, res - 1e-9)
            y = np.minimum(b * res, res - 1e-9)
            i = x.astype(int)
            j = y.astype(int)
            fx = x - i
            fy = y - j
            n00 = grads[i, j, 0] * fx + grads[i, j, 1] * fy
            n10 = grads[i + 1, j, 0] * (fx - 1.0) + grads[i + 1, j, 1] * fy
            n01 = grads[i, j + 1, 0] * fx + grads[i, j + 1, 1] * (fy - 1.0)
            n11 = grads[i + 1, j + 1, 0] * (fx - 1.0) + grads[i + 1, j + 1, 1] * (
                fy - 1.0
            )
            u = _fade(fx)
            v = _fade(fy)
            top = n00 + u * (n10 - n00)
            bot = n01 + u * (n11 - n01)
            total = total + amp * (top + v * (bot - top))
            amp *= _PERLIN_PERSISTENCE
        return total

    return surface


def profile_surface(amplitude: float = 1.0) -> Surface:
    """Fixed smooth 1-D profile; gamma depends on alpha only."""

    def surface(alpha, beta) -> np.ndarray:
        a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
        out = amplitude * (
            0.45 * np.sin(2.0 * np.pi * 1.3 * a)
            + 0.30 * np.sin(2.0 * np.pi * 3.1 * a + 0.8)
            + 0.15 * np.sin(2.0 * np.pi * 6.7 * a + 2.1)
        )
        return out + np.zeros(np.broadcast(a, b).shape)

    return surface


# ---------------------------------------------------------------------------
# noise models


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise: diagonal stds rotated randomly per measurement.

    rotate=False keeps the covariance axis-aligned.
    """

    sigmas: tuple
    rotate: bool = True

    def __post_init__(self):
        if len(self.sigmas) != 3 or any(s < 0 for s in self.sigmas):
            raise ValueError("sigmas must be three nonnegative values")

    @staticmethod
    def stereo_like() -> "NoiseSpec":
        # high uncertainty along the simulated ray, low transverse
        return NoiseSpec(sigmas=(0.004, 0.004, 0.12), rotate=True)

    @staticmethod
    def lidar_like() -> "NoiseSpec":
        return NoiseSpec(sigmas=(0.005, 0.005, 0.005), rotate=False)

    def draw_cov(self, rng: np.random.Generator) -> np.ndarray:
        d = np.diag(np.square(np.asarray(self.sigmas, dtype=float)))
        if not self.rotate:
            return d
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        return q @ d @ q.T


# The sensors a run can simulate, by name.
SENSORS = {"stereo": NoiseSpec.stereo_like(), "lidar": NoiseSpec.lidar_like()}


# ---------------------------------------------------------------------------
# measurement synthesis

SUBMAP_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over points."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(poly)
    for k in range(n):
        x0, y0 = poly[k]
        x1, y1 = poly[(k + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < xi)
    return inside


def sample_measurements(
    surface: Surface,
    region: np.ndarray,
    density: float,
    noise: NoiseSpec,
    seed: int,
    n_elements_per_unit_area: float,
) -> list[Measurement]:
    """Uniform samples of the surface inside an alpha-beta polygon.

    The sample count is density (measurements per grid element) times the
    number of elements covered by the region; pass the grid's
    `element_density` for the element count per unit of alpha-beta area.
    """
    region = np.asarray(region, dtype=float)
    area = _polygon_area(region)
    if area <= 0.0:
        raise EmptyRegion("sampling polygon has zero area")
    count = max(1, int(round(density * area * n_elements_per_unit_area)))
    rng = np.random.default_rng(seed)

    lo = region.min(axis=0)
    hi = region.max(axis=0)
    pts = np.empty((0, 2))
    while len(pts) < count:
        cand = rng.uniform(lo, hi, size=(max(64, 4 * count), 2))
        cand = cand[_points_in_polygon(cand, region)]
        pts = np.vstack([pts, cand])
    pts = pts[:count]

    gamma = surface(pts[:, 0], pts[:, 1])
    out = []
    for idx in range(count):
        cov = noise.draw_cov(rng)
        truth = np.array([pts[idx, 0], pts[idx, 1], gamma[idx]])
        sigmas = np.asarray(noise.sigmas)
        if np.all(sigmas == 0.0):
            mean = truth
            cov = np.eye(3) * 1e-18
        else:
            mean = truth + rng.multivariate_normal(np.zeros(3), cov)
        out.append(Measurement(mean=mean, cov=cov, id=idx))
    return out


# ---------------------------------------------------------------------------
# scenario drivers


@dataclass
class StepRecord:
    step: int
    n_new: int
    messages: int
    normalized: float
    total_kl: float


@dataclass
class ScenarioReport:
    scenario: str
    steps: list
    total_measurements: int = 0
    total_messages: int = 0

    def finalize(self) -> "ScenarioReport":
        self.total_measurements = sum(s.n_new for s in self.steps)
        self.total_messages = sum(s.messages for s in self.steps)
        return self


def _belief_change_kls(stm: STMMap, before: dict) -> np.ndarray:
    """Per-surfel KL of each belief from its value before a step, given the
    beliefs of the states held then. Factors are immutable, so an untouched
    surfel still holds the same belief object, and one without a state the
    shared initial belief: only held states are read."""
    kls = np.zeros(stm.grid.n_surfels)
    for sid, state in stm.states.items():
        old = before.get(sid, stm.untouched.belief_h)
        new = state.belief_h
        if new is not old:
            try:
                kls[sid] = kl_gaussian(new, old)
            except NotADistribution:  # either belief is improper: no KL
                pass
    return kls


# The fewest steps each scenario runs; `stm simulate` checks a config against it.
MIN_STEPS = {"pushbroom": 2, "reobserve": 3}


def _run_scenario(name: str, stm: STMMap, surface: Surface, steps: int, density: float,
                  noise: Optional[NoiseSpec], batches: Callable) -> ScenarioReport:
    """Fold in the batches that batches(sample) yields, one per step, where
    sample(region, seed) draws a batch with the scenario's noise (lidar-like
    by default) at the map's element density."""
    if steps < MIN_STEPS[name]:
        raise ValueError(f"steps must be >= {MIN_STEPS[name]}")
    noise = noise or NoiseSpec.lidar_like()

    def sample(region, seed):
        return sample_measurements(surface, region, density, noise, seed, stm.grid.element_density)

    report = ScenarioReport(scenario=name, steps=[])
    for k, batch in enumerate(batches(sample)):
        before = {sid: s.belief_h for sid, s in stm.states.items()}
        messages = incremental_update(stm, batch).messages
        report.steps.append(StepRecord(k, len(batch), messages, messages / max(1, len(batch)),
                                       float(_belief_change_kls(stm, before).sum())))
    return report.finalize()


def scenario_pushbroom(
    stm: STMMap,
    surface: Surface,
    steps: int,
    density: float = 10.0,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> ScenarioReport:
    """Forward-shifting sensor band sweeping the submap.

    The band at step k covers beta in [k/steps, (k+1)/steps] clipped to the
    submap triangle, so the swath area shrinks linearly as the frontier
    advances toward the apex.
    """
    def bands(sample):
        for k in range(steps):
            b0, b1 = k / steps, (k + 1) / steps
            yield sample(np.array([[0.0, b0], [1.0 - b0, b0], [1.0 - b1, b1], [0.0, b1]]), seed + k)

    return _run_scenario("pushbroom", stm, surface, steps, density, noise, bands)


def scenario_reobserve(
    stm: STMMap,
    surface: Surface,
    steps: int,
    density: float = 10.0,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> ScenarioReport:
    """Identical full-region batch folded in repeatedly."""
    return _run_scenario("reobserve", stm, surface, steps, density, noise,
                         lambda sample: repeat(sample(SUBMAP_TRIANGLE, seed), steps))


# ---------------------------------------------------------------------------
# accuracy metrics


def _eval_points(n_eval: int, seed: int) -> np.ndarray:
    """Uniform points in the open submap triangle."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(1e-6, 1.0 - 1e-6, size=(2 * n_eval + 64, 2))
    pts = pts[pts.sum(axis=1) < 1.0 - 1e-6]
    while len(pts) < n_eval:
        more = rng.uniform(1e-6, 1.0 - 1e-6, size=(2 * n_eval, 2))
        pts = np.vstack([pts, more[more.sum(axis=1) < 1.0 - 1e-6]])
    return pts[:n_eval]


def _eval_set(surface: Surface, n_eval: int, seed: int, *models) -> tuple:
    """The `_eval_points` that every model's grid holds and every model has
    observed, in order: the points (k, 2), their true heights, and each
    model's element ids (one row per model)."""
    pts = _eval_points(n_eval, seed)
    sids = np.array([m.grid.locate_all(pts[:, 0], pts[:, 1]) for m in models])
    keep = (sids >= 0).all(axis=0)
    for m, ids in zip(models, sids):
        if isinstance(m, STMMap):
            observed = np.zeros(m.grid.n_surfels, dtype=bool)
            observed[[sid for sid, s in m.states.items() if s.n_meas_total > 0]] = True
        else:
            observed = np.array([c.observed for c in m.cells])
        keep[keep] = observed[ids[keep]]
    if not keep.any():
        raise ValueError("no evaluable points: models unobserved everywhere")
    pts = pts[keep]
    return pts, surface(pts[:, 0], pts[:, 1]), sids[:, keep]


def evaluate_mse(
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
    models = (model,) if companion is None else (model, companion)
    pts, truth, sids = _eval_set(surface, n_eval, seed, *models)
    if isinstance(model, STMMap):
        heights = mean_plane_heights(model, pts, sids[0])
    else:
        heights = np.array([model.cells[s].mean for s in sids[0]])
    return float(np.mean((truth - heights) ** 2))


def evaluate_loglik_ratio(
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
    pts, truth, (stm_ids, elev_ids) = _eval_set(surface, n_eval, seed, stm, elev)
    nu = np.array([stm.surfels[s].expected_deviation() for s in stm_ids])
    d = truth - mean_plane_heights(stm, pts, stm_ids)
    ll_stm = -0.5 * (np.log(2.0 * np.pi * nu) + d * d / nu)
    ll_elev = [elev_likelihood(elev.cells[s], t) for s, t in zip(elev_ids, truth)]
    return float(np.sum(ll_stm - ll_elev))
