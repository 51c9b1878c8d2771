"""Seeded inputs for the benchmark: truth surface, sensor noise, scans.

Everything here is generated from the benchmark's own seed and uses numpy
only, so no change to the program under test can change what is measured.
Distances are metres in a global frame whose submap triangle has the
corners (0, 0), (SIDE, 0) and (0, SIDE); the program sees that frame
through ``stm build --global-frame 0,0,SIDE,SIDE`` or, for library calls,
as submap coordinates alpha = x / SIDE, beta = y / SIDE, gamma = z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIDE = 12.8  # submap edge length in metres: 0.8 m surfels at depth 4, 0.1 m at depth 7


@dataclass(frozen=True)
class Surface:
    """Smooth terrain: a sum of plane waves with seeded directions and phases."""

    freqs: np.ndarray  # (K, 2) cycles per metre
    phases: np.ndarray  # (K,)
    amps: np.ndarray  # (K,)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        arg = np.multiply.outer(x, self.freqs[:, 0]) + np.multiply.outer(y, self.freqs[:, 1])
        return np.sin(2.0 * np.pi * arg + self.phases) @ self.amps


def make_surface(rng: np.random.Generator, wavelengths: tuple[float, float], n_waves: int = 6) -> Surface:
    """Six plane waves, 0.35 m amplitude in all, wavelengths drawn from the given range (metres)."""
    angle = rng.uniform(0.0, 2.0 * np.pi, n_waves)
    wavelength = rng.uniform(*wavelengths, n_waves)
    freqs = np.column_stack([np.cos(angle), np.sin(angle)]) / wavelength[:, None]
    amps = 0.35 * rng.uniform(0.5, 1.0, n_waves) / np.sqrt(n_waves)
    return Surface(freqs, rng.uniform(0.0, 2.0 * np.pi, n_waves), amps)


def ray_covariance(rays: np.ndarray, sigma_range: np.ndarray, sigma_cross: np.ndarray) -> np.ndarray:
    """(n, 3, 3) covariances: sigma_range along each unit ray, sigma_cross across it."""
    u = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    outer = np.einsum("ni,nj->nij", u, u)
    eye = np.eye(3)[None]
    return (sigma_range**2)[:, None, None] * outer + (sigma_cross**2)[:, None, None] * (eye - outer)


def observe(rng: np.random.Generator, truth: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Noisy means: truth + N(0, cov), one draw per point."""
    chol = np.linalg.cholesky(cov)
    return truth + np.einsum("nij,nj->ni", chol, rng.standard_normal(truth.shape))


def lattice_triangles(depth: int) -> np.ndarray:
    """(4**depth, 3, 2) corner (alpha, beta) of every element of the depth-d lattice.

    Row r of a width-n lattice holds 2 * (n - r) - 1 triangles alternating
    up and down.
    """
    n = 2**depth
    corners = []
    for r in range(n):
        for j in range(n - r):
            corners.append(((j, r), (j + 1, r), (j, r + 1)))  # up
            if j < n - r - 1:
                corners.append(((j + 1, r + 1), (j, r + 1), (j + 1, r)))  # down
    return np.asarray(corners, dtype=float) / n


def points_in_triangles(rng: np.random.Generator, tri: np.ndarray, k: int) -> np.ndarray:
    """(len(tri) * k, 2) uniform points, k inside each (3, 2) triangle of tri."""
    u = rng.uniform(size=(len(tri), k, 2))
    flip = u.sum(axis=2) > 1.0
    u[flip] = 1.0 - u[flip]
    v0 = tri[:, None, 0]
    pts = v0 + u[..., :1] * (tri[:, None, 1] - v0) + u[..., 1:] * (tri[:, None, 2] - v0)
    return pts.reshape(-1, 2)


@dataclass(frozen=True)
class Scan:
    """Measured points in the global frame with their covariances."""

    mean: np.ndarray  # (n, 3)
    cov: np.ndarray  # (n, 3, 3)


# ---------------------------------------------------------------------------
# build_dense_stereo


STEREO_CAMERA = np.array([-3.0, -3.0, 7.0])


def stereo_scan(seed: int, depth: int, per_surfel: int) -> tuple[Surface, Scan]:
    """One stereo view of the whole submap, per_surfel true points in every element.

    Range noise grows linearly with distance from a camera raised beside
    the submap (5 cm at the near corner, about 10 cm at the far ones), so
    each covariance is long along its ray and thin across it.
    """
    rng = np.random.default_rng([seed, 1])
    surface = make_surface(rng, (2.0, 6.0))
    ab = points_in_triangles(rng, lattice_triangles(depth), per_surfel)
    xy = ab * SIDE
    truth = np.column_stack([xy, surface(xy[:, 0], xy[:, 1])])
    rays = truth - STEREO_CAMERA
    dist = np.linalg.norm(rays, axis=1)
    cov = ray_covariance(rays, 0.02 + 0.004 * dist, np.full(len(dist), 0.005))
    return surface, Scan(observe(rng, truth, cov), cov)


CSV_HEADER = "x,y,z,sxx,syy,szz,sxy,sxz,syz"


def write_points_csv(path: str, scan: Scan) -> None:
    """9-column CSV with round-trip float formatting, so parsed values equal scan.mean."""
    c = scan.cov
    cols = np.column_stack([
        scan.mean, c[:, 0, 0], c[:, 1, 1], c[:, 2, 2], c[:, 0, 1], c[:, 0, 2], c[:, 1, 2],
    ])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in cols:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# stream_lidar_d7


LIDAR_HEIGHT = 0.8  # sensor height above the ground, metres
DRIVE_Y = 1.2  # the sensor drives along y = DRIVE_Y ...
DRIVE_X0 = 2.0  # ... from x = DRIVE_X0, STEP metres per batch
STEP = 0.1
SCAN_OFFSETS = (0.3, 1.6)  # scan segment to the sensor's right (towards y < 0)


def lidar_leg(seed: int, surface: Surface, n_out: int, per_batch: int) -> list[Scan]:
    """One out-and-back drive: n_out batches out along +x, n_out back.

    Each batch is per_batch points on a scan segment beside the sensor,
    crossing the submap edge y = 0, so about a third of the points fall
    outside the submap. The way back re-observes the ground mapped on the
    way out, with fresh noise and jitter.
    """
    rng = np.random.default_rng([seed, 2])
    xs = DRIVE_X0 + STEP * np.arange(n_out)
    xs = np.concatenate([xs, xs[::-1]])
    lo, hi = SCAN_OFFSETS
    batches = []
    for x in xs:
        offsets = np.linspace(lo, hi, per_batch) + rng.uniform(-0.05, 0.05, per_batch)
        px = x + rng.uniform(-0.03, 0.03, per_batch)
        py = DRIVE_Y - offsets
        truth = np.column_stack([px, py, surface(px, py)])
        sensor = np.array([x, DRIVE_Y, float(surface(x, DRIVE_Y)) + LIDAR_HEIGHT])
        rays = truth - sensor
        dist = np.linalg.norm(rays, axis=1)
        cov = ray_covariance(rays, np.full(per_batch, 0.01), 0.002 * dist)
        batches.append(Scan(observe(rng, truth, cov), cov))
    return batches


def stream_surface(seed: int) -> Surface:
    """Rougher ground than the stereo scan: 1-3 m features under 0.1 m surfels."""
    return make_surface(np.random.default_rng([seed, 3]), (1.0, 3.0))


# ---------------------------------------------------------------------------
# shared


def to_submap(scan: Scan) -> tuple[np.ndarray, np.ndarray]:
    """(means, covs) in submap coordinates for library calls."""
    scale = np.array([1.0 / SIDE, 1.0 / SIDE, 1.0])
    return scan.mean * scale, scan.cov * np.multiply.outer(scale, scale)
