"""Landmark-relative reference frames and the recursive triangular grid.

A submap frame is defined by three landmarks: the anchor l0 and the edge
vectors a = l_alpha - l0, b = l_beta - l0, with the third axis the unit
normal n = (a x b) / |a x b|. Submap coordinates (alpha, beta) are
dimensionless; gamma is height along n in global length units.

The grid tiles the unit (alpha, beta) triangle with equisized triangles on a
row-major lattice. At width n, lattice vertex (r, c) sits at
(alpha, beta) = (c/n, r/n); row r holds 2*(n - r) - 1 triangles alternating
up/down, so a full subdivision of depth d (n = 2**d) has 4**d surfels and
(n + 1)(n + 2) / 2 shared vertices. A strip grid keeps only row 0, which
yields an acyclic chain of surfels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import GaussianMoment, unscented_transform

# The deepest grid that builds in 8 GiB: depth 10 takes 1.7 GiB (README.md).
MAX_DEPTH = 10


class DegenerateLandmarks(Exception):
    """Raised for collinear or duplicate frame landmarks."""


class OutsideSubmap(Exception):
    """Raised when a query point falls outside the unit submap triangle."""


class DepthTooLarge(Exception):
    """Raised when a grid subdivision depth exceeds the practical cap."""


@dataclass(frozen=True)
class RelativeIRF:
    """Submap reference frame: anchor landmark, edge axes, and unit normal."""

    l0: np.ndarray
    axis_a: np.ndarray
    axis_b: np.ndarray
    axis_n: np.ndarray

    @property
    def basis(self) -> np.ndarray:
        """Columns [a b n]: maps relative coordinates to global offsets."""
        return np.column_stack([self.axis_a, self.axis_b, self.axis_n])


def make_relative_irf(l0, l_alpha, l_beta) -> RelativeIRF:
    """Build the submap frame from three non-collinear landmarks."""
    l0 = np.asarray(l0, dtype=float).reshape(3)
    a = np.asarray(l_alpha, dtype=float).reshape(3) - l0
    b = np.asarray(l_beta, dtype=float).reshape(3) - l0
    cross = np.cross(a, b)
    norm = np.linalg.norm(cross)
    if norm <= 1e-9 * np.linalg.norm(a) * np.linalg.norm(b):
        raise DegenerateLandmarks("landmarks are collinear or coincident")
    return RelativeIRF(l0, a, b, cross / norm)


def global_to_relative(irf: RelativeIRF, m) -> np.ndarray:
    """Submap coordinates (alpha, beta, gamma) of a global point."""
    return np.linalg.solve(irf.basis, np.asarray(m, dtype=float).reshape(3) - irf.l0)


def relative_to_global(irf: RelativeIRF, p) -> np.ndarray:
    """The global point at submap coordinates (alpha, beta, gamma)."""
    return irf.basis @ np.asarray(p, dtype=float).reshape(3) + irf.l0


def _euler_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def transform_measurement_to_relative(
    pose_belief: GaussianMoment,
    landmark_belief: GaussianMoment,
    z_body: GaussianMoment,
) -> GaussianMoment:
    """Transform a body-frame point belief into submap coordinates.

    Two chained unscented transforms: first over the stacked pose (x, y, z,
    yaw, pitch, roll) and body point to obtain the global-frame point, then
    over the stacked landmark coordinates (l0, l_alpha, l_beta) and global
    point to obtain (alpha, beta, gamma). Cross-correlations with the pose
    and landmark beliefs are dropped by construction.
    """
    if pose_belief.dim != 6 or landmark_belief.dim != 9 or z_body.dim != 3:
        raise ValueError("expected 6-D pose, 9-D landmarks, 3-D point")

    def body_to_global(x: np.ndarray) -> np.ndarray:
        t, angles, p = x[0:3], x[3:6], x[6:9]
        return _euler_rotation(*angles) @ p + t

    stacked = _stack_moments(pose_belief, z_body)
    m_global = unscented_transform(stacked, body_to_global)

    def global_to_rel(x: np.ndarray) -> np.ndarray:
        return global_to_relative(make_relative_irf(x[0:3], x[3:6], x[6:9]), x[9:12])

    stacked = _stack_moments(landmark_belief, m_global)
    return unscented_transform(stacked, global_to_rel)


def _stack_moments(a: GaussianMoment, b: GaussianMoment) -> GaussianMoment:
    mu = np.concatenate([a.mu, b.mu])
    sigma = np.zeros((a.dim + b.dim, a.dim + b.dim))
    sigma[: a.dim, : a.dim] = a.sigma
    sigma[a.dim :, a.dim :] = b.sigma
    # The stacked covariance must stay invertible for sigma-point generation.
    eps = 1e-15 * max(np.trace(sigma), 1.0)
    return GaussianMoment(mu, sigma + eps * np.eye(len(mu)))


@dataclass(frozen=True)
class Surfel:
    """One grid element: orientation, lattice cell, and its vertex triple.

    vertex_ids are ordered (v0, v_alpha, v_beta): the lattice vertices mapped
    to (0,0), (1,0) and (0,1) by the element normalization. Their (alpha,
    beta) are the grid's `vertex_coords` rows.
    """

    sid: int
    up: bool
    row: int
    col: int
    vertex_ids: tuple[int, int, int]


class TriGrid:
    """Recursive triangular grid over the unit (alpha, beta) triangle."""

    def __init__(self, n: int, rows: int, depth: int | None = None):
        if n < 1 or not 1 <= rows <= n:
            raise ValueError("invalid grid dimensions")
        self.n = n
        self.rows = rows
        self.depth = depth

        self._vertex_id: dict[tuple[int, int], int] = {}
        coords = []
        for r in range(rows + 1):
            for c in range(n - r + 1):
                self._vertex_id[(r, c)] = len(coords)
                coords.append((c / n, r / n))
        self.vertex_coords = np.array(coords)

        self._row_offset = []
        off = 0
        for r in range(rows):
            self._row_offset.append(off)
            off += 2 * (n - r) - 1
        self.n_surfels = off

        self.surfels: list[Surfel] = []
        for r in range(rows):
            for t in range(2 * (n - r) - 1):
                j, up = divmod(t, 2)
                up = up == 0
                if up:
                    trip = ((r, j), (r, j + 1), (r + 1, j))
                else:
                    # v0 at the right-angle corner opposite the diagonal edge;
                    # the local frame is a point reflection of the up element.
                    trip = ((r + 1, j + 1), (r + 1, j), (r, j + 1))
                vids = tuple(self._vertex_id[v] for v in trip)
                self.surfels.append(Surfel(self._row_offset[r] + t, up, r, j, vids))

        self.adjacency: list[tuple[int, int, tuple[int, int]]] = []
        for s in self.surfels:
            if s.up:
                continue
            down_id = s.sid
            r, j = s.row, s.col
            self._add_edge(down_id, self._row_offset[r] + 2 * j)  # diagonal
            if 2 * j + 2 <= 2 * (n - r) - 2:
                self._add_edge(down_id, self._row_offset[r] + 2 * j + 2)  # vertical
            if r + 1 < rows:
                self._add_edge(down_id, self._row_offset[r + 1] + 2 * j)  # horizontal

    def _add_edge(self, s1: int, s2: int):
        a, b = sorted((s1, s2))
        shared = tuple(
            sorted(set(self.surfels[a].vertex_ids) & set(self.surfels[b].vertex_ids))
        )
        assert len(shared) == 2
        self.adjacency.append((a, b, shared))

    @classmethod
    def triangle(cls, depth: int) -> "TriGrid":
        """Full recursive subdivision: 4**depth surfels."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth > MAX_DEPTH:
            raise DepthTooLarge(f"depth {depth} exceeds cap {MAX_DEPTH}")
        n = 2**depth
        return cls(n, n, depth=depth)

    @classmethod
    def strip(cls, n: int) -> "TriGrid":
        """Single bottom row of a width-n lattice: an acyclic chain of 2n-1 surfels."""
        if n > 2**MAX_DEPTH:
            raise DepthTooLarge(f"width {n} exceeds cap {2**MAX_DEPTH}")
        return cls(n, 1)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_coords)

    def locate(self, alpha: float, beta: float) -> int:
        """Surfel id containing (alpha, beta); edge ties go to the up element, as
        do points of a row's last cell that rounding puts past the hypotenuse."""
        if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0 and alpha + beta <= 1.0):
            raise OutsideSubmap(f"({alpha}, {beta}) outside the unit triangle")
        n = self.n
        x, y = alpha * n, beta * n
        r = min(int(y), self.rows - 1)
        if y - r > 1.0:
            raise OutsideSubmap(f"({alpha}, {beta}) outside the grid rows")
        j = min(int(x), n - r - 1)
        fx, fy = x - j, y - r
        t = 2 * j if fx + fy <= 1.0 or j == n - r - 1 else 2 * j + 1
        return self._row_offset[r] + t

    def locate_all(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """`locate` of every point, in its arithmetic and with its edge ties; -1 outside the grid."""
        n = self.n
        inside = (0.0 <= alpha) & (alpha <= 1.0) & (0.0 <= beta) & (beta <= 1.0) & (alpha + beta <= 1.0)
        x, y = np.where(inside, alpha, 0.0) * n, np.where(inside, beta, 0.0) * n
        r = np.minimum(y.astype(int), self.rows - 1)
        j = np.minimum(x.astype(int), n - r - 1)
        t = 2 * j + ((x - j + (y - r) > 1.0) & (j < n - r - 1))
        return np.where(inside & (y - r <= 1.0), np.array(self._row_offset)[r] + t, -1)

    def element_frames(self, sids) -> tuple[np.ndarray, np.ndarray]:
        """(A, v0) of the map local = A @ (p - v0) on (alpha, beta, gamma) of each
        element, stacked: A (k, 3, 3), v0 (k, 3). A sends the element's vertex triple to
        the unit corners, leaving gamma; down elements use a point reflection."""
        surfels = [self.surfels[s] for s in sids]
        a, v0 = np.zeros((len(surfels), 3, 3)), np.zeros((len(surfels), 3))
        a[:, 0, 0] = a[:, 1, 1] = [self.n if s.up else -self.n for s in surfels]
        a[:, 2, 2] = 1.0
        v0[:, :2] = self.vertex_coords[[s.vertex_ids[0] for s in surfels]]
        return a, v0

    def normalize_to_element(self, sid: int, g: GaussianMoment) -> GaussianMoment:
        """Express a 3-D submap-coordinate Gaussian in unit-element coordinates."""
        (a,), (v0,) = self.element_frames([sid])
        return GaussianMoment(a @ (g.mu - v0), a @ g.sigma @ a.T)
