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
yields an acyclic chain of surfels. A grid stores only its width and rows:
element vertices, neighbours and frames are computed from element ids, so
building one costs the same at every depth.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .distributions import GaussianMoment, unscented_transform

# The deepest grid allowed. An empty map costs the same at any depth, but a
# read of the whole map grows with the surfels: `query_map` of an empty
# depth-10 map takes about 0.2 s and 200 MiB (README.md), depth 11 4x that.
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


class View(Sequence):
    """A read-only sequence of n items, item i computed by item(i) on each access;
    a slice is a list of its items."""

    def __init__(self, n: int, item: Callable):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(self._n)[i]]
        return self._item(range(self._n)[i])


class TriGrid:
    """Recursive triangular grid over the unit (alpha, beta) triangle.

    Nothing per element is stored: row r starts at surfel id r (2n - r),
    lattice vertex (r, c) has id r (n + 1) - r (r - 1) / 2 + c, and an
    element's vertices, neighbours and frame follow from its (row, t) cell.
    Row r's down element j, at t = 2j + 1, meets up element j on its diagonal
    edge, up element j + 1 on its vertical edge and row r + 1's up element j
    on its horizontal edge.
    """

    def __init__(self, n: int, rows: int, depth: int | None = None):
        if n < 1 or not 1 <= rows <= n:
            raise ValueError("invalid grid dimensions")
        self.n = n
        self.rows = rows
        self.depth = depth
        self.n_surfels = rows * (2 * n - rows)
        self.n_vertices = (rows + 1) * (n + 1) - rows * (rows + 1) // 2

    @property
    def element_density(self) -> float:
        """Elements per unit of (alpha, beta) area: every element has area 1 / (2 n^2)."""
        return 2.0 * self.n * self.n

    def cell(self, sid: int) -> tuple[int, int, bool]:
        """(row, col, up) of a surfel id."""
        r = self.n - 1 - math.isqrt(self.n * self.n - sid - 1)
        j, down = divmod(sid - r * (2 * self.n - r), 2)
        return r, j, not down

    def _vertex(self, r: int, c: int) -> int:
        return r * (self.n + 1) - r * (r - 1) // 2 + c

    def vertex_ids(self, sid: int) -> tuple[int, int, int]:
        """(v0, v_alpha, v_beta) of an element; a down element's v0 is the
        right-angle corner opposite its diagonal edge, a point reflection of up."""
        r, j, up = self.cell(sid)
        low, high = self._vertex(r, j), self._vertex(r + 1, j)
        return (low, low + 1, high) if up else (high + 1, high, low + 1)

    def edges(self, sid: int) -> list[tuple]:
        """(low sid, high sid, shared vertex ids, their positions in the low and
        in the high element's vertex_ids) of each edge a surfel shares, in
        `adjacency` order. A down element has a diagonal, a vertical and (above
        the last row) a horizontal edge; an up element meets the down elements
        above it, to its left and to its right."""
        r, j, up = self.cell(sid)
        low, high, width = self._vertex(r, j), self._vertex(r + 1, j), 2 * (self.n - r)
        if not up:
            edges = [(sid - 1, sid, (low + 1, high), (1, 2), (2, 1)),
                     (sid, sid + 1, (low + 1, high + 1), (2, 0), (0, 2))]
            if r + 1 < self.rows:
                edges.append((sid, sid + width - 2, (high, high + 1), (1, 0), (0, 1)))
            return edges
        edges = [(sid - width, sid, (low, low + 1), (1, 0), (0, 1))] if r > 0 else []
        if j > 0:
            edges.append((sid - 1, sid, (low, high), (2, 0), (0, 2)))
        if j < self.n - r - 1:
            edges.append((sid, sid + 1, (low + 1, high), (1, 2), (2, 1)))
        return edges

    @cached_property
    def adjacency(self) -> list[tuple[int, int, tuple[int, int]]]:
        """(low sid, high sid, shared vertex ids) of every edge between two
        elements, by down element; made on first use (the map reads `edges`)."""
        return [e[:3] for sid in range(self.n_surfels) if not self.cell(sid)[2] for e in self.edges(sid)]

    @cached_property
    def vertex_coords(self) -> np.ndarray:
        """(alpha, beta) = (c/n, r/n) of every lattice vertex, in id order."""
        r = np.repeat(np.arange(self.rows + 1), self.n + 1 - np.arange(self.rows + 1))
        c = np.arange(self.n_vertices) - self._vertex(r, 0)
        return np.column_stack([c / self.n, r / self.n])

    def _cells(self, sids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`cell` of an array of surfel ids."""
        sids = np.asarray(sids, dtype=int)
        r = np.arange(self.rows + 1)
        r = np.searchsorted(r * (2 * self.n - r), sids, side="right") - 1
        j, down = np.divmod(sids - r * (2 * self.n - r), 2)
        return r, j, down == 0

    def vertex_table(self) -> np.ndarray:
        """`vertex_ids` of every surfel, (n_surfels, 3), in id order, filled a
        row at a time: a row's up elements are its even ids, its downs the odd."""
        table = np.empty((self.n_surfels, 3), dtype=int)
        for r in range(self.rows):
            start, end, j = r * (2 * self.n - r), (r + 1) * (2 * self.n - r - 1), np.arange(self.n - r)
            low, high = self._vertex(r, j), self._vertex(r + 1, j)
            table[start:end:2] = np.column_stack([low, low + 1, high])
            table[start + 1:end:2] = np.column_stack([high + 1, high, low + 1])[:-1]
        return table

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
        return r * (2 * n - r) + t

    def locate_all(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """`locate` of every point, in its arithmetic and with its edge ties; -1 outside the grid."""
        n = self.n
        inside = (0.0 <= alpha) & (alpha <= 1.0) & (0.0 <= beta) & (beta <= 1.0) & (alpha + beta <= 1.0)
        x, y = np.where(inside, alpha, 0.0) * n, np.where(inside, beta, 0.0) * n
        r = np.minimum(y.astype(int), self.rows - 1)
        j = np.minimum(x.astype(int), n - r - 1)
        t = 2 * j + ((x - j + (y - r) > 1.0) & (j < n - r - 1))
        return np.where(inside & (y - r <= 1.0), r * (2 * n - r) + t, -1)

    def element_frames(self, sids) -> tuple[np.ndarray, np.ndarray]:
        """(A, v0) of the map local = A @ (p - v0) on (alpha, beta, gamma) of each
        element, stacked: A (k, 3, 3), v0 (k, 3). A sends the element's vertex triple to
        the unit corners, leaving gamma; down elements use a point reflection."""
        r, j, up = self._cells(sids)
        a, v0 = np.zeros((len(r), 3, 3)), np.zeros((len(r), 3))
        a[:, 0, 0] = a[:, 1, 1] = np.where(up, self.n, -self.n)
        a[:, 2, 2] = 1.0
        v0[:, 0], v0[:, 1] = (j + ~up) / self.n, (r + ~up) / self.n
        return a, v0

    def normalize_to_element(self, sid: int, g: GaussianMoment) -> GaussianMoment:
        """Express a 3-D submap-coordinate Gaussian in unit-element coordinates."""
        (a,), (v0,) = self.element_frames([sid])
        return GaussianMoment(a @ (g.mu - v0), a @ g.sigma @ a.T)
