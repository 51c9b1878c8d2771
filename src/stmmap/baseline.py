"""Elevation-map baseline: one Kalman-filtered height per grid element.

Cells live on the same triangular grid as the mesh map so model comparisons
are element-for-element fair. Only the gamma mean and gamma marginal
variance of each measurement feed the filter; the baseline has no
(alpha, beta) model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import TriGrid
from .surfel import MeasurementBatch


class InvalidVariance(Exception):
    """Raised for a measurement variance outside (0, inf) or a non-finite gamma."""


class Unobserved(Exception):
    """Raised when querying a cell that has never been updated."""


@dataclass(frozen=True)
class ElevationCell:
    """Scalar height fused in precision form."""

    mean: float = 0.0
    variance: float = math.inf
    n_meas: int = 0

    @property
    def observed(self) -> bool:
        return self.n_meas > 0


def elev_update(cell: ElevationCell, z_gamma: float, var_gamma: float) -> ElevationCell:
    """Scalar Bayes fusion; a vacuous prior is represented by infinite variance."""
    if not (0.0 < var_gamma < math.inf and math.isfinite(z_gamma)):
        raise InvalidVariance(f"gamma {z_gamma} must be finite, variance {var_gamma} in (0, inf)")
    prec = (0.0 if math.isinf(cell.variance) else 1.0 / cell.variance) + 1.0 / var_gamma
    info = (0.0 if math.isinf(cell.variance) else cell.mean / cell.variance) + (
        z_gamma / var_gamma
    )
    return ElevationCell(mean=info / prec, variance=1.0 / prec, n_meas=cell.n_meas + 1)


def elev_likelihood(cell: ElevationCell, gamma_true: float) -> float:
    """Plug-in Gaussian log density of gamma_true under the cell posterior."""
    if not cell.observed:
        raise Unobserved("cell has no measurements")
    d = gamma_true - cell.mean
    return -0.5 * (math.log(2.0 * math.pi * cell.variance) + d * d / cell.variance)


class ElevationMap:
    """Elevation map over the triangular grid elements; cells are immutable,
    so every unobserved element holds one shared empty cell."""

    def __init__(self, grid: TriGrid):
        self.grid = grid
        self.cells = [ElevationCell()] * grid.n_surfels

    def update(self, batch) -> int:
        """Fuse a batch of submap-coordinate measurements (a `MeasurementBatch` or a
        list of `Measurement`), all or none, point by point; returns skipped count."""
        batch = MeasurementBatch.of(batch)
        sids = self.grid.locate_all(batch.means[:, 0], batch.means[:, 1])
        fused = {}
        for sid, z, var in zip(sids.tolist(), batch.means[:, 2].tolist(), batch.covs[:, 2, 2].tolist()):
            if sid >= 0:
                fused[sid] = elev_update(fused.get(sid, self.cells[sid]), z, var)
        for sid, cell in fused.items():
            self.cells[sid] = cell
        return int((sids < 0).sum())

    def height(self, alpha: float, beta: float) -> float:
        cell = self.cells[self.grid.locate(alpha, beta)]
        if not cell.observed:
            raise Unobserved("cell has no measurements")
        return cell.mean

    def log_likelihood(self, alpha: float, beta: float, gamma_true: float) -> float:
        return elev_likelihood(self.cells[self.grid.locate(alpha, beta)], gamma_true)
