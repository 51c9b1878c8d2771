"""Tests for the elevation-map baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmmap.baseline import (
    ElevationCell,
    ElevationMap,
    InvalidVariance,
    Unobserved,
    elev_likelihood,
    elev_update,
)
from stmmap.geometry import TriGrid
from stmmap.cli import make_emulation_case
from stmmap.surfel import Measurement, MeasurementBatch


class TestElevUpdate:
    def test_first_observation(self):
        cell = elev_update(ElevationCell(), 1.5, 0.25)
        assert cell.mean == pytest.approx(1.5)
        assert cell.variance == pytest.approx(0.25)
        assert cell.n_meas == 1

    def test_equal_weight_fusion(self):
        cell = elev_update(ElevationCell(), 1.0, 1.0)
        cell = elev_update(cell, 2.0, 1.0)
        assert cell.mean == pytest.approx(1.5)
        assert cell.variance == pytest.approx(0.5)

    def test_n_identical_observations(self):
        cell = ElevationCell()
        for _ in range(8):
            cell = elev_update(cell, 2.5, 0.4)
        assert cell.mean == pytest.approx(2.5)
        assert cell.variance == pytest.approx(0.4 / 8)

    def test_invalid_variance(self):
        bad = [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
               (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)]
        for cell in (ElevationCell(), elev_update(ElevationCell(), 0.5, 1.0)):
            for z, var in bad:
                with pytest.raises(InvalidVariance):
                    elev_update(cell, z, var)

    def test_variance_non_increasing(self):
        rng = np.random.default_rng(30)
        cell = elev_update(ElevationCell(), 0.0, 1.0)
        prev = cell.variance
        for _ in range(20):
            cell = elev_update(cell, rng.normal(), float(rng.uniform(0.1, 2)))
            assert cell.variance <= prev
            prev = cell.variance

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        obs = [(float(rng.normal()), float(rng.uniform(0.1, 2.0)))
               for _ in range(6)]
        a = ElevationCell()
        for z, v in obs:
            a = elev_update(a, z, v)
        b = ElevationCell()
        for z, v in reversed(obs):
            b = elev_update(b, z, v)
        assert a.mean == pytest.approx(b.mean, rel=1e-9)
        assert a.variance == pytest.approx(b.variance, rel=1e-9)


class TestElevLikelihood:
    def test_mode_density(self):
        cell = elev_update(ElevationCell(), 1.0, 0.25)
        assert elev_likelihood(cell, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi * 0.25)
        )

    def test_symmetry(self):
        cell = elev_update(ElevationCell(), 1.0, 0.5)
        assert elev_likelihood(cell, 1.3) == pytest.approx(
            elev_likelihood(cell, 0.7)
        )

    def test_matches_gaussian_density(self):
        cell = elev_update(ElevationCell(), 0.4, 0.09)
        for g in np.linspace(-1, 2, 10):
            expect = -0.5 * (math.log(2 * math.pi * cell.variance)
                             + (g - cell.mean) ** 2 / cell.variance)
            assert elev_likelihood(cell, float(g)) == pytest.approx(expect)

    def test_unobserved_rejected(self):
        with pytest.raises(Unobserved):
            elev_likelihood(ElevationCell(), 0.0)


class TestElevationMap:
    def test_update_and_height(self):
        grid = TriGrid.triangle(1)
        emap = ElevationMap(grid)
        meas = [
            Measurement([0.1, 0.1, 2.0], 0.01 * np.eye(3), 0),
            Measurement([0.12, 0.08, 2.2], 0.01 * np.eye(3), 1),
        ]
        skipped = emap.update(meas)
        assert skipped == 0
        assert emap.height(0.1, 0.1) == pytest.approx(2.1)

    def test_outside_skipped(self):
        grid = TriGrid.triangle(1)
        emap = ElevationMap(grid)
        meas = [Measurement([0.9, 0.9, 1.0], 0.01 * np.eye(3), 0)]
        assert emap.update(meas) == 1

    def test_invalid_batch_leaves_the_map_unchanged(self):
        # a valid point before an invalid one is not fused either
        emap = ElevationMap(TriGrid.triangle(1))
        emap.update([Measurement([0.3, 0.3, 1.0], 0.01 * np.eye(3), 0)])
        before = list(emap.cells)
        for z, var in ((math.nan, 0.01), (1.0, math.inf), (1.0, -0.01)):
            cov = np.diag([0.01, 0.01, var])
            batch = [Measurement([0.1, 0.1, 2.0], 0.01 * np.eye(3), 1),
                     Measurement([0.3, 0.3, 1.5], 0.01 * np.eye(3), 2),
                     Measurement([0.12, 0.08, z], cov, 3)]
            with pytest.raises(InvalidVariance):
                emap.update(batch)
            assert emap.cells == before

    def test_batch_and_list_give_equal_cells(self):
        meas = make_emulation_case("stereo")
        maps = [ElevationMap(TriGrid.triangle(2)) for _ in range(3)]
        skipped = [m.update(b) for m, b in zip(maps, (meas, MeasurementBatch.of(meas), iter(meas)))]
        assert skipped[0] > 0 and skipped[1] == skipped[0] and skipped[2] == skipped[0]
        assert maps[1].cells == maps[0].cells and maps[2].cells == maps[0].cells

    def test_unobserved_cell_raises(self):
        grid = TriGrid.triangle(1)
        emap = ElevationMap(grid)
        with pytest.raises(Unobserved):
            emap.log_likelihood(0.1, 0.1, 0.0)
