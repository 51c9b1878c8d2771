"""Tests for reference frames, the triangular grid, and association."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmmap.distributions import GaussianMoment
from stmmap.geometry import (
    DegenerateLandmarks,
    MAX_DEPTH,
    DepthTooLarge,
    OutsideSubmap,
    TriGrid,
    global_to_relative,
    make_relative_irf,
    relative_to_global,
    transform_measurement_to_relative,
)


def corners(grid: TriGrid, sid: int) -> np.ndarray:
    """(alpha, beta) of an element's (v0, v_alpha, v_beta), 3x2."""
    return grid.vertex_coords[list(grid.vertex_ids(sid))]


def denormalize_from_element(grid: TriGrid, sid: int, g: GaussianMoment) -> GaussianMoment:
    """The inverse of `TriGrid.normalize_to_element`."""
    (a,), (v0,) = grid.element_frames([sid])
    ainv = np.diag(1.0 / np.diag(a))
    return GaussianMoment(ainv @ g.mu + v0, ainv @ g.sigma @ ainv.T)


class TestRelativeIRF:
    def test_canonical_frame_normal(self):
        irf = make_relative_irf([0, 0, 0], [1, 0, 0], [0, 1, 0])
        np.testing.assert_allclose(irf.axis_n, [0, 0, 1], atol=1e-12)

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateLandmarks):
            make_relative_irf([0, 0, 0], [2, 0, 0], [4, 0, 0])

    def test_duplicate_rejected(self):
        with pytest.raises(DegenerateLandmarks):
            make_relative_irf([1, 1, 1], [1, 1, 1], [0, 1, 0])

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_normal_orthogonal_to_axes(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(3, 3))
        a = pts[1] - pts[0]
        b = pts[2] - pts[0]
        if np.linalg.norm(np.cross(a, b)) < 1e-6:
            return
        irf = make_relative_irf(*pts)
        assert abs(np.dot(irf.axis_n, irf.axis_a)) < 1e-12 * np.linalg.norm(a)
        assert abs(np.dot(irf.axis_n, irf.axis_b)) < 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(irf.axis_n) == pytest.approx(1.0, abs=1e-12)


class TestRelativeTransforms:
    def test_axis_decomposition(self):
        irf = make_relative_irf([0, 0, 0], [2, 0, 0], [0, 2, 0])
        p = global_to_relative(irf, [1, 1, 3])
        assert tuple(p) == pytest.approx((0.5, 0.5, 3.0))

    def test_origin_maps_to_zero(self):
        irf = make_relative_irf([1, 2, 3], [4, 2, 3], [1, 7, 3])
        p = global_to_relative(irf, [1, 2, 3])
        assert tuple(p) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(13)
        irf = make_relative_irf([0.3, 0.1, -1], [2.5, 0.2, 0.1], [0.2, 3.1, -0.4])
        for _ in range(1000):
            m = rng.normal(scale=5.0, size=3)
            p = global_to_relative(irf, m)
            np.testing.assert_allclose(relative_to_global(irf, p), m, atol=1e-10)


class TestMeasurementTransform:
    def _pose_identity(self, var=0.0):
        eps = max(var, 1e-18)
        return GaussianMoment(np.zeros(6), eps * np.eye(6))

    def _landmarks_canonical(self, var=0.0):
        eps = max(var, 1e-18)
        mu = np.array([0, 0, 0, 2, 0, 0, 0, 2, 0], dtype=float)
        return GaussianMoment(mu, eps * np.eye(9))

    def test_identity_pose_canonical_landmarks(self):
        z = GaussianMoment([1.0, 1.0, 3.0], 1e-4 * np.eye(3))
        out = transform_measurement_to_relative(
            self._pose_identity(), self._landmarks_canonical(), z
        )
        np.testing.assert_allclose(out.mu, [0.5, 0.5, 3.0], atol=1e-6)

    def test_deterministic_frame_rotates_covariance(self):
        # with exact pose and landmarks the map is affine, so the output
        # covariance is the exactly transformed input covariance
        z_cov = np.diag([0.04, 0.01, 0.09])
        z = GaussianMoment([1.0, 0.5, 0.2], z_cov)
        out = transform_measurement_to_relative(
            self._pose_identity(), self._landmarks_canonical(), z
        )
        basis = np.array([[2, 0, 0], [0, 2, 0], [0, 0, 1]], dtype=float).T
        b_inv = np.linalg.inv(basis)
        np.testing.assert_allclose(out.sigma, b_inv @ z_cov @ b_inv.T, atol=1e-6)

    def test_landmark_uncertainty_inflates_output(self):
        z = GaussianMoment([1.0, 1.0, 3.0], 1e-4 * np.eye(3))
        traces = []
        for var in (1e-12, 1e-4, 1e-2):
            out = transform_measurement_to_relative(
                self._pose_identity(), self._landmarks_canonical(var), z
            )
            traces.append(np.trace(out.sigma))
        assert traces[0] < traces[1] < traces[2]


class TestTriGrid:
    def test_depth0(self):
        g = TriGrid.triangle(0)
        assert g.n_surfels == 1
        assert g.n_vertices == 3

    def test_depth5_count(self):
        assert TriGrid.triangle(5).n_surfels == 1024

    def test_depth8_count(self):
        assert TriGrid.triangle(8).n_surfels == 65536

    @pytest.mark.parametrize("depth", range(0, 7))
    def test_grid_invariants(self, depth):
        g = TriGrid.triangle(depth)
        n = 2**depth
        assert g.n_surfels == 4**depth
        assert g.n_vertices == (n + 1) * (n + 2) // 2
        # tiling: areas sum to 1/2 with no overlap by construction
        total = 0.0
        for sid in range(g.n_surfels):
            c = corners(g, sid)
            total += 0.5 * abs(
                (c[1, 0] - c[0, 0]) * (c[2, 1] - c[0, 1])
                - (c[2, 0] - c[0, 0]) * (c[1, 1] - c[0, 1])
            )
        assert total == pytest.approx(0.5, abs=1e-12)
        # every adjacency entry shares exactly two vertices
        seen = set()
        for a, b, shared in g.adjacency:
            assert len(shared) == 2
            assert set(shared) <= set(g.vertex_ids(a))
            assert set(shared) <= set(g.vertex_ids(b))
            assert (a, b) not in seen
            seen.add((a, b))

    def test_depth_cap(self):
        with pytest.raises(DepthTooLarge):
            TriGrid.triangle(MAX_DEPTH + 1)
        with pytest.raises(DepthTooLarge):
            TriGrid.strip(2**MAX_DEPTH + 1)

    @pytest.mark.parametrize("make", [lambda: TriGrid(0, 1), lambda: TriGrid(2, 0), lambda: TriGrid(2, 3),
                                      lambda: TriGrid.triangle(-1)],
                             ids=["width-0", "rows-0", "rows-above-width", "depth-minus-1"])
    def test_invalid_dimensions_raise(self, make):
        with pytest.raises(ValueError):
            make()

    def test_strip_is_chain(self):
        g = TriGrid.strip(8)
        assert g.n_surfels == 15
        assert len(g.adjacency) == 14  # acyclic chain

    def test_shared_vertices_have_identical_ids(self):
        g = TriGrid.triangle(3)
        for a, b, shared in g.adjacency:
            for v in shared:
                ca = corners(g, a)[g.vertex_ids(a).index(v)]
                cb = corners(g, b)[g.vertex_ids(b).index(v)]
                np.testing.assert_array_equal(ca, cb)


class TestLocate:
    def test_corner_element_depth1(self):
        g = TriGrid.triangle(1)
        sid = g.locate(0.1, 0.1)
        assert np.all(corners(g, sid)[0] == [0.0, 0.0])

    def test_alpha_corner(self):
        eps = 1e-6
        for depth in (1, 3, 5):
            g = TriGrid.triangle(depth)
            sid = g.locate(1 - eps, eps * 0.5)
            assert np.max(corners(g, sid)[:, 0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n, alpha, beta", [(5, 0.8539573427527741, 0.14604265724722587),
                                                 (12, 0.9391488928136559, 0.06085110718634412)])
    def test_hypotenuse_rounding_stays_in_the_last_up_element(self, n, alpha, beta):
        # alpha + beta rounds to 1, but (alpha n - j) + beta n rounds past 1: the
        # point lies in the row's last element, an up one, not in an element past it
        g = TriGrid.strip(n)
        assert alpha + beta == 1.0 and g.locate(alpha, beta) == 2 * n - 2
        assert g.locate_all(np.array([alpha]), np.array([beta])).tolist() == [2 * n - 2]

    def test_outside_raises(self):
        g = TriGrid.triangle(2)
        with pytest.raises(OutsideSubmap):
            g.locate(0.7, 0.7)
        with pytest.raises(OutsideSubmap):
            g.locate(-0.1, 0.2)

    def test_contains_point_exhaustive(self):
        rng = np.random.default_rng(14)
        g = TriGrid.triangle(4)
        hits = 0
        while hits < 10_000:
            a, b = rng.uniform(0, 1, 2)
            if a + b >= 1.0:
                continue
            hits += 1
            sid = g.locate(a, b)
            c = corners(g, sid)
            # barycentric sign test with boundary slack
            t = np.linalg.solve(
                np.column_stack([c[1] - c[0], c[2] - c[0]]),
                np.array([a, b]) - c[0],
            )
            assert t[0] >= -1e-12 and t[1] >= -1e-12 and t.sum() <= 1 + 1e-12


class TestNormalization:
    def test_depth0_identity(self):
        g = TriGrid.triangle(0)
        mom = GaussianMoment([0.3, 0.2, 1.0], 0.01 * np.eye(3))
        out = g.normalize_to_element(0, mom)
        np.testing.assert_allclose(out.mu, mom.mu, atol=1e-12)
        np.testing.assert_allclose(out.sigma, mom.sigma, atol=1e-12)

    def test_depth1_origin_element_scales_by_two(self):
        g = TriGrid.triangle(1)
        sid = g.locate(0.1, 0.1)
        mom = GaussianMoment([0.25, 0.25, 1.5], 0.01 * np.eye(3))
        out = g.normalize_to_element(sid, mom)
        np.testing.assert_allclose(out.mu, [0.5, 0.5, 1.5], atol=1e-12)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_round_trip(self, depth):
        rng = np.random.default_rng(15)
        g = TriGrid.triangle(depth)
        for sid in rng.integers(0, g.n_surfels, size=8):
            m = rng.normal(size=3)
            a = rng.normal(size=(3, 3))
            mom = GaussianMoment(m, a @ a.T + np.eye(3))
            back = denormalize_from_element(
                g, int(sid), g.normalize_to_element(int(sid), mom)
            )
            np.testing.assert_allclose(back.mu, mom.mu, atol=1e-12)
            np.testing.assert_allclose(back.sigma, mom.sigma, atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_gamma_axis_invariant(self, depth):
        rng = np.random.default_rng(16)
        g = TriGrid.triangle(depth)
        for sid in range(0, g.n_surfels, max(g.n_surfels // 5, 1)):
            a = rng.normal(size=(3, 3))
            mom = GaussianMoment(rng.normal(size=3), a @ a.T + np.eye(3))
            out = g.normalize_to_element(sid, mom)
            assert out.mu[2] == pytest.approx(mom.mu[2], abs=1e-12)
            assert out.sigma[2, 2] == pytest.approx(mom.sigma[2, 2], abs=1e-12)
