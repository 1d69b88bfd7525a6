import math

import numpy as np
import pytest

from pecshift.shapes import (Circle, Domain, HalfMoon, ShapeError,
                             boundary_intersections, edge_clearance,
                             validate_shape)

CIRCLE = Circle(5.0, 5.0, 2.0)
MOON = HalfMoon(Circle(5.0, 5.0, 2.0), Circle(6.2, 5.0, 2.0))


def line_pts(shape, xs=(), ys=()):
    return boundary_intersections(shape, np.asarray(xs, float),
                                  np.asarray(ys, float))


class TestCircleIntersections:
    def test_vertical_line_through_center(self):
        pts = line_pts(CIRCLE, xs=[5.0])
        assert sorted(map(tuple, pts)) == [(5.0, 3.0), (5.0, 7.0)]

    def test_tangent_line_single_point(self):
        pts = line_pts(CIRCLE, xs=[7.0])
        assert pts.shape == (1, 2)
        assert tuple(pts[0]) == (7.0, 5.0)

    def test_horizontal_line_y6(self):
        pts = line_pts(CIRCLE, ys=[6.0])
        xs = sorted(pts[:, 0])
        assert xs == pytest.approx([5 - math.sqrt(3), 5 + math.sqrt(3)], abs=1e-12)
        assert np.all(pts[:, 1] == 6.0)

    def test_nonintersecting_line_empty(self):
        assert line_pts(CIRCLE, xs=[9.5]).shape == (0, 2)

    def test_all_points_on_circle(self):
        xs = np.linspace(0, 10, 101)
        pts = line_pts(CIRCLE, xs=xs, ys=xs)
        r = np.hypot(pts[:, 0] - 5, pts[:, 1] - 5)
        assert np.abs(r - 2.0).max() < 1e-12


class TestHalfMoon:
    def test_corner_points(self):
        corners = MOON.corners
        # chord at x = 5.6, half-height sqrt(4 - 0.36)
        h = math.sqrt(4 - 0.6 ** 2)
        got = sorted(map(tuple, np.round(corners, 12)))
        assert got[0] == pytest.approx((5.6, 5 - h), abs=1e-12)
        assert got[1] == pytest.approx((5.6, 5 + h), abs=1e-12)

    def test_intersections_on_crescent_arcs_only(self):
        xs = np.linspace(0, 10, 101)
        pts = line_pts(MOON, xs=xs, ys=xs)
        d_out = np.hypot(pts[:, 0] - 5.0, pts[:, 1] - 5.0)
        d_cut = np.hypot(pts[:, 0] - 6.2, pts[:, 1] - 5.0)
        on_outer = np.abs(d_out - 2.0) < 1e-9
        on_cutter = np.abs(d_cut - 2.0) < 1e-9
        assert np.all(on_outer | on_cutter)
        # outer-arc points stay out of the cutter disk, and vice versa
        assert np.all(d_cut[on_outer & ~on_cutter] >= 2.0 - 1e-9)
        assert np.all(d_out[on_cutter & ~on_outer] <= 2.0 + 1e-9)

    def test_corners_included(self):
        pts = line_pts(MOON, xs=np.linspace(0, 10, 21))
        corners = MOON.corners
        for c in corners:
            assert np.min(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])) < 1e-12

    def test_interior_function_examples(self):
        # cutter center: min(2 - 1.2, -(2 - 0)) = -2 (outside the crescent)
        assert MOON.level(6.2, 5.0) == pytest.approx(-2.0)
        # a point inside the crescent body
        assert MOON.level(3.5, 5.0) > 0
        # far outside
        assert MOON.level(0.5, 0.5) < 0


class TestValidation:
    def test_circle_ok(self):
        validate_shape(CIRCLE, Domain())

    def test_negative_radius(self):
        with pytest.raises(ShapeError, match="radius"):
            validate_shape(Circle(5, 5, -1.0), Domain())

    def test_clearance(self):
        with pytest.raises(ShapeError, match="clearance"):
            validate_shape(Circle(2.0, 5.0, 2.0), Domain())

    def test_disjoint_moon_disks(self):
        bad = HalfMoon(Circle(3, 5, 1.0), Circle(8, 5, 1.0))
        with pytest.raises(ShapeError, match="intersect"):
            validate_shape(bad, Domain())

    def test_nested_moon_disks(self):
        bad = HalfMoon(Circle(5, 5, 2.0), Circle(5, 5, 0.5))
        with pytest.raises(ShapeError, match="intersect"):
            validate_shape(bad, Domain())

    def test_edge_clearance_value(self):
        assert edge_clearance(CIRCLE, Domain()) == pytest.approx(3.0)
        assert edge_clearance(MOON, Domain()) == pytest.approx(3.0)


def test_circle_signed_distance_sign_convention():
    assert CIRCLE.level(5.0, 5.0) == pytest.approx(2.0)
    assert CIRCLE.level(5.0, 8.0) == pytest.approx(-1.0)
