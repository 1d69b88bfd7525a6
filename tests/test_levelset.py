import numpy as np
import pytest

from pecshift.grid import NodeClass
from pecshift.levelset import (DegenerateNormalError, compute_normals_tangents,
                               gradient_with_edges, initialize_phi,
                               redistance, smoothed_sign)
from pecshift.shapes import HalfMoon, Circle

from conftest import CIRCLE, circle_geometry

MOON = HalfMoon(Circle(5.0, 5.0, 2.0), Circle(6.2, 5.0, 2.0))


class TestSmoothedSign:
    def test_odd_zero(self):
        assert smoothed_sign(0.0, 0.3) == 0.0

    def test_at_one_dx(self):
        assert smoothed_sign(0.1, 0.1) == pytest.approx(1 / np.sqrt(2))

    def test_far_field(self):
        assert smoothed_sign(-1.0, 0.1) == pytest.approx(-10 / np.sqrt(101))

    def test_bounded(self):
        x = np.linspace(-50, 50, 1001)
        s = smoothed_sign(x, 0.05)
        assert np.all(np.abs(s) < 1.0)


class TestInitializePhi:
    def test_circle_values(self, circle_100):
        grid, *_ = circle_100
        phi = initialize_phi(CIRCLE, grid)
        ic = np.argmin(np.abs(grid.lattice_x() - 5.0))
        assert phi[ic, ic] == pytest.approx(2.0, abs=grid.dx)
        j8 = np.argmin(np.abs(grid.lattice_y() - 8.0))
        # (5, 8) is not an exact lattice point on the 100-grid; evaluate there
        assert CIRCLE.level(5.0, 8.0) == pytest.approx(-1.0)
        assert phi[ic, j8] < 0

    def test_boundary_nodes_exactly_zero(self, circle_100):
        grid, *_ = circle_100
        phi = initialize_phi(CIRCLE, grid)
        assert np.all(phi[grid.shifted] == 0.0)

    def test_halfmoon_csg_sign(self):
        grid, *_ = circle_geometry(100, redistanced=False)
        phi = initialize_phi(MOON, grid)  # same lattice, different shape
        ic = np.argmin(np.abs(grid.lattice_x() - 6.2))
        jc = np.argmin(np.abs(grid.lattice_y() - 5.0))
        assert phi[ic, jc] < 0  # cutter center is outside the crescent


class TestRedistance:
    def test_exact_seed_converges_fast_and_stays_put(self):
        grid, classes, fits, _ = circle_geometry(200, redistanced=False)
        exact = CIRCLE.level(grid.x, grid.y)
        exact[grid.shifted] = 0.0
        hist = []
        # band keeps the cone tip (a genuine kink the averaged scheme must
        # erode) out of the stopping criterion
        phi = redistance(exact, grid, classes, fits=fits, band_halfwidth=8,
                         history=hist)
        band = (np.abs(exact) <= 5 * grid.dx) & fits.valid
        assert len(hist) <= 60
        assert np.abs(phi - exact)[band].max() <= grid.dx ** 2

    def test_scaled_seed_recovers_distance(self):
        grid, classes, fits, _ = circle_geometry(100, redistanced=False)
        exact = CIRCLE.level(grid.x, grid.y)
        exact[grid.shifted] = 0.0
        phi = redistance(0.5 * exact, grid, classes, fits=fits)
        i5 = np.argmin(np.abs(grid.lattice_x() - 5.0))
        j2 = np.argmin(np.abs(grid.lattice_y() - 2.0))
        # one unit outside the circle
        assert phi[i5, j2] == pytest.approx(exact[i5, j2], abs=0.02)

    def test_band_gradient_unit_norm(self):
        grid, classes, fits, ls = circle_geometry(200)
        gx, gy = gradient_with_edges(ls.phi, grid, fits)
        norm = np.hypot(gx, gy)
        band = (np.abs(ls.phi) <= 5 * grid.dx) & fits.valid
        assert norm[band].min() >= 0.95
        assert norm[band].max() <= 1.05

    def test_sign_preserved_everywhere(self):
        grid, classes, fits, _ = circle_geometry(100, redistanced=False)
        phi0 = initialize_phi(CIRCLE, grid)
        phi = redistance(phi0, grid, classes, fits=fits)
        off_boundary = ~grid.shifted
        assert np.all(np.sign(phi[off_boundary]) == np.sign(phi0[off_boundary]))

    def test_boundary_pinned_to_zero(self):
        grid, classes, fits, ls = circle_geometry(100)
        assert np.all(ls.phi[grid.shifted] == 0.0)

    def test_circle_band_accuracy(self):
        grid, classes, fits, ls = circle_geometry(200)
        exact = CIRCLE.level(grid.x, grid.y)
        exact[grid.shifted] = 0.0
        band = (np.abs(exact) <= 5 * grid.dx) & fits.valid
        assert np.abs(ls.phi - exact)[band].max() <= 2 * grid.dx ** 2 + 1e-6

    def test_halfmoon_redistance_stable(self):
        grid, classes0, fits, _ = circle_geometry(100, redistanced=False)
        phi0 = initialize_phi(MOON, grid)
        from pecshift.grid import classify_nodes
        classes = classify_nodes(grid, phi0)
        with np.errstate(all="raise"):
            phi = redistance(phi0, grid, classes, fits=fits)
        assert np.isfinite(phi).all()
        # unit gradient in the exterior band away from the two corners; the
        # corner bisector fans and the crescent's interior skeleton are
        # genuine distance-function kinks and are excluded
        gx, gy = gradient_with_edges(phi, grid, fits)
        norm = np.hypot(gx, gy)
        corners = np.array([[5.6, 5 + np.sqrt(4 - 0.36)],
                            [5.6, 5 - np.sqrt(4 - 0.36)]])
        band = (phi < 0) & (phi >= -5 * grid.dx) & fits.valid
        away = np.full(grid.shape, True)
        for cx, cy in corners:
            away &= np.hypot(grid.x - cx, grid.y - cy) > 0.8
        sel = band & away
        assert np.abs(norm[sel] - 1).max() <= 0.05


class TestNormalsTangents:
    def test_circle_directions(self):
        grid, classes, fits, ls = circle_geometry(200)
        # due south of the center the inward normal points +y
        i5 = np.argmin(np.abs(grid.lattice_x() - 5.0))
        j3 = np.argmin(np.abs(grid.lattice_y() - 3.0))
        assert ls.normal_x[i5, j3] == pytest.approx(0.0, abs=0.02)
        assert ls.normal_y[i5, j3] == pytest.approx(1.0, abs=0.02)
        assert ls.tangent_x[i5, j3] == pytest.approx(1.0, abs=0.02)
        assert ls.tangent_y[i5, j3] == pytest.approx(0.0, abs=0.02)

    def test_diagonal_direction(self):
        grid, classes, fits, ls = circle_geometry(200)
        i = np.argmin(np.abs(grid.lattice_x() - 6.5))
        j = np.argmin(np.abs(grid.lattice_y() - 6.5))
        s = 1 / np.sqrt(2)
        assert ls.normal_x[i, j] == pytest.approx(-s, abs=0.02)
        assert ls.normal_y[i, j] == pytest.approx(-s, abs=0.02)

    def test_clockwise_rotation_everywhere(self):
        grid, classes, fits, ls = circle_geometry(100)
        np.testing.assert_array_equal(ls.tangent_x, ls.normal_y)
        np.testing.assert_array_equal(ls.tangent_y, -ls.normal_x)

    def test_unit_and_orthogonal(self):
        grid, classes, fits, ls = circle_geometry(100)
        nn = np.hypot(ls.normal_x, ls.normal_y)
        tt = np.hypot(ls.tangent_x, ls.tangent_y)
        assert np.abs(nn - 1).max() <= 1e-12
        assert np.abs(tt - 1).max() <= 1e-12
        dot = ls.normal_x * ls.tangent_x + ls.normal_y * ls.tangent_y
        assert np.abs(dot).max() <= 1e-12

    def test_degenerate_normal_near_interface_raises(self):
        grid, _, fits, _ = circle_geometry(100, redistanced=False)
        with pytest.raises(DegenerateNormalError):
            compute_normals_tangents(np.zeros(grid.shape), grid, fits)

    def test_symmetric_center_gets_copied_normal(self):
        grid, classes, fits, ls = circle_geometry(100)
        # every node has a unit normal, including the cone tip at the center
        assert np.abs(np.hypot(ls.normal_x, ls.normal_y) - 1).max() <= 1e-12
