import math

import numpy as np
import pytest

from pecshift.config import SimulationConfig
from pecshift.extension import decompose
from pecshift.grid import (NodeClass, apply_point_shift, build_uniform_grid,
                           classify_nodes)
from pecshift.levelset import (FRAME_BAND, _nearest_feature, build_levelset,
                               gradient_with_edges, redistance)
from pecshift.shapes import Circle, Domain, HalfMoon, boundary_intersections
from pecshift.solver import build_setup
from pecshift.stencil import FitTable

from conftest import CIRCLE, circle_geometry

MOON = HalfMoon(Circle(5.0, 5.0, 2.0), Circle(6.2, 5.0, 2.0))


def moon_grid(n: int):
    grid = build_uniform_grid(Domain(), n, n)
    pts = boundary_intersections(MOON, grid.lattice_x(), grid.lattice_y())
    return apply_point_shift(grid, pts)


def wrap(angle):
    """Angle in (-pi, pi]."""
    return np.pi - np.mod(np.pi - angle, 2 * np.pi)


def within_arc(grid, circle: Circle, corners, mid: float):
    """Nodes whose polar angle about ``circle``'s centre lies within the
    arc of ``circle`` between the two ``corners`` that contains polar
    angle ``mid``."""
    half_span = abs(wrap(math.atan2(corners[0][1] - circle.cy,
                                    corners[0][0] - circle.cx) - mid))
    angle = np.arctan2(grid.y - circle.cy, grid.x - circle.cx)
    return np.abs(wrap(angle - mid)) <= half_span


def arc_distance(grid, circle: Circle, corners, mid: float):
    """Distance from every node to the arc of ``circle`` between the two
    ``corners`` that contains polar angle ``mid``: |rho - r| when the
    node's polar angle lies within the arc's span, otherwise the distance
    to the nearer end corner."""
    to_corner = np.min([np.hypot(grid.x - px, grid.y - py)
                        for px, py in corners], axis=0)
    rho = np.hypot(grid.x - circle.cx, grid.y - circle.cy)
    return np.where(within_arc(grid, circle, corners, mid),
                    np.abs(rho - circle.r), to_corner)


def moon_distance(grid):
    """Unsigned distance to the crescent: the outer arc faces away from
    the cutter, the inner (cutter) arc faces the outer centre."""
    outer, cutter = MOON.outer, MOON.cutter
    away = math.atan2(outer.cy - cutter.cy, outer.cx - cutter.cx)
    corners = MOON.corners
    dist = np.minimum(arc_distance(grid, outer, corners, away),
                      arc_distance(grid, cutter, corners, away))
    dist[grid.shifted] = 0.0
    return dist


def frame_band(grid, phi):
    return np.abs(phi) <= FRAME_BAND * max(grid.dx, grid.dy)


def moon_normal_candidates(grid):
    """Per node, the distance to each feature of the crescent and the
    normal it gives, shape (4, m) and (4, 2, m): the outer arc, the
    cutter arc, then the two corners. A feature that is not a candidate
    has distance inf. A node on a corner takes an arc's normal there."""
    outer, cutter = MOON.outer, MOON.cutter
    away = math.atan2(outer.cy - cutter.cy, outer.cx - cutter.cx)
    corners = MOON.corners
    to_corner = [np.hypot(grid.x - px, grid.y - py) for px, py in corners]
    on_corner = np.min(to_corner, axis=0) == 0.0
    dists, normals = [], []
    for circle, sign in ((outer, -1.0), (cutter, 1.0)):
        dx, dy = grid.x - circle.cx, grid.y - circle.cy
        rho = np.hypot(dx, dy)
        within = within_arc(grid, circle, corners, away) | on_corner
        dists.append(np.where(within, np.abs(rho - circle.r), np.inf))
        with np.errstate(invalid="ignore", divide="ignore"):
            normals.append([sign * dx / rho, sign * dy / rho])
    level_sign = np.sign(MOON.level(grid.x, grid.y))
    for (px, py), d in zip(corners, to_corner):
        dists.append(np.where(d > 0.0, d, np.inf))
        with np.errstate(invalid="ignore", divide="ignore"):
            normals.append([level_sign * (grid.x - px) / d,
                            level_sign * (grid.y - py) / d])
    return np.array(dists), np.array(normals)


class TestInitializePhi:
    """phi as a run starts from it: the closed-form signed distance."""

    def test_circle_values(self, circle_100):
        grid, *_ = circle_100
        phi = redistance(CIRCLE, grid)
        ic = np.argmin(np.abs(grid.lattice_x() - 5.0))
        assert phi[ic, ic] == pytest.approx(2.0, abs=grid.dx)
        j8 = np.argmin(np.abs(grid.lattice_y() - 8.0))
        # (5, 8) is not an exact lattice point on the 100-grid; evaluate there
        assert CIRCLE.level(5.0, 8.0) == pytest.approx(-1.0)
        assert phi[ic, j8] < 0

    def test_boundary_nodes_exactly_zero(self, circle_100):
        grid, *_ = circle_100
        phi = redistance(CIRCLE, grid)
        assert np.all(phi[grid.shifted] == 0.0)

    def test_halfmoon_csg_sign(self):
        grid = moon_grid(100)
        phi = redistance(MOON, grid)
        ic = np.argmin(np.abs(grid.lattice_x() - 6.2))
        jc = np.argmin(np.abs(grid.lattice_y() - 5.0))
        assert phi[ic, jc] < 0  # cutter center is outside the crescent


class TestRedistance:
    def test_exact_seed_converges_fast_and_stays_put(self):
        # the circle's level function is its signed distance already
        grid, *_ = circle_geometry(200)
        exact = CIRCLE.level(grid.x, grid.y)
        exact[grid.shifted] = 0.0
        hist = []
        phi = redistance(CIRCLE, grid, history=hist)
        assert np.array_equal(phi, exact)
        assert len(hist) == 1 and hist[0] <= 1e-15

    def test_band_gradient_unit_norm(self):
        grid, classes, fits, ls = circle_geometry(200)
        gx, gy = gradient_with_edges(ls.phi, grid, fits)
        norm = np.hypot(gx, gy)
        band = (np.abs(ls.phi) <= 5 * grid.dx) & fits.valid
        assert norm[band].min() >= 0.95
        assert norm[band].max() <= 1.05

    def test_sign_preserved_everywhere(self):
        for shape, n in [(CIRCLE, 101), (CIRCLE, 200), (MOON, 101), (MOON, 200)]:
            grid = moon_grid(n) if shape is MOON else circle_geometry(n)[0]
            seed = shape.level(grid.x, grid.y)
            seed[grid.shifted] = 0.0
            phi = redistance(shape, grid)
            assert np.array_equal(np.sign(phi), np.sign(seed))
            assert np.array_equal(classify_nodes(grid, phi),
                                  classify_nodes(grid, seed))

    def test_boundary_pinned_to_zero(self):
        grid, classes, fits, ls = circle_geometry(100)
        assert np.all(ls.phi[grid.shifted] == 0.0)

    def test_circle_band_accuracy(self):
        grid, classes, fits, ls = circle_geometry(200)
        exact = CIRCLE.level(grid.x, grid.y)
        exact[grid.shifted] = 0.0
        band = (np.abs(exact) <= 5 * grid.dx) & fits.valid
        assert np.abs(ls.phi - exact)[band].max() <= 2 * grid.dx ** 2 + 1e-6

    @pytest.mark.parametrize("n", [101, 200])
    def test_halfmoon_matches_the_arc_oracle(self, n):
        grid = moon_grid(n)
        hist = []
        phi = redistance(MOON, grid, history=hist)
        np.testing.assert_allclose(np.abs(phi), moon_distance(grid),
                                   rtol=0, atol=1e-12)
        assert len(hist) == 1
        assert hist[0] == np.abs(phi - MOON.level(grid.x, grid.y)).max()

    @pytest.mark.parametrize("shape", [CIRCLE, MOON], ids=["circle", "half_moon"])
    def test_finite_at_the_circle_centres(self, shape):
        # at n = 101 lattice nodes sit exactly on (5, 5) and (6.2, 5)
        grid = moon_grid(101) if shape is MOON else circle_geometry(101)[0]
        centres = [(int(np.argmin(np.abs(grid.lattice_x() - c.cx))),
                    int(np.argmin(np.abs(grid.lattice_y() - c.cy))))
                   for c, _ in shape.arcs]
        for (i, j), (c, _) in zip(centres, shape.arcs):
            assert (grid.x[i, j], grid.y[i, j]) == (c.cx, c.cy)
        with np.errstate(all="raise"):
            phi = redistance(shape, grid)
        assert np.isfinite(phi).all()
        want = {CIRCLE: [2.0], MOON: [-0.8, -2.0]}[shape]
        assert [phi[i, j] for i, j in centres] == pytest.approx(want, abs=1e-12)

    def test_halfmoon_redistance_stable(self):
        grid = moon_grid(100)
        fits = FitTable.build(grid)
        with np.errstate(all="raise"):
            phi = redistance(MOON, grid)
            ls = build_levelset(MOON, phi, grid)
        assert np.isfinite(phi).all()
        band = frame_band(grid, phi)
        norm = np.hypot(ls.normal_x, ls.normal_y)
        assert np.abs(norm[band] - 1).max() <= 1e-12
        # unit gradient in the exterior band away from the two corners; the
        # corner bisector fans and the crescent's interior skeleton are
        # genuine distance-function kinks and are excluded
        gx, gy = gradient_with_edges(phi, grid, fits)
        norm = np.hypot(gx, gy)
        band = (phi < 0) & (phi >= -5 * grid.dx) & fits.valid
        away = np.full(grid.shape, True)
        for cx, cy in MOON.corners:
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

    def test_diagonal_direction(self):
        grid, classes, fits, ls = circle_geometry(200)
        i = np.argmin(np.abs(grid.lattice_x() - 6.5))
        j = np.argmin(np.abs(grid.lattice_y() - 6.5))
        s = 1 / np.sqrt(2)
        assert ls.normal_x[i, j] == pytest.approx(-s, abs=0.02)
        assert ls.normal_y[i, j] == pytest.approx(-s, abs=0.02)

    def test_unit_and_orthogonal(self):
        # n and the derived tangent t = (n_y, -n_x) split H = n into
        # (1, 0) and H = t into (0, 1)
        grid, classes, fits, ls = circle_geometry(100)
        band = frame_band(grid, ls.phi)
        nn = np.hypot(ls.normal_x, ls.normal_y)[band]
        assert np.abs(nn - 1).max() <= 1e-12
        for h, want in (((ls.normal_x, ls.normal_y), (1.0, 0.0)),
                        ((ls.normal_y, -ls.normal_x), (0.0, 1.0))):
            for got, w in zip(decompose(*h, ls), want):
                assert np.abs(got[band] - w).max() <= 1e-12

    @pytest.mark.parametrize("n", [100, 200])
    def test_circle_band_normals_are_radial(self, n):
        grid, classes, fits, ls = circle_geometry(n)
        band = frame_band(grid, ls.phi)
        dx, dy = grid.x - CIRCLE.cx, grid.y - CIRCLE.cy
        rho = np.hypot(dx, dy)
        np.testing.assert_allclose(ls.normal_x[band], -(dx / rho)[band],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(ls.normal_y[band], -(dy / rho)[band],
                                   rtol=0, atol=1e-15)
        assert not ls.normal_x[~band].any() and not ls.normal_y[~band].any()

    @pytest.mark.parametrize("n", [101, 200])
    def test_halfmoon_band_normals_match_the_nearest_feature(self, n):
        grid = moon_grid(n)
        phi = redistance(MOON, grid)
        ls = build_levelset(MOON, phi, grid)
        band = frame_band(grid, phi)
        dists, normals = moon_normal_candidates(grid)
        dists, normals = dists[:, band], normals[:, :, band]
        got = np.array([ls.normal_x[band], ls.normal_y[band]])
        # any feature within 1e-12 of the nearest is a valid choice
        nearest = dists <= dists.min(axis=0) + 1e-12
        match = np.abs(normals - got).max(axis=1) <= 1e-12
        assert (nearest & match).any(axis=0).all()
        # both corners are the only nearest feature of some band nodes
        assert (nearest[2:] & ~nearest[:2].any(axis=0)).any(axis=1).all()

    @pytest.mark.parametrize("kind, sides", [("circle", [1.0]),
                                             ("half_moon", [1.0, -1.0])],
                             ids=["circle", "half_moon"])
    def test_arc_normals_point_to_the_pec_side(self, kind, sides):
        # n = -side (x - c)/rho on every arc: into the enclosing circle,
        # out of the one cut out of the PEC
        shape = SimulationConfig(shape=kind).make_shape()
        assert [side for _, side in shape.arcs] == sides
        setup = build_setup(SimulationConfig(shape=kind), 200)
        grid, ls = setup.grid, setup.ls
        band = frame_band(grid, ls.phi)
        x, y = grid.x[band], grid.y[band]
        feature = _nearest_feature(shape, x, y)[1]
        got = np.array([ls.normal_x[band], ls.normal_y[band]])
        for k, ((c, _), side) in enumerate(zip(shape.arcs, sides)):
            rho = np.hypot(x - c.cx, y - c.cy)
            on = (feature == k) & (rho > 0.0)  # all but the circle's centre
            assert on.sum() > 100
            want = -side * np.array([x - c.cx, y - c.cy])[:, on] / rho[on]
            np.testing.assert_allclose(got[:, on], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [97, 99])
    def test_nodes_on_the_corners_take_an_arc_normal(self, n):
        grid = moon_grid(n)
        with np.errstate(all="raise"):
            phi = redistance(MOON, grid)
            ls = build_levelset(MOON, phi, grid)
        for px, py in MOON.corners:
            at = (grid.x == px) & (grid.y == py)
            assert at.sum() == 1 and grid.shifted[at].all()
            got = np.array([ls.normal_x[at][0], ls.normal_y[at][0]])
            arcs = [sign * np.array([px - c.cx, py - c.cy]) / c.r
                    for c, sign in ((MOON.outer, -1.0), (MOON.cutter, 1.0))]
            assert min(np.abs(got - a).max() for a in arcs) <= 1e-12

    @pytest.mark.parametrize("kind", ["circle", "half_moon"])
    @pytest.mark.parametrize("n", [97, 99, 101, 200, 229, 376])
    def test_every_node_read_has_a_unit_normal(self, kind, n):
        setup = build_setup(SimulationConfig(shape=kind), n)
        ext = setup.stepper.extender
        read = np.concatenate((
            np.flatnonzero(setup.classes == NodeClass.BOUNDARY),
            ext.ghost_flat, ext.nodes,
            ext.nodes[ext.dn_nbr[0]]))  # the derivative centres
        norm = np.hypot(setup.ls.normal_x, setup.ls.normal_y).ravel()[read]
        assert np.abs(norm - 1).max() <= 1e-12
