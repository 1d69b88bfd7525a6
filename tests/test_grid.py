import numpy as np
import pytest

from pecshift.extension import GhostExtender
from pecshift.grid import (GridError, NodeClass, UnderResolvedGeometryWarning,
                           apply_point_shift, build_uniform_grid,
                           classify_nodes)
from pecshift.levelset import LevelSetData
from pecshift.shapes import Circle, Domain, boundary_intersections
from pecshift.stencil import FitTable

from conftest import CIRCLE, circle_geometry


class TestBuildUniformGrid:
    def test_lattice_coordinates(self):
        g = build_uniform_grid(Domain(), 101, 101)
        assert g.dx == pytest.approx(0.1)
        assert g.x[0, 0] == 0.0 and g.y[0, 0] == 0.0
        assert g.x[50, 50] == pytest.approx(5.0)
        assert g.y[50, 50] == pytest.approx(5.0)
        assert not g.shifted.any()

    def test_too_small_grid_rejected(self):
        with pytest.raises(GridError, match="at least 8"):
            build_uniform_grid(Domain(), 4, 101)


class TestPointShift:
    def test_single_intersection_moves_nearest_node(self):
        g = build_uniform_grid(Domain(), 101, 101)
        g2 = apply_point_shift(g, np.array([[5.0, 3.04]]))
        assert g2.shifted[50, 30]
        assert g2.x[50, 30] == 5.0 and g2.y[50, 30] == 3.04
        assert not g.shifted.any()  # input untouched

    def test_intersection_at_lattice_point_shifts_in_place(self):
        g = build_uniform_grid(Domain(), 101, 101)
        g2 = apply_point_shift(g, np.array([[5.0, 3.0]]))
        assert g2.shifted[50, 30]
        assert g2.x[50, 30] == 5.0 and g2.y[50, 30] == 3.0

    def test_closer_intersection_wins(self):
        g = build_uniform_grid(Domain(), 101, 101)
        # the dropped point sits 0.08 > half a diagonal from the winner, so
        # the under-resolution warning fires too
        with pytest.warns(UnderResolvedGeometryWarning):
            g2 = apply_point_shift(g, np.array([[5.0, 3.04], [5.0, 2.96]]))
        # 3.04 is marginally closer to 3.0 in floating point
        d1 = abs(3.04 - 3.0)
        d2 = abs(3.0 - 2.96)
        winner = 3.04 if d1 < d2 else 2.96
        assert g2.y[50, 30] == winner

    def test_exact_tie_lexicographic(self):
        g = build_uniform_grid(Domain(), 11, 11)
        # both 0.25 from node (5, 3): exactly representable distances
        g2 = apply_point_shift(g, np.array([[5.0, 3.25], [5.0, 2.75]]))
        assert g2.y[5, 3] == 2.75
        assert g2.shift_drops == 1

    def test_idempotent_on_conforming_grid(self):
        grid, *_ = circle_geometry(100)
        pts = boundary_intersections(CIRCLE, grid.lattice_x(), grid.lattice_y())
        again = apply_point_shift(grid, pts)
        assert np.array_equal(again.x, grid.x)
        assert np.array_equal(again.y, grid.y)
        assert np.array_equal(again.shifted, grid.shifted)

    def test_shifted_nodes_on_circle(self):
        grid, *_ = circle_geometry(100)
        r = np.hypot(grid.x[grid.shifted] - 5.0, grid.y[grid.shifted] - 5.0)
        assert np.abs(r - 2.0).max() <= 1e-10

    def test_displacement_bounded_by_half_diagonal(self):
        grid, *_ = circle_geometry(200)
        base = build_uniform_grid(Domain(), 200, 200)
        d = np.hypot(grid.x - base.x, grid.y - base.y)
        assert d.max() <= np.hypot(grid.dx, grid.dy) / 2 + 1e-12

    def test_underresolved_drop_warns(self):
        g = build_uniform_grid(Domain(), 11, 11)
        # both nearest to (5, 3) from opposite cell corners; the dropped one
        # ends up > half a diagonal from where the node actually moved
        with pytest.warns(UnderResolvedGeometryWarning):
            apply_point_shift(g, np.array([[4.52, 2.52], [5.49, 3.49]]))

    def test_edge_claim_rejected(self):
        g = build_uniform_grid(Domain(), 11, 11)
        with pytest.raises(GridError, match="edge"):
            apply_point_shift(g, np.array([[0.2, 5.0]]))


class TestClassification:
    def test_circle_classes(self):
        grid, classes, _, _ = circle_geometry(200)
        i = np.argmin(np.abs(grid.lattice_x() - 5.0))
        j = np.argmin(np.abs(grid.lattice_y() - 5.0))
        assert classes[i, j] == NodeClass.DEEP_INTERIOR
        assert classes[1, 1] == NodeClass.EXTERIOR

    def test_boundary_iff_shifted(self):
        grid, classes, _, _ = circle_geometry(100)
        assert np.array_equal(classes == NodeClass.BOUNDARY, grid.shifted)

    def test_single_ghost_layer(self):
        grid, classes, _, ls = circle_geometry(100)
        phi = ls.phi
        ghost = classes == NodeClass.GHOST
        gi, gj = np.nonzero(ghost)
        inside = (phi > 0) & ~grid.shifted
        for i, j in zip(gi, gj):
            nbrs = [inside[i + 1, j], inside[i - 1, j],
                    inside[i, j + 1], inside[i, j - 1]]
            assert not all(nbrs)

    def test_ghost_count_scales_linearly(self):
        counts = []
        for n in (100, 200, 400):
            _, classes, _, _ = circle_geometry(n)
            counts.append(int((classes == NodeClass.GHOST).sum()))
        assert counts[1] / counts[0] == pytest.approx(2.0, abs=0.3)
        assert counts[2] / counts[1] == pytest.approx(2.0, abs=0.3)

    def test_exterior_never_adjacent_to_deep_interior(self):
        # one-layer sufficiency: stencils of updated nodes stay inside
        # {exterior, boundary, ghost}
        from pecshift.grid import neighbor_or
        _, classes, _, _ = circle_geometry(100)
        deep = classes == NodeClass.DEEP_INTERIOR
        updated = (classes == NodeClass.EXTERIOR) | (classes == NodeClass.BOUNDARY)
        assert not (neighbor_or(updated) & deep).any()

    def test_too_thin_geometry_rejected(self):
        # a double-thick wall of boundary nodes leaves its ghosts with no
        # upwind data to extend from; classification accepts it and the
        # extension names the first such ghost
        grid = build_uniform_grid(Domain(), 16, 16)
        grid.shifted[4:6, 2:14] = True
        phi = np.where(grid.x >= grid.lattice_x()[6] - 1e-9, 1.0, -1.0)
        phi[grid.shifted] = 0.0
        classes = classify_nodes(grid, phi)
        ls = LevelSetData(phi, np.ones(grid.shape), np.zeros(grid.shape))
        with pytest.raises(GridError, match=r"node \(5, 3\) .*too thin"):
            GhostExtender(grid, ls, classes, FitTable.build(grid))

    def test_topology_unchanged_by_shift(self):
        grid, *_ = circle_geometry(100)
        base = build_uniform_grid(Domain(), 100, 100)
        assert (grid.nx, grid.ny, grid.x.shape) == (base.nx, base.ny, base.x.shape)
        assert (grid.dx, grid.dy, grid.x0, grid.y0) == (base.dx, base.dy,
                                                        base.x0, base.y0)
        still = ~grid.shifted
        assert grid.shifted.any() and still.any()
        assert np.array_equal(grid.x[still], base.x[still])
        assert np.array_equal(grid.y[still], base.y[still])
