import numpy as np
import pytest

from pecshift.config import SimulationConfig
from pecshift.extension import GhostExtender, decompose, recompose
from pecshift.grid import GridError, NodeClass
from pecshift.levelset import LevelSetData
from pecshift.solver import build_setup

from conftest import CIRCLE, circle_geometry, planar_geometry


class TestDecompose:
    def test_axis_aligned(self):
        ls = LevelSetData(None, np.array(1.0), np.array(0.0))
        hp, hpar = decompose(np.array(1.0), np.array(0.0), ls)
        assert (hp, hpar) == (1.0, 0.0)
        hp, hpar = decompose(np.array(0.0), np.array(1.0), ls)
        assert (hp, hpar) == (0.0, -1.0)

    def test_oblique(self):
        ls = LevelSetData(None, np.array(0.6), np.array(0.8))
        hp, hpar = decompose(np.array(3.0), np.array(4.0), ls)
        assert hp == pytest.approx(5.0, abs=1e-15)
        assert hpar == pytest.approx(0.0, abs=1e-15)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(11)
        theta = rng.uniform(0, 2 * np.pi, size=(40, 40))
        nx_, ny_ = np.cos(theta), np.sin(theta)
        ls = LevelSetData(None, nx_, ny_)
        hx = rng.normal(size=theta.shape)
        hy = rng.normal(size=theta.shape)
        hx2, hy2 = recompose(*decompose(hx, hy, ls), ls)
        assert np.abs(hx2 - hx).max() <= 1e-12
        assert np.abs(hy2 - hy).max() <= 1e-12


def source_derivatives(extender, field):
    """Flat indices of the extender's derivative sources and its fitted
    normal derivative of ``field`` there."""
    src = extender.nodes[extender.dn_nbr[0]]
    return src, extender.normal_derivatives(field.ravel()[extender.nodes])


class TestNormalDerivatives:
    def test_eikonal_property_of_phi(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        src, dn = source_derivatives(planar_extender_101, ls.phi)
        fitted = fits.valid.ravel()[src]  # the ring has no fit
        assert fitted.any()
        assert np.abs(dn[fitted] - 1.0).max() <= 1e-10  # phi exactly linear here

    def test_constant_field_zero(self, planar_101, planar_extender_101):
        grid, *_ = planar_101
        _, dn = source_derivatives(planar_extender_101, np.full(grid.shape, 3.3))
        assert np.abs(dn).max() <= 1e-11

    def test_linear_field_oblique_normal(self, planar_101):
        grid, classes, fits, planar, *_ = planar_101
        nx_ = np.full(grid.shape, 0.6)
        ny_ = np.full(grid.shape, 0.8)
        ls = LevelSetData(planar.phi, nx_, ny_)
        src, dn = source_derivatives(GhostExtender(grid, ls, classes, fits),
                                     grid.x)
        fitted = fits.valid.ravel()[src]
        assert fitted.any()
        assert np.abs(dn[fitted] - 0.6).max() <= 1e-10


@pytest.fixture(scope="module")
def circle_extender_100(circle_100):
    grid, classes, fits, ls = circle_100
    return GhostExtender(grid, ls, classes, fits)


class TestCausalRows:
    """Each ghost's upwind rows, resolved at construction."""

    @pytest.mark.parametrize("name", ["planar_extender_101",
                                      "circle_extender_100"])
    def test_weights_convex(self, request, name):
        ext = request.getfixturevalue(name)
        for w in (ext.value_w, ext.dn_w):
            assert w.shape == (ext.ghost_flat.size, w.shape[1])
            assert (w >= 0.0).all()
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("name", ["planar_extender_101",
                                      "circle_extender_100"])
    def test_rows_read_only_the_frozen_side(self, request, name):
        ext = request.getfixturevalue(name)
        phi = ext.ls.phi.ravel()
        assert (phi[ext.nodes[ext.value_idx]] <= 0.0).all()
        src, _ = source_derivatives(ext, np.zeros(phi.shape))
        assert (phi[src[ext.dn_idx]] < 0.0).all()

    @pytest.mark.parametrize("n", [60, 100, 200, 201, 401])
    @pytest.mark.parametrize("shape", ["circle", "half_moon"])
    def test_reads_only_exterior_and_boundary_nodes(self, shape, n):
        # BFECC's compensation leaves inside nodes unmasked on this: the
        # extension rewrites every ghost before a sweep reads it.
        setup = build_setup(SimulationConfig(shape=shape), n)
        read = setup.classes.ravel()[setup.stepper.extender.nodes]
        assert set(read) <= {NodeClass.EXTERIOR, NodeClass.BOUNDARY}

    def test_constant_field_unchanged(self, planar_101, planar_extender_101):
        grid, *_ = planar_101
        # H = (0, 4.5) is tangential to the wall: an even constant
        hx, hy, ez = (np.full(grid.shape, v) for v in (0.0, 4.5, 0.0))
        planar_extender_101.extend_fields(hx, hy, ez)
        assert np.abs(hx).max() <= 1e-12
        assert np.abs(hy - 4.5).max() <= 1e-12
        assert np.abs(ez).max() <= 1e-12

    def test_missing_upwind_neighbour_names_the_node(self, planar_101):
        grid, classes, fits, planar, *_ = planar_101
        phi = planar.phi.copy()
        i, j = np.argwhere(classes == NodeClass.GHOST)[30]
        phi[i - 1, j] = phi[i, j]  # level with the wall: nothing upwind
        ls = LevelSetData(phi, planar.normal_x, planar.normal_y)
        with pytest.raises(GridError, match=rf"node \({i}, {j}\)"):
            GhostExtender(grid, ls, classes, fits)


class TestExtendH:
    def test_taylor_assembly_values(self, planar_101, planar_extender_101):
        # extended pieces: d(H.n)/dn = 2, H.t trace = 5, d(H.t)/dn = 3
        # at a ghost with phi = 0.1 the two-term expansions give
        # H.n = 0.2 and H.t = 5 - 0.3 = 4.7
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        s = grid.x - x_wall
        hx = 2.0 * s            # H.n since n = (1, 0); zero trace at the wall
        hy = -(5.0 + 3.0 * s)   # H.t = -hy = 5 + 3 s
        planar_extender_101.extend_fields(hx, hy, np.zeros(grid.shape))
        d = s[ghosts]
        np.testing.assert_allclose(hx[ghosts], 2.0 * d, atol=1e-4)
        np.testing.assert_allclose(-hy[ghosts], 5.0 - 3.0 * d, atol=1e-4)
        assert d[0] == pytest.approx(grid.dx)

    def test_odd_even_mirror_oracle(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        a, b = 1.3, 0.7
        hx = a * (x_wall - grid.x)
        hy = np.full(grid.shape, b)
        inside = ls.phi > 0
        hx[inside] = 9.0
        hy[inside] = -9.0
        hx[grid.shifted] = 0.0
        planar_extender_101.extend_fields(hx, hy, np.zeros(grid.shape))
        d = grid.x[ghosts] - x_wall
        # odd mirror: Hx(wall + d) = -Hx(wall - d) = -a d; even: Hy = b
        np.testing.assert_allclose(hx[ghosts], -a * d, atol=1e-4)
        np.testing.assert_allclose(hy[ghosts], b, atol=1e-4)

    def test_normal_trace_taken_as_zero(self, planar_101, planar_extender_101):
        # H.n on the wall is zero by definition of the odd extension,
        # whatever the boundary nodes hold
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        a = 1.3
        hx = a * (x_wall - grid.x)
        hx[grid.shifted] = 7.0
        planar_extender_101.extend_fields(hx, np.zeros(grid.shape),
                                          np.zeros(grid.shape))
        d = grid.x[ghosts] - x_wall
        np.testing.assert_allclose(hx[ghosts], -a * d, atol=1e-12)

    def test_zero_field_zero_ghosts(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, *_ = planar_101
        hx = np.zeros(grid.shape)
        hy = np.zeros(grid.shape)
        hx[ls.phi > 0] = 5.0
        hy[ls.phi > 0] = -5.0
        planar_extender_101.extend_fields(hx, hy, np.zeros(grid.shape))
        assert np.abs(hx[ghosts]).max() <= 1e-4
        assert np.abs(hy[ghosts]).max() <= 1e-4

    def test_exterior_bitwise_frozen(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, *_ = planar_101
        rng = np.random.default_rng(8)
        hx = rng.normal(size=grid.shape)
        hy = rng.normal(size=grid.shape)
        ez = rng.normal(size=grid.shape)
        keep = classes != NodeClass.GHOST
        hx0, hy0, ez0 = hx.copy(), hy.copy(), ez.copy()
        planar_extender_101.extend_fields(hx, hy, ez)
        assert np.array_equal(hx[keep], hx0[keep])
        assert np.array_equal(hy[keep], hy0[keep])
        assert np.array_equal(ez[keep], ez0[keep])


class TestExtendE:
    def test_sine_odd_mirror(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        ez = np.sin(x_wall - grid.x)
        ez[ls.phi > 0] = 9.0
        ez[grid.shifted] = 0.0
        planar_extender_101.extend_fields(np.zeros(grid.shape),
                                          np.zeros(grid.shape), ez)
        d = grid.x[ghosts] - x_wall
        mirror = -np.sin(d)
        np.testing.assert_allclose(ez[ghosts], mirror, atol=5e-3)

    def test_zero_and_tangential_fields(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, *_ = planar_101
        ez = np.zeros(grid.shape)
        planar_extender_101.extend_fields(np.zeros(grid.shape),
                                          np.zeros(grid.shape), ez)
        assert np.abs(ez[ghosts]).max() == 0.0
        # tangential-only variation has zero normal derivative
        ez = np.sin(0.9 * grid.y)
        planar_extender_101.extend_fields(np.zeros(grid.shape),
                                          np.zeros(grid.shape), ez)
        assert np.abs(ez[ghosts]).max() <= 2e-3


class TestOrderOfAccuracy:
    def test_ghost_mirror_first_order(self):
        # Each ghost reads only its own row's wall and exterior nodes,
        # where these fields are linear in x: the extension is exact up
        # to roundoff, which more than meets first order.
        for n in (101, 201, 401):
            grid, classes, fits, ls, ghosts, x_wall = planar_geometry(n)
            ext = GhostExtender(grid, ls, classes, fits)
            ay = 1.0 + 0.5 * np.sin(0.9 * grid.y)
            by = np.cos(0.7 * grid.y)
            hx = ay * (x_wall - grid.x)
            hy = by.copy()
            inside = ls.phi > 0
            hx[inside] = 9.0
            hy[inside] = -9.0
            hx[grid.shifted] = 0.0
            ext.extend_fields(hx, hy, np.zeros(grid.shape))
            d = grid.x[ghosts] - x_wall
            err = max(np.abs(hx[ghosts] + ay[ghosts] * d).max(),
                      np.abs(hy[ghosts] - by[ghosts]).max())
            assert err <= 1e-12

    def test_circle_odd_mirror_second_order(self):
        def profile(r, theta):
            return np.sin(1.5 * (r - CIRCLE.r)) * (1.0 + 0.3 * np.cos(theta))

        errs = []
        for n in (100, 200, 400):
            grid, classes, fits, ls = circle_geometry(n)
            r = np.hypot(grid.x - CIRCLE.cx, grid.y - CIRCLE.cy)
            theta = np.arctan2(grid.y - CIRCLE.cy, grid.x - CIRCLE.cx)
            ez = profile(r, theta)
            ez[ls.phi > 0] = 9.0
            ez[grid.shifted] = 0.0
            GhostExtender(grid, ls, classes, fits).extend_fields(
                np.zeros(grid.shape), np.zeros(grid.shape), ez)
            g = classes == NodeClass.GHOST
            mirror = -profile(2 * CIRCLE.r - r[g], theta[g])
            errs.append(np.abs(ez[g] - mirror).max())
        assert errs[1] <= 1.3e-3
        orders = np.log2(np.divide(errs[:-1], errs[1:]))
        assert (orders >= 1.8).all(), orders
