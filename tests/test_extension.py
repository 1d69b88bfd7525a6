import numpy as np
import pytest

from pecshift.extension import (GhostExtender, decompose, normal_derivatives,
                                recompose)
from pecshift.grid import NodeClass
from pecshift.levelset import LevelSetData

from conftest import planar_geometry


def frame(nx_, ny_):
    """LevelSetData-style frame arrays from a constant normal."""
    return nx_, ny_, ny_, -nx_  # t = (n_y, -n_x)


class TestDecompose:
    def test_axis_aligned(self):
        ls = LevelSetData(None, np.array(1.0), np.array(0.0),
                          np.array(0.0), np.array(-1.0))
        hp, hpar = decompose(np.array(1.0), np.array(0.0), ls)
        assert (hp, hpar) == (1.0, 0.0)
        hp, hpar = decompose(np.array(0.0), np.array(1.0), ls)
        assert (hp, hpar) == (0.0, -1.0)

    def test_oblique(self):
        ls = LevelSetData(None, np.array(0.6), np.array(0.8),
                          np.array(0.8), np.array(-0.6))
        hp, hpar = decompose(np.array(3.0), np.array(4.0), ls)
        assert hp == pytest.approx(5.0, abs=1e-15)
        assert hpar == pytest.approx(0.0, abs=1e-15)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(11)
        theta = rng.uniform(0, 2 * np.pi, size=(40, 40))
        nx_, ny_ = np.cos(theta), np.sin(theta)
        ls = LevelSetData(None, nx_, ny_, ny_.copy(), -nx_)
        hx = rng.normal(size=theta.shape)
        hy = rng.normal(size=theta.shape)
        hx2, hy2 = recompose(*decompose(hx, hy, ls), ls)
        assert np.abs(hx2 - hx).max() <= 1e-12
        assert np.abs(hy2 - hy).max() <= 1e-12


class TestNormalDerivatives:
    def test_eikonal_property_of_phi(self, planar_101):
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        dn = normal_derivatives(ls.phi, ls, fits)
        ext = (classes == NodeClass.EXTERIOR) & fits.valid
        assert np.abs(dn[ext] - 1.0).max() <= 1e-10  # phi exactly linear here

    def test_constant_field_zero(self, planar_101):
        grid, classes, fits, ls, *_ = planar_101
        dn = normal_derivatives(np.full(grid.shape, 3.3), ls, fits)
        assert np.abs(dn[fits.valid]).max() <= 1e-11

    def test_linear_field_oblique_normal(self, planar_101):
        grid, classes, fits, _, *_ = planar_101
        nx_ = np.full(grid.shape, 0.6)
        ny_ = np.full(grid.shape, 0.8)
        ls = LevelSetData(None, nx_, ny_, ny_.copy(), -nx_)
        dn = normal_derivatives(grid.x, ls, fits)
        assert np.abs(dn[fits.valid] - 0.6).max() <= 1e-10


class TestConstantExtend:
    """Constant extension along the normal: the transport sweeps alone."""

    def test_constant_field_unchanged(self, planar_101, planar_extender_101):
        grid, *_ = planar_101
        field = np.full(grid.shape, 4.5)
        planar_extender_101.region_pos.sweep(field)
        assert np.abs(field - 4.5).max() <= 1e-12

    def test_row_transport_oracle(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        g_of_y = np.sin(1.3 * grid.y)
        field = g_of_y.copy()
        field[ls.phi > 0] = 7.0  # garbage inside
        planar_extender_101.region_pos.sweep(field)
        # ghost values match the same row's exterior profile
        assert np.abs(field[ghosts] - g_of_y[ghosts]).max() <= 0.05 * 1.3 ** 2

    def test_frozen_side_bitwise(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, *_ = planar_101
        rng = np.random.default_rng(5)
        field = rng.normal(size=grid.shape)
        out = field.copy()
        planar_extender_101.region_nonneg.sweep(out)
        neg = ls.phi < 0
        assert np.array_equal(out[neg], field[neg])
        # region_pos also freezes the boundary trace
        out2 = field.copy()
        planar_extender_101.region_pos.sweep(out2)
        assert np.array_equal(out2[ls.phi <= 0], field[ls.phi <= 0])


class TestExtendH:
    def test_taylor_assembly_values(self, planar_101, planar_extender_101):
        # transported pieces: d(H.n)/dn = 2, H.t trace = 5, d(H.t)/dn = 3
        # at a ghost with phi = 0.1 the two-term expansions give
        # H.n = 0.2 and H.t = 5 - 0.3 = 4.7
        grid, classes, fits, ls, ghosts, x_wall = planar_101
        s = grid.x - x_wall
        hx = 2.0 * s            # H.n since n = (1, 0); zero trace at the wall
        hy = -(5.0 + 3.0 * s)   # H.t = -hy = 5 + 3 s
        planar_extender_101.extend_h(hx, hy)
        d = s[ghosts]
        # tolerance floor: garbage beyond the update band leaks ~3^-12
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
        planar_extender_101.extend_h(hx, hy)
        d = grid.x[ghosts] - x_wall
        # odd mirror: Hx(wall + d) = -Hx(wall - d) = -a d; even: Hy = b
        np.testing.assert_allclose(hx[ghosts], -a * d, atol=1e-4)
        np.testing.assert_allclose(hy[ghosts], b, atol=1e-4)

    def test_zero_field_zero_ghosts(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, *_ = planar_101
        hx = np.zeros(grid.shape)
        hy = np.zeros(grid.shape)
        hx[ls.phi > 0] = 5.0
        hy[ls.phi > 0] = -5.0
        planar_extender_101.extend_h(hx, hy)
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
        planar_extender_101.extend_e(ez)
        d = grid.x[ghosts] - x_wall
        mirror = -np.sin(d)
        np.testing.assert_allclose(ez[ghosts], mirror, atol=5e-3)

    def test_zero_and_tangential_fields(self, planar_101, planar_extender_101):
        grid, classes, fits, ls, ghosts, *_ = planar_101
        ez = np.zeros(grid.shape)
        planar_extender_101.extend_e(ez)
        assert np.abs(ez[ghosts]).max() == 0.0
        # tangential-only variation has zero normal derivative
        ez = np.sin(0.9 * grid.y)
        planar_extender_101.extend_e(ez)
        assert np.abs(ez[ghosts]).max() <= 2e-3


class TestOrderOfAccuracy:
    def test_ghost_mirror_first_order(self):
        errs = {}
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
            ext.extend_h(hx, hy)
            d = grid.x[ghosts] - x_wall
            errs[n] = max(np.abs(hx[ghosts] + ay[ghosts] * d).max(),
                          np.abs(hy[ghosts] - by[ghosts]).max())
        assert errs[101] <= 0.5 * 0.1
        order1 = np.log2(errs[101] / errs[201])
        order2 = np.log2(errs[201] / errs[401])
        assert order1 >= 1.0
        assert order2 >= 1.0
