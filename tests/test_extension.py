import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pecshift.config import SimulationConfig
from pecshift.extension import (GhostExtender, _causal_rows, decompose,
                                recompose)
from pecshift.grid import GridError, NodeClass
from pecshift.levelset import LevelSetData
from pecshift.solver import build_setup
from pecshift.stencil import neighbor_flat_offsets

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
        # level with the ghost: its wall-side neighbour and both diagonals
        # there, so neither an axis nor a diagonal is upwind
        phi[i - 1, j - 1:j + 2] = phi[i, j]
        ls = LevelSetData(phi, planar.normal_x, planar.normal_y)
        with pytest.raises(GridError, match=rf"node \({i}, {j}\)"):
            GhostExtender(grid, ls, classes, fits)

    @pytest.mark.parametrize("which", [0, 30], ids=["lattice_edge", "interior"])
    def test_diagonal_source_where_no_axis_is_upwind(self, planar_101, which):
        # Level a ghost with the wall. Its west (wall) and south (where
        # there is one) neighbours tie with it at phi = 0 and the others
        # lie deeper, so no axis is upwind. Of its diagonals only the
        # north-west one has phi < 0: it is the whole row in both masks.
        grid, classes, fits, planar, *_ = planar_101
        phi = planar.phi.copy()
        i, j = np.argwhere(classes == NodeClass.GHOST)[which]
        lo = max(j - 1, 0)
        phi[i, j] = phi[i, lo] = 0.0
        phi[i - 1, j + 1] = -0.5 * grid.dx
        assert phi[i - 1, j] == phi[i - 1, lo] == 0.0
        assert (phi[i, lo:j + 2] >= 0.0).all()
        assert (phi[i + 1, lo:j + 2] > 0.0).all()
        diagonal = (i - 1) * grid.ny + j + 1
        target = np.array([i * grid.ny + j])
        for idx, w in _causal_rows(target, grid, phi, phi <= 0.0, phi < 0.0):
            assert idx.tolist() == [[diagonal]]
            assert w.tolist() == [[1.0]]


def reference_causal_rows(targets, grid, phi, frozen):
    """The causal rows as first written: tuple-indexed recursion on NumPy
    scalars with one memo per frozen set. Kept as the bitwise oracle."""
    rows: dict = {}

    def upwind(i, j):
        for pair in (((i + 1, j), (i - 1, j)), ((i, j + 1), (i, j - 1))):
            f, q = min((phi[q], q) for q in pair
                       if 0 <= q[0] < grid.nx and 0 <= q[1] < grid.ny)
            if f < phi[i, j]:
                yield q, (phi[i, j] - f) / ((grid.x[q] - grid.x[i, j]) ** 2
                                            + (grid.y[q] - grid.y[i, j]) ** 2)

    def resolve(i, j):
        if (i, j) not in rows:
            up = list(upwind(i, j))
            if not up:
                raise GridError(f"node ({i}, {j}) has no upwind neighbour")
            total = sum(w for _, w in up)
            row: dict = {}
            for q, w in up:
                sources = {q[0] * grid.ny + q[1]: 1.0} if frozen[q] else resolve(*q)
                for s, ws in sources.items():
                    row[s] = row.get(s, 0.0) + w / total * ws
            rows[i, j] = row
        return rows[i, j]

    resolved = [resolve(*divmod(int(p), grid.ny)) for p in targets]
    k = max(map(len, resolved), default=0)
    shape = (len(resolved), k)
    idx = [list(r) + [next(iter(r))] * (k - len(r)) for r in resolved]
    wts = [list(r.values()) + [0.0] * (k - len(r)) for r in resolved]
    return (np.array(idx, dtype=np.intp).reshape(shape),
            np.array(wts, dtype=float).reshape(shape))


def assert_rows_bitwise(rows, reference):
    (idx, w), (ref_idx, ref_w) = rows, reference
    assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
    assert w.shape == ref_w.shape
    assert np.array_equal(w.view(np.int64), ref_w.view(np.int64))


def assert_positions_and_operator_bitwise(ext, grid, fits, ls, reference):
    """``nodes`` and the positions into it as unique + searchsorted build
    them, and ``dn_op`` from the uniform weights repeated, the band's
    overwritten and ring centres zeroed, each ring centre reading only
    itself."""
    (value_src, _), (dn_src, _) = reference
    centers = np.unique(dn_src)
    fitted = fits.valid.ravel()[centers]
    stencil = np.where(fitted,
                       centers + neighbor_flat_offsets(grid.ny)[:, None],
                       centers)
    nodes = np.unique(np.concatenate((value_src.ravel(), stencil.ravel())))
    assert np.array_equal(ext.nodes, nodes)
    assert np.array_equal(ext.value_idx, np.searchsorted(nodes, value_src))
    assert np.array_equal(ext.dn_nbr, np.searchsorted(nodes, stencil))

    w = np.repeat(fits.uniform[:, :, None], centers.size, axis=2)
    in_band = np.isin(centers, fits.band)
    w[:, :, in_band] = fits.w[:, :, np.searchsorted(fits.band,
                                                    centers[in_band])]
    w[:, :, ~fitted] = 0.0
    dn_op = (ls.normal_x.ravel()[centers] * w[0]
             + ls.normal_y.ravel()[centers] * w[1])
    assert ext.dn_op.shape == dn_op.shape
    assert np.array_equal(ext.dn_op.view(np.int64), dn_op.view(np.int64))


class TestCausalRowOracle:
    """The shared-pair, flat-indexed rows against the reference recursion."""

    @pytest.mark.parametrize("n", [60, 100, 200, 201, 401])
    @pytest.mark.parametrize("shape", ["circle", "half_moon"])
    def test_rows_and_positions_bitwise(self, shape, n):
        setup = build_setup(SimulationConfig(shape=shape), n)
        grid, phi = setup.grid, setup.ls.phi
        ext = setup.stepper.extender
        g = ext.ghost_flat
        masks = (phi <= 0.0, phi < 0.0)
        rows = _causal_rows(g, grid, phi, *masks)
        reference = [reference_causal_rows(g, grid, phi, m) for m in masks]
        for got, ref in zip(rows, reference):
            assert_rows_bitwise(got, ref)
        assert_rows_bitwise((ext.nodes[ext.value_idx], ext.value_w),
                            reference[0])
        assert_positions_and_operator_bitwise(ext, grid, setup.fits, setup.ls,
                                              reference)

    def test_planar_positions_and_operator_bitwise(self, planar_101,
                                                   planar_extender_101):
        # some derivative sources lie on the domain ring, which has no fit
        grid, classes, fits, planar, *_ = planar_101
        ext = planar_extender_101
        reference = [reference_causal_rows(ext.ghost_flat, grid, planar.phi, m)
                     for m in (planar.phi <= 0.0, planar.phi < 0.0)]
        assert (~fits.valid.ravel()[reference[1][0]]).any()
        assert_positions_and_operator_bitwise(ext, grid, fits, planar,
                                              reference)

    def test_lattice_edge_neighbours(self, planar_101):
        # the planar fixture's ghosts reach the domain ring, so some
        # nodes have one neighbour on an axis
        grid, classes, fits, planar, *_ = planar_101
        g = np.flatnonzero(classes == NodeClass.GHOST)
        i, j = np.divmod(g, grid.ny)
        assert ((j == 0) | (j == grid.ny - 1) | (i == 0)
                | (i == grid.nx - 1)).any()
        masks = (planar.phi <= 0.0, planar.phi < 0.0)
        for got, m in zip(_causal_rows(g, grid, planar.phi, *masks), masks):
            assert_rows_bitwise(got, reference_causal_rows(g, grid,
                                                           planar.phi, m))


RUN_SCRIPT = """
import sys, tempfile
from pathlib import Path
from pecshift.config import SimulationConfig
from pecshift.export import export_field, export_grid, export_vtk
from pecshift.solver import build_setup

with tempfile.TemporaryDirectory() as tmp:
    for shape in ("circle", "half_moon"):
        setup = build_setup(SimulationConfig(shape=shape, final_time=0.2), 60)
        state = setup.stepper.run(0.2, setup.dt)
        phi = setup.ls.phi
        export_field(state, setup.grid, phi, setup.classes, Path(tmp, "f.csv"))
        export_vtk(state, setup.grid, phi, Path(tmp, "f.vtk"))
        export_grid(setup.grid, setup.classes, Path(tmp, "g.csv"))
print(" ".join(m for m in ("numpy.ma", "scipy") if m in sys.modules))
"""


def test_full_run_imports_neither_numpy_ma_nor_scipy():
    # A fresh interpreter: the test process has imported both already.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", RUN_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


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
