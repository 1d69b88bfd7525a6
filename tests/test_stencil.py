import numpy as np
import pytest

from pecshift import stencil
from pecshift.config import SimulationConfig
from pecshift.grid import apply_point_shift, build_uniform_grid, neighbor_or
from pecshift.shapes import Domain, boundary_intersections
from pecshift.stencil import (STENCIL_OFFSETS, DegenerateStencilError,
                              FitTable, _weights_batch, neighbor_flat_offsets)

from conftest import circle_geometry


def fit_weights(points) -> np.ndarray:
    """Weights (3, 5) for one stencil given absolute coordinates (5, 2),
    center first then E, W, N, S. Rows give (d/dx, d/dy, fitted value)."""
    pts = np.asarray(points, dtype=float).reshape(1, 5, 2)
    return _weights_batch(pts - pts[:, :1, :])[0]


def fitted_gradient(weights: np.ndarray, values) -> tuple[float, float]:
    """(c0, c1) of the fit for the 5 stencil values."""
    v = np.asarray(values, dtype=float)
    return float(weights[0] @ v), float(weights[1] @ v)


def fitted_value(weights: np.ndarray, values) -> float:
    """c2 of the fit: the least-squares plane evaluated at the center."""
    return float(weights[2] @ np.asarray(values, dtype=float))


def unshifted_stencil(h: float):
    return [(0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]


class TestFitWeights:
    def test_unshifted_reduces_to_central_differences(self):
        h = 0.1
        w = fit_weights(unshifted_stencil(h))
        np.testing.assert_allclose(w[0], [0, 1 / (2 * h), -1 / (2 * h), 0, 0],
                                   atol=1e-13)
        np.testing.assert_allclose(w[1], [0, 0, 0, 1 / (2 * h), -1 / (2 * h)],
                                   atol=1e-13)
        np.testing.assert_allclose(w[2], [0.2] * 5, atol=1e-14)

    def test_shifted_stencil_frozen_values(self):
        # normal equations 1.49 c0 - 0.3 c2 = -0.657; 2 c1 = 0;
        # -0.3 c0 + 5 c2 = 1.49 for u = x^2 on this stencil
        pts = [(0, 0), (0.7, 0), (-1, 0), (0, 1), (0, -1)]
        u = [0.0, 0.49, 1.0, 0.0, 0.0]
        w = fit_weights(pts)
        c0, c1 = fitted_gradient(w, u)
        c2 = fitted_value(w, u)
        det = 1.49 * 5 - 0.3 * 0.3
        assert c0 == pytest.approx((-0.657 * 5 + 0.3 * 1.49) / det, abs=1e-12)
        assert c0 == pytest.approx(-0.38560, abs=5e-6)
        assert c1 == pytest.approx(0.0, abs=1e-13)
        assert c2 == pytest.approx((1.49 * 1.49 - 0.3 * 0.657) / det, abs=1e-12)
        assert c2 == pytest.approx(0.27486, abs=5e-6)

    def test_linear_field_exact(self):
        pts = [(0, 0), (0.7, 0), (-1, 0), (0, 1), (0, -1)]
        u = [2 * x + 3 * y + 1 for x, y in pts]
        w = fit_weights(pts)
        assert fitted_gradient(w, u) == pytest.approx((2.0, 3.0), abs=1e-12)
        assert fitted_value(w, u) == pytest.approx(1.0, abs=1e-12)

    def test_collinear_points_rejected(self):
        pts = [(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0)]
        with pytest.raises(DegenerateStencilError):
            fit_weights(pts)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateStencilError):
            fit_weights([(0, 0)] * 5)


class TestFittedEvaluations:
    def test_constant_field(self):
        w = fit_weights(unshifted_stencil(0.3))
        assert fitted_value(w, [7.0] * 5) == pytest.approx(7.0, abs=1e-13)
        assert fitted_gradient(w, [7.0] * 5) == pytest.approx((0, 0), abs=1e-13)

    def test_five_point_average(self):
        w = fit_weights(unshifted_stencil(0.1))
        assert fitted_value(w, [0, 1, -1, 2, -2]) == pytest.approx(0.0, abs=1e-13)
        assert fitted_value(w, [5, 1, 1, 1, 1]) == pytest.approx(9 / 5, abs=1e-13)

    def test_sin_gradient_second_order(self):
        errs = []
        for h in (0.1, 0.05):
            pts = unshifted_stencil(h)
            u = [np.sin(x) for x, _ in pts]
            c0, _ = fitted_gradient(fit_weights(pts), u)
            errs.append(abs(c0 - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


class TestRandomStencilProperties:
    def test_linear_exactness_1000_random_stencils(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            h = 10.0 ** rng.uniform(-2, 0)
            pts = np.array(unshifted_stencil(h))
            pts[1:] += rng.uniform(-0.35 * h, 0.35 * h, size=(4, 2))
            a, b, c = rng.uniform(-5, 5, size=3)
            u = a * pts[:, 0] + b * pts[:, 1] + c
            w = fit_weights(pts)
            c0, c1 = fitted_gradient(w, u)
            c2 = fitted_value(w, u)
            scale = max(abs(a), abs(b), abs(c), 1.0)
            assert abs(c0 - a) <= 1e-12 * scale / min(h, 1.0)
            assert abs(c1 - b) <= 1e-12 * scale / min(h, 1.0)
            assert abs(c2 - c) <= 1e-12 * scale

    def test_weight_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = np.array(unshifted_stencil(0.2))
            pts[1:] += rng.uniform(-0.07, 0.07, size=(4, 2))
            w = fit_weights(pts)
            assert w[2].sum() == pytest.approx(1.0, abs=1e-12)
            assert w[0].sum() == pytest.approx(0.0, abs=1e-11)
            assert w[1].sum() == pytest.approx(0.0, abs=1e-11)

    def test_consistency_order_on_smooth_field(self):
        # O(h) on a fixed randomly-perturbed stencil shape, O(h^2) symmetric;
        # centered where the field's curvature does not vanish
        rng = np.random.default_rng(3)
        pert = rng.uniform(-0.3, 0.3, size=(4, 2))
        cx, cy = 0.7, 0.3
        exact = np.cos(cx) * np.cos(cy)

        def grad_err(h, perturb):
            pts = np.array(unshifted_stencil(h)) + (cx, cy)
            if perturb:
                pts[1:] += pert * h
            u = np.sin(pts[:, 0]) * np.cos(pts[:, 1])
            c0, _ = fitted_gradient(fit_weights(pts), u)
            return abs(c0 - exact)

        e_shift = [grad_err(h, True) for h in (0.2, 0.1, 0.05)]
        e_sym = [grad_err(h, False) for h in (0.2, 0.1, 0.05)]
        order_shift = np.log2(e_shift[0] / e_shift[2]) / 2
        order_sym = np.log2(e_sym[0] / e_sym[2]) / 2
        assert 0.7 <= order_shift <= 1.6
        assert order_sym >= 1.8


def stencil_points(grid, i: int, j: int):
    """Absolute (C, E, W, N, S) coordinates of node (i, j)'s stencil."""
    return [(grid.x[i + di, j + dj], grid.y[i + di, j + dj])
            for di, dj in STENCIL_OFFSETS]


class TestFitTable:
    def test_matches_single_stencil_weights(self):
        grid, _, fits, _ = circle_geometry(100)
        bi, bj = np.nonzero(grid.shifted)
        i, j = int(bi[0]), int(bj[0])
        _, w = fits.stencil(np.array([i * grid.ny + j]))
        np.testing.assert_allclose(w[:, :, 0],
                                   fit_weights(stencil_points(grid, i, j)),
                                   rtol=0, atol=1e-12)

    def test_unshifted_nodes_use_exact_central_weights(self):
        grid, _, fits, _ = circle_geometry(100)
        _, w = fits.stencil(np.array([3 * grid.ny + 3]))
        w = w[:, :, 0]
        assert w[0, 1] == 0.5 / grid.dx and w[0, 2] == -0.5 / grid.dx
        assert w[1, 3] == 0.5 / grid.dy and w[1, 4] == -0.5 / grid.dy
        assert np.all(w[2] == 0.2)

    def test_apply_linear_field_exact(self):
        grid, _, fits, _ = circle_geometry(100)
        u = 2 * grid.x + 3 * grid.y + 1
        inner = np.s_[1:-1, 1:-1]
        np.testing.assert_allclose(fits.ddx(u)[inner], 2.0, atol=1e-10)
        np.testing.assert_allclose(fits.ddy(u)[inner], 3.0, atol=1e-10)
        np.testing.assert_allclose(fits.value(u)[inner], u[inner], atol=1e-10)

    def test_out_must_be_c_contiguous(self):
        g = build_uniform_grid(Domain(), 16, 16)
        with pytest.raises(ValueError, match="C-contiguous"):
            FitTable.build(g).value(g.x, np.zeros(g.shape).T)

    @pytest.mark.parametrize("name", ["u", "out"])
    def test_arrays_must_have_the_grid_shape(self, name):
        g = build_uniform_grid(Domain(), 60, 60)
        fits = FitTable.build(g)
        arrays = {"u": g.x, "out": None, name: np.empty((61, 59))}
        with pytest.raises(ValueError,
                           match=rf"{name} has shape \(61, 59\), the fit table's "
                                 rf"grid is \(60, 60\)"):
            fits.value(arrays["u"], arrays["out"])

    def test_fortran_ordered_input(self):
        g = build_uniform_grid(Domain(), 16, 16)
        fits = FitTable.build(g)
        u = np.random.default_rng(0).normal(size=g.shape)
        assert np.array_equal(fits.ddx(np.asfortranarray(u)), fits.ddx(u))

    @pytest.mark.parametrize("block", [9, -1])
    def test_block_out_of_range(self, block, monkeypatch):
        monkeypatch.setattr(stencil, "BLOCK_NODES", 500)
        g = build_uniform_grid(Domain(), 60, 60)
        fits = FitTable.build(g)
        assert len(fits.blocks) == 7
        with pytest.raises(ValueError, match=rf"block {block} is out of range: "
                                             r"the fit table has 7 blocks"):
            fits.ddx(g.x, np.empty(500), block)

    def test_block_out_must_have_the_block_length(self, monkeypatch):
        monkeypatch.setattr(stencil, "BLOCK_NODES", 500)
        g = build_uniform_grid(Domain(), 60, 60)
        fits = FitTable.build(g)
        lo, hi = fits.blocks[2]
        with pytest.raises(ValueError, match=rf"out has shape \(500,\), block 2 "
                                             rf"needs a flat array of length "
                                             rf"{hi - lo}"):
            fits.value(g.x, np.empty(500), 2)

    @pytest.mark.parametrize("name", ["value", "ddx", "ddy"])
    def test_out_overlapping_u_is_rejected(self, name):
        # In place, band rows would read neighbours already overwritten.
        _, _, fits, _ = circle_geometry(200)
        v = np.random.default_rng(4).normal(size=fits.valid.shape)
        for out in (v, v.T.T, v[::-1, ::-1][::-1, ::-1]):
            with pytest.raises(ValueError, match="out shares memory with u"):
                getattr(fits, name)(v, out=out)

    @pytest.mark.parametrize("name", ["value", "ddx", "ddy"])
    def test_block_out_overlapping_u_is_rejected(self, name, monkeypatch):
        monkeypatch.setattr(stencil, "BLOCK_NODES", 500)
        g = build_uniform_grid(Domain(), 60, 60)
        fits = FitTable.build(g)
        u = np.random.default_rng(4).normal(size=g.shape)
        lo, hi = fits.blocks[3]
        for lanes in ((), (1,)):
            with pytest.raises(ValueError, match="out shares memory with u"):
                getattr(fits, name)(u, u.reshape(-1)[lo:hi], 3, *lanes)
        assert getattr(fits, name)(u, np.empty(hi - lo), 3).shape == (hi - lo,)

    @pytest.mark.parametrize("lane", [2, -1])
    def test_lane_out_of_range(self, lane, monkeypatch):
        monkeypatch.setattr(stencil, "BLOCK_NODES", 500)
        g = build_uniform_grid(Domain(), 60, 60)
        fits = FitTable.build(g)
        lo, hi = fits.blocks[1]
        with pytest.raises(ValueError, match=rf"lane {lane} is out of range: "
                                             r"there are 2 lanes"):
            fits.ddy(g.x, np.empty(hi - lo), 1, lane)

    def test_no_operator_on_ring(self):
        # a ring node has no fit: its stencil reads itself at weight zero,
        # so it sums to the zeros the applies write on the ring
        g = build_uniform_grid(Domain(), 16, 16)
        fits = FitTable.build(g)
        ring = np.flatnonzero(~fits.valid)
        assert ring.size == 4 * 15
        nodes = np.concatenate((ring, [3 * g.ny + 3]))
        nbr, w = fits.stencil(nodes)
        assert nbr.shape == (5, nodes.size) and w.shape == (3, 5, nodes.size)
        assert np.array_equal(nbr[:, :-1], np.broadcast_to(ring, (5, ring.size)))
        assert np.array_equal(nbr[:, -1], 3 * g.ny + 3 + neighbor_flat_offsets(g.ny))
        assert not w[:, :, :-1].any()
        assert np.array_equal(w[:, :, -1], fits.uniform)
        u = np.random.default_rng(5).normal(size=g.shape)
        for row, apply in enumerate((fits.ddx, fits.ddy, fits.value)):
            summed = (w[row] * u.ravel()[nbr]).sum(axis=0)
            assert np.array_equal(summed[:-1], apply(u).ravel()[ring])


GEOMETRIES = [("circle", 40), ("circle", 97), ("circle", 200),
              ("half_moon", 40), ("half_moon", 97), ("half_moon", 200),
              ("none", 60)]


@pytest.fixture(scope="module", params=GEOMETRIES,
                ids=[f"{shape}-{n}" for shape, n in GEOMETRIES])
def fit_table(request):
    shape, n = request.param
    grid = build_uniform_grid(Domain(), n, n)
    pec = SimulationConfig(shape=shape).make_shape()
    if pec is not None:
        pts = boundary_intersections(pec, grid.lattice_x(), grid.lattice_y())
        grid = apply_point_shift(grid, pts)
    return grid, FitTable.build(grid)


class TestWeightsAt:
    """Weights are stored only for the band of nodes whose stencil touches
    a shifted node; every apply must equal the plain weighted sum."""

    def test_band_is_the_stencils_touching_a_shifted_node(self, fit_table):
        grid, fits = fit_table
        touched = (grid.shifted | neighbor_or(grid.shifted)) & fits.valid
        assert np.array_equal(fits.band, np.flatnonzero(touched))
        assert fits.w.shape == (3, 5, fits.band.size)

    def test_matches_fit_weights(self, fit_table):
        grid, fits = fit_table
        rng = np.random.default_rng(11)
        uniform = np.setdiff1d(np.flatnonzero(fits.valid), fits.band)
        nodes = np.concatenate((fits.band, rng.choice(uniform, 40, replace=False)))
        nbr, got = fits.stencil(nodes)
        assert got.shape == (3, 5, nodes.size)
        assert np.array_equal(nbr, nodes + neighbor_flat_offsets(grid.ny)[:, None])
        for k, p in enumerate(nodes):
            want = fit_weights(stencil_points(grid, *divmod(int(p), grid.ny)))
            np.testing.assert_allclose(got[:, :, k], want, rtol=0, atol=1e-12)

    def test_stencil_of_the_band_is_the_stored_table(self, fit_table):
        grid, fits = fit_table
        nbr, w = fits.stencil(fits.band)
        assert nbr.dtype == np.intp
        assert np.array_equal(nbr, fits.band + neighbor_flat_offsets(grid.ny)[:, None])
        assert w.shape == fits.w.shape
        assert np.array_equal(w.view(np.int64), fits.w.view(np.int64))

    @pytest.mark.parametrize("row, name", [(0, "ddx"), (1, "ddy"), (2, "value")])
    def test_apply_is_the_sequential_weighted_sum(self, fit_table, row, name):
        grid, fits = fit_table
        assert_sequential_weighted_sum(grid, fits, row, name)

    @pytest.mark.parametrize("row, name", [(0, "ddx"), (1, "ddy"), (2, "value")])
    def test_blocked_apply_is_the_sequential_weighted_sum(self, fit_table, row,
                                                          name, monkeypatch):
        # 257-node blocks do not divide ny, so block edges cut through
        # rows, ring columns and the band.
        grid, _ = fit_table
        monkeypatch.setattr(stencil, "BLOCK_NODES", 257)
        fits = FitTable.build(grid)
        starts, stops = zip(*fits.blocks)
        assert starts[0] == grid.ny + 1 and stops[-1] == grid.x.size - grid.ny - 1
        assert starts[1:] == stops[:-1]
        assert np.diff(fits.blocks).max() <= 257
        if fits.band.size:  # the band spans several blocks
            assert np.unique(np.searchsorted(starts, fits.band, "right")).size > 1
        assert_sequential_weighted_sum(grid, fits, row, name)


def assert_sequential_weighted_sum(grid, fits, row, name):
    """The apply equals sum_k w[k] * u[nbr[k]], added in (C, E, W, N, S)
    order, at every interior node, and zero on the ring; whole-grid calls
    with and without ``out``. Bitwise, also for a ``u`` with signed zeros,
    subnormals and +-1e308, where scaled terms overflow to +-inf and their
    sums to NaN. The uniform stencil skips its zero weights, which only
    shows in the sign of a zero sum: such a term is -0.0 here, the exact
    additive identity."""
    rng = np.random.default_rng(row)
    normal = rng.normal(size=grid.shape)
    edges = rng.normal(size=grid.shape)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1e308, -1e308]
    picks = rng.random(grid.shape) < 0.3
    edges[picks] = rng.choice(extremes, picks.sum())
    interior = np.flatnonzero(fits.valid)
    w = fits.stencil(interior)[1][row]
    nbr = interior + neighbor_flat_offsets(grid.ny)[:, None]
    skipped = (w == 0) & ~np.isin(interior, fits.band)
    apply = getattr(fits, name)
    for u in (normal, edges):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = w * u.ravel()[nbr]
            terms[skipped] = -0.0
            total = terms[0]
            for k in range(1, 5):
                total = total + terms[k]
            want = np.zeros(grid.shape)
            want.ravel()[interior] = total

            assert_bitwise_equal(apply(u), want)
            out = rng.normal(size=grid.shape)
            assert apply(u, out) is out
        assert_bitwise_equal(out, want)


def assert_bitwise_equal(got, want):
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
