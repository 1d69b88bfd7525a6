import contextlib
import functools
import os
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pecshift import solver, stencil
from pecshift.config import CFL_BOUNDS, ConfigError, SimulationConfig
from pecshift.extension import GhostExtender
from pecshift.grid import (NodeClass, UnderResolvedGeometryWarning,
                           build_uniform_grid)
from pecshift.shapes import Domain
from pecshift.solver import (FieldState, MaxwellStepper, StabilityError,
                             build_setup, incident_wave, run_simulation)
from pecshift.stencil import STENCIL_OFFSETS, FitTable

from conftest import circle_geometry

OMEGA = 2 * np.pi / 0.6
PLANE_WAVE = functools.partial(incident_wave, omega=OMEGA)


def free_space_stepper(n=40):
    grid = build_uniform_grid(Domain(), n, n)
    fits = FitTable.build(grid)
    classes = np.zeros(grid.shape, dtype=np.int8)
    return grid, MaxwellStepper(grid, classes, fits, PLANE_WAVE)


def circle_stepper(n=100):
    grid, classes, fits, ls = circle_geometry(n)
    ext = GhostExtender(grid, ls, classes, fits)
    return MaxwellStepper(grid, classes, fits, PLANE_WAVE, extender=ext)


def plane_wave_state(grid, t=0.0):
    return FieldState(*incident_wave(grid.x, grid.y, t, OMEGA), t)


class TestIncidentWave:
    def test_zero_phase(self):
        hx, hy, ez = incident_wave(0.25, 1.0, 0.25, OMEGA)
        assert hx == 0.0 and hy == pytest.approx(0.0) and ez == pytest.approx(0.0)

    def test_quarter_period(self):
        _, hy, ez = incident_wave(0.15, 0.0, 0.0, OMEGA)
        assert ez == pytest.approx(1.0)
        assert hy == pytest.approx(-1.0)

    def test_ez_plus_hy_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 100)
        t = rng.uniform(0, 3)
        _, hy, ez = incident_wave(x, None, t, OMEGA)
        assert np.abs(ez + hy).max() == 0.0


class TestSweep:
    def test_constant_state_fixed_point(self):
        grid, st = free_space_stepper()
        s = FieldState(np.full(grid.shape, 1.7), np.full(grid.shape, -0.4),
                       np.full(grid.shape, 2.2), 0.0)
        out = st.sweep(s, 0.05)
        assert np.abs(out.hx - 1.7).max() <= 1e-12
        assert np.abs(out.hy + 0.4).max() <= 1e-12
        assert np.abs(out.ez - 2.2).max() <= 1e-12

    def test_forward_backward_pair_not_identity(self):
        # One sweep is A u + dt M u, with A the dt-independent 5-point
        # average and M the fitted Maxwell operator. At nodes 2 or more
        # from the ring A and M commute, so the pair is exactly
        # A^2 u - dt^2 M^2 u there:
        # the dt-dependent part scales as dt^2, and the rest, (A^2 - I) u,
        # is an O(dx^2) defect that does not shrink with dt (BFECC
        # compensates it).
        grid, st = free_space_stepper(60)
        s = plane_wave_state(grid)
        inner = np.s_[2:-2, 2:-2]

        def pair(dt):
            return st.sweep(st.sweep(s, dt), -dt)

        back0, back8, back4 = pair(0.0), pair(0.08), pair(0.04)
        assert np.abs(back8.ez[inner] - s.ez[inner]).max() > 1e-8
        for name in ("hy", "ez"):
            u = getattr(s, name)
            b0 = getattr(back0, name)[inner]
            d8 = getattr(back8, name)[inner] - b0
            d4 = getattr(back4, name)[inner] - b0
            assert np.abs(d8 - 4.0 * d4).max() <= 1e-12 * np.abs(d8).max()
            assert np.array_equal(b0, st.fits.value(st.fits.value(u))[inner])

    def test_ghost_and_deep_nodes_not_updated(self):
        grid, classes, fits, ls = circle_geometry(100)
        st = circle_stepper(100)
        rng = np.random.default_rng(2)
        s = FieldState(rng.normal(size=grid.shape), rng.normal(size=grid.shape),
                       rng.normal(size=grid.shape), 0.0)
        out = st.sweep(s, 0.05)
        frozen = (classes == NodeClass.GHOST) | (classes == NodeClass.DEEP_INTERIOR)
        assert np.array_equal(out.ez[frozen], s.ez[frozen])
        assert np.array_equal(out.hx[frozen], s.hx[frozen])

    @pytest.mark.parametrize("shape", ["circle", "half_moon", "none"])
    def test_in_place_equals_new_arrays(self, shape, monkeypatch):
        # 257-node blocks cut through the band and the ring columns.
        monkeypatch.setattr(stencil, "BLOCK_NODES", 257)
        setup = build_setup(SimulationConfig(shape=shape), 60)
        assert len(setup.fits.blocks) > 1
        assert_in_place_sweep_equals_new_arrays(setup)

    def test_in_place_with_blocks_shorter_than_a_row(self, monkeypatch):
        # Blocks of 17 nodes on a 24-node row would let a block read the
        # results of the block before last; none is shorter than a row.
        monkeypatch.setattr(stencil, "BLOCK_NODES", 17)
        setup = build_setup(SimulationConfig(shape="none"), 24)
        assert len(setup.fits.blocks) > 1
        assert np.diff(setup.fits.blocks).min() >= setup.grid.ny
        assert_in_place_sweep_equals_new_arrays(setup)


class TestEnforceBoundary:
    @pytest.fixture(scope="class")
    def circle_stepper(self):
        grid, classes, fits, ls = circle_geometry(100)
        return grid, classes, ls, circle_stepper(100)

    def test_normal_component_removed(self, circle_stepper):
        grid, classes, ls, st = circle_stepper
        rng = np.random.default_rng(3)
        s = FieldState(rng.normal(size=grid.shape), rng.normal(size=grid.shape),
                       rng.normal(size=grid.shape), 0.0)
        st.enforce_boundary(s)
        b = classes == NodeClass.BOUNDARY
        h_n = s.hx[b] * ls.normal_x[b] + s.hy[b] * ls.normal_y[b]
        assert np.abs(h_n).max() <= 1e-12
        assert np.all(s.ez[b] == 0.0)

    def test_tangential_field_intact(self, circle_stepper):
        grid, classes, ls, st = circle_stepper
        # pure tangential H, along t = (n_y, -n_x), survives enforcement
        s = FieldState(ls.normal_y * 3.0, -ls.normal_x * 3.0,
                       np.zeros(grid.shape), 0.0)
        hx0 = s.hx.copy()
        st.enforce_boundary(s)
        b = classes == NodeClass.BOUNDARY
        assert np.abs(s.hx[b] - hx0[b]).max() <= 1e-12

    def test_boundary_nodes_need_an_extender(self):
        grid, classes, fits, ls = circle_geometry(100)
        with pytest.raises(ValueError, match="no ghost extender"):
            MaxwellStepper(grid, classes, fits, PLANE_WAVE)

    def test_projection_examples(self):
        # H=(2,0), n=(1,0) -> 0; H=(0,3) -> unchanged; H=(1,1), n=diag -> 0
        for h, n, want in (((2.0, 0.0), (1.0, 0.0), (0.0, 0.0)),
                           ((0.0, 3.0), (1.0, 0.0), (0.0, 3.0)),
                           ((1.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5)), (0.0, 0.0))):
            hn = h[0] * n[0] + h[1] * n[1]
            got = (h[0] - hn * n[0], h[1] - hn * n[1])
            assert got == pytest.approx(want, abs=1e-15)


class TestOuterBoundary:
    def test_corner_value(self):
        grid, st = free_space_stepper(40)
        s = FieldState(np.zeros(grid.shape), np.zeros(grid.shape),
                       np.zeros(grid.shape), 0.25)
        st.apply_outer_boundary(s)
        assert s.ez[0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert s.hx[0, 0] == 0.0
        assert s.hy[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_edge_at_x_equals_t(self):
        grid, st = free_space_stepper(11)
        s = FieldState(np.zeros(grid.shape), np.zeros(grid.shape),
                       np.zeros(grid.shape), 10.0)
        st.apply_outer_boundary(s)
        assert s.ez[-1, 3] == pytest.approx(0.0, abs=1e-9)

    def test_hx_always_zero_on_ring(self):
        grid, st = free_space_stepper(16)
        s = plane_wave_state(grid, 0.37)
        st.apply_outer_boundary(s)
        ring = np.zeros(grid.shape, bool)
        ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
        assert np.all(s.hx[ring] == 0.0)


class TestFortranOrderedFields:
    """A flat view of a Fortran-ordered array is a copy, so the stepper's
    writes through it would be lost; a state refuses such arrays."""

    @pytest.fixture(scope="class")
    def stepper(self):
        return circle_stepper(60)

    @staticmethod
    def fortran_wave(x, y, t):
        return tuple(map(np.asfortranarray, PLANE_WAVE(x, y, t)))

    def test_sweep_into_a_fortran_ordered_out(self, stepper):
        s = plane_wave_state(stepper.grid)
        with pytest.raises(ValueError, match="FieldState.hx must be C-"):
            stepper.sweep(s, 0.01, out=FieldState(
                *self.fortran_wave(stepper.grid.x, stepper.grid.y, 0.0)))

    def test_enforce_boundary_on_a_fortran_ordered_ez(self, stepper):
        hx, hy, ez = PLANE_WAVE(stepper.grid.x, stepper.grid.y, 0.0)
        with pytest.raises(ValueError, match="FieldState.ez must be C-"):
            stepper.enforce_boundary(FieldState(hx, hy, np.asfortranarray(ez)))

    def test_outer_boundary_on_a_fortran_ordered_state(self, stepper):
        zeros = np.zeros(stepper.grid.shape, order="F")
        with pytest.raises(ValueError, match="FieldState.hx must be C-"):
            stepper.apply_outer_boundary(
                FieldState(zeros, zeros.copy(order="F"),
                           zeros.copy(order="F"), 0.25))

    def test_initial_state_from_fortran_ordered_boundary_data(self):
        grid, classes, fits, ls = circle_geometry(60)
        st = MaxwellStepper(grid, classes, fits, self.fortran_wave,
                            extender=GhostExtender(grid, ls, classes, fits))
        with pytest.raises(ValueError, match="FieldState.hx must be C-"):
            st.initial_state()


class TestBfeccStep:
    def test_constant_state_is_fixed_point_interior(self):
        grid, st = free_space_stepper(40)
        s = FieldState(np.full(grid.shape, 0.9), np.full(grid.shape, 0.9),
                       np.full(grid.shape, 0.9), 0.0)
        out = st.bfecc_step(s, 0.1)
        # The ring is set to the incident wave after every sub-sweep, and
        # that data, unlike the constant, reaches 2 rows inward in one
        # step: the backward sweep reads it at row 1, the last forward
        # sweep reads row 1 of the compensated state at row 2.
        inner = np.s_[3:-3, 3:-3]
        assert np.abs(out.hx[inner] - 0.9).max() <= 1e-12
        assert np.abs(out.hy[inner] - 0.9).max() <= 1e-12
        assert np.abs(out.ez[inner] - 0.9).max() <= 1e-12
        ring = np.ones(grid.shape, bool)
        ring[1:-1, 1:-1] = False
        for got, want in zip((out.hx, out.hy, out.ez),
                             incident_wave(grid.x, grid.y, 0.1, OMEGA)):
            assert np.array_equal(got[ring], want[ring])

    def test_outer_ring_set_after_every_sub_sweep(self, monkeypatch):
        grid, st = free_space_stepper(16)
        times = []
        apply_ring = st.apply_outer_boundary

        def record(state):
            times.append(state.time)
            return apply_ring(state)

        monkeypatch.setattr(st, "apply_outer_boundary", record)
        st.bfecc_step(plane_wave_state(grid, 0.3), 0.1)
        assert times == pytest.approx([0.4, 0.3, 0.4], abs=1e-12)

    def test_equals_the_sub_steps_written_out(self):
        grid, classes, fits, ls = circle_geometry(60)
        assert_bfecc_is_the_sub_steps_written_out(grid, classes, fits,
                                                  circle_stepper(60))

    @pytest.mark.parametrize("shape", ["circle", "half_moon"])
    def test_blocked_step_equals_the_sub_steps_written_out(self, shape,
                                                           monkeypatch):
        # The reference applies run as one block and zero the correction
        # at inside nodes; the stepper's sweeps run in 257-node blocks and
        # its compensation has no mask.
        cfg = SimulationConfig(shape=shape)
        ref = build_setup(cfg, 60)
        assert len(ref.fits.blocks) == 1
        monkeypatch.setattr(stencil, "BLOCK_NODES", 257)
        st = build_setup(cfg, 60).stepper
        assert len(st.fits.blocks) > 1
        assert_bfecc_is_the_sub_steps_written_out(ref.grid, ref.classes,
                                                  ref.fits, st)

    def test_one_full_grid_allocation_per_step(self, monkeypatch):
        # The forward sub-step's result arrays are the only full-grid
        # allocation; the rest of the step overwrites them. Three sub-steps
        # into new arrays would peak at six.
        monkeypatch.setattr(stencil, "BLOCK_NODES", 2000)
        grid, st = free_space_stepper(120)
        assert len(st.fits.blocks) > 1
        s = st.bfecc_step(plane_wave_state(grid), grid.dx)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = st.bfecc_step(s, grid.dx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block = 8 * max(hi - lo for lo, hi in st.fits.blocks)
        assert peak <= 3 * grid.x.nbytes + 2 * block
        for a in (out.hx, out.hy, out.ez):
            for b in (s.hx, s.hy, s.ez):
                assert not np.shares_memory(a, b)

    def test_boundary_conditions_after_every_step(self):
        grid, classes, fits, ls = circle_geometry(100)
        st = circle_stepper(100)
        state = st.initial_state()
        b = classes == NodeClass.BOUNDARY
        for _ in range(3):
            state = st.bfecc_step(state, grid.dx)
            assert np.all(state.ez[b] == 0.0)
            h_n = state.hx[b] * ls.normal_x[b] + state.hy[b] * ls.normal_y[b]
            assert np.abs(h_n).max() <= 1e-12

    def test_free_space_accuracy_improves_with_bfecc(self):
        grid, st = free_space_stepper(80)
        dt = grid.dx
        s_plain = plane_wave_state(grid)
        s_bfecc = plane_wave_state(grid)
        for _ in range(8):
            s_plain = st.plain_step(s_plain, dt)
            s_bfecc = st.bfecc_step(s_bfecc, dt)
        exact = incident_wave(grid.x, grid.y, s_plain.time, OMEGA)[2]
        inner = np.s_[1:-1, 1:-1]
        err_plain = np.abs(s_plain.ez[inner] - exact[inner]).mean()
        err_bfecc = np.abs(s_bfecc.ez[inner] - exact[inner]).mean()
        assert err_bfecc < 0.5 * err_plain


class TestStabilityBounds:
    """Von Neumann analysis of the uniform sweep from its own weights: the
    symbol is g = a +- i cfl sqrt(sin^2 al + sin^2 be); the plain scheme
    amplifies by |g|, BFECC by |g (3 - |g|^2) / 2|."""

    PLAIN = np.sqrt(2 / 5)
    BFECC = np.sqrt(4.6 + np.sqrt(10.92)) / 2

    @pytest.fixture(scope="class")
    def symbols(self):
        grid = build_uniform_grid(Domain(), 60, 60)
        _, w = FitTable.build(grid).stencil(np.array([30 * grid.ny + 30]))
        w = w[:, :, 0]
        theta = np.linspace(-np.pi, np.pi, 721)
        al, be = np.meshgrid(theta, theta, indexing="ij")
        phase = [np.exp(1j * (di * al + dj * be)) for di, dj in STENCIL_OFFSETS]
        dx_sym, dy_sym, avg = (sum(wk * p for wk, p in zip(row, phase))
                               for row in w)
        assert np.abs(avg.imag).max() <= 1e-15
        assert np.abs(dx_sym.real).max() <= 1e-12
        assert np.abs(dy_sym.real).max() <= 1e-12
        # |g|^2 = a^2 + cfl^2 s^2, with s^2 the dt^2-free part
        s2 = (np.abs(dx_sym) * grid.dx) ** 2 + (np.abs(dy_sym) * grid.dy) ** 2
        return avg.real, s2

    @staticmethod
    def max_amplification(symbols, cfl, scheme):
        a, s2 = symbols
        g2 = a ** 2 + cfl ** 2 * s2
        g = np.sqrt(g2)
        return float((g if scheme == "plain" else g * np.abs(3 - g2) / 2).max())

    def test_config_bounds_are_the_closed_forms(self):
        assert CFL_BOUNDS == {"plain": pytest.approx(self.PLAIN, abs=1e-15),
                              "bfecc": pytest.approx(self.BFECC, abs=1e-15)}
        assert self.PLAIN == pytest.approx(0.63246, abs=5e-6)
        assert self.BFECC == pytest.approx(1.40575, abs=5e-6)

    @pytest.mark.parametrize("scheme", ["plain", "bfecc"])
    def test_stable_below_the_bound_unstable_above(self, symbols, scheme):
        bound = self.PLAIN if scheme == "plain" else self.BFECC
        assert self.max_amplification(symbols, 0.995 * bound, scheme) <= 1 + 1e-12
        assert self.max_amplification(symbols, 1.005 * bound, scheme) > 1


class TestRunSimulation:
    def test_free_space_run_finishes_at_exact_time(self):
        cfg = SimulationConfig(shape="none", grid_size=40, final_time=0.5)
        state, setup = run_simulation(cfg)
        assert state.time == pytest.approx(0.5, abs=1e-12)
        assert np.isfinite(state.ez).all()

    def test_circle_run_stable_and_enforced(self):
        cfg = SimulationConfig(grid_size=50, final_time=0.4)
        state, setup = run_simulation(cfg)
        b = setup.classes == NodeClass.BOUNDARY
        assert np.all(state.ez[b] == 0.0)
        assert np.isfinite(state.hx).all()

    def test_deterministic_rerun_bitwise(self):
        cfg = SimulationConfig(grid_size=40, final_time=0.3)
        s1, _ = run_simulation(cfg)
        s2, _ = run_simulation(cfg)
        assert np.array_equal(s1.hx, s2.hx)
        assert np.array_equal(s1.hy, s2.hy)
        assert np.array_equal(s1.ez, s2.ez)

    def test_stability_sentinel(self):
        # A config with cfl 50 is rejected, so the unstable step is passed
        # to the stepper directly.
        setup = build_setup(SimulationConfig(shape="none", grid_size=24), 24)
        # The blow-up is the point: keep its overflow warnings quiet.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StabilityError, match="step"):
            setup.stepper.run(5000.0, 50 * setup.grid.dx)

    @pytest.mark.parametrize("final_time, dt, name", [
        (1.0, 0.0, "dt"), (1.0, -0.1, "dt"), (1.0, float("nan"), "dt"),
        (float("nan"), 0.1, "final_time"), (float("inf"), 0.1, "final_time"),
        (-1.0, 0.1, "final_time")])
    def test_run_rejects_a_march_that_cannot_end(self, final_time, dt, name):
        # Without the check a non-positive dt never reaches final_time;
        # the callback stops such a march instead of letting it hang.
        _, st = free_space_stepper(16)

        def stop(state, step):
            if step >= 3:
                raise AssertionError(f"marched to t={state.time}")

        with pytest.raises(ValueError, match=name):
            st.run(final_time, dt, on_step=stop)

    @pytest.mark.parametrize("entry", [run_simulation,
                                       lambda cfg: build_setup(cfg, 24)],
                             ids=["run_simulation", "build_setup"])
    def test_unstable_cfl_rejected_before_building(self, entry, monkeypatch):
        def no_build(*args):
            raise AssertionError("built a grid for a rejected config")

        monkeypatch.setattr(solver.lattice, "build_uniform_grid", no_build)
        cfg = SimulationConfig(shape="none", grid_size=24, scheme="plain",
                               cfl=1.0)
        with pytest.raises(ConfigError, match="cfl"):
            entry(cfg)

    # At these sizes the default half moon's tips are too thin to extend
    # into along the lattice axes: a wall node there is level with its
    # axis neighbours, and its causal row takes a diagonal neighbour. 305
    # also drops intersections far from their node.
    @pytest.mark.parametrize("n", [29, 35, 41, 127, 262, 305, 348])
    def test_half_moon_too_thin_to_extend_into(self, n):
        warns = (pytest.warns(UnderResolvedGeometryWarning) if n == 305
                 else contextlib.nullcontext())
        with warns:
            setup = build_setup(SimulationConfig(shape="half_moon"), n)
        read = setup.classes.ravel()[setup.stepper.extender.nodes]
        assert read.size
        assert set(read) <= {NodeClass.EXTERIOR, NodeClass.BOUNDARY}

    def test_stability_error_survives_pickling(self):
        # A study grid that blows up in a worker process sends this error
        # back through pickle.
        err = pickle.loads(pickle.dumps(StabilityError(3, 0.5)))
        assert isinstance(err, StabilityError)
        assert (err.step, err.time) == (3, 0.5)
        assert str(err) == "non-finite field values after step 3 (t=0.5)"

    def test_snapshot_callback_invoked(self):
        seen = []
        cfg = SimulationConfig(shape="none", grid_size=24, final_time=0.5)
        run_simulation(cfg, on_step=lambda s, k: seen.append(k))
        assert seen == list(range(1, len(seen) + 1))
        assert len(seen) >= 1


def assert_bfecc_is_the_sub_steps_written_out(grid, classes, fits, st):
    """Three BFECC steps of ``st`` equal forward, backward, compensate,
    forward written out with the whole-grid applies of ``fits``, each on
    fresh arrays, so any buffer bfecc_step reuses between sub-steps must
    not leak."""
    inside = (classes == NodeClass.GHOST) | (classes == NodeClass.DEEP_INTERIOR)
    keep = inside | ~fits.valid

    def fresh(s):
        return FieldState(s.hx.copy(), s.hy.copy(), s.ez.copy(), s.time)

    def ghosts_and_trace(s):
        st.enforce_boundary(s)
        st.extender.extend_fields(s.hx, s.hy, s.ez)
        return s

    def substep(s, dt):
        hx = fits.value(s.hx) - dt * fits.ddy(s.ez)
        hy = fits.value(s.hy) + dt * fits.ddx(s.ez)
        ez = fits.value(s.ez) + dt * fits.ddx(s.hy) - dt * fits.ddy(s.hx)
        for new, old in ((hx, s.hx), (hy, s.hy), (ez, s.ez)):
            new[keep] = old[keep]
        return st.apply_outer_boundary(FieldState(hx, hy, ez, s.time + dt))

    def bfecc(s, dt):
        u = ghosts_and_trace(fresh(s))
        back = substep(ghosts_and_trace(substep(u, dt)), -dt)
        comp = []
        for a, b in ((u.hx, back.hx), (u.hy, back.hy), (u.ez, back.ez)):
            err = 0.5 * (a - b)
            err[inside] = 0.0
            comp.append(a + err)
        comp = ghosts_and_trace(FieldState(*comp, u.time))
        return st.enforce_boundary(substep(comp, dt))

    state = want = st.initial_state()
    for _ in range(3):
        # The input keeps its values apart from the PEC trace and ghosts.
        given = ghosts_and_trace(fresh(state))
        want = bfecc(want, grid.dx)
        out = st.bfecc_step(state, grid.dx)
        assert out.time == want.time
        for name in ("hx", "hy", "ez"):
            assert np.array_equal(getattr(out, name), getattr(want, name))
            assert np.array_equal(getattr(state, name), getattr(given, name))
        state = out


def assert_in_place_sweep_equals_new_arrays(setup):
    """``sweep(s, dt, out=s)`` equals ``sweep(s, dt)`` bitwise on a random
    state, and kept (ghost, deep-interior, ring) nodes keep their values."""
    st, classes = setup.stepper, setup.classes
    rng = np.random.default_rng(5)
    s = FieldState(*(rng.normal(size=setup.grid.shape) for _ in range(3)), 0.2)
    want = st.sweep(s, setup.dt)
    given = FieldState(s.hx.copy(), s.hy.copy(), s.ez.copy(), s.time)
    assert st.sweep(s, setup.dt, out=s) is s
    assert s.time == want.time
    keep = ((classes == NodeClass.GHOST) | (classes == NodeClass.DEEP_INTERIOR)
            | ~setup.fits.valid)
    for name in ("hx", "hy", "ez"):
        assert np.array_equal(getattr(s, name), getattr(want, name))
        assert np.array_equal(getattr(s, name)[keep], getattr(given, name)[keep])


# 257-node blocks on a 60-node row: every block holds ring columns and a
# cut through rows, and the band of a shape spans several blocks, so
# wherever the two lanes meet, the band and the ring straddle that block.
LANE_BLOCK_NODES = 257


def lane_setup(shape, monkeypatch, n=60):
    monkeypatch.setattr(stencil, "BLOCK_NODES", LANE_BLOCK_NODES)
    setup = build_setup(SimulationConfig(shape=shape), n)
    assert len(setup.fits.blocks) > 2
    return setup


def random_state(grid, seed=7, t=0.2):
    rng = np.random.default_rng(seed)
    return FieldState(*(rng.normal(size=grid.shape) for _ in range(3)), t)


def copy_state(s):
    return FieldState(s.hx.copy(), s.hy.copy(), s.ez.copy(), s.time)


def assert_states_bitwise_equal(got, want):
    assert got.time == want.time
    for name in ("hx", "hy", "ez"):
        assert np.array_equal(getattr(got, name).view(np.uint64),
                              getattr(want, name).view(np.uint64)), name


def record_lanes(fits, monkeypatch, slow=None, fail=None):
    """Wrap the fit table's applies on this instance: record the lane of
    each block apply, sleep in lane ``slow`` and raise ``fail`` (a
    ``(lane, error)`` pair) in that lane. Return ``{lane: set of blocks}``."""
    seen: dict = {}
    for name in ("value", "ddx", "ddy"):
        apply = getattr(fits, name)

        def wrapped(u, out=None, block=None, lane=0, apply=apply):
            if block is not None:
                seen.setdefault(lane, set()).add(block)
            if fail is not None and lane == fail[0]:
                raise fail[1]
            if lane == slow:
                time.sleep(0.002)
            return apply(u, out, block, lane)
        monkeypatch.setattr(fits, name, wrapped)
    return seen


def cpus(monkeypatch, count):
    monkeypatch.setattr(solver, "usable_cpus", lambda: count)


class TestLanes:
    """Two lanes that meet in the middle give one lane's fields bitwise;
    the one-lane path, reached with one usable CPU, is the reference."""

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("shape", ["none", "circle", "half_moon"])
    def test_two_lanes_sweep_as_one(self, shape, sign, in_place, monkeypatch):
        setup = lane_setup(shape, monkeypatch)
        st, dt = setup.stepper, sign * setup.dt
        s = random_state(setup.grid)
        with monkeypatch.context() as m:
            cpus(m, 1)
            assert st.lanes() == 1
            want = st.sweep(copy_state(s), dt)
        cpus(monkeypatch, 2)
        assert st.lanes() == 2
        seen = record_lanes(st.fits, monkeypatch)
        given = copy_state(s)
        got = st.sweep(given, dt, given if in_place else None)
        assert (got is given) == in_place
        assert_states_bitwise_equal(got, want)
        assert_claims_meet(seen, len(st.fits.blocks))

    @pytest.mark.parametrize("shape", ["none", "circle", "half_moon"])
    def test_two_lanes_bfecc_step_as_one(self, shape, monkeypatch):
        setup = lane_setup(shape, monkeypatch)
        st = setup.stepper
        # A step changes its input's PEC trace and ghosts, so each result
        # is compared before it is stepped.
        with monkeypatch.context() as m:
            cpus(m, 1)
            state = st.initial_state()
            want = []
            for _ in range(3):
                state = st.bfecc_step(state, setup.dt)
                want.append(copy_state(state))
        cpus(monkeypatch, 2)
        state = st.initial_state()
        for w in want:
            state = st.bfecc_step(state, setup.dt)
            assert_states_bitwise_equal(state, w)

    @pytest.mark.parametrize("slow", [0, 1])
    def test_a_slow_lane_takes_fewer_blocks(self, slow, monkeypatch):
        # The fast lane claims nearly every block, so the lanes meet next
        # to the slow lane's end of the grid, and the fields are the same.
        setup = lane_setup("circle", monkeypatch)
        st = setup.stepper
        s = random_state(setup.grid)
        with monkeypatch.context() as m:
            cpus(m, 1)
            want = st.sweep(copy_state(s), setup.dt)
        cpus(monkeypatch, 2)
        seen = record_lanes(st.fits, monkeypatch, slow=slow)
        got = copy_state(s)
        assert_states_bitwise_equal(st.sweep(got, setup.dt, got), want)
        count = len(st.fits.blocks)
        assert_claims_meet(seen, count)
        assert len(seen.get(slow, ())) < count // 2

    def test_two_lanes_under_a_short_switch_interval(self, monkeypatch):
        setup = lane_setup("half_moon", monkeypatch)
        st = setup.stepper
        s = random_state(setup.grid)
        with monkeypatch.context() as m:
            cpus(m, 1)
            want = st.bfecc_step(copy_state(s), setup.dt)
        cpus(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = st.bfecc_step(copy_state(s), setup.dt)
        finally:
            sys.setswitchinterval(interval)
        assert_states_bitwise_equal(got, want)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        setup = lane_setup("circle", monkeypatch)
        st = setup.stepper
        cpus(monkeypatch, 2)
        before = threading.active_count()
        s = st.sweep(random_state(setup.grid), setup.dt)
        assert threading.active_count() == before
        st.bfecc_step(s, setup.dt)
        assert threading.active_count() == before
        during = []
        st.run(4 * setup.dt, setup.dt,
               on_step=lambda state, k: during.append(threading.active_count()))
        assert during == [before] * 4
        assert threading.active_count() == before

    @pytest.mark.parametrize("lane", [0, 1])
    def test_a_lane_fault_comes_out_as_itself(self, lane, monkeypatch):
        # The other lane is slow, so the failing lane claims a block.
        setup = lane_setup("circle", monkeypatch)
        st = setup.stepper
        cpus(monkeypatch, 2)
        error = RuntimeError(f"injected fault in lane {lane}")
        record_lanes(st.fits, monkeypatch, slow=1 - lane, fail=(lane, error))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            st.sweep(random_state(setup.grid), setup.dt)
        assert caught.value is error
        assert threading.active_count() == before

    def test_a_multi_block_setup_pickles(self, monkeypatch):
        setup = lane_setup("half_moon", monkeypatch)
        copy = pickle.loads(pickle.dumps(setup))
        assert copy.fits.blocks == setup.fits.blocks
        cpus(monkeypatch, 2)
        s = random_state(setup.grid)
        assert_states_bitwise_equal(copy.stepper.sweep(copy_state(s), setup.dt),
                                    setup.stepper.sweep(copy_state(s), setup.dt))

    def test_one_allowed_cpu_runs_one_lane(self, monkeypatch):
        setup = lane_setup("none", monkeypatch)
        st = setup.stepper
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert solver.usable_cpus() == 1 and st.lanes() == 1
        seen = record_lanes(st.fits, monkeypatch)
        st.bfecc_step(random_state(setup.grid), setup.dt)
        assert list(seen) == [0]

    @pytest.mark.parametrize("count, lanes", [(None, 1), (1, 1), (2, 2), (8, 2)])
    def test_cpu_count_without_an_affinity_mask(self, count, lanes,
                                                monkeypatch):
        setup = lane_setup("none", monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert setup.stepper.lanes() == lanes

    def test_one_block_runs_one_lane(self, monkeypatch):
        setup = build_setup(SimulationConfig(shape="circle"), 60)
        assert len(setup.fits.blocks) == 1
        cpus(monkeypatch, 2)
        assert setup.stepper.lanes() == 1


def assert_claims_meet(seen, count):
    """Lane 0 computed blocks 0..m and lane 1 blocks m+1..count-1."""
    front, back = seen.get(0, set()), seen.get(1, set())
    assert front == set(range(len(front)))
    assert back == set(range(len(front), count))


PIPE = os.pipe  # unpatched, for the test's own pipes


def take_in_lanes(claims, lanes, slow=None, fork=False):
    """The indices each lane takes from ``claims``: lane 0 on this thread,
    lane 1 on ``_in_lanes``' helper thread or, with ``fork``, in a forked
    child. Lane ``slow`` sleeps after each index."""
    def take(lane):
        taken = []
        for k in claims(lane):
            taken.append(k)
            if lane == slow:
                time.sleep(0.002)
        return taken

    if not fork:
        return solver._in_lanes(lanes, take)
    r, w = PIPE()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.write(w, bytes(take(1)))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    front = take(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    with open(r, "rb") as fh:
        return [front, list(fh.read())]


class TestLaneClaims:
    """``lane_claims`` hands every index to exactly one lane: lane 0 a
    prefix, lane 1 a suffix, between threads or across a fork."""

    @pytest.fixture
    def pipes(self, monkeypatch):
        """The pipes ``lane_claims`` makes, as ``(read, write)`` fds."""
        made = []

        def recording_pipe():
            made.append(PIPE())
            return made[-1]
        monkeypatch.setattr(os, "pipe", recording_pipe)
        return made

    @pytest.mark.parametrize("lanes, slow, fork", [
        (1, None, False), (2, None, False), (2, 0, False), (2, 1, False),
        (2, None, True), (2, 0, True), (2, 1, True)])
    def test_every_index_once_from_both_ends(self, lanes, slow, fork, pipes):
        for count in range(1, 41):
            with solver.lane_claims(count, lanes) as claims:
                taken = take_in_lanes(claims, lanes, slow, fork)
            front, back = (taken + [[]])[:2]
            assert front == list(range(len(front))), (count, taken)
            assert back == list(range(count - 1, len(front) - 1, -1)), (
                count, taken)
            if slow is not None and count == 40:
                assert len(taken[slow]) < count // 2, taken
        assert len(pipes) == (0 if lanes == 1 else 40)
        for fd in (fd for pair in pipes for fd in pair):
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_tokens_a_pipe_may_not_hold_raise(self, pipes):
        # 4096 tokens (one page) fill a pipe without blocking; one more,
        # or far more than any pipe holds, raises before a pipe is made.
        with solver.lane_claims(4098, 2) as claims:
            assert next(iter(claims(1))) == 4097
        for count in (4099, 1 << 22):
            with pytest.raises(ValueError, match="would block a pipe"):
                with solver.lane_claims(count, 2):
                    pass
        assert len(pipes) == 1


@pytest.mark.parametrize("shape", ["circle", "half_moon"])
def test_a_numpy_integer_size_steps_as_an_int(shape):
    config = SimulationConfig(shape=shape)
    states = []
    for n in (np.int64(60), 60):
        setup = build_setup(config, n)
        assert type(setup.grid.nx) is int and type(setup.grid.ny) is int
        states.append(setup.stepper.bfecc_step(setup.stepper.initial_state(),
                                               setup.dt))
    assert_states_bitwise_equal(*states)


@pytest.mark.parametrize("size", [60.0, "60"])
def test_a_size_that_is_not_an_integer_raises(size):
    with pytest.raises(TypeError, match=r"grid size .*60.* is not an integer"):
        build_setup(SimulationConfig(), size)
