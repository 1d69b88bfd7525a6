"""TMz Maxwell stepping on the shifted grid, wrapped in BFECC.

The underlying update replaces nodal values by 5-point fitted values and
derivatives by fitted gradients (a central-difference / Lax-Friedrichs
hybrid, first order by itself). BFECC runs it forward, backward in time,
and forward again with the compensated state, lifting the order to two
and relaxing the CFL bound. Ghost values are regenerated before every
sweep; the outer ring follows the analytic incident wave, valid while the
scattered field cannot yet have reached the domain edge.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import grid as lattice, levelset, shapes
from .extension import GhostExtender
from .grid import GridTopology, NodeClass
from .levelset import LevelSetData
from .stencil import FitTable

logger = logging.getLogger(__name__)

FORWARD = "forward"
BACKWARD = "backward"


class StabilityError(RuntimeError):
    def __init__(self, step: int, time: float):
        super().__init__(f"non-finite field values after step {step} (t={time:.6g})")
        self.step = step
        self.time = time


@dataclass
class FieldState:
    """Collocated Hx, Hy, Ez over all nodes at one time level."""

    hx: np.ndarray
    hy: np.ndarray
    ez: np.ndarray
    time: float = 0.0

    def copy(self) -> "FieldState":
        return FieldState(self.hx.copy(), self.hy.copy(), self.ez.copy(),
                          self.time)


def incident_wave(x, y, t: float, omega: float):
    """Plane wave travelling along +x: Ez = sin(w(x-t)), Hy = -Ez, Hx = 0."""
    ez = np.sin(omega * (np.asarray(x, dtype=float) - t))
    return 0.0 * ez, -ez, ez


class MaxwellStepper:
    """Sweeps, boundary enforcement, and the BFECC driver for one geometry."""

    def __init__(self, grid: GridTopology, classes: np.ndarray,
                 fits: FitTable, ls: Optional[LevelSetData] = None,
                 extender: Optional[GhostExtender] = None,
                 omega: float = 2 * np.pi / 0.6):
        self.grid = grid
        self.classes = classes
        self.fits = fits
        self.ls = ls
        self.extender = extender
        self.omega = omega

        inside = (classes == NodeClass.GHOST) | (classes == NodeClass.DEEP_INTERIOR)
        self._inside_flat = np.flatnonzero(inside)
        self._bnd_flat = np.flatnonzero(classes == NodeClass.BOUNDARY)
        if ls is not None:
            self._bnd_nx = ls.normal_x.ravel()[self._bnd_flat].copy()
            self._bnd_ny = ls.normal_y.ravel()[self._bnd_flat].copy()
        elif self._bnd_flat.size:
            raise ValueError("boundary nodes present but no level-set data")
        ring = np.zeros(grid.shape, dtype=bool)
        ring[0, :] = ring[-1, :] = True
        ring[:, 0] = ring[:, -1] = True
        self._ring_flat = np.flatnonzero(ring)
        self._ring_x = grid.x.ravel()[self._ring_flat].copy()
        self._scratch = [np.zeros(grid.shape) for _ in range(4)]

    # -- elementary operations -------------------------------------------

    def sweep(self, state: FieldState, direction: str, dt: float) -> FieldState:
        """One explicit update of all exterior and boundary nodes.

        The update is ``A u + dt M u``: ``A`` is the 5-point fitted
        average, which does not depend on dt, and ``M`` the fitted Maxwell
        operator. Where the stencils are uniform (free space, 2 or more
        nodes from the ring) the two commute, so a forward sweep followed
        by a backward one gives ``A^2 u - dt^2 M^2 u``; its
        dt-independent O(dx^2) part ``(A^2 - I) u`` is what BFECC
        compensates.

        The backward direction applies the identical operator with the
        spatial terms negated, i.e. sweep(s, backward, dt) is bit-identical
        to sweep(s, forward, -dt). Ghost, deep-interior, and ring nodes
        keep their values.
        """
        if direction == FORWARD:
            sdt = dt
        elif direction == BACKWARD:
            sdt = -dt
        else:
            raise ValueError(f"unknown direction {direction!r}")
        f = self.fits
        v_hx, v_hy, v_ez, g = self._scratch
        v_hx = f.value(state.hx, v_hx)
        v_hy = f.value(state.hy, v_hy)
        v_ez = f.value(state.ez, v_ez)

        new_hx = v_hx - sdt * f.ddy(state.ez, g)
        new_hy = v_hy + sdt * f.ddx(state.ez, g)
        new_ez = v_ez + sdt * f.ddx(state.hy, g)
        new_ez -= sdt * f.ddy(state.hx, g)

        for new, old in ((new_hx, state.hx), (new_hy, state.hy),
                         (new_ez, state.ez)):
            flat_new, flat_old = new.reshape(-1), old.reshape(-1)
            flat_new[self._inside_flat] = flat_old[self._inside_flat]
            flat_new[self._ring_flat] = flat_old[self._ring_flat]
        return FieldState(new_hx, new_hy, new_ez, state.time + sdt)

    def enforce_boundary(self, state: FieldState) -> FieldState:
        """Set Ez = 0 and remove the normal H component at boundary nodes."""
        b = self._bnd_flat
        if b.size:
            hx, hy = state.hx.reshape(-1), state.hy.reshape(-1)
            state.ez.reshape(-1)[b] = 0.0
            h_n = hx[b] * self._bnd_nx + hy[b] * self._bnd_ny
            hx[b] -= h_n * self._bnd_nx
            hy[b] -= h_n * self._bnd_ny
        return state

    def apply_outer_boundary(self, state: FieldState) -> FieldState:
        """Overwrite the outermost ring with the incident wave at the
        state's current time (the only nodes without a full stencil)."""
        ihx, ihy, iez = incident_wave(self._ring_x, None, state.time, self.omega)
        state.hx.reshape(-1)[self._ring_flat] = ihx
        state.hy.reshape(-1)[self._ring_flat] = ihy
        state.ez.reshape(-1)[self._ring_flat] = iez
        return state

    def _extend(self, state: FieldState) -> None:
        if self.extender is not None:
            self.extender.extend_fields(state.hx, state.hy, state.ez)

    # -- time stepping ----------------------------------------------------

    def bfecc_step(self, state: FieldState, dt: float) -> FieldState:
        """Forward, backward, compensate, forward; ghosts regenerated and
        the PEC trace enforced before every sweep.

        The outer ring is set to the incident wave after every sub-sweep,
        at that sub-sweep's time (t+dt, t, t+dt), so each sub-step is a
        full step of the underlying scheme, boundary data included. Ring
        data thereby reaches 2 rows inward per step."""
        self.enforce_boundary(state)
        self._extend(state)
        mid = self.sweep(state, FORWARD, dt)
        self.apply_outer_boundary(mid)

        self.enforce_boundary(mid)
        self._extend(mid)
        back = self.sweep(mid, BACKWARD, dt)
        self.apply_outer_boundary(back)

        comp = state.copy()
        for arr, u, ub in ((comp.hx, state.hx, back.hx),
                           (comp.hy, state.hy, back.hy),
                           (comp.ez, state.ez, back.ez)):
            err = 0.5 * (u - ub)
            err.reshape(-1)[self._inside_flat] = 0.0
            arr += err
        self.enforce_boundary(comp)
        self._extend(comp)
        out = self.sweep(comp, FORWARD, dt)
        self.apply_outer_boundary(out)
        return self.enforce_boundary(out)

    def plain_step(self, state: FieldState, dt: float) -> FieldState:
        """Single forward sweep of the underlying first-order scheme."""
        self.enforce_boundary(state)
        self._extend(state)
        out = self.sweep(state, FORWARD, dt)
        self.apply_outer_boundary(out)
        return self.enforce_boundary(out)

    def initial_state(self) -> FieldState:
        """Incident wave at exterior/boundary nodes, zero inside the PEC,
        with the PEC trace enforced."""
        hx, hy, ez = incident_wave(self.grid.x, self.grid.y, 0.0, self.omega)
        for arr in (hx, hy, ez):
            arr.reshape(-1)[self._inside_flat] = 0.0
        state = FieldState(hx, hy, ez, 0.0)
        return self.enforce_boundary(state)

    def run(self, final_time: float, dt: float, scheme: str = "bfecc",
            on_step: Optional[Callable[[FieldState, int], None]] = None) -> FieldState:
        """March from t=0 to exactly final_time (last step shortened)."""
        if scheme == "bfecc":
            advance = self.bfecc_step
        elif scheme == "plain":
            advance = self.plain_step
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        state = self.initial_state()
        step = 0
        while state.time < final_time - 1e-12 * max(final_time, 1.0):
            step_dt = min(dt, final_time - state.time)
            state = advance(state, step_dt)
            step += 1
            if not (np.isfinite(state.hx).all() and np.isfinite(state.hy).all()
                    and np.isfinite(state.ez).all()):
                raise StabilityError(step, state.time)
            if on_step is not None:
                on_step(state, step)
        return state


@dataclass
class SimulationSetup:
    """Static geometry and operators for one grid size."""

    grid: GridTopology
    classes: np.ndarray
    fits: FitTable
    ls: Optional[LevelSetData]
    stepper: MaxwellStepper
    dt: float


def build_setup(config, n: int) -> SimulationSetup:
    """Grid, point shift, level set, fit operators, and stepper for size n.

    The geometry stages are called through their modules, so wrappers
    installed on those module attributes (tracing, profiling) see them."""
    domain = config.domain()
    shape = config.make_shape()
    grid = lattice.build_uniform_grid(domain, n, n)
    if shape is not None:
        pts = shapes.boundary_intersections(shape, grid.lattice_x(),
                                            grid.lattice_y())
        grid = lattice.apply_point_shift(grid, pts)
    fits = FitTable.build(grid)

    if shape is None:
        classes = np.zeros(grid.shape, dtype=np.int8)
        ls = None
        extender = None
    else:
        classes = lattice.classify_nodes(grid,
                                         levelset.initialize_phi(shape, grid))
        ls = levelset.build_levelset(shape, grid, classes, fits=fits)
        extender = GhostExtender(grid, ls, classes, fits)
    stepper = MaxwellStepper(grid, classes, fits, ls=ls, extender=extender,
                             omega=config.omega)
    return SimulationSetup(grid=grid, classes=classes, fits=fits, ls=ls,
                           stepper=stepper, dt=config.cfl * grid.dx)


def run_simulation(config, n: Optional[int] = None,
                   on_step: Optional[Callable[[FieldState, int], None]] = None
                   ) -> tuple[FieldState, SimulationSetup]:
    """Full pipeline: build the geometry for grid size ``n`` (default from
    the config) and march to the configured final time."""
    size = n if n is not None else config.grid_size
    setup = build_setup(config, size)
    logger.info("running %s scheme on %dx%d grid, dt=%.6g, T=%g",
                config.scheme, size, size, setup.dt, config.final_time)
    state = setup.stepper.run(config.final_time, setup.dt,
                              scheme=config.scheme, on_step=on_step)
    return state, setup
