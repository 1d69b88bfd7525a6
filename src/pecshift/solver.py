"""TMz Maxwell stepping on the shifted grid, wrapped in BFECC.

The underlying update replaces nodal values by 5-point fitted values and
derivatives by fitted gradients (a central-difference / Lax-Friedrichs
hybrid, first order by itself). BFECC runs it forward, backward in time,
and forward again with the compensated state, lifting the order to two
and relaxing the CFL bound. Ghost values are regenerated before every
sweep. The initial state and the outer ring come from one boundary-data
callable ``boundary_data(x, y, t) -> (hx, hy, ez)``; ``build_setup`` uses
the analytic incident wave, valid while the scattered field cannot yet
have reached the domain edge.

One rule, :func:`lane_claims`, shares work here and in the exporters'
forked writer: a front lane ascends and a back lane descends until they
meet, in two lanes only where ``usable_cpus() >= 2``. With 2+ blocks, each
sweep and BFECC compensation runs on this thread and a helper thread that
is joined before the call returns, bitwise as in one lane. No sweep writes
over its input: a BFECC step allocates one field set and reuses a spare.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import grid as lattice, levelset, shapes
from .extension import GhostExtender
from .grid import GridTopology, NodeClass
from .levelset import LevelSetData
from .stencil import LANES, FitTable

logger = logging.getLogger(__name__)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_lanes(lanes: int, work: Callable[[int], object]) -> list:
    """``[work(0), ..., work(lanes - 1)]``: lane 0 on this thread, lane 1
    (when ``lanes`` is 2) on a helper thread that is joined before this
    returns or raises. An exception of either lane is raised here as
    itself, this thread's first."""
    if lanes == 1:
        return [work(0)]
    helper: dict = {}

    def run_helper():
        try:
            helper["result"] = work(1)
        except BaseException as err:
            helper["error"] = err

    thread = threading.Thread(target=run_helper, name="pecshift-lane-1")
    thread.start()
    try:
        mine = work(0)
    finally:
        thread.join()
    if "error" in helper:
        raise helper["error"]
    return [mine, helper["result"]]


@contextlib.contextmanager
def lane_claims(count: int, lanes: int):
    """Yield ``claims(lane)``, the indices of ``range(count)`` that lane
    ``lane`` of ``lanes`` (1 or 2) takes: lane 0 takes 0, 1, ..., lane 1
    count-1, count-2, ..., each its first free and each further one for a
    token from a pipe of ``count - lanes``, so each index is taken once, by
    threads or across a fork. One lane takes ``range(count)``, with no
    pipe; more tokens than a pipe surely holds raise ValueError, not block."""
    if lanes == 1:
        yield lambda lane: range(count)
        return
    tokens = max(count - lanes, 0)
    if tokens > 4096:  # one page, the least a Linux pipe holds
        raise ValueError(f"{tokens} tokens would block a pipe of one page")
    r, w = os.pipe()
    with open(r, "rb", buffering=0) as pipe:
        with open(w, "wb") as fill:
            fill.write(bytes(tokens))

        def claims(lane):
            # lane 1 stops short of 0, which lane 0 takes free
            order = range(count) if lane == 0 else range(count - 1, 0, -1)
            for k in order:
                if k != order[0] and not pipe.read(1):
                    return
                yield k
        yield claims


class StabilityError(RuntimeError):
    """Non-finite field values after a step. ``args`` is ``(step, time)``,
    so the error survives pickling (e.g. out of a worker process)."""

    def __init__(self, step: int, time: float):
        super().__init__(step, time)
        self.step = step
        self.time = time

    def __str__(self) -> str:
        return (f"non-finite field values after step {self.step} "
                f"(t={self.time:.6g})")


@dataclass
class FieldState:
    """Collocated Hx, Hy, Ez over all nodes at one time level."""

    hx: np.ndarray
    hy: np.ndarray
    ez: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        for name in ("hx", "hy", "ez"):
            if not getattr(self, name).flags.c_contiguous:
                raise ValueError(f"FieldState.{name} must be C-contiguous; "
                                 "writes through its flat view would be lost")

    def copy(self) -> "FieldState":
        return FieldState(self.hx.copy(), self.hy.copy(), self.ez.copy(),
                          self.time)


def incident_wave(x, y, t: float, omega: float):
    """Plane wave travelling along +x: Ez = sin(w(x-t)), Hy = -Ez, Hx = 0."""
    ez = np.sin(omega * (np.asarray(x, dtype=float) - t))
    return 0.0 * ez, -ez, ez


class MaxwellStepper:
    """Sweeps, boundary enforcement, and the BFECC driver for one geometry.

    ``boundary_data(x, y, t)`` returns new ``(hx, hy, ez)`` arrays of the
    shape of ``x``: the field at points ``(x, y)`` and time ``t``. It gives
    the initial state and the outer ring; pass a module-level function or
    a ``functools.partial`` of one if the stepper is to be pickled.
    """

    def __init__(self, grid: GridTopology, classes: np.ndarray,
                 fits: FitTable, boundary_data: Callable[..., tuple],
                 extender: Optional[GhostExtender] = None):
        self.grid = grid
        self.fits = fits
        self.extender = extender
        self.boundary_data = boundary_data

        inside = (classes == NodeClass.GHOST) | (classes == NodeClass.DEEP_INTERIOR)
        self._inside_flat = np.flatnonzero(inside)
        # The ring is the complement of the fit table's interior.
        self._ring_flat = np.flatnonzero(~fits.valid)
        self._keep_flat = np.flatnonzero(inside | ~fits.valid)
        self._ring_x = grid.x.ravel()[self._ring_flat]
        self._ring_y = grid.y.ravel()[self._ring_flat]
        self._bnd_flat = np.flatnonzero(classes == NodeClass.BOUNDARY)
        if extender is not None:
            self._bnd_nx = extender.ls.normal_x.ravel()[self._bnd_flat].copy()
            self._bnd_ny = extender.ls.normal_y.ravel()[self._bnd_flat].copy()
        elif self._bnd_flat.size:
            raise ValueError("boundary nodes present but no ghost extender")
        # Per lane: one derivative term of a sweep's block. The spare field
        # set holds each BFECC step's backward sub-step and compensation.
        self._work = np.empty((LANES, max(hi - lo for lo, hi in fits.blocks)))
        self._spare = FieldState(*(np.empty(grid.shape) for _ in range(3)))

    # -- elementary operations -------------------------------------------

    def lanes(self) -> int:
        """Lanes of a sweep and a compensation: 2 when the fit table has 2
        or more blocks and this process may run on 2 or more CPUs, else 1."""
        return 2 if len(self.fits.blocks) >= 2 and usable_cpus() >= 2 else 1

    def sweep(self, state: FieldState, dt: float,
              out: Optional[FieldState] = None) -> FieldState:
        """One explicit update of all exterior and boundary nodes, written
        into ``out`` (new arrays when None), which is returned at time
        ``state.time + dt``. An ``out`` that shares memory with ``state``
        raises ValueError before any write.

        The update is ``A u + dt M u``: ``A`` is the 5-point fitted
        average, which does not depend on dt, and ``M`` the fitted Maxwell
        operator. Where the stencils are uniform (free space, 2 or more
        nodes from the ring) the two commute, so a forward sweep followed
        by a backward one gives ``A^2 u - dt^2 M^2 u``; its
        dt-independent O(dx^2) part ``(A^2 - I) u`` is what BFECC
        compensates.

        ``dt`` is signed: a backward sweep is the same call with ``-dt``.
        Ghost, deep-interior, and ring nodes keep their values.

        The update runs block by block over the fit table's ``blocks``, so
        a block's inputs and results stay in cache through all seven
        applies. Each node takes the fitted value, then adds or subtracts
        ``dt`` times each derivative term in turn, whatever the blocks, so
        the result is bitwise the whole-grid update. The blocks are shared
        by :meth:`lanes` lanes through :func:`lane_claims`, lane 0 (this
        thread) from the front and lane 1 (a helper thread) from the back,
        so the lane on the faster CPU takes more. Each lane writes its
        blocks straight into ``out``; once both are done, the kept nodes
        are copied from ``state``.
        """
        f = self.fits
        if out is None:
            out = FieldState(*(np.empty(self.grid.shape) for _ in range(3)))
        olds = (state.hx, state.hy, state.ez)
        if any(np.may_share_memory(new, old)
               for new in (out.hx, out.hy, out.ez) for old in olds):
            raise ValueError("out shares memory with state; the sweep would "
                             "read values it has already overwritten")
        results = [a.reshape(-1) for a in (out.hx, out.hy, out.ez)]

        def run_lane(lane):
            for k in claims(lane):
                lo, hi = f.blocks[k]
                work = self._work[lane, :hi - lo]

                def term(apply, u):
                    return np.multiply(apply(u, work, k, lane), dt, out=work)

                hx, hy, ez = new = [a[lo:hi] for a in results]
                for u, v in zip(olds, new):
                    f.value(u, v, k, lane)
                hx -= term(f.ddy, state.ez)
                hy += term(f.ddx, state.ez)
                ez += term(f.ddx, state.hy)
                ez -= term(f.ddy, state.hx)

        lanes = self.lanes()
        with lane_claims(len(f.blocks), lanes) as claims:
            _in_lanes(lanes, run_lane)
        for new, old in zip(results, olds):
            new[self._keep_flat] = old.reshape(-1)[self._keep_flat]
        out.time = state.time + dt
        return out

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
        """Overwrite the outermost ring with the boundary data at the
        state's current time (the only nodes without a full stencil)."""
        values = self.boundary_data(self._ring_x, self._ring_y, state.time)
        for arr, v in zip((state.hx, state.hy, state.ez), values):
            arr.reshape(-1)[self._ring_flat] = v
        return state

    def _substep(self, state: FieldState, dt: float,
                 out: Optional[FieldState] = None) -> FieldState:
        """One full step of the underlying scheme: PEC trace, ghosts, sweep
        (into ``out``, new arrays when None), then the outer ring at the
        new time. ``state`` is modified in place by the first two."""
        self.enforce_boundary(state)
        if self.extender is not None:
            self.extender.extend_fields(state.hx, state.hy, state.ez)
        return self.apply_outer_boundary(self.sweep(state, dt, out))

    # -- time stepping ----------------------------------------------------

    def bfecc_step(self, state: FieldState, dt: float) -> FieldState:
        """Forward, backward, compensate, forward; ghosts regenerated and
        the PEC trace enforced before every sweep.

        The outer ring is set to the boundary data after every sub-sweep,
        at that sub-sweep's time (t+dt, t, t+dt), so each sub-step is a
        full step of the underlying scheme, boundary data included. Ring
        data thereby reaches 2 rows inward per step.

        The forward sub-step writes into new arrays, the step's only
        full-grid allocation; the backward sub-step and the compensation
        fill the stepper's spare set, and the last forward sub-step writes
        from it into the new arrays, which are returned. So ``state`` is
        changed only by its PEC trace and ghosts, and no two returned
        states share memory.

        The compensated state ``u + 0.5 (u - back)`` is formed over whole
        arrays, inside nodes included, and needs no mask there: the
        ghost extension reads only exterior and boundary nodes and
        rewrites every ghost before the last sweep reads it, and no
        sub-step writes a deep-interior node, so those are equal in ``u``
        and ``back`` and keep their value. With two :meth:`lanes`, each
        lane forms one half of the flat arrays."""
        fwd = self._substep(state, dt)
        back = self._substep(fwd, -dt, self._spare)
        lanes = self.lanes()
        size = state.hx.size

        def compensate(lane):
            part = slice(size * lane // lanes, size * (lane + 1) // lanes)
            for u, b in ((state.hx, back.hx), (state.hy, back.hy),
                         (state.ez, back.ez)):
                u, b = u.reshape(-1)[part], b.reshape(-1)[part]
                np.subtract(u, b, out=b)
                b *= 0.5
                b += u

        _in_lanes(lanes, compensate)
        back.time = state.time
        return self.enforce_boundary(self._substep(back, dt, fwd))

    def plain_step(self, state: FieldState, dt: float) -> FieldState:
        """Single forward sweep of the underlying first-order scheme."""
        return self.enforce_boundary(self._substep(state, dt))

    def initial_state(self) -> FieldState:
        """Boundary data at t = 0 on exterior/boundary nodes, zero inside
        the PEC, with the PEC trace enforced."""
        hx, hy, ez = self.boundary_data(self.grid.x, self.grid.y, 0.0)
        for arr in (hx, hy, ez):
            arr.reshape(-1)[self._inside_flat] = 0.0
        state = FieldState(hx, hy, ez, 0.0)
        return self.enforce_boundary(state)

    def run(self, final_time: float, dt: float, scheme: str = "bfecc",
            on_step: Optional[Callable[[FieldState, int], None]] = None) -> FieldState:
        """March from t=0 to exactly final_time (last step shortened)."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        if not 0 <= final_time < np.inf:
            raise ValueError(f"final_time must be finite and non-negative, "
                             f"got {final_time!r}")
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

    The config is validated first, so a bad one (e.g. a ``cfl`` above the
    scheme's stability bound) raises ``ConfigError`` before anything is
    built. The geometry stages are called through their modules, so
    wrappers installed on those module attributes (tracing, profiling)
    see them."""
    config.validate()
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
        phi = levelset.redistance(shape, grid)
        classes = lattice.classify_nodes(grid, phi)
        ls = levelset.build_levelset(shape, phi, grid)
        extender = GhostExtender(grid, ls, classes, fits)
    stepper = MaxwellStepper(grid, classes, fits,
                             functools.partial(incident_wave, omega=config.omega),
                             extender=extender)
    return SimulationSetup(grid=grid, classes=classes, fits=fits, ls=ls,
                           stepper=stepper,
                           dt=config.cfl * min(grid.dx, grid.dy))


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
