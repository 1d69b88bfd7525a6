"""Second order next to a curved PEC wall, against an exact solution.

Outside a circle of radius R centred at (5, 5) (R = 2 by default) the
standing wave
``Ez = f(r) cos(wt)``, ``f = J0(kr) Y0(kR) - Y0(kr) J0(kR)``,
``Hx = -df/dy sin(wt) / w``, ``Hy = df/dx sin(wt) / w`` (k = w) solves
the TMz equations for all t, with Ez = 0 and H.n = 0 on r = R. It needs
no reference run. At wavelength 2 the grids 100, 200 and 400 resolve it
with 20, 40 and 80 points per wavelength, inside the asymptotic regime.
"""

import dataclasses

import numpy as np
import pytest
from scipy.special import j0, j1, y0, y1

from pecshift.config import SimulationConfig
from pecshift.grid import NodeClass
from pecshift.solver import FieldState, MaxwellStepper, build_setup

K = np.pi          # k = omega, wavelength 2
R = 2.0
CENTER = 5.0
NEAR_WALL = 0.61   # error sampled where -0.61 <= phi <= 0
CONFIG = SimulationConfig(omega=K, final_time=1.0, cfl=1.0)


def standing_wave(x, y, t, radius=R):
    """Exact (hx, hy, ez) at points (x, y) outside the circle, time t."""
    dx, dy = x - CENTER, y - CENTER
    r = np.hypot(dx, dy)
    kr = K * radius
    f = j0(K * r) * y0(kr) - y0(K * r) * j0(kr)
    df_dr = K * (y1(K * r) * j0(kr) - j1(K * r) * y0(kr))
    s = np.sin(K * t) / K
    return -df_dr * dy / r * s, df_dr * dx / r * s, f * np.cos(K * t)


class StandingWaveStepper(MaxwellStepper):
    """Ring and initial state from the exact standing wave."""

    def __init__(self, *args, radius=R, **kwargs):
        self.radius = radius
        super().__init__(*args, **kwargs)

    def apply_outer_boundary(self, state):
        ring = self._ring_flat
        exact = standing_wave(self.grid.x.ravel()[ring],
                              self.grid.y.ravel()[ring], state.time,
                              self.radius)
        for arr, values in zip((state.hx, state.hy, state.ez), exact):
            arr.reshape(-1)[ring] = values
        return state

    def initial_state(self):
        hx, hy, ez = standing_wave(self.grid.x, self.grid.y, 0.0,
                                   self.radius)
        for arr in (hx, hy, ez):
            arr.reshape(-1)[self._inside_flat] = 0.0
        return self.enforce_boundary(FieldState(hx, hy, ez, 0.0))


def wall_errors(n, radius=R):
    """(Ez L1, Hx L1, Ez max) at T over exterior and boundary nodes with
    phi >= -NEAR_WALL."""
    config = dataclasses.replace(CONFIG, circle_radius=radius)
    setup = build_setup(config, n)
    stepper = StandingWaveStepper(setup.grid, setup.classes, setup.fits,
                                  omega=config.omega,
                                  extender=setup.stepper.extender,
                                  radius=radius)
    state = stepper.run(config.final_time, setup.dt)
    outside = np.isin(setup.classes, (NodeClass.EXTERIOR, NodeClass.BOUNDARY))
    mask = outside & (setup.ls.phi >= -NEAR_WALL)
    hx, _, ez = standing_wave(setup.grid.x[mask], setup.grid.y[mask],
                              state.time, radius)
    err_ez = np.abs(state.ez[mask] - ez)
    return (float(err_ez.mean()), float(np.abs(state.hx[mask] - hx).mean()),
            float(err_ez.max()))


@pytest.fixture(scope="module")
def errors():
    return np.array([wall_errors(n) for n in (100, 200, 400)])


def test_second_order_next_to_the_wall(errors):
    orders = np.log2(errors[:-1] / errors[1:])  # rows: 100->200, 200->400
    assert (orders >= 1.8).all(), orders


def test_errors_at_400(errors):
    # 1.05 x the errors of the Lax-Friedrichs band transport this
    # extension replaced: 5.37e-5, 1.555e-4 and 1.257e-4
    bounds = 1.05 * np.array([5.37e-5, 1.555e-4, 1.257e-4])
    assert (errors[-1] <= bounds).all(), errors[-1]


@pytest.mark.xfail(strict=True, reason="first-order wall term, ROADMAP item 1")
def test_second_order_next_to_a_unit_circle():
    # R = 1 doubles the curvature; the wall term the ghost extension
    # leaves shows up over 200 -> 400 (Ez L1 order about 1.4)
    errors = np.array([wall_errors(n, radius=1.0) for n in (100, 200, 400)])
    orders = np.log2(errors[:-1, :2] / errors[1:, :2])
    assert (orders >= 1.8).all(), orders
