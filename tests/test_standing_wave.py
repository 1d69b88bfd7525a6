"""Second order next to a curved PEC wall, against an exact solution.

Outside a circle of radius R centred at (5, 5) (R = 2 by default) the
standing wave
``Ez = f(r) cos(wt)``, ``f = J0(kr) Y0(kR) - Y0(kr) J0(kR)``,
``Hx = -df/dy sin(wt) / w``, ``Hy = df/dx sin(wt) / w`` (k = w) solves
the TMz equations for all t, with Ez = 0 and H.n = 0 on r = R. It needs
no reference run. At wavelength 2 the grids 100, 200 and 400 resolve it
with 20, 40 and 80 points per wavelength, inside the asymptotic regime.
The same field checks the ghost extension alone, from exact data at
every node. Its H is purely tangential, so the odd H.n extension is
checked on the azimuthal mode m = 2 (``azimuthal_wave``), whose H.n is
zero only on the wall.
"""

import dataclasses
import functools

import numpy as np
import pytest
from scipy.special import j0, j1, jv, jvp, y0, y1, yv, yvp

from pecshift.config import SimulationConfig
from pecshift.extension import decompose
from pecshift.grid import NodeClass
from pecshift.solver import MaxwellStepper, build_setup

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


def azimuthal_wave(x, y, t, m=2):
    """Exact (hx, hy, ez) of the mode ``F = f(r) cos(m theta)``,
    ``f = J_m(kr) Y_m(kR) - Y_m(kr) J_m(kR)``: ``Ez = F cos(wt)``,
    ``Hx = -dF/dy sin(wt) / w``, ``Hy = dF/dx sin(wt) / w``."""
    dx, dy = x - CENTER, y - CENTER
    r = np.hypot(dx, dy)
    kr = K * R
    f = jv(m, K * r) * yv(m, kr) - yv(m, K * r) * jv(m, kr)
    df_dr = K * (jvp(m, K * r) * yv(m, kr) - yvp(m, K * r) * jv(m, kr))
    theta = np.arctan2(dy, dx)
    c, s = np.cos(m * theta), np.sin(m * theta)
    df_dx = (df_dr * c * dx + m * f * s * dy / r) / r
    df_dy = (df_dr * c * dy - m * f * s * dx / r) / r
    st = np.sin(K * t) / K
    return -df_dy * st, df_dx * st, f * c * np.cos(K * t)


def wall_errors(n, radius=R):
    """(Ez L1, Hx L1, Ez max) at T over exterior and boundary nodes with
    phi >= -NEAR_WALL."""
    config = dataclasses.replace(CONFIG, circle_radius=radius)
    setup = build_setup(config, n)
    stepper = MaxwellStepper(setup.grid, setup.classes, setup.fits,
                             functools.partial(standing_wave, radius=radius),
                             extender=setup.stepper.extender)
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


def ghost_field_errors(n, wave, t=0.3):
    """Largest (Ez, H.n, H.t) error at the ghost nodes after one
    ``extend_fields`` of the exact field ``wave`` at time t on every node."""
    setup = build_setup(CONFIG, n)
    extender = setup.stepper.extender
    exact = wave(setup.grid.x, setup.grid.y, t)
    hx, hy, ez = (a.copy() for a in exact)
    extender.extend_fields(hx, hy, ez)
    g = extender.ghost_flat
    err_hx, err_hy, err_ez = (got.ravel()[g] - want.ravel()[g]
                              for got, want in zip((hx, hy, ez), exact))
    err_perp, err_par = decompose(err_hx, err_hy, extender.ghost)
    return np.abs(err_ez).max(), np.abs(err_perp).max(), np.abs(err_par).max()


@pytest.fixture(scope="module")
def ghost_orders():
    """Orders over 100 -> 200 -> 400; rows are intervals, columns Ez, H.t.
    Set-up only: no march. H.n is not checked: this field's H is purely
    tangential, so its H.n ghost error is at roundoff."""
    errors = np.array([ghost_field_errors(n, standing_wave)[::2]
                       for n in (100, 200, 400)])
    return np.log2(errors[:-1] / errors[1:])


def test_ghost_ez_second_order(ghost_orders):
    assert (ghost_orders[:, 0] >= 1.8).all(), ghost_orders


@pytest.mark.xfail(strict=True, reason="H.t mirrored into the ghost, first-"
                   "order on a curved wall: ROADMAP item 1")
def test_ghost_tangential_h_second_order(ghost_orders):
    assert (ghost_orders[:, 1] >= 1.8).all(), ghost_orders


def test_ghost_normal_h_of_an_azimuthal_mode():
    # H.n ghost errors of m = 2 at R = 2, t = 0.3 (set-up only, no march):
    # 1.97e-3, 4.55e-4 and 1.27e-4 at 100, 200 and 400, orders 2.11 and
    # 1.84; it does not depend on how H.t is extended.
    errors = np.array([ghost_field_errors(n, azimuthal_wave)[1]
                       for n in (100, 200, 400)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert (orders >= 1.5).all(), (errors, orders)
    assert errors[-1] < 1.5e-4, errors
