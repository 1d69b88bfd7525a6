"""Signed distance function to the PEC boundary, with normals and tangents.

phi is positive inside the PEC object and exactly zero at shifted
(boundary) nodes. Redistancing evolves phi in pseudo-time until the
least-squares gradient magnitude settles at 1; normals point along
grad(phi), i.e. into the PEC, and tangents are normals rotated clockwise
by pi/2.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import GridTopology, NodeClass
from .shapes import Shape
from .stencil import FitTable

logger = logging.getLogger(__name__)

DEGENERATE_NORM = 1e-8

# Redistancing: pseudo-time step in dx, stopping threshold on the largest
# per-node update in dx, and the share of the 5-point fitted value mixed
# into each update. The blended fixed point depends on the ratio of blend
# to pseudo-CFL, so these are properties of the scheme, not run settings.
PSEUDO_CFL = 0.2
TOL = 1e-3
VALUE_BLEND = 0.2


class DegenerateNormalError(ValueError):
    pass


class RedistanceConvergenceWarning(UserWarning):
    pass


@dataclass
class LevelSetData:
    """Signed distance and unit frame per node (tangent = normal rotated
    clockwise: t = (n_y, -n_x))."""

    phi: np.ndarray
    normal_x: np.ndarray
    normal_y: np.ndarray
    tangent_x: np.ndarray
    tangent_y: np.ndarray


def smoothed_sign(x, dx: float):
    """sgn(x) = x / sqrt(x^2 + dx^2): smooth, odd, in (-1, 1)."""
    return x / np.sqrt(x * x + dx * dx)


def initialize_phi(shape: Shape, grid: GridTopology) -> np.ndarray:
    """Analytic sign-correct seed for redistancing (exact for the circle),
    with shifted boundary nodes forced to exactly zero."""
    phi = np.asarray(shape.level(grid.x, grid.y), dtype=float)
    phi[grid.shifted] = 0.0
    return phi


def gradient_with_edges(phi: np.ndarray, grid: GridTopology, fits: FitTable):
    """Least-squares gradient on the interior; on the outer ring, central
    differences with missing neighbors duplicated from the edge value."""
    gx = fits.ddx(phi)
    gy = fits.ddy(phi)
    p = np.pad(phi, 1, mode="edge")
    cx = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2 * grid.dx)
    cy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2 * grid.dy)
    for ring in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        gx[ring] = cx[ring]
        gy[ring] = cy[ring]
    return gx, gy


def redistance(phi0: np.ndarray,
               grid: GridTopology,
               classes: np.ndarray,
               fits: FitTable,
               band_halfwidth: Optional[float] = None,
               history: Optional[list] = None) -> np.ndarray:
    """Drive phi toward a signed distance function.

    Iterates ``phi <- phi - dtau * sgn(phi) * (||grad phi|| - 1)`` with
    least-squares gradients and ``dtau = PSEUDO_CFL * dx``, pinning
    boundary nodes to zero, until the largest per-node update falls below
    ``TOL * dx`` or after enough sweeps for the pseudo-time front to cross
    the grid once.

    ``VALUE_BLEND`` mixes the 5-point fitted value into the time term
    (``phi <- phi + blend*(fitted - phi) - ...``). The central-difference
    gradient needs some of that Lax-Friedrichs dissipation to stay stable
    at distance-function kinks (cone tips, crescent corners); full
    averaging (blend 1) shifts the equilibrium away from the true distance
    by about 2.5 dx^2, so the blend is kept small.

    ``band_halfwidth`` (in dx units) restricts updates to a band around
    the interface, leaving the seed untouched elsewhere. ``history``, when
    given, receives the largest update of every sweep.
    """
    h = max(grid.dx, grid.dy)
    dtau = PSEUDO_CFL * h
    max_iter = int(round(max(grid.nx, grid.ny) / PSEUDO_CFL))

    boundary = classes == NodeClass.BOUNDARY
    frozen = boundary.copy()
    # Ring nodes keep their analytic seed: the edge-duplicated stencil
    # cannot represent a unit gradient there, and the PEC band never
    # reads them.
    frozen[0, :] = frozen[-1, :] = True
    frozen[:, 0] = frozen[:, -1] = True
    if band_halfwidth is not None:
        frozen |= np.abs(phi0) > band_halfwidth * h

    phi = phi0.astype(float, copy=True)
    phi[boundary] = 0.0
    last_update = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gx, gy = gradient_with_edges(phi, grid, fits)
        norm = np.hypot(gx, gy)
        s = smoothed_sign(phi, h)
        update = -dtau * s * (norm - 1.0)
        update += VALUE_BLEND * (fits.value(phi) - phi)
        update[frozen] = 0.0
        phi += update
        phi[boundary] = 0.0
        last_update = float(np.abs(update).max())
        if history is not None:
            history.append(last_update)
        if last_update < TOL * h:
            break
    else:
        if last_update > 10 * TOL * h:
            warnings.warn(
                f"redistancing hit max_iter={max_iter} with max update "
                f"{last_update:.3e} > {10 * TOL * h:.3e}",
                RedistanceConvergenceWarning, stacklevel=2)
    logger.debug("redistance: %d iterations, final update %.3e",
                 iterations, last_update)
    return phi


def compute_normals_tangents(phi: np.ndarray,
                             grid: GridTopology,
                             fits: FitTable):
    """Unit normal n = grad(phi)/||grad(phi)|| and clockwise tangent
    t = (n_y, -n_x) at every node.

    A vanishing gradient within 2.5 dx of the interface is an error;
    farther away (e.g. the symmetric center of the object) the nearest
    valid normal is copied instead, since those nodes never feed a stencil
    that matters.
    """
    gx, gy = gradient_with_edges(phi, grid, fits)
    norm = np.hypot(gx, gy)
    bad = norm < DEGENERATE_NORM
    h = max(grid.dx, grid.dy)
    near = np.abs(phi) <= 2.5 * h
    if (bad & near).any():
        i, j = np.argwhere(bad & near)[0]
        raise DegenerateNormalError(
            f"degenerate gradient at node ({i}, {j}), phi={phi[i, j]:.3e}")

    nx_ = np.where(bad, 0.0, gx / np.where(bad, 1.0, norm))
    ny_ = np.where(bad, 0.0, gy / np.where(bad, 1.0, norm))
    if bad.any():
        _fill_from_neighbors(nx_, ny_, bad)
    tx = ny_.copy()
    ty = -nx_
    return nx_, ny_, tx, ty


def _fill_from_neighbors(nx_: np.ndarray, ny_: np.ndarray, bad: np.ndarray) -> None:
    """Copy the nearest valid normal into degenerate nodes, one lattice
    ring per pass."""
    missing = bad.copy()
    for _ in range(nx_.shape[0] + nx_.shape[1]):
        if not missing.any():
            return
        progressed = False
        for src, dst in (
                (np.s_[1:, :], np.s_[:-1, :]), (np.s_[:-1, :], np.s_[1:, :]),
                (np.s_[:, 1:], np.s_[:, :-1]), (np.s_[:, :-1], np.s_[:, 1:])):
            take = missing[dst] & ~missing[src]
            if take.any():
                nx_[dst][take] = nx_[src][take]
                ny_[dst][take] = ny_[src][take]
                missing[dst][take] = False
                progressed = True
        if not progressed:
            break
    if missing.any():
        raise DegenerateNormalError("no valid normals anywhere on the grid")


def build_levelset(phi0: np.ndarray,
                   grid: GridTopology,
                   classes: np.ndarray,
                   fits: FitTable) -> LevelSetData:
    """Redistance the seed ``phi0`` (see :func:`initialize_phi`) and derive
    the unit frame in one call."""
    phi = redistance(phi0, grid, classes, fits)
    nx_, ny_, tx, ty = compute_normals_tangents(phi, grid, fits)
    return LevelSetData(phi=phi, normal_x=nx_, normal_y=ny_,
                        tangent_x=tx, tangent_y=ty)
