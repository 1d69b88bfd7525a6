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
from .shapes import Shape, interior_function
from .stencil import FitTable

logger = logging.getLogger(__name__)

DEGENERATE_NORM = 1e-8


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
    phi = np.asarray(interior_function(shape, grid.x, grid.y), dtype=float)
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
               fits: Optional[FitTable] = None,
               pseudo_cfl: float = 0.2,
               tol: float = 1e-3,
               max_iter: Optional[int] = None,
               band_halfwidth: Optional[float] = None,
               value_blend: float = 0.2,
               history: Optional[list] = None) -> np.ndarray:
    """Drive phi toward a signed distance function.

    Iterates ``phi <- phi - dtau * sgn(phi) * (||grad phi|| - 1)`` with
    least-squares gradients and ``dtau = pseudo_cfl * dx``, pinning
    boundary nodes to zero, until the largest per-node update falls below
    ``tol * dx`` or ``max_iter`` sweeps.

    ``value_blend`` mixes the 5-point fitted value into the time term
    (``phi <- phi + blend*(fitted - phi) - ...``). The central-difference
    gradient needs some of that Lax-Friedrichs dissipation to stay stable
    at distance-function kinks (cone tips, crescent corners); full
    averaging (blend 1) shifts the equilibrium away from the true distance
    by about 2.5 dx^2, so the default keeps the blend small.

    ``band_halfwidth`` (in dx units) restricts updates to a band around
    the interface, leaving the seed untouched elsewhere.
    """
    if not 0.0 <= value_blend <= 1.0:
        raise ValueError(f"value_blend must lie in [0, 1], got {value_blend}")
    if fits is None:
        fits = FitTable.build(grid)
    h = max(grid.dx, grid.dy)
    dtau = pseudo_cfl * h
    if max_iter is None:
        max_iter = int(round((10 / pseudo_cfl) * max(grid.nx, grid.ny) / 10))

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
        if value_blend > 0.0:
            update += value_blend * (fits.value(phi) - phi)
        update[frozen] = 0.0
        phi += update
        phi[boundary] = 0.0
        last_update = float(np.abs(update).max())
        if history is not None:
            history.append(last_update)
        if last_update < tol * h:
            break
    else:
        if last_update > 10 * tol * h:
            warnings.warn(
                f"redistancing hit max_iter={max_iter} with max update "
                f"{last_update:.3e} > {10 * tol * h:.3e}",
                RedistanceConvergenceWarning, stacklevel=2)
    logger.debug("redistance: %d iterations, final update %.3e",
                 iterations, last_update)
    return phi


def compute_normals_tangents(phi: np.ndarray,
                             grid: GridTopology,
                             fits: Optional[FitTable] = None):
    """Unit normal n = grad(phi)/||grad(phi)|| and clockwise tangent
    t = (n_y, -n_x) at every node.

    A vanishing gradient within 2.5 dx of the interface is an error;
    farther away (e.g. the symmetric center of the object) the nearest
    valid normal is copied instead, since those nodes never feed a stencil
    that matters.
    """
    if fits is None:
        fits = FitTable.build(grid)
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


def build_levelset(shape: Shape,
                   grid: GridTopology,
                   classes: np.ndarray,
                   fits: Optional[FitTable] = None) -> LevelSetData:
    """Initialize, redistance with the default settings, and derive the
    unit frame in one call."""
    if fits is None:
        fits = FitTable.build(grid)
    phi = initialize_phi(shape, grid)
    phi = redistance(phi, grid, classes, fits=fits)
    nx_, ny_, tx, ty = compute_normals_tangents(phi, grid, fits=fits)
    return LevelSetData(phi=phi, normal_x=nx_, normal_y=ny_,
                        tangent_x=tx, tangent_y=ty)
