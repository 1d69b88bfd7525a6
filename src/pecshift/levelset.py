"""Signed distance function to the PEC boundary, with normals and tangents.

phi is positive inside the PEC object and exactly zero at shifted
(boundary) nodes. Every boundary is made of arcs of the shape's circles
meeting at its corners, so phi is computed in closed form from them.
Normals point along grad(phi), i.e. into the PEC, and tangents are
normals rotated clockwise by pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import GridTopology
from .shapes import Shape
from .stencil import FitTable

DEGENERATE_NORM = 1e-8


class DegenerateNormalError(ValueError):
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


def redistance(shape: Shape, grid: GridTopology,
               history: Optional[list] = None) -> np.ndarray:
    """Exact signed distance to the boundary of ``shape`` at every node,
    with the sign of ``shape.level`` and shifted nodes exactly zero.

    A node's distance to the boundary is the smaller of two terms
    (Osher & Fedkiw, Level Set Methods, 2003, ch. 7): |rho - r| for each
    circle whose nearest point to the node lies on the boundary (|level|
    there within 1e-12 of the largest radius), and the distance to each
    corner. On the circle this is ``Circle.level`` bit for bit. At a
    circle's centre every point of it is nearest, and the point on the
    +x axis is tested. ``history``, when given, receives one entry: the
    largest |phi - level|.
    """
    x, y = grid.x, grid.y
    level = shape.level(x, y)
    tol = 1e-12 * max(c.r for c in shape.circles)
    dist = np.full(grid.shape, np.inf)
    for c in shape.circles:
        ex, ey = x - c.cx, y - c.cy
        rho = np.hypot(ex, ey)
        centre = rho == 0.0
        ex[centre] = 1.0
        s = c.r / np.where(centre, 1.0, rho)
        on_boundary = np.abs(shape.level(c.cx + s * ex, c.cy + s * ey)) <= tol
        dist[on_boundary] = np.minimum(dist, np.abs(rho - c.r))[on_boundary]
    for px, py in shape.corners:
        dist = np.minimum(dist, np.hypot(x - px, y - py))
    phi = np.sign(level) * dist
    phi[grid.shifted] = 0.0
    if history is not None:
        history.append(float(np.abs(phi - level).max()))
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


def build_levelset(phi: np.ndarray, grid: GridTopology,
                   fits: FitTable) -> LevelSetData:
    """Bundle ``phi`` (see :func:`redistance`) with its unit frame."""
    nx_, ny_, tx, ty = compute_normals_tangents(phi, grid, fits)
    return LevelSetData(phi=phi, normal_x=nx_, normal_y=ny_,
                        tangent_x=tx, tangent_y=ty)
