"""Signed distance function to the PEC boundary, with unit normals.

phi is positive inside the PEC object and exactly zero at shifted
(boundary) nodes. Every boundary is made of the shape's arcs meeting at
its corners, so phi and its unit gradient come in closed form
from the nearest of these features. Normals point along grad(phi), i.e.
into the PEC; the tangent is derived where needed as the normal rotated
clockwise by pi/2, t = (n_y, -n_x), and not stored. The normal is exact
within FRAME_BAND h of the wall (h = max(dx, dy)) and zero elsewhere; the
PEC trace and the ghost extension read it within 2.5 h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import GridTopology
from .shapes import Shape, on_boundary
from .stencil import FitTable

FRAME_BAND = 3.0


@dataclass
class LevelSetData:
    """Signed distance and unit normal per node; the normal is zero beyond
    FRAME_BAND h. The tangent t = (n_y, -n_x) is derived, not stored."""

    phi: np.ndarray
    normal_x: np.ndarray
    normal_y: np.ndarray


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


def _nearest_feature(shape: Shape, x: np.ndarray, y: np.ndarray):
    """Distance from each point to the boundary of ``shape``, and the
    nearest feature: k for the arc ``shape.arcs[k]``,
    ``len(shape.arcs) + m`` for corner m.

    An arc counts where its circle's nearest point lies on the boundary,
    at distance |rho - r| (Osher & Fedkiw, Level Set Methods, 2003,
    ch. 7). At a circle's centre the point on the +x axis is tested. A
    point exactly on a corner keeps its nearest arc, whose normal exists.
    """
    dist = np.full(x.shape, np.inf)
    feature = np.zeros(x.shape, dtype=np.int8)
    for k, (c, _) in enumerate(shape.arcs):
        ex, ey = x - c.cx, y - c.cy
        rho = np.hypot(ex, ey)
        centre = rho == 0.0
        ex[centre] = 1.0
        s = c.r / np.where(centre, 1.0, rho)
        # c + s (x - c) and |rho - r| in place, sparing grid temporaries
        ex *= s
        ex += c.cx
        ey *= s
        ey += c.cy
        rho -= c.r
        nearer = on_boundary(shape, ex, ey) & (np.abs(rho, out=rho) < dist)
        np.copyto(dist, rho, where=nearer)
        feature[nearer] = k
    for m, (px, py) in enumerate(shape.corners, start=len(shape.arcs)):
        d = np.hypot(x - px, y - py)
        feature[(d < dist) & (d > 0.0)] = m
        np.minimum(dist, d, out=dist)
    return dist, feature


def redistance(shape: Shape, grid: GridTopology,
               history: Optional[list] = None) -> np.ndarray:
    """Exact signed distance to the boundary of ``shape`` at every node:
    the distance to the nearest arc or corner, with the sign of
    ``shape.level`` and shifted nodes exactly zero.

    On the circle this is ``Circle.level`` bit for bit. ``history``,
    when given, receives one entry: the largest |phi - level|.
    """
    level = shape.level(grid.x, grid.y)
    phi = np.sign(level) * _nearest_feature(shape, grid.x, grid.y)[0]
    phi[grid.shifted] = 0.0
    if history is not None:
        history.append(float(np.abs(phi - level).max()))
    return phi


def compute_normals_tangents(shape: Shape, phi: np.ndarray,
                             grid: GridTopology):
    """Unit normal ``(n_x, n_y)`` = grad(phi) from each node's nearest
    feature where |phi| <= FRAME_BAND h; zero elsewhere. The clockwise
    tangent t = (n_y, -n_x) is derived from it by its readers.

    On an arc ``(c, side)`` of ``shape.arcs``, n = -side (x - c)/rho: into
    c where the PEC lies inside it (+1), out of c where c is cut out of
    the PEC (-1). Near a corner p, n = sign(level) (x - p)/|x - p|.
    """
    band = np.abs(phi) <= FRAME_BAND * max(grid.dx, grid.dy)
    x, y = grid.x[band], grid.y[band]
    feature = _nearest_feature(shape, x, y)[1]
    points = np.array([(c.cx, c.cy, -side) for c, side in shape.arcs]
                      + [(px, py, 0.0) for px, py in shape.corners])
    px, py, sign = points[feature].T
    ex, ey = x - px, y - py
    d = np.hypot(ex, ey)
    ex[d == 0.0], d[d == 0.0] = 1.0, 1.0  # a circle's centre: +x
    corner = feature >= len(shape.arcs)
    sign[corner] = np.sign(shape.level(x[corner], y[corner]))
    nx_, ny_ = np.zeros(grid.shape), np.zeros(grid.shape)
    nx_[band], ny_[band] = sign * ex / d, sign * ey / d
    return nx_, ny_


def build_levelset(shape: Shape, phi: np.ndarray,
                   grid: GridTopology) -> LevelSetData:
    """Bundle ``phi`` (see :func:`redistance`) with its unit normal."""
    return LevelSetData(phi, *compute_normals_tangents(shape, phi, grid))
