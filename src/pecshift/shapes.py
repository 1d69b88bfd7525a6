"""Analytic PEC cross-section shapes and their lattice intersections.

Shapes are closed curves with an interior. Supported: a circle, and a
"half moon" crescent (outer disk minus a cutter disk, bounded by two arcs
meeting at two sharp corners). ``None`` stands for free space. A shape's
``arcs`` (see ``Shape``) are the one place that says which side is PEC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangular computational domain."""

    xmin: float = 0.0
    xmax: float = 10.0
    ymin: float = 0.0
    ymax: float = 10.0

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    def level(self, x, y):
        """Exact signed distance to the circle, positive inside."""
        return self.r - np.hypot(x - self.cx, y - self.cy)

    @property
    def arcs(self) -> tuple[tuple["Circle", float], ...]:
        return ((self, 1.0),)

    @property
    def corners(self) -> np.ndarray:
        return np.empty((0, 2))


@dataclass(frozen=True)
class HalfMoon:
    """Crescent: interior of ``outer`` with the interior of ``cutter`` removed.

    The two disks must overlap partially so the boundary consists of two
    arcs joined at two corner points.
    """

    outer: Circle
    cutter: Circle

    def level(self, x, y):
        """CSG level function min(phi_outer, -phi_cutter), positive inside
        the crescent. Its sign is exact, but its magnitude is a distance
        to a whole circle, not to the arc of it that bounds the crescent;
        ``levelset.redistance`` computes the signed distance."""
        return np.minimum(*(side * c.level(x, y) for c, side in self.arcs))

    @property
    def arcs(self) -> tuple[tuple[Circle, float], ...]:
        return ((self.outer, 1.0), (self.cutter, -1.0))

    @property
    def corners(self) -> np.ndarray:
        """The two intersection points of the outer and cutter circles, (2, 2)."""
        c1, c2 = self.outer, self.cutter
        dx, dy = c2.cx - c1.cx, c2.cy - c1.cy
        d = math.hypot(dx, dy)
        if not abs(c1.r - c2.r) < d < c1.r + c2.r:
            raise ShapeError(
                "half-moon disks must intersect at exactly two points "
                f"(centers {d:.6g} apart, radii {c1.r:.6g}/{c2.r:.6g})")
        a = (d * d + c1.r * c1.r - c2.r * c2.r) / (2 * d)
        h = math.sqrt(c1.r * c1.r - a * a)
        ux, uy = dx / d, dy / d
        mx, my = c1.cx + a * ux, c1.cy + a * uy
        return np.array([[mx - h * uy, my + h * ux],
                         [mx + h * uy, my - h * ux]])


# Either kind offers ``level(x, y)`` (positive inside), ``arcs`` (a
# ``(circle, side)`` pair per circle its boundary lies on: side +1 where
# the PEC lies inside the circle, -1 where the circle is cut out of it)
# and ``corners`` (the points where two arcs meet).
Shape = Union[Circle, HalfMoon]


class ShapeError(ValueError):
    pass


def validate_shape(shape: Optional[Shape], domain: Domain) -> None:
    """Check shape invariants: positive radii, arcs meeting at exactly two
    corners for the crescent, and clearance >= radius/2 from every domain
    edge."""
    if shape is None:
        return
    for c, _ in shape.arcs:
        if c.r <= 0:
            raise ShapeError(f"circle radius must be positive, got {c.r}")
    shape.corners  # raises ShapeError if the crescent's disks do not cross
    bound = next(c for c, side in shape.arcs if side > 0)
    clearance = edge_clearance(shape, domain)
    if clearance < bound.r / 2:
        raise ShapeError(
            f"shape too close to domain edge: clearance {clearance:.6g} "
            f"< radius/2 = {bound.r / 2:.6g}")


def edge_clearance(shape: Shape, domain: Domain) -> float:
    """Minimum distance from the shape boundary to the domain edges.

    The boundary lies on or inside the circle of side +1, so that
    circle's clearance is a valid (conservative) bound.
    """
    c = next(c for c, side in shape.arcs if side > 0)
    return min(c.cx - domain.xmin, domain.xmax - c.cx,
               c.cy - domain.ymin, domain.ymax - c.cy) - c.r


def _circle_line_crossings(circle: Circle, lines: np.ndarray, axis: int) -> np.ndarray:
    """Closed-form crossings of a circle with a family of grid lines.

    axis=0: vertical lines x=const; axis=1: horizontal lines y=const.
    Tangency (discriminant exactly zero) yields a single point. Returns (m, 2).
    """
    center_along = circle.cx if axis == 0 else circle.cy
    center_other = circle.cy if axis == 0 else circle.cx
    disc = circle.r ** 2 - (lines - center_along) ** 2
    pts = []
    for line, d in zip(lines, disc):
        if d > 0.0:
            root = math.sqrt(d)
            pts.append((line, center_other - root))
            pts.append((line, center_other + root))
        elif d == 0.0:
            pts.append((line, center_other))
    out = np.array(pts, dtype=float).reshape(-1, 2)
    if axis == 1:
        out = out[:, ::-1]
    return out


def boundary_intersections(shape: Shape, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All points where the shape boundary crosses a grid line, shape (m, 2).

    ``xs``/``ys`` are the lattice line coordinates. Each circle's crossings
    are kept where they lie :func:`on_boundary`, which drops the parts of a
    crescent's circles that do not bound it; the corners are appended.
    """
    pts = np.vstack([_circle_line_crossings(c, lines, axis)
                     for c, _ in shape.arcs
                     for lines, axis in ((xs, 0), (ys, 1))])
    return np.vstack([pts[on_boundary(shape, pts[:, 0], pts[:, 1])],
                      shape.corners])


def on_boundary(shape: Shape, x, y):
    """Whether points on the arcs' circles bound it: |level| <= 1e-12 max r."""
    tol = 1e-12 * max(c.r for c, _ in shape.arcs)
    return np.abs(shape.level(x, y)) <= tol
