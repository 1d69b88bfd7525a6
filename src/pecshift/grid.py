"""Point-shifted rectangular grid topology and node classification.

Nodes are indexed ``[i, j]`` with ``i`` along x and ``j`` along y. Point
shifting moves, for every boundary/lattice intersection, the nearest node
onto the curve; the lattice adjacency (E/W/N/S neighbors at ``i+-1``,
``j+-1``) is never changed by shifting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .shapes import Domain


class GridError(ValueError):
    pass


class UnderResolvedGeometryWarning(UserWarning):
    """A dropped intersection left a boundary segment longer than half a
    cell diagonal unrepresented by any shifted node."""


class NodeClass(IntEnum):
    EXTERIOR = 0       # phi < 0, outside the PEC
    BOUNDARY = 1       # shifted onto the PEC curve, phi = 0
    GHOST = 2          # first layer inside: phi > 0 with an outside neighbor
    DEEP_INTERIOR = 3  # phi > 0, never touched by exterior stencils


CLASS_NAMES = {c: c.name.lower() for c in NodeClass}


@dataclass
class GridTopology:
    """Node coordinates (possibly shifted) over an intact lattice topology."""

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float
    x: np.ndarray          # (nx, ny) node x coordinates
    y: np.ndarray          # (nx, ny) node y coordinates
    shifted: np.ndarray    # (nx, ny) bool
    shift_drops: int = 0   # intersections dropped by the conflict rule

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def lattice_x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def lattice_y(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)


def build_uniform_grid(domain: Domain, nx: int, ny: int) -> GridTopology:
    """Uniform lattice over the domain; no node shifted yet."""
    if nx < 8 or ny < 8:
        raise GridError(f"grid must be at least 8x8 for stencils, got {nx}x{ny}")
    if domain.width <= 0 or domain.height <= 0:
        raise GridError("domain side lengths must be positive")
    dx = domain.width / (nx - 1)
    dy = domain.height / (ny - 1)
    xs = domain.xmin + dx * np.arange(nx)
    ys = domain.ymin + dy * np.arange(ny)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    return GridTopology(nx=nx, ny=ny, dx=dx, dy=dy,
                        x0=domain.xmin, y0=domain.ymin,
                        x=np.ascontiguousarray(x), y=np.ascontiguousarray(y),
                        shifted=np.zeros((nx, ny), dtype=bool))


def apply_point_shift(grid: GridTopology, intersections: np.ndarray) -> GridTopology:
    """Move, for each intersection point, its nearest lattice node onto it.

    Each node moves at most once: among intersections claiming the same
    node, the closest wins; exact distance ties go to the lexicographically
    smaller (x, y) point. A dropped intersection farther than half a cell
    diagonal from its claimed node signals under-resolved geometry and is
    reported with a warning.
    """
    pts = np.asarray(intersections, dtype=float).reshape(-1, 2)
    new = replace(grid, x=grid.x.copy(), y=grid.y.copy(),
                  shifted=grid.shifted.copy())
    if pts.shape[0] == 0:
        return new

    px, py = pts[:, 0], pts[:, 1]
    ii = np.rint((px - grid.x0) / grid.dx).astype(np.intp)
    jj = np.rint((py - grid.y0) / grid.dy).astype(np.intp)
    if (ii <= 0).any() or (ii >= grid.nx - 1).any() or (jj <= 0).any() or (jj >= grid.ny - 1).any():
        raise GridError("intersection point claims a domain-edge node; "
                        "shape violates edge clearance")
    lat_x = grid.x0 + ii * grid.dx
    lat_y = grid.y0 + jj * grid.dy
    dist = np.hypot(px - lat_x, py - lat_y)

    half_diag = 0.5 * np.hypot(grid.dx, grid.dy)
    if (dist > half_diag * (1 + 1e-9)).any():
        raise GridError("intersection farther than half a cell diagonal "
                        "from its nearest node (inconsistent lattice)")

    node = ii * grid.ny + jj
    order = np.lexsort((py, px, dist, node))
    node_sorted = node[order]
    winner = np.ones(len(order), dtype=bool)
    winner[1:] = node_sorted[1:] != node_sorted[:-1]

    win_idx = order[winner]
    new.x[ii[win_idx], jj[win_idx]] = px[win_idx]
    new.y[ii[win_idx], jj[win_idx]] = py[win_idx]
    new.shifted[ii[win_idx], jj[win_idx]] = True

    lose_idx = order[~winner]
    new.shift_drops = int(lose_idx.size)
    if lose_idx.size:
        # Distance from each dropped point to where its node actually went.
        wx = new.x[ii[lose_idx], jj[lose_idx]]
        wy = new.y[ii[lose_idx], jj[lose_idx]]
        gap = np.hypot(px[lose_idx] - wx, py[lose_idx] - wy)
        bad = gap > half_diag
        if bad.any():
            k = lose_idx[bad][0]
            warnings.warn(
                f"{int(bad.sum())} dropped intersection(s) lie farther than "
                f"half a cell diagonal from their claimed node, e.g. "
                f"({px[k]:.6g}, {py[k]:.6g}); geometry under-resolved at this "
                f"grid spacing", UnderResolvedGeometryWarning, stacklevel=2)
    return new


def neighbor_or(mask: np.ndarray, fill: bool = False) -> np.ndarray:
    """True where any E/W/N/S neighbor is True (edge neighbors -> fill)."""
    out = np.full(mask.shape, fill, dtype=bool)
    out[:-1, :] |= mask[1:, :]
    out[1:, :] |= mask[:-1, :]
    out[:, :-1] |= mask[:, 1:]
    out[:, 1:] |= mask[:, :-1]
    return out


def classify_nodes(grid: GridTopology, phi: np.ndarray) -> np.ndarray:
    """Per-node classification from the shifted flags and the sign of phi.

    Raises if some ghost node has no exterior node within two lattice hops:
    its extension would have no exterior data to extend from.
    """
    boundary = grid.shifted
    inside = (phi > 0) & ~boundary
    exterior = ~inside & ~boundary

    ghost = inside & neighbor_or(~inside)
    deep = inside & ~ghost

    ext2 = neighbor_or(neighbor_or(exterior))
    orphans = ghost & ~ext2
    if orphans.any():
        i, j = np.argwhere(orphans)[0]
        raise GridError(
            f"ghost node ({i}, {j}) has no exterior node within two hops; "
            "geometry too thin to extend into at this resolution")

    classes = np.full(grid.shape, NodeClass.EXTERIOR, dtype=np.int8)
    classes[boundary] = NodeClass.BOUNDARY
    classes[ghost] = NodeClass.GHOST
    classes[deep] = NodeClass.DEEP_INTERIOR
    return classes
