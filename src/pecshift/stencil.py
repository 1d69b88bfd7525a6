"""Linear least-squares fitting on 5-point stencils of a shifted grid.

Every spatial operator in the solver is built from the plane
``u ~ c0*(x - xc) + c1*(y - yc) + c2`` fitted through the center node and
its four lattice neighbors: ``(c0, c1)`` approximates the gradient and
``c2`` the (Lax-Friedrichs-like) averaged value. Away from the shifted
nodes the stencil is the uniform lattice's, whose fit is the central
difference and the 5-point average with constant weights; least-squares
weights are solved and stored once per geometry only for the band of
nodes whose stencil touches a shifted node.

Stencil value order is ``(C, E, W, N, S)`` throughout.
"""

from __future__ import annotations

import numpy as np

from .grid import GridTopology, neighbor_or

STENCIL_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))  # C E W N S

DET_GUARD = 1e-12

# Nodes per block of an apply or a sweep. A sweep runs all seven applies
# over one block before the next, so its inputs, results and scratch are
# read from cache, not memory; a 200^2 grid (39,598 interior nodes) stays
# one block.
BLOCK_NODES = 40_000


class DegenerateStencilError(ValueError):
    pass


def _weights_batch(offsets: np.ndarray) -> np.ndarray:
    """Solve the normal equations for a batch of stencils.

    offsets: (m, 5, 2) stencil coordinates relative to each center.
    Returns (m, 3, 5) weights mapping the 5 values to (c0, c1, c2).
    Coordinates are rescaled per stencil so the determinant guard is
    resolution independent.
    """
    m = offsets.shape[0]
    scale = np.abs(offsets).max(axis=(1, 2))
    if (scale <= 0).any():
        raise DegenerateStencilError("all stencil points coincide with the center")
    sc = offsets / scale[:, None, None]

    a = np.empty((m, 5, 3))
    a[:, :, 0] = sc[:, :, 0]
    a[:, :, 1] = sc[:, :, 1]
    a[:, :, 2] = 1.0
    at = a.transpose(0, 2, 1)
    normal = at @ a

    det = np.linalg.det(normal)
    bound = DET_GUARD * np.abs(normal).max(axis=(1, 2)) ** 3
    bad = np.abs(det) < bound
    if bad.any():
        k = int(np.argmax(bad))
        raise DegenerateStencilError(
            f"rank-deficient stencil (batch entry {k}): |det|={abs(det[k]):.3e}"
            f" below guard {bound[k]:.3e}")

    w = np.linalg.solve(normal, at)
    w[:, 0, :] /= scale[:, None]
    w[:, 1, :] /= scale[:, None]
    return w


class FitTable:
    """Fit operators of one grid: the uniform stencil plus stored weights
    for the band of nodes whose stencil touches a shifted node.

    Operators exist on the interior (nodes with all four neighbors); the
    outer ring has none, applies write zeros there, and callers handle it
    analytically. An interior stencil that touches no shifted node is the
    lattice's own, so its fit is the exact central difference / 5-point
    average and needs no storage: ``w`` is ``(3, 5, m)`` over the ``m``
    band nodes ``band`` (flat indices), and empty in free space.

    Applies run over ``blocks``: the flat range from node (1, 1) to
    (nx-2, ny-2) cut once, at build time, into ``(lo, hi)`` pieces of at
    most ``BLOCK_NODES`` nodes, each with its own slice of the band. A
    block computes the uniform stencil with scalar weights, then
    overwrites its band nodes from ``w``. Every node sums the same
    products in the same order whatever the blocks, so the output is
    bitwise the sequential weighted sum.
    """

    def __init__(self, w: np.ndarray, band: np.ndarray, valid: np.ndarray,
                 dx: float, dy: float):
        self.w = w            # (3, 5, m) weights of the band nodes
        self.band = band      # (m,) sorted flat indices of the band nodes
        self.valid = valid    # (nx, ny) bool, True on the interior
        self.dx = dx
        self.dy = dy
        self.uniform = np.zeros((3, 5))
        self.uniform[0, 1:3] = 0.5 / dx, -0.5 / dx
        self.uniform[1, 3:5] = 0.5 / dy, -0.5 / dy
        self.uniform[2] = 0.2
        ny = valid.shape[1]
        offsets = neighbor_flat_offsets(ny)
        # (weight, flat offset) of each row's nonzero uniform terms
        self._terms = [[(wk, off) for wk, off in zip(ws, offsets) if wk != 0.0]
                       for ws in self.uniform]
        self.blocks = split_blocks(ny + 1, valid.size - ny - 1)
        # Per block: its band nodes' positions in the block, their weights
        # and their neighbors' flat indices.
        cuts = np.searchsorted(band, [lo for lo, _ in self.blocks[1:]])
        self._block_band = [
            (at - lo, wb, nbr) for (lo, _), at, wb, nbr in zip(
                self.blocks, np.split(band, cuts), np.split(w, cuts, axis=2),
                np.split(band + offsets[:, None], cuts, axis=1))]
        # One product term of a block, reused by every apply
        self._term = np.empty(max(hi - lo for lo, hi in self.blocks))

    @classmethod
    def build(cls, grid: GridTopology) -> "FitTable":
        interior = np.zeros(grid.shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        band = np.flatnonzero((grid.shifted | neighbor_or(grid.shifted))
                              & interior)
        bi, bj = np.unravel_index(band, grid.shape)
        offs = np.empty((band.size, 5, 2))
        for k, (di, dj) in enumerate(STENCIL_OFFSETS):
            offs[:, k, 0] = grid.x[bi + di, bj + dj] - grid.x[bi, bj]
            offs[:, k, 1] = grid.y[bi + di, bj + dj] - grid.y[bi, bj]
        try:
            w = _weights_batch(offs)
        except DegenerateStencilError as err:
            raise DegenerateStencilError(
                f"degenerate stencil in shifted band: {err}") from err
        return cls(np.ascontiguousarray(w.transpose(1, 2, 0)), band, interior,
                   grid.dx, grid.dy)

    def _apply(self, row: int, u: np.ndarray, out: np.ndarray | None,
               block: int | None) -> np.ndarray:
        """Weighted sum over (C, E, W, N, S), each term a product added in
        that order; the uniform stencil skips its zero weights.

        With ``block`` set, computes block ``k = block`` of ``blocks`` into
        ``out``, a flat array of the block's length; ring columns inside
        the block get values the caller discards. Without it, runs every
        block into a grid-shaped ``out`` and zeroes the whole ring."""
        if u.shape != self.valid.shape:
            raise ValueError(f"u has shape {u.shape}, the fit table's grid "
                             f"is {self.valid.shape}")
        if block is None:
            if out is None:
                out = np.empty(self.valid.shape)
            elif out.shape != self.valid.shape:
                raise ValueError(f"out has shape {out.shape}, the fit "
                                 f"table's grid is {self.valid.shape}")
            elif not out.flags.c_contiguous:
                raise ValueError("out must be C-contiguous")
            of = out.reshape(-1)
            for k, (lo, hi) in enumerate(self.blocks):
                self._apply(row, u, of[lo:hi], k)
            out[0, :] = out[-1, :] = 0.0
            out[:, 0] = out[:, -1] = 0.0
            return out
        uf = u.reshape(-1)
        lo, hi = self.blocks[block]
        term = self._term[:hi - lo]
        (w0, off0), *rest = self._terms[row]
        np.multiply(uf[lo + off0:hi + off0], w0, out=out)
        for wk, off in rest:
            np.multiply(uf[lo + off:hi + off], wk, out=term)
            out += term
        at, w, nbr = self._block_band[block]
        if at.size:
            w = w[row]
            acc = w[0] * uf[nbr[0]]
            for k in range(1, 5):
                acc += w[k] * uf[nbr[k]]
            out[at] = acc
        return out

    def ddx(self, u: np.ndarray, out: np.ndarray | None = None,
            block: int | None = None) -> np.ndarray:
        """Fitted d/dx over the interior; zeros on the outer ring. With
        ``block``, only that block of ``blocks``, into its flat ``out``."""
        return self._apply(0, u, out, block)

    def ddy(self, u: np.ndarray, out: np.ndarray | None = None,
            block: int | None = None) -> np.ndarray:
        return self._apply(1, u, out, block)

    def value(self, u: np.ndarray, out: np.ndarray | None = None,
              block: int | None = None) -> np.ndarray:
        """Fitted (averaged) value over the interior; zeros on the ring."""
        return self._apply(2, u, out, block)

    def weights_at(self, flat) -> np.ndarray:
        """Weights ``(3, 5, ...)`` of the interior nodes with C-order flat
        indices ``flat``: stored for band nodes, uniform elsewhere."""
        shape = np.shape(flat)
        flat = np.asarray(flat, dtype=np.intp).ravel()
        ring = ~self.valid.reshape(-1)[flat]
        if ring.any():
            i, j = np.unravel_index(flat[ring][0], self.valid.shape)
            raise DegenerateStencilError(f"node ({i}, {j}) has no fit operator")
        w = np.repeat(self.uniform[:, :, None], flat.size, axis=2)
        pos = np.searchsorted(self.band, flat)
        hit = pos < self.band.size
        hit[hit] = self.band[pos[hit]] == flat[hit]
        w[:, :, hit] = self.w[:, :, pos[hit]]
        return w.reshape((3, 5) + shape)


def split_blocks(lo: int, hi: int) -> list:
    """``[lo, hi)`` cut evenly into the fewest ``(start, stop)`` pieces of
    at most ``BLOCK_NODES`` nodes."""
    count = max(1, -(-(hi - lo) // BLOCK_NODES))
    edges = [lo + (hi - lo) * k // count for k in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def neighbor_flat_offsets(ny: int) -> np.ndarray:
    """Flat-index offsets of (C, E, W, N, S) for C-ordered (nx, ny) arrays."""
    return np.array([0, ny, -ny, 1, -1], dtype=np.intp)
