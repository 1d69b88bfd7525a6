"""Linear least-squares fitting on 5-point stencils of a shifted grid.

Every spatial operator in the solver is built from the plane
``u ~ c0*(x - xc) + c1*(y - yc) + c2`` fitted through the center node and
its four lattice neighbors: ``(c0, c1)`` approximates the gradient and
``c2`` the (Lax-Friedrichs-like) averaged value. Away from the shifted
nodes the stencil is the uniform lattice's, whose fit is the central
difference and the 5-point average with constant weights; least-squares
weights are solved and stored once per geometry only for the band of
nodes whose stencil touches a shifted node.

Stencil value order is ``(C, E, W, N, S)`` throughout. ``FitTable`` alone
knows it and the ring rule, and ``FitTable.stencil`` hands out both.
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

# Block applies that may run at once, one per lane, each on its own scratch.
LANES = 2


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
    outer ring has none: applies write zeros there, :meth:`stencil` gives a
    ring node itself at weight zero, and callers handle it analytically.
    An interior stencil that touches no shifted node is the lattice's own,
    so its fit is the exact central difference / 5-point average and needs
    no storage: ``w`` is ``(3, 5, m)`` over the ``m`` band nodes ``band``
    (flat indices), and empty in free space.

    Applies run over ``blocks``: the flat range from node (1, 1) to
    (nx-2, ny-2) cut once, at build time, into ``(lo, hi)`` pieces of at
    most ``BLOCK_NODES`` nodes, each with its own slice of the band. No
    block is shorter than a lattice row (``ny`` nodes), so a later block
    reads nothing of the block before last, which lets a sweep write its
    results over its inputs (``MaxwellStepper.sweep``). A block computes
    the uniform stencil, then overwrites its band nodes from ``w``. Block
    applies on different ``lane``s (0 to ``LANES - 1``) may run at once
    on different threads: each lane has its own scratch.

    Every nonzero uniform weight of a row has one magnitude ``c`` (0.2,
    0.5/dx or 0.5/dy), so a block scales ``u`` by ``c`` once and adds or
    subtracts the scaled neighbors in (C, E, W, N, S) order. In IEEE
    round-to-nearest ``fl(-c*x) = -fl(c*x)`` and ``a + (-b)`` is
    ``a - b``, so this is bitwise the sum of the products ``w[k]*u`` in
    that order, whatever the blocks: the sequential weighted sum.
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
        self._offsets = offsets = neighbor_flat_offsets(ny)
        # Per row: the magnitude c of its nonzero uniform weights, the flat
        # offsets c*u spans, and each term's start in c*u with the ufunc
        # that adds it (np.add) or subtracts it (np.subtract).
        self._scaled = []
        for ws in self.uniform:
            nz = ws != 0.0
            c = abs(ws[nz][0])
            assert np.all(np.abs(ws[nz]) == c) and ws[nz][0] > 0
            offs = offsets[nz]
            self._scaled.append((c, offs.min(), offs.max(), [
                (off - offs.min(), np.add if wk > 0 else np.subtract)
                for wk, off in zip(ws[nz], offs)]))
        self.blocks = split_blocks(ny + 1, valid.size - ny - 1, min_len=ny)
        # Per block: its band nodes' positions in the block, their weights
        # and their neighbors' flat indices.
        cuts = np.searchsorted(band, [lo for lo, _ in self.blocks[1:]])
        self._block_band = [
            (at - lo, wb, nbr) for (lo, _), at, wb, nbr in zip(
                self.blocks, np.split(band, cuts), np.split(w, cuts, axis=2),
                np.split(band + offsets[:, None], cuts, axis=1))]
        # Per lane: c*u over a block and a row either side, reused by
        # every apply on that lane
        self._cu = np.empty((LANES, max(hi - lo for lo, hi in self.blocks)
                             + 2 * ny))

    @classmethod
    def build(cls, grid: GridTopology) -> "FitTable":
        interior = np.zeros(grid.shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        band = np.flatnonzero((grid.shifted | neighbor_or(grid.shifted))
                              & interior)
        nbr = band + neighbor_flat_offsets(grid.ny)[:, None]
        x, y = grid.x.reshape(-1), grid.y.reshape(-1)
        offs = np.stack((x[nbr] - x[band], y[nbr] - y[band]), axis=2)
        try:
            w = _weights_batch(offs.transpose(1, 0, 2))
        except DegenerateStencilError as err:
            raise DegenerateStencilError(
                f"degenerate stencil in shifted band: {err}") from err
        return cls(np.ascontiguousarray(w.transpose(1, 2, 0)), band, interior,
                   grid.dx, grid.dy)

    def _apply(self, row: int, u: np.ndarray, out: np.ndarray | None,
               block: int | None, lane: int) -> np.ndarray:
        """Weighted sum over (C, E, W, N, S) in that order: ``c*u`` once,
        then the first two scaled terms combined and the rest added or
        subtracted in place by sign; band nodes are overwritten from ``w``.

        With ``block`` set, computes block ``k = block`` of ``blocks`` into
        ``out``, a flat array of the block's length, using ``lane``'s
        scratch; ring columns inside the block get values the caller
        discards. Without it, runs every block on lane 0 into a
        grid-shaped ``out`` and zeroes the whole ring. ``out`` may not
        share memory with ``u``: a node would read neighbours already
        overwritten."""
        if u.shape != self.valid.shape:
            raise ValueError(f"u has shape {u.shape}, the fit table's grid "
                             f"is {self.valid.shape}")
        if out is not None and np.may_share_memory(out, u):
            raise ValueError("out shares memory with u; the apply would read "
                             "values it has already overwritten")
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
                self._apply(row, u, of[lo:hi], k, 0)
            out[0, :] = out[-1, :] = 0.0
            out[:, 0] = out[:, -1] = 0.0
            return out
        if not 0 <= block < len(self.blocks):
            raise ValueError(f"block {block} is out of range: the fit table "
                             f"has {len(self.blocks)} blocks")
        if not 0 <= lane < LANES:
            raise ValueError(f"lane {lane} is out of range: there are "
                             f"{LANES} lanes")
        lo, hi = self.blocks[block]
        n = hi - lo
        if out is not None and out.shape != (n,):
            raise ValueError(f"out has shape {out.shape}, block {block} "
                             f"needs a flat array of length {n}")
        uf = u.reshape(-1)
        c, first, last, terms = self._scaled[row]
        cu = np.multiply(uf[lo + first:hi + last], c,
                         out=self._cu[lane, :n + last - first])
        (s0, _), (s1, op1), *rest = terms
        out = op1(cu[s0:s0 + n], cu[s1:s1 + n], out=out)
        for s, op in rest:
            op(out, cu[s:s + n], out=out)
        at, w, nbr = self._block_band[block]
        if at.size:
            w = w[row]
            acc = w[0] * uf[nbr[0]]
            for k in range(1, 5):
                acc += w[k] * uf[nbr[k]]
            out[at] = acc
        return out

    def ddx(self, u: np.ndarray, out: np.ndarray | None = None,
            block: int | None = None, lane: int = 0) -> np.ndarray:
        """Fitted d/dx over the interior; zeros on the outer ring. With
        ``block``, only that block of ``blocks``, into its flat ``out``,
        on ``lane``'s scratch."""
        return self._apply(0, u, out, block, lane)

    def ddy(self, u: np.ndarray, out: np.ndarray | None = None,
            block: int | None = None, lane: int = 0) -> np.ndarray:
        return self._apply(1, u, out, block, lane)

    def value(self, u: np.ndarray, out: np.ndarray | None = None,
              block: int | None = None, lane: int = 0) -> np.ndarray:
        """Fitted (averaged) value over the interior; zeros on the ring."""
        return self._apply(2, u, out, block, lane)

    def stencil(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours ``(5, m)`` and weights ``(3, 5, m)`` of the nodes with
        C-order flat indices ``flat`` (1-D): stored weights for band nodes,
        uniform elsewhere. A ring node has no fit, so it reads itself at
        weight zero, the same rule as the applies' zeros on the ring."""
        ring = ~self.valid.reshape(-1)[flat]
        nbr = np.where(ring, flat, flat + self._offsets[:, None])
        w = np.where(ring, 0.0, self.uniform[:, :, None])
        pos = np.searchsorted(self.band, flat)
        hit = pos < self.band.size
        hit[hit] = self.band[pos[hit]] == flat[hit]
        w[:, :, hit] = self.w[:, :, pos[hit]]
        return nbr, w


def split_blocks(lo: int, hi: int, min_len: int) -> list:
    """``[lo, hi)`` cut evenly into the fewest ``(start, stop)`` pieces of
    at most ``BLOCK_NODES`` nodes, but into no piece shorter than
    ``min_len`` when there is more than one: at most ``(hi - lo) //
    min_len`` pieces, which may then exceed ``BLOCK_NODES``."""
    count = -(-(hi - lo) // BLOCK_NODES)
    count = max(1, min(count, (hi - lo) // min_len))
    edges = [lo + (hi - lo) * k // count for k in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def neighbor_flat_offsets(ny: int) -> np.ndarray:
    """Flat-index offsets of (C, E, W, N, S) for C-ordered (nx, ny) arrays."""
    return np.array([di * ny + dj for di, dj in STENCIL_OFFSETS], dtype=np.intp)
