"""Linear least-squares fitting on 5-point stencils of a shifted grid.

Every spatial operator in the solver is built from the plane
``u ~ c0*(x - xc) + c1*(y - yc) + c2`` fitted through the center node and
its four lattice neighbors: ``(c0, c1)`` approximates the gradient and
``c2`` the (Lax-Friedrichs-like) averaged value. Weights are precomputed
per node once, since the geometry never changes during a run.

Stencil value order is ``(C, E, W, N, S)`` throughout.
"""

from __future__ import annotations

import numpy as np

from .grid import GridTopology, neighbor_or

STENCIL_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))  # C E W N S

DET_GUARD = 1e-12


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


def fit_weights(points) -> np.ndarray:
    """Weights (3, 5) for one stencil given absolute coordinates (5, 2),
    center first then E, W, N, S. Rows give (d/dx, d/dy, fitted value)."""
    pts = np.asarray(points, dtype=float).reshape(1, 5, 2)
    return _weights_batch(pts - pts[:, :1, :])[0]


def fitted_gradient(weights: np.ndarray, values) -> tuple[float, float]:
    """(c0, c1) of the fit for the 5 stencil values."""
    v = np.asarray(values, dtype=float)
    return float(weights[0] @ v), float(weights[1] @ v)


def fitted_value(weights: np.ndarray, values) -> float:
    """c2 of the fit: the least-squares plane evaluated at the center."""
    return float(weights[2] @ np.asarray(values, dtype=float))


class FitTable:
    """Per-node fit weights for a whole grid, with vectorized application.

    Weights exist on the interior (nodes with all four neighbors); the
    outer ring carries zeros and is always handled analytically by callers.
    Nodes with a fully unshifted stencil get exact central-difference /
    5-point-average weights; only nodes whose stencil touches a shifted
    node go through the normal-equation solve.
    """

    def __init__(self, w: np.ndarray, valid: np.ndarray, dx: float, dy: float):
        self.w = w            # (3, 5, nx, ny)
        self.valid = valid    # (nx, ny) bool, True on the interior
        self.dx = dx
        self.dy = dy

    @classmethod
    def build(cls, grid: GridTopology) -> "FitTable":
        nx, ny = grid.nx, grid.ny
        w = np.zeros((3, 5, nx, ny))
        interior = np.zeros((nx, ny), dtype=bool)
        interior[1:-1, 1:-1] = True

        w[0, 1][interior] = 0.5 / grid.dx
        w[0, 2][interior] = -0.5 / grid.dx
        w[1, 3][interior] = 0.5 / grid.dy
        w[1, 4][interior] = -0.5 / grid.dy
        w[2, :, interior] = 0.2

        band = (grid.shifted | neighbor_or(grid.shifted)) & interior
        if band.any():
            bi, bj = np.nonzero(band)
            m = bi.size
            offs = np.empty((m, 5, 2))
            for k, (di, dj) in enumerate(STENCIL_OFFSETS):
                offs[:, k, 0] = grid.x[bi + di, bj + dj] - grid.x[bi, bj]
                offs[:, k, 1] = grid.y[bi + di, bj + dj] - grid.y[bi, bj]
            try:
                wb = _weights_batch(offs)
            except DegenerateStencilError as err:
                raise DegenerateStencilError(
                    f"degenerate stencil in shifted band: {err}") from err
            w[:, :, bi, bj] = wb.transpose(1, 2, 0)
        return cls(w, interior, grid.dx, grid.dy)

    def _apply(self, row: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros_like(u)
        else:
            out[0, :] = out[-1, :] = 0.0
            out[:, 0] = out[:, -1] = 0.0
        w = self.w[row]
        c = out[1:-1, 1:-1]
        np.multiply(w[0, 1:-1, 1:-1], u[1:-1, 1:-1], out=c)
        c += w[1, 1:-1, 1:-1] * u[2:, 1:-1]
        c += w[2, 1:-1, 1:-1] * u[:-2, 1:-1]
        c += w[3, 1:-1, 1:-1] * u[1:-1, 2:]
        c += w[4, 1:-1, 1:-1] * u[1:-1, :-2]
        return out

    def ddx(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fitted d/dx over the interior; zeros on the outer ring."""
        return self._apply(0, u, out)

    def ddy(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self._apply(1, u, out)

    def value(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fitted (averaged) value over the interior; zeros on the ring."""
        return self._apply(2, u, out)

    def node_weights(self, i: int, j: int) -> np.ndarray:
        if not self.valid[i, j]:
            raise DegenerateStencilError(f"node ({i}, {j}) has no fit operator")
        return self.w[:, :, i, j]


def neighbor_flat_offsets(ny: int) -> np.ndarray:
    """Flat-index offsets of (C, E, W, N, S) for C-ordered (nx, ny) arrays."""
    return np.array([0, ny, -ny, 1, -1], dtype=np.intp)
