"""Ghost point extension across the PEC boundary.

The field just inside the PEC is reconstructed from outside data: H is
decomposed into components along the level set's unit normal n and the
tangent t = (n_y, -n_x) derived from it, the boundary traces and
normal derivatives are extended inward along the normal, and one-layer
ghost values are assembled from two-term Taylor expansions. H.n and E
are odd across the wall (zero trace), H.t is even.

The extension solves ``grad(q) . grad(phi) = 0`` with the causal upwind
discretization (Aslam, J. Comput. Phys. 2004): a node takes
``q = sum_a w_a q(nb_a) / sum_a w_a`` over the two lattice axes, where
``nb_a`` is the neighbour of smaller phi on axis ``a`` and
``w_a = (phi(node) - phi(nb_a)) / |x(node) - x(nb_a)|^2`` in shifted
coordinates. phi strictly decreases along every dependency, so the
system is triangular; each ghost's row is resolved once per geometry
down to frozen source nodes (phi <= 0 for field values, phi < 0 for
normal derivatives), and sources are only ever read.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError, GridTopology, NodeClass
from .levelset import LevelSetData
from .stencil import FitTable, neighbor_flat_offsets


def decompose(hx: np.ndarray, hy: np.ndarray, ls: LevelSetData):
    """Split H into (H.n, H.t) by the local unit normal n, with the
    clockwise tangent t = (n_y, -n_x)."""
    h_perp = hx * ls.normal_x + hy * ls.normal_y
    h_par = hx * ls.normal_y - hy * ls.normal_x
    return h_perp, h_par


def recompose(h_perp: np.ndarray, h_par: np.ndarray, ls: LevelSetData):
    """Inverse of :func:`decompose`: H = H.n n + H.t t."""
    hx = h_perp * ls.normal_x + h_par * ls.normal_y
    hy = h_perp * ls.normal_y - h_par * ls.normal_x
    return hx, hy


def _flat(a: np.ndarray) -> np.ndarray:
    """C-contiguous flat view; scatter through a copy would be silently lost."""
    if not a.flags.c_contiguous:
        raise ValueError("field array must be C-contiguous")
    return a.reshape(-1)


def _causal_rows(targets: np.ndarray, grid: GridTopology, phi: np.ndarray,
                 frozen: np.ndarray):
    """Rows ``(idx, weights)`` of shape ``(len(targets), k)`` giving each
    target's upwind-extended value as a convex combination of frozen
    nodes (flat indices). Upstream region nodes are memoized; short rows
    are padded with their first source at weight zero."""
    rows: dict = {}

    def upwind(i: int, j: int):
        """(neighbour, weight) of smaller phi on each lattice axis."""
        for pair in (((i + 1, j), (i - 1, j)), ((i, j + 1), (i, j - 1))):
            f, q = min((phi[q], q) for q in pair
                       if 0 <= q[0] < grid.nx and 0 <= q[1] < grid.ny)
            if f < phi[i, j]:
                yield q, (phi[i, j] - f) / ((grid.x[q] - grid.x[i, j]) ** 2
                                            + (grid.y[q] - grid.y[i, j]) ** 2)

    def resolve(i: int, j: int) -> dict:
        if (i, j) not in rows:
            up = list(upwind(i, j))
            if not up:
                raise GridError(f"node ({i}, {j}) has no upwind neighbour "
                                "to extend from; geometry too thin to extend "
                                "into at this resolution")
            total = sum(w for _, w in up)
            row: dict = {}
            for q, w in up:
                sources = {q[0] * grid.ny + q[1]: 1.0} if frozen[q] else resolve(*q)
                for s, ws in sources.items():
                    row[s] = row.get(s, 0.0) + w / total * ws
            rows[i, j] = row
        return rows[i, j]

    resolved = [resolve(*divmod(int(p), grid.ny)) for p in targets]
    k = max(map(len, resolved), default=0)
    shape = (len(resolved), k)
    idx = [list(r) + [next(iter(r))] * (k - len(r)) for r in resolved]
    wts = [list(r.values()) + [0.0] * (k - len(r)) for r in resolved]
    return (np.array(idx, dtype=np.intp).reshape(shape),
            np.array(wts, dtype=float).reshape(shape))


class GhostExtender:
    """Ghost-value extension bound to one static geometry.

    ``__init__`` resolves two causal rows per ghost node: a value row
    over sources with phi <= 0, which carries the H.t trace, and a
    derivative row over sources with phi < 0, which carries the fitted
    normal derivatives ``n_x c0 + n_y c1`` of H.n, H.t and Ez, evaluated
    at those sources only. :meth:`extend_fields` is then one
    gather-multiply-sum per quantity plus the Taylor assembly.

    On the point-shifted grids of the shapes here, every node the
    extension reads (:attr:`nodes`) is an exterior or boundary node, so
    ghost values depend on no inside value, and whatever the inside
    nodes held before :meth:`extend_fields` reaches no outside value.
    """

    def __init__(self, grid: GridTopology, ls: LevelSetData,
                 classes: np.ndarray, fits: FitTable):
        self.ls = ls
        g = np.flatnonzero(classes == NodeClass.GHOST)
        self.ghost_flat = g
        self.ghost = LevelSetData(*(_flat(a)[g] for a in (
            ls.phi, ls.normal_x, ls.normal_y)))

        value_src, self.value_w = _causal_rows(g, grid, ls.phi, ls.phi <= 0.0)
        dn_src, self.dn_w = _causal_rows(g, grid, ls.phi, ls.phi < 0.0)

        # Derivative sources and their 5-point stencils; ring nodes have
        # no fit, so they get zero weights and read only themselves.
        centers, inverse = np.unique(dn_src, return_inverse=True)
        self.dn_idx = inverse.reshape(dn_src.shape)
        fitted = _flat(fits.valid)[centers]
        stencil = np.where(fitted,
                           centers + neighbor_flat_offsets(grid.ny)[:, None],
                           centers)
        wc = np.zeros((3, 5, centers.size))
        wc[:, :, fitted] = fits.weights_at(centers[fitted])
        self.dn_op = (_flat(ls.normal_x)[centers] * wc[0]
                      + _flat(ls.normal_y)[centers] * wc[1])

        # Every node a ghost reads, and positions into that list.
        self.nodes = np.unique(np.concatenate((value_src.ravel(),
                                               stencil.ravel())))
        self.value_idx = np.searchsorted(self.nodes, value_src)
        self.dn_nbr = np.searchsorted(self.nodes, stencil)
        self.frame = LevelSetData(*(_flat(a)[self.nodes] for a in (
            ls.phi, ls.normal_x, ls.normal_y)))
        self.on_boundary = _flat(classes)[self.nodes] == NodeClass.BOUNDARY

    def normal_derivatives(self, q: np.ndarray) -> np.ndarray:
        """Fitted ``grad(q) . n`` at the derivative sources, from values
        ``q`` of shape ``(..., len(nodes))`` at :attr:`nodes`."""
        return np.einsum("km,...km->...m", self.dn_op, q[..., self.dn_nbr])

    def extend_fields(self, hx: np.ndarray, hy: np.ndarray,
                      ez: np.ndarray) -> None:
        """Write ghost values of (hx, hy, ez) in place; nothing else changes.

        H.n and Ez are extended odd (zero trace, extended normal
        derivative), H.t even (extended trace and normal derivative).
        """
        g, ghost = self.ghost_flat, self.ghost
        if not g.size:
            return
        n = self.nodes
        q = np.empty((3, n.size))
        q[0], q[1] = decompose(_flat(hx)[n], _flat(hy)[n], self.frame)
        q[0, self.on_boundary] = 0.0  # zero H.n trace
        q[2] = _flat(ez)[n]

        d = self.normal_derivatives(q)
        d_perp, d_par, d_ez = np.einsum("gk,qgk->qg", self.dn_w,
                                        d[:, self.dn_idx])
        trace_par = np.einsum("gk,gk->g", self.value_w, q[1, self.value_idx])

        perp_g = d_perp * ghost.phi
        par_g = trace_par - d_par * ghost.phi
        _flat(hx)[g], _flat(hy)[g] = recompose(perp_g, par_g, ghost)
        _flat(ez)[g] = d_ez * ghost.phi
