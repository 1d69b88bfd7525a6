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
coordinates. Where neither axis has a neighbour of smaller phi (a wall
node level with its axis neighbours), the sum runs over the diagonal
neighbours of smaller phi instead, with the same weights (Sethian, Level
Set Methods and Fast Marching Methods, 1999). phi strictly decreases
along every dependency, so the system is triangular; each ghost's row is
resolved once per geometry down to frozen source nodes (phi <= 0 for field
values, phi < 0 for normal derivatives), and sources are only ever read.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError, GridTopology, NodeClass
from .levelset import LevelSetData
from .stencil import FitTable


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
                 *frozen: np.ndarray) -> list:
    """Rows ``(idx, weights)`` of shape ``(len(targets), k)`` per frozen
    mask: each target's upwind-extended value as a convex combination of
    frozen nodes (flat indices), short rows padded with their first source
    at weight zero. The masks share each node's upwind pairs, which are
    diagonal only where no axis has a neighbour of smaller phi.
    Python-float ``** 2`` is libm ``pow``, as on NumPy scalars; an
    array's is not."""
    nx, ny = grid.nx, grid.ny
    phi_at, x_at, y_at = phi.item, grid.x.item, grid.y.item
    pairs: dict = {}

    def upwind(p: int) -> list:
        """On-lattice neighbour of smaller phi on each axis (W, S on ties),
        or else every diagonal neighbour of smaller phi, each with its
        weight over the node's total."""
        if p not in pairs:
            i, j = divmod(p, ny)
            f, x, y = phi_at(p), x_at(p), y_at(p)
            axes = ((p - ny, p + ny)[i == 0:1 + (i < nx - 1)],
                    (p - 1, p + 1)[j == 0:1 + (j < ny - 1)])
            up = []
            for axis in axes:
                fq, q = min([(phi_at(q), q) for q in axis])
                if fq < f:
                    up.append((fq, q))
            if not up:  # the diagonal neighbours p +- ny +- 1
                up = [(fq, q) for a in axes[0] for b in axes[1]
                      if (fq := phi_at(q := a + b - p)) < f]
            if not up:
                raise GridError(f"node ({i}, {j}) has no upwind neighbour "
                                "to extend from; geometry too thin to extend "
                                "into at this resolution")
            w = [(f - fq) / ((x_at(q) - x) ** 2 + (y_at(q) - y) ** 2)
                 for fq, q in up]
            total = sum(w)
            pairs[p] = [(q, wq / total) for (_, q), wq in zip(up, w)]
        return pairs[p]

    def solve(is_frozen) -> tuple:
        rows: dict = {}

        def resolve(p: int) -> dict:
            if p not in rows:
                row: dict = {}
                for q, c in upwind(p):
                    for s, ws in (((q, 1.0),) if is_frozen(q)
                                  else resolve(q).items()):
                        row[s] = row.get(s, 0.0) + c * ws
                rows[p] = row
            return rows[p]

        resolved = [resolve(p) for p in targets.tolist()]
        k = max(map(len, resolved), default=0)
        shape = (len(resolved), k)
        idx = [list(r) + [next(iter(r))] * (k - len(r)) for r in resolved]
        wts = [list(r.values()) + [0.0] * (k - len(r)) for r in resolved]
        return (np.array(idx, dtype=np.intp).reshape(shape),
                np.array(wts, dtype=float).reshape(shape))

    return [solve(mask.item) for mask in frozen]


class GhostExtender:
    """Ghost-value extension bound to one static geometry.

    ``__init__`` resolves two causal rows per ghost node: a value row
    over sources with phi <= 0, which carries the H.t trace, and a
    derivative row over sources with phi < 0, which carries the fitted
    normal derivatives ``n_x c0 + n_y c1`` of H.n, H.t and Ez, evaluated
    at those sources only. Both row sets share each node's upwind pairs,
    and one ``np.unique`` with its inverse gives :attr:`nodes` and both
    position arrays into it (``value_idx``, ``dn_nbr``); a plain
    ``np.unique`` would import ``numpy.ma``. :meth:`extend_fields` is then
    one gather-multiply-sum per quantity plus the Taylor assembly.

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

        (value_src, self.value_w), (dn_src, self.dn_w) = _causal_rows(
            g, grid, ls.phi, ls.phi <= 0.0, ls.phi < 0.0)

        # Derivative sources and their 5-point stencils
        centers, inverse = np.unique(dn_src, return_inverse=True)
        self.dn_idx = inverse.reshape(dn_src.shape)
        stencil, wc = fits.stencil(centers)
        self.dn_op = (_flat(ls.normal_x)[centers] * wc[0]
                      + _flat(ls.normal_y)[centers] * wc[1])

        self.nodes, pos = np.unique(np.concatenate(
            (value_src.ravel(), stencil.ravel())), return_inverse=True)
        self.value_idx = pos[:value_src.size].reshape(value_src.shape)
        self.dn_nbr = pos[value_src.size:].reshape(stencil.shape)
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
