"""Field and grid export: CSV (lossless 17-digit floats) and legacy VTK.

Every float is written as ``%.17g``, so a re-read reproduces it bitwise,
and the files are byte-identical to formatting each node on its own with
``f"{v:.17g}"``. One writer writes each file a lattice row ``j`` at a time,
with one ``%`` per row from a row-sized buffer, so memory stays at a few
rows per process whatever the grid size. Coordinates are the lattice
lines' strings, formatted once, patched with the nodes whose bits differ
from them (shifted nodes, -0.0, nan), each formatted once.

Formatting is nearly all of an export, so where ``os.fork`` exists and
``usable_cpus() >= 2`` (the solver's one CPU test) two processes share a
file's row chunks by ``lane_claims`` (its one meet-in-the-middle rule):
the parent writes chunks from the front into the file, one forked child
chunks from the back into a side file, which the parent appends in row
order and deletes. Elsewhere one process writes every row, the same bytes.
"""

from __future__ import annotations

import os
import signal
import struct
import tempfile
import traceback
from pathlib import Path
from typing import Optional

import numpy as np

from .grid import CLASS_NAMES, GridTopology, NodeClass
from .solver import FieldState, lane_claims, usable_cpus

# Class name of each NodeClass code, indexed by the code.
_NAME_BY_CODE = np.array([CLASS_NAMES[NodeClass(k)] for k in range(len(NodeClass))],
                        dtype=object)


def _strings(a: np.ndarray) -> np.ndarray:
    return np.array(["%.17g" % v for v in a.tolist()], dtype=object)


def _node_cells(grid: GridTopology, classes: np.ndarray):
    """``fill(xcol, ycol, ccol, j)``, which writes row j's x and y strings
    and class names into three columns: a lattice line's strings, patched
    where a node's bits differ. An unknown class code raises ValueError, as
    ``NodeClass(code)`` does; the codes are 0..3, so the extremes decide."""
    codes = np.asarray(classes)
    NodeClass(int(codes.min())), NodeClass(int(codes.max()))
    parts = []
    for a, lat in ((grid.x.T, grid.lattice_x()[None, :]),
                   (grid.y.T, grid.lattice_y()[:, None])):
        j, i = np.nonzero(a.view(np.int64) != lat.view(np.int64))
        starts = np.searchsorted(j, np.arange(grid.ny + 1)).tolist()
        parts.append((_strings(lat.ravel()), starts, i, _strings(a[j, i])))
    (xline, xs, xi, xp), (yline, ys, yi, yp) = parts

    def fill(xcol, ycol, ccol, j):
        xcol[:] = xline
        ycol[:] = yline[j]
        xcol[xi[xs[j]:xs[j + 1]]] = xp[xs[j]:xs[j + 1]]
        ycol[yi[ys[j]:ys[j + 1]]] = yp[ys[j]:ys[j + 1]]
        ccol[:] = _NAME_BY_CODE[codes[:, j]]
    return fill


def _check_shapes(grid: GridTopology, **arrays) -> None:
    """Raise ValueError naming the first array (None skipped) whose shape
    is not the grid's."""
    for name, a in arrays.items():
        if a is not None and np.shape(a) != grid.shape:
            raise ValueError(f"{name} has shape {np.shape(a)}, "
                             f"the grid {grid.shape}")


def _emit(fh, blocks, ny: int, rows: range) -> int:
    """For each row ``k`` of ``rows``, lattice row ``j`` of block ``b`` with
    ``b, j = divmod(k, ny)``, write the block's ``head`` if ``j`` is 0, then
    ``fmt % values(j)``. Return the number of characters written."""
    size = 0
    for k in rows:
        b, j = divmod(k, ny)
        head, fmt, values = blocks[b]
        if j == 0:
            size += fh.write(head)
        size += fh.write(fmt % values(j))
    return size


# Chunks of a file's rows, shared out as the two writers go, so the slower
# CPU formats fewer (two KVM vCPUs ran it up to 1.7x apart, for seconds).
_CHUNKS = 32


def _emit_split(fh, path, blocks, ny: int, rows: range) -> None:
    """Emit ``rows`` to ``fh`` in ``_CHUNKS`` chunks shared by ``lane_claims``
    between this process (lane 0, into ``fh``) and one forked child (lane
    1, into a side file in ``path``'s directory, then the size of each).
    Once the child has exited, its chunks are appended in row order and
    the side file is deleted."""
    n = len(rows)
    chunks = [rows[k * n // _CHUNKS:(k + 1) * n // _CHUNKS]
              for k in range(_CHUNKS)]
    with lane_claims(_CHUNKS, 2) as claims:
        fd, side = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.",
                                    dir=os.path.dirname(os.path.abspath(path)))
        pid = 0
        try:
            # ASCII, so that a chunk's size in characters is its size in bytes
            with open(fd, "w", encoding="ascii") as part:
                pid = os.fork()
                if pid == 0:
                    # os._exit: nothing of the parent's (buffers, atexit,
                    # the test runner) runs or is flushed a second time.
                    status = 1
                    try:
                        sizes = [0] * _CHUNKS
                        for k in claims(1):
                            sizes[k] = _emit(part, blocks, ny, chunks[k])
                        part.flush()
                        part.buffer.write(struct.pack(f"{_CHUNKS}q", *sizes))
                        part.flush()
                        status = 0
                    except Exception:
                        traceback.print_exc()
                    finally:
                        os._exit(status)
            for last in claims(0):
                _emit(fh, blocks, ny, chunks[last])
            status = os.waitpid(pid, 0)[1]
            pid = 0
            if status:
                raise OSError("the forked row writer exited with status "
                              f"{os.waitstatus_to_exitcode(status)}")
            fh.flush()
            with open(side, "rb") as src:
                src.seek(-8 * _CHUNKS, os.SEEK_END)
                sizes = struct.unpack(f"{_CHUNKS}q", src.read(8 * _CHUNKS))
                for k in range(last + 1, _CHUNKS):
                    src.seek(sum(sizes[k + 1:]))
                    for done in range(0, sizes[k], 1 << 16):
                        fh.buffer.write(src.read(min(sizes[k] - done, 1 << 16)))
        finally:
            if pid:  # this process failed first
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.unlink(side)


def _write(path, header: str, blocks, ny: int) -> None:
    """Write ``header``, then for each ``(head, fmt, values)`` of ``blocks``
    ``head`` and ``fmt % values(j)`` for every lattice row j."""
    rows = range(len(blocks) * ny)
    try:
        with open(path, "w") as fh:
            fh.write(header)
            if hasattr(os, "fork") and usable_cpus() >= 2:
                _emit_split(fh, path, blocks, ny, rows)
            else:
                _emit(fh, blocks, ny, rows)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def export_field(state: FieldState, grid: GridTopology,
                 phi: Optional[np.ndarray], classes: np.ndarray,
                 path) -> None:
    """CSV with one row per node, row-major by (j, i); floats carry 17
    significant digits so a re-read reproduces the state bitwise."""
    _check_shapes(grid, phi=phi, hx=state.hx, hy=state.hy, ez=state.ez,
                  classes=classes)
    fill = _node_cells(grid, classes)
    row = np.empty((grid.nx, 7), dtype=object)
    floats = {3: phi, 4: state.hx, 5: state.hy, 6: state.ez}

    def values(j):
        fill(row[:, 0], row[:, 1], row[:, 2], j)
        for k, a in floats.items():
            row[:, k] = 0.0 if a is None else a[:, j]
        return tuple(row.ravel().tolist())
    fmt = "%s,%s,%s,%.17g,%.17g,%.17g,%.17g\n" * grid.nx
    _write(path, "x,y,class,phi,hx,hy,ez\n", [("", fmt, values)], grid.ny)


def read_field_csv(path) -> dict:
    """Load an export_field CSV back into flat arrays (row-major by (j, i))."""
    path = Path(path)
    cols: dict = {"x": [], "y": [], "class": [], "phi": [],
                  "hx": [], "hy": [], "ez": []}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(cols):
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        for lineno, line in enumerate(fh, start=2):
            vals = line.strip().split(",")
            if len(vals) != len(cols):
                raise ValueError(f"{path}:{lineno}: {len(vals)} fields, not {len(cols)}")
            for name, v in zip(cols, vals):
                cols[name].append(v if name == "class" else float(v))
    return {k: (v if k == "class" else np.array(v)) for k, v in cols.items()}


def export_grid(grid: GridTopology, classes: np.ndarray, path) -> None:
    """Grid dump: i,j,x,y,shifted,class — one row per node."""
    _check_shapes(grid, classes=classes)
    fill = _node_cells(grid, classes)
    row = np.empty((grid.nx, 5), dtype=object)

    def values(j):
        row[:, 0] = str(j)
        fill(row[:, 1], row[:, 2], row[:, 4], j)
        row[:, 3] = grid.shifted[:, j]
        return tuple(row.ravel().tolist())
    fmt = "".join(f"{i},%s,%s,%s,%d,%s\n" for i in range(grid.nx))
    _write(path, "i,j,x,y,shifted,class\n", [("", fmt, values)], grid.ny)


def export_vtk(state: FieldState, grid: GridTopology,
               phi: Optional[np.ndarray], path) -> None:
    """Legacy-VTK structured points over the unshifted lattice with nodal
    scalars (visualization convenience; shifted coordinates live in the CSV)."""
    _check_shapes(grid, phi=phi, hx=state.hx, hy=state.hy, ez=state.ez)
    fields = {"ez": state.ez, "hx": state.hx, "hy": state.hy}
    if phi is not None:
        fields["phi"] = phi
    line = " ".join(["%.17g"] * grid.nx) + "\n"
    header = (f"# vtk DataFile Version 3.0\npecshift fields t={state.time:.17g}\n"
              f"ASCII\nDATASET STRUCTURED_POINTS\nDIMENSIONS {grid.nx} {grid.ny} 1\n"
              f"ORIGIN {grid.x0:.17g} {grid.y0:.17g} 0\nSPACING {grid.dx:.17g} "
              f"{grid.dy:.17g} 1\nPOINT_DATA {grid.nx * grid.ny}\n")
    _write(path, header,
           [(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", line,
             lambda j, a=arr: tuple(a[:, j].tolist()))
            for name, arr in fields.items()], grid.ny)
