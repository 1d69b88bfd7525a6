"""Field and grid export: CSV (lossless 17-digit floats) and legacy VTK.

Every float is written as ``%.17g``, so a re-read reproduces it bitwise,
and the files are byte-identical to formatting each node on its own with
``f"{v:.17g}"``. They are written one lattice row ``j`` at a time, with one
``%`` operation per row; no whole-file table is built, so memory stays at
a few rows plus the per-node coordinate strings and class names.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .grid import CLASS_NAMES, GridTopology, NodeClass
from .solver import FieldState

# Class name of each NodeClass code, indexed by the code.
_NAME_BY_CODE = np.array([CLASS_NAMES[NodeClass(k)] for k in range(len(NodeClass))],
                        dtype=object)


def _class_names(classes: np.ndarray) -> np.ndarray:
    """Class name of every node; an unknown code raises ValueError, as
    ``NodeClass(code)`` does (a negative index would wrap around)."""
    codes = np.asarray(classes)
    bad = (codes < 0) | (codes >= len(_NAME_BY_CODE))
    if bad.any():
        NodeClass(int(codes[bad][0]))
    return _NAME_BY_CODE[codes]


def _coord_strings(a: np.ndarray) -> np.ndarray:
    """``%.17g`` of every entry, formatting each distinct float64 bit pattern
    once. Deduped by bits, not value: -0.0 prints ``-0`` and 0.0 ``0``."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits, inverse = np.unique(a.view(np.int64).ravel(), return_inverse=True)
    table = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()],
                     dtype=object)
    return table[inverse].reshape(a.shape)


def _rows(columns) -> Iterator[tuple]:
    """For each lattice row j, the values of ``columns`` (each ``(nx, ny)``)
    node by node, interleaved into one tuple."""
    nx, ny = np.shape(columns[0])
    row = np.empty((nx, len(columns)), dtype=object)
    for j in range(ny):
        for k, col in enumerate(columns):
            row[:, k] = col[:, j]
        yield tuple(row.ravel().tolist())


def export_field(state: FieldState, grid: GridTopology,
                 phi: Optional[np.ndarray], classes: np.ndarray,
                 path) -> None:
    """CSV with one row per node, row-major by (j, i); floats carry 17
    significant digits so a re-read reproduces the state bitwise."""
    path = Path(path)
    phi_arr = np.zeros(grid.shape) if phi is None else phi
    columns = (_coord_strings(grid.x), _coord_strings(grid.y),
               _class_names(classes), phi_arr, state.hx, state.hy, state.ez)
    fmt = "%s,%s,%s,%.17g,%.17g,%.17g,%.17g\n" * grid.nx
    try:
        with open(path, "w") as fh:
            fh.write("x,y,class,phi,hx,hy,ez\n")
            for values in _rows(columns):
                fh.write(fmt % values)
    except OSError as err:
        raise OSError(f"cannot write field CSV {path}: {err}") from err


def read_field_csv(path) -> dict:
    """Load an export_field CSV back into flat arrays (row-major by (j, i))."""
    path = Path(path)
    cols: dict = {"x": [], "y": [], "class": [], "phi": [],
                  "hx": [], "hy": [], "ez": []}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(cols):
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        for line in fh:
            vals = line.strip().split(",")
            for name, v in zip(cols, vals):
                cols[name].append(v if name == "class" else float(v))
    return {k: (v if k == "class" else np.array(v)) for k, v in cols.items()}


def export_grid(grid: GridTopology, classes: np.ndarray, path) -> None:
    """Grid dump: i,j,x,y,shifted,class — one row per node."""
    path = Path(path)
    columns = (np.broadcast_to(np.arange(grid.nx)[:, None], grid.shape),
               _coord_strings(grid.x), _coord_strings(grid.y),
               grid.shifted.astype(np.int64), _class_names(classes))
    with open(path, "w") as fh:
        fh.write("i,j,x,y,shifted,class\n")
        for j, values in enumerate(_rows(columns)):
            fh.write((f"%d,{j},%s,%s,%d,%s\n" * grid.nx) % values)


def export_vtk(state: FieldState, grid: GridTopology,
               phi: Optional[np.ndarray], path) -> None:
    """Legacy-VTK structured points over the unshifted lattice with nodal
    scalars (visualization convenience; shifted coordinates live in the CSV)."""
    path = Path(path)
    n = grid.nx * grid.ny
    fields = {"ez": state.ez, "hx": state.hx, "hy": state.hy}
    if phi is not None:
        fields["phi"] = phi
    line = " ".join(["%.17g"] * grid.nx) + "\n"
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"pecshift fields t={state.time:.17g}\n")
        fh.write("ASCII\nDATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {grid.nx} {grid.ny} 1\n")
        fh.write(f"ORIGIN {grid.x0:.17g} {grid.y0:.17g} 0\n")
        fh.write(f"SPACING {grid.dx:.17g} {grid.dy:.17g} 1\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, arr in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for j in range(grid.ny):
                fh.write(line % tuple(arr[:, j].tolist()))
