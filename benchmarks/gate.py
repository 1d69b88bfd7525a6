"""Correctness gate and accuracy metrics of one benchmark repetition.

Each check returns a list of problems; an empty list passes. A
repetition with any problem counts as a failed operation.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

BOUNDARY_TOL = 1e-12
EXPORT_SAMPLES = 64


def geometry_counts(setup) -> dict:
    """Node-class counts and shift drops of a built setup."""
    from pecshift.grid import NodeClass

    counts = {c.name.lower(): int((setup.classes == c).sum()) for c in NodeClass}
    counts["shift_drops"] = int(setup.grid.shift_drops)
    return counts


def check_state(state, setup) -> list:
    """Finite fields, and the PEC trace (Ez = 0, H.n = 0) on boundary nodes."""
    from pecshift.grid import NodeClass

    problems = [f"non-finite {name}" for name in ("hx", "hy", "ez")
                if not np.isfinite(getattr(state, name)).all()]
    b = setup.classes == NodeClass.BOUNDARY
    if b.any():
        ez_max = float(np.abs(state.ez[b]).max())
        hn = state.hx[b] * setup.ls.normal_x[b] + state.hy[b] * setup.ls.normal_y[b]
        hn_max = float(np.abs(hn).max())
        # Written as "not <=" so that a NaN fails too.
        if not ez_max <= BOUNDARY_TOL:
            problems.append(f"max |Ez| on boundary nodes {ez_max:.3e} > {BOUNDARY_TOL:g}")
        if not hn_max <= BOUNDARY_TOL:
            problems.append(f"max |H.n| on boundary nodes {hn_max:.3e} > {BOUNDARY_TOL:g}")
    return problems


def check_geometry(setup, expected: dict) -> list:
    counts = geometry_counts(setup)
    return [f"{key}: {counts.get(key)} != recorded {want}"
            for key, want in expected.items() if counts.get(key) != want]


def pec_errors(state, setup, reference: dict, band_dx: float):
    """Mean |error| of (ez, hx) over exterior nodes within ``band_dx`` dx
    of the PEC, against the stored reference values.

    Returns (err_ez, err_hx, problems); the errors are None when some
    sampled node has no stored value.
    """
    from pecshift.analysis import sampling_mask

    mask = sampling_mask(setup.ls.phi, setup.classes, band_dx, setup.grid.dx)
    ref_hx = np.full(setup.grid.shape, np.nan)
    ref_ez = np.full(setup.grid.shape, np.nan)
    nodes = np.asarray(reference["nodes"], dtype=float).reshape(-1, 4)
    ii, jj = nodes[:, 0].astype(np.intp), nodes[:, 1].astype(np.intp)
    ref_hx[ii, jj] = nodes[:, 2]
    ref_ez[ii, jj] = nodes[:, 3]
    absent = int(np.isnan(ref_ez[mask]).sum())
    if absent:
        return None, None, [f"{absent} sampled nodes have no reference value"]
    err_ez = float(np.mean(np.abs(state.ez[mask] - ref_ez[mask])))
    err_hx = float(np.mean(np.abs(state.hx[mask] - ref_hx[mask])))
    return err_ez, err_hx, finite_errors(err_ez, err_hx)


def freespace_errors(state, setup, omega: float):
    """Mean |error| of (ez, hx) against the analytic plane wave."""
    from pecshift import analysis

    err_ez, err_hx = analysis.freespace_errors(state, setup, omega)
    return err_ez, err_hx, finite_errors(err_ez, err_hx)


def finite_errors(err_ez, err_hx) -> list:
    return [f"{name} is not a finite number: {v!r}"
            for name, v in (("err_ez_l1", err_ez), ("err_hx_l1", err_hx))
            if not np.isfinite(v)]


def _sample_nodes(shape, seed: int) -> list:
    rng = random.Random(seed)
    return [(rng.randrange(shape[0]), rng.randrange(shape[1]))
            for _ in range(EXPORT_SAMPLES)]


def check_field_csv(path: Path, state, grid, seed: int) -> list:
    """Row count, and a seeded sample of rows read back bitwise."""
    lines = Path(path).read_text().splitlines()
    if len(lines) != 1 + grid.nx * grid.ny:
        return [f"{path.name}: {len(lines)} lines, expected {1 + grid.nx * grid.ny}"]
    problems = []
    for i, j in _sample_nodes(grid.shape, seed):
        cols = lines[1 + j * grid.nx + i].split(",")
        got = [float(cols[k]) for k in (0, 1, 4, 5, 6)]
        want = [grid.x[i, j], grid.y[i, j],
                state.hx[i, j], state.hy[i, j], state.ez[i, j]]
        if got != want:
            problems.append(f"{path.name}: row for node ({i}, {j}) differs")
    return problems


def check_grid_csv(path: Path, grid, seed: int) -> list:
    lines = Path(path).read_text().splitlines()
    if len(lines) != 1 + grid.nx * grid.ny:
        return [f"{path.name}: {len(lines)} lines, expected {1 + grid.nx * grid.ny}"]
    problems = []
    for i, j in _sample_nodes(grid.shape, seed):
        cols = lines[1 + j * grid.nx + i].split(",")
        ok = (int(cols[0]) == i and int(cols[1]) == j
              and float(cols[2]) == grid.x[i, j]
              and float(cols[3]) == grid.y[i, j]
              and int(cols[4]) == int(grid.shifted[i, j]))
        if not ok:
            problems.append(f"{path.name}: row for node ({i}, {j}) differs")
    return problems


def check_vtk(path: Path, state, grid, seed: int) -> list:
    """Every scalar block present with ny rows; seeded values bitwise."""
    lines = Path(path).read_text().splitlines()
    problems = []
    for name in ("ez", "hx", "hy"):
        head = f"SCALARS {name} double 1"
        if head not in lines:
            problems.append(f"{path.name}: no {name} block")
            continue
        first = lines.index(head) + 2
        rows = lines[first:first + grid.ny]
        arr = getattr(state, name)
        if len(rows) != grid.ny:
            problems.append(f"{path.name}: {name} block has {len(rows)} rows")
            continue
        for i, j in _sample_nodes(grid.shape, seed):
            vals = rows[j].split(" ")
            if len(vals) != grid.nx or float(vals[i]) != arr[i, j]:
                problems.append(f"{path.name}: {name} at node ({i}, {j}) differs")
    return problems
