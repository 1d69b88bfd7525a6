import dataclasses
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from pecshift import export
from pecshift.config import SimulationConfig
from pecshift.export import export_field, export_grid, export_vtk, read_field_csv
from pecshift.grid import (CLASS_NAMES, NodeClass, apply_point_shift,
                           build_uniform_grid, classify_nodes)
from pecshift.levelset import redistance
from pecshift.shapes import Domain, boundary_intersections
from pecshift.solver import FieldState, run_simulation

from conftest import CIRCLE, circle_geometry


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """The forked writer runs whatever CPUs this host allows; the one-CPU
    path is tested on its own."""
    monkeypatch.setattr(export, "usable_cpus", lambda: 2)


# Oracle: the per-node writers, one f"{v:.17g}" per float. The exporters
# must write exactly these bytes.
def oracle_field(state, grid, phi, classes, path):
    phi_arr = np.zeros(grid.shape) if phi is None else phi
    with open(path, "w") as fh:
        fh.write("x,y,class,phi,hx,hy,ez\n")
        for j in range(grid.ny):
            for i in range(grid.nx):
                fh.write(",".join((
                    f"{grid.x[i, j]:.17g}", f"{grid.y[i, j]:.17g}",
                    CLASS_NAMES[NodeClass(classes[i, j])],
                    f"{phi_arr[i, j]:.17g}", f"{state.hx[i, j]:.17g}",
                    f"{state.hy[i, j]:.17g}", f"{state.ez[i, j]:.17g}")) + "\n")


def oracle_grid(grid, classes, path):
    with open(path, "w") as fh:
        fh.write("i,j,x,y,shifted,class\n")
        for j in range(grid.ny):
            for i in range(grid.nx):
                fh.write(f"{i},{j},{grid.x[i, j]:.17g},{grid.y[i, j]:.17g},"
                         f"{int(grid.shifted[i, j])},"
                         f"{CLASS_NAMES[NodeClass(classes[i, j])]}\n")


def oracle_vtk(state, grid, phi, path):
    fields = {"ez": state.ez, "hx": state.hx, "hy": state.hy}
    if phi is not None:
        fields["phi"] = phi
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"pecshift fields t={state.time:.17g}\n")
        fh.write("ASCII\nDATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {grid.nx} {grid.ny} 1\n")
        fh.write(f"ORIGIN {grid.x0:.17g} {grid.y0:.17g} 0\n")
        fh.write(f"SPACING {grid.dx:.17g} {grid.dy:.17g} 1\n")
        fh.write(f"POINT_DATA {grid.nx * grid.ny}\n")
        for name, arr in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for j in range(grid.ny):
                fh.write(" ".join(f"{arr[i, j]:.17g}" for i in range(grid.nx)))
                fh.write("\n")


@pytest.fixture(scope="module")
def circle_run():
    cfg = SimulationConfig(grid_size=40, final_time=0.5).validate()
    state, setup = run_simulation(cfg)
    return state, setup.grid, setup.ls.phi, setup.classes


def non_square_case():
    """Circle-shifted 37 x 23 grid with a random state, so that an i/j swap
    changes the files."""
    grid = build_uniform_grid(Domain(), 37, 23)
    grid = apply_point_shift(grid, boundary_intersections(
        CIRCLE, grid.lattice_x(), grid.lattice_y()))
    phi = redistance(CIRCLE, grid)
    classes = classify_nodes(grid, phi)
    rng = np.random.default_rng(12)
    state = FieldState(*(rng.standard_normal(grid.shape) for _ in range(3)),
                       time=0.25)
    return state, grid, phi, classes


def special_values_case():
    """Signed zeros, nan, infinities and the smallest subnormal in the
    coordinates, phi and every field."""
    state, grid, phi, classes = non_square_case()
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]
    x, y = grid.x.copy(), grid.y.copy()
    # The lattice's first column and row already hold 0.0; a -0.0 next to
    # them catches coordinates deduped by value instead of by bit pattern.
    x[3, :len(specials)] = specials
    y[:len(specials), 5] = specials
    grid = dataclasses.replace(grid, x=x, y=y)
    arrays = [phi.copy(), state.hx.copy(), state.hy.copy(), state.ez.copy()]
    for k, arr in enumerate(arrays):
        arr[k + 1, :len(specials)] = specials
        arr[:len(specials), k + 2] = specials[::-1]
    phi, hx, hy, ez = arrays
    assert np.signbit(hx).any() and (hx == 0).any()
    return FieldState(hx, hy, ez, time=-0.0), grid, phi, classes


def without_phi(case):
    state, grid, _, classes = case
    return state, grid, None, classes


CASES = {
    "circle_40": lambda run: run,
    "circle_40_no_phi": without_phi,
    "non_square_37x23": lambda run: non_square_case(),
    "non_square_no_phi": lambda run: without_phi(non_square_case()),
    "special_values": lambda run: special_values_case(),
}


# fork=False runs the in-process writer, the one path where os.fork does
# not exist.
@pytest.mark.parametrize("case, fork", [
    *(pytest.param(case, True, id=case) for case in CASES),
    *(pytest.param(case, False, id=f"{case}-in_process") for case in CASES)])
def test_files_match_the_per_node_writers_byte_for_byte(case, fork, circle_run,
                                                        tmp_path, monkeypatch):
    if not fork:
        monkeypatch.delattr(os, "fork")
    state, grid, phi, classes = CASES[case](circle_run)
    export_field(state, grid, phi, classes, tmp_path / "field.csv")
    oracle_field(state, grid, phi, classes, tmp_path / "field_oracle.csv")
    export_vtk(state, grid, phi, tmp_path / "field.vtk")
    oracle_vtk(state, grid, phi, tmp_path / "field_oracle.vtk")
    export_grid(grid, classes, tmp_path / "grid.csv")
    oracle_grid(grid, classes, tmp_path / "grid_oracle.csv")
    for name in ("field.csv", "field.vtk", "grid.csv"):
        stem, ext = name.split(".")
        written = (tmp_path / name).read_bytes()
        assert written == (tmp_path / f"{stem}_oracle.{ext}").read_bytes(), name
        assert written.count(b"\n") > grid.ny


def exporter_calls(state, grid, phi, classes, path):
    return {
        "field": lambda: export_field(state, grid, phi, classes, path),
        "vtk": lambda: export_vtk(state, grid, phi, path),
        "grid": lambda: export_grid(grid, classes, path),
    }


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exporter", ["field", "vtk", "grid"])
def test_exporter_leaves_only_its_file_and_no_child(exporter, tmp_path):
    path = tmp_path / "out.txt"
    exporter_calls(*non_square_case(), path)[exporter]()
    assert_no_child_left()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("exporter", ["field", "vtk", "grid"])
def test_one_usable_cpu_writes_in_process_the_same_bytes(exporter, tmp_path,
                                                         monkeypatch):
    forked, alone = tmp_path / "forked", tmp_path / "alone"
    forked.mkdir()
    alone.mkdir()
    case = non_square_case()
    exporter_calls(*case, forked / "out.txt")[exporter]()

    def no_fork():
        raise AssertionError("forked with one usable CPU")
    monkeypatch.setattr(export, "usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    exporter_calls(*case, alone / "out.txt")[exporter]()
    assert_no_child_left()
    assert [p.name for p in alone.iterdir()] == ["out.txt"]
    assert ((alone / "out.txt").read_bytes()
            == (forked / "out.txt").read_bytes())


class OneSideRows(np.ndarray):
    """An array whose row reads raise or sleep (``action``) in the forked
    writer alone (``side`` = "child") or in the test's own process alone
    ("parent")."""
    test_pid, side, action = 0, "child", "raise"

    def __getitem__(self, key):
        if (os.getpid() == self.test_pid) == (self.side == "parent"):
            if self.action == "raise":
                raise RuntimeError(f"injected fault in the {self.side}")
            time.sleep(0.002)
        return super().__getitem__(key)


def one_side_case(monkeypatch, side, action):
    """non_square_case with every array an exporter reads by rows viewed
    as OneSideRows."""
    monkeypatch.setattr(OneSideRows, "test_pid", os.getpid())
    monkeypatch.setattr(OneSideRows, "side", side)
    monkeypatch.setattr(OneSideRows, "action", action)
    state, grid, phi, classes = non_square_case()
    state = FieldState(*(a.view(OneSideRows) for a in
                         (state.hx, state.hy, state.ez)), time=state.time)
    grid = dataclasses.replace(grid, shifted=grid.shifted.view(OneSideRows))
    return state, grid, phi.view(OneSideRows), classes


@pytest.mark.parametrize("side", ["child", "parent"])
@pytest.mark.parametrize("exporter", ["field", "vtk", "grid"])
def test_a_writer_fault_leaves_no_side_file_and_no_child(exporter, side,
                                                         tmp_path,
                                                         monkeypatch):
    path = tmp_path / "out.txt"
    call = exporter_calls(*one_side_case(monkeypatch, side, "raise"),
                          path)[exporter]
    if side == "child":
        with pytest.raises(OSError, match=re.escape(f"cannot write {path}: ")):
            call()
    else:
        with pytest.raises(RuntimeError, match="injected fault in the parent"):
            call()
    assert_no_child_left()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("slow", ["child", "parent"])
def test_files_are_the_same_whichever_process_formats_more(slow, tmp_path,
                                                           monkeypatch):
    # The slow process formats only its end chunk, or little more; the
    # other claims the rest.
    state, grid, phi, classes = one_side_case(monkeypatch, slow, "sleep")
    export_field(state, grid, phi, classes, tmp_path / "field.csv")
    export_vtk(state, grid, phi, tmp_path / "field.vtk")
    export_grid(grid, classes, tmp_path / "grid.csv")
    state, grid, phi, classes = non_square_case()
    oracle_field(state, grid, phi, classes, tmp_path / "field_oracle.csv")
    oracle_vtk(state, grid, phi, tmp_path / "field_oracle.vtk")
    oracle_grid(grid, classes, tmp_path / "grid_oracle.csv")
    for name in ("field.csv", "field.vtk", "grid.csv"):
        stem, ext = name.split(".")
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / f"{stem}_oracle.{ext}").read_bytes()), name


@pytest.mark.parametrize("exporter, name, shape", [
    pytest.param("field", "phi", (40, 41), id="field-phi-40x41"),
    pytest.param("vtk", "phi", (40, 41), id="vtk-phi-40x41"),
    pytest.param("vtk", "hx", (40, 45), id="vtk-fields-40x45"),
    pytest.param("field", "hx", (39, 40), id="field-fields-39x40"),
    pytest.param("grid", "classes", (40, 41), id="grid-classes-40x41"),
])
def test_a_misshapen_array_is_named_before_any_file_is_written(
        exporter, name, shape, circle_run, tmp_path):
    state, grid, phi, classes = circle_run
    assert grid.shape == (40, 40)
    if name == "phi":
        phi = np.zeros(shape)
    elif name == "classes":
        classes = np.zeros(shape, dtype=np.int8)
    else:
        state = FieldState(*(np.zeros(shape) for _ in range(3)))
    call = exporter_calls(state, grid, phi, classes, tmp_path / "out.txt")
    with pytest.raises(ValueError, match=re.escape(
            f"{name} has shape {shape}, the grid (40, 40)")):
        call[exporter]()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("code", [-1, -4, len(NodeClass), 127])
def test_unknown_class_code_raises(code, tmp_path):
    state, grid, phi, classes = non_square_case()
    classes = classes.copy()
    classes[2, 1] = code
    with pytest.raises(ValueError, match=f"{code} is not a valid NodeClass"):
        export_field(state, grid, phi, classes, tmp_path / "field.csv")
    with pytest.raises(ValueError, match=f"{code} is not a valid NodeClass"):
        export_grid(grid, classes, tmp_path / "grid.csv")


def test_field_csv_roundtrip_bitwise(circle_run, tmp_path):
    state, grid, phi, classes = circle_run
    path = tmp_path / "final.csv"
    export_field(state, grid, phi, classes, path)
    back = read_field_csv(path)

    def rows(a):  # the CSV is row-major by (j, i)
        return a.T.reshape(-1)

    for name, arr in (("x", grid.x), ("y", grid.y), ("phi", phi),
                      ("hx", state.hx), ("hy", state.hy), ("ez", state.ez)):
        assert np.array_equal(back[name], rows(arr)), name
    assert back["class"] == [CLASS_NAMES[NodeClass(c)] for c in rows(classes)]
    assert {"boundary", "ghost"} <= set(back["class"])
    assert np.abs(state.ez).max() > 0.1


@pytest.fixture(scope="module")
def large_circles():
    """Circle geometry with a random state at 200^2 and 400^2."""
    cases = []
    for n in (200, 400):
        grid, classes, _, ls = circle_geometry(n)
        rng = np.random.default_rng(3)
        state = FieldState(*(rng.standard_normal(grid.shape) for _ in range(3)))
        cases.append((state, grid, ls.phi, classes))
    return cases


@pytest.mark.parametrize("exporter", ["field", "field_no_phi", "vtk", "grid"])
def test_export_memory_stays_per_row(exporter, large_circles, tmp_path):
    # One whole-grid object or int64 table is 0.32 MB at 200^2 and 1.3 MB
    # at 400^2; the row writer stays near 0.3 MB at 400^2.
    for state, grid, phi, classes in large_circles:
        calls = {
            "field": lambda: export_field(state, grid, phi, classes,
                                          tmp_path / "f.csv"),
            "field_no_phi": lambda: export_field(state, grid, None, classes,
                                                 tmp_path / "f.csv"),
            "vtk": lambda: export_vtk(state, grid, phi, tmp_path / "f.vtk"),
            "grid": lambda: export_grid(grid, classes, tmp_path / "g.csv"),
        }
        tracemalloc.start()
        try:
            calls[exporter]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, (grid.shape, peak)


@pytest.mark.parametrize("exporter", ["field", "vtk", "grid"])
def test_unwritable_path_raises_an_oserror_naming_the_file(exporter, tmp_path):
    state, grid, phi, classes = non_square_case()
    path = tmp_path / "missing" / "out.txt"
    calls = {
        "field": lambda: export_field(state, grid, phi, classes, path),
        "vtk": lambda: export_vtk(state, grid, phi, path),
        "grid": lambda: export_grid(grid, classes, path),
    }
    with pytest.raises(OSError, match=re.escape(f"cannot write {path}: ")) as info:
        calls[exporter]()
    assert isinstance(info.value.__cause__, FileNotFoundError)


@pytest.mark.parametrize("row, fields", [(-1, 6), (4, 8)])
def test_read_rejects_a_row_with_the_wrong_field_count(row, fields,
                                                       circle_run, tmp_path):
    # Row -1 is the last row cut short; row 4 has one field too many.
    state, grid, phi, classes = circle_run
    path = tmp_path / "final.csv"
    export_field(state, grid, phi, classes, path)
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    lines[row] = ",".join(cells[:6] if fields == 6 else cells + ["0"])
    path.write_text("\n".join(lines) + "\n")
    lineno = row % len(lines) + 1
    with pytest.raises(ValueError,
                       match=f"final.csv:{lineno}: {fields} fields, not 7"):
        read_field_csv(path)
