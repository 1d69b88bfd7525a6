"""The correctness gate rejects corrupted final states and exports."""

import numpy as np
import pytest

import gate
from pecshift.config import SimulationConfig
from pecshift.export import export_field, export_grid, export_vtk
from pecshift.grid import NodeClass
from pecshift.solver import build_setup


@pytest.fixture(scope="module")
def final():
    cfg = SimulationConfig(shape="circle", grid_size=60, final_time=0.2)
    setup = build_setup(cfg, cfg.grid_size)
    state = setup.stepper.run(cfg.final_time, setup.dt)
    return setup, state


def test_clean_final_state_passes(final):
    setup, state = final
    assert gate.check_state(state, setup) == []
    assert gate.check_geometry(setup, gate.geometry_counts(setup)) == []


def test_nan_is_rejected(final):
    setup, state = final
    bad = state.copy()
    bad.hy[30, 5] = np.nan
    assert gate.check_state(bad, setup) == ["non-finite hy"]


def test_nonzero_boundary_ez_is_rejected(final):
    setup, state = final
    bad = state.copy()
    i, j = np.argwhere(setup.classes == NodeClass.BOUNDARY)[0]
    bad.ez[i, j] = 1e-9
    problems = gate.check_state(bad, setup)
    assert len(problems) == 1 and "max |Ez|" in problems[0]


def test_nan_on_boundary_is_rejected(final):
    setup, state = final
    bad = state.copy()
    i, j = np.argwhere(setup.classes == NodeClass.BOUNDARY)[0]
    bad.hx[i, j] = np.nan
    problems = gate.check_state(bad, setup)
    assert "non-finite hx" in problems
    assert any("H.n" in p for p in problems)


def test_geometry_change_is_rejected(final):
    setup, _ = final
    counts = gate.geometry_counts(setup)
    counts["shift_drops"] += 1
    assert gate.check_geometry(setup, counts) == [
        f"shift_drops: {counts['shift_drops'] - 1} != recorded {counts['shift_drops']}"]


def test_missing_reference_value_is_rejected(final):
    setup, state = final
    assert gate.pec_errors(state, setup, {"nodes": []}, 10.0)[2] != []


def test_errors_against_own_state_are_zero(final):
    setup, state = final
    ii, jj = np.nonzero(setup.classes == NodeClass.EXTERIOR)
    ref = {"nodes": [[int(i), int(j), float(state.hx[i, j]), float(state.ez[i, j])]
                     for i, j in zip(ii, jj)]}
    assert gate.pec_errors(state, setup, ref, 10.0) == (0.0, 0.0, [])


def test_exports_round_trip_and_corruption_is_caught(final, tmp_path):
    setup, state = final
    field, grid_csv, vtk = (tmp_path / "final.csv", tmp_path / "grid.csv",
                            tmp_path / "final.vtk")
    export_field(state, setup.grid, setup.ls.phi, setup.classes, field)
    export_grid(setup.grid, setup.classes, grid_csv)
    export_vtk(state, setup.grid, setup.ls.phi, vtk)
    for seed in (0, 1):
        assert gate.check_field_csv(field, state, setup.grid, seed) == []
        assert gate.check_grid_csv(grid_csv, setup.grid, seed) == []
        assert gate.check_vtk(vtk, state, setup.grid, seed) == []

    changed = state.copy()
    changed.ez += 1.0
    assert gate.check_field_csv(field, changed, setup.grid, 0) != []
    assert gate.check_vtk(vtk, changed, setup.grid, 0) != []
    field.write_text("x,y\n")
    assert gate.check_field_csv(field, state, setup.grid, 0) != []
