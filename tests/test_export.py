import numpy as np

from pecshift.config import SimulationConfig
from pecshift.export import export_field, read_field_csv
from pecshift.grid import CLASS_NAMES, NodeClass
from pecshift.solver import run_simulation


def test_field_csv_roundtrip_bitwise(tmp_path):
    cfg = SimulationConfig(grid_size=40, final_time=0.5).validate()
    state, setup = run_simulation(cfg)
    grid, classes, phi = setup.grid, setup.classes, setup.ls.phi
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
