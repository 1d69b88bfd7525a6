import numpy as np

from pecshift.cli import main
from pecshift.export import read_field_csv


def write_config(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return path


def run_cli(tmp_path, command, config):
    return main(["--quiet", "--output-dir", str(tmp_path / "out"),
                 command, str(config)])


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_cli(tmp_path, "run", tmp_path / "absent.cfg") == 2
    assert "config not found" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "grid_size = 30\nbogus = 1\n")
    assert run_cli(tmp_path, "run", config) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_redistance_without_shape_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, "shape = none\ngrid_size = 16\n")
    assert run_cli(tmp_path, "redistance", config) == 1
    assert "need a shape" in capsys.readouterr().err


def test_run_writes_results_and_snapshots(tmp_path):
    # dt = 0.25 * 10/29: three steps to T = 0.2, the last one shortened
    config = write_config(tmp_path, "grid_size = 30\nfinal_time = 0.2\n"
                                    "cfl = 0.25\nsnapshot_every = 1\n")
    assert run_cli(tmp_path, "run", config) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "final.csv", "final.vtk", "grid.csv", "snapshot_00001.csv",
        "snapshot_00002.csv", "snapshot_00003.csv"]
    final = read_field_csv(out / "final.csv")
    assert len(final["ez"]) == 30 * 30
    assert np.isfinite(final["ez"]).all()


def test_freespace_runs_both_schemes_without_the_shape(tmp_path, capsys):
    # the config keeps its circle; the study drops it
    config = write_config(tmp_path, "grid_sizes = 16, 24\nfinal_time = 0.2\n")
    assert run_cli(tmp_path, "freespace", config) == 0
    text = capsys.readouterr().out
    assert "free space, scheme=plain" in text
    assert "free space, scheme=bfecc" in text
    for name in ("freespace_plain.csv", "freespace_bfecc.csv"):
        rows = (tmp_path / "out" / name).read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["16", "24"]


def test_convergence_in_a_worker_pool_writes_the_table(tmp_path, capsys):
    config = write_config(tmp_path, "grid_sizes = 30, 40\nreference_size = 80\n"
                                    "final_time = 0.2\nparallel_grids = yes\n"
                                    "threads = 2\n")
    assert run_cli(tmp_path, "convergence", config) == 0
    assert "reference 80^2" in capsys.readouterr().out
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["convergence.csv",
                                                     "convergence.txt"]


def test_redistance_reports_and_writes_the_grid(tmp_path, capsys):
    config = write_config(tmp_path, "grid_size = 40\n")
    assert run_cli(tmp_path, "redistance", config) == 0
    assert "node classes" in capsys.readouterr().out
    rows = (tmp_path / "out" / "grid.csv").read_text().splitlines()
    assert len(rows) == 1 + 40 * 40
