import numpy as np

from pecshift.cli import main
from pecshift.export import read_field_csv
from pecshift.solver import MaxwellStepper


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


def test_run_writes_each_snapshot_before_the_next_step(tmp_path, monkeypatch):
    config = write_config(tmp_path, "grid_size = 30\nfinal_time = 0.2\n"
                                    "cfl = 0.25\nsnapshot_every = 1\n")
    out = tmp_path / "out"
    seen = {}  # step k -> snapshot k's bytes as step k + 1 starts
    steps = []
    step = MaxwellStepper.bfecc_step

    def recording_step(self, state, dt):
        k = len(steps)
        steps.append(k)
        if k:
            path = out / f"snapshot_{k:05d}.csv"
            seen[k] = path.read_bytes() if path.exists() else None
        return step(self, state, dt)

    monkeypatch.setattr(MaxwellStepper, "bfecc_step", recording_step)
    assert run_cli(tmp_path, "run", config) == 0
    assert list(seen) == [1, 2]
    for k, data in seen.items():
        assert data == (out / f"snapshot_{k:05d}.csv").read_bytes()


def test_freespace_runs_both_schemes_without_the_shape(tmp_path, capsys):
    # the config keeps its circle; the study drops it
    config = write_config(tmp_path, "grid_sizes = 16, 24\nfinal_time = 0.2\n"
                                    "cfl = 0.6\n")
    assert run_cli(tmp_path, "freespace", config) == 0
    text = capsys.readouterr().out
    assert "free space, scheme=plain" in text
    assert "free space, scheme=bfecc" in text
    for name in ("freespace_plain.csv", "freespace_bfecc.csv"):
        rows = (tmp_path / "out" / name).read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["16", "24"]


def test_freespace_rejects_a_cfl_unstable_for_the_plain_scheme(tmp_path, capsys):
    # cfl 1 suits the config's BFECC but not the plain column of the study
    config = write_config(tmp_path, "grid_sizes = 16, 24\nfinal_time = 0.2\n")
    assert run_cli(tmp_path, "freespace", config) == 2
    assert "plain scheme's stability bound 0.63246" in capsys.readouterr().err
    assert not (tmp_path / "out" / "freespace_plain.csv").exists()


def test_convergence_in_a_worker_pool_writes_the_table(tmp_path, capsys):
    config = write_config(tmp_path, "grid_sizes = 30, 40\nreference_size = 80\n"
                                    "final_time = 0.2\nparallel_grids = yes\n"
                                    "threads = 2\n")
    assert run_cli(tmp_path, "convergence", config) == 0
    assert "reference 80^2" in capsys.readouterr().out
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["convergence.csv",
                                                     "convergence.txt"]
