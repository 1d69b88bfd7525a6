import numpy as np

from pecshift import analysis
from pecshift.cli import main
from pecshift.export import read_field_csv
from pecshift.solver import MaxwellStepper, StabilityError


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


def test_repeated_key_exits_2_before_running(tmp_path, capsys):
    config = write_config(tmp_path, "grid_size = 60\ngrid_size = 70\n")
    assert run_cli(tmp_path, "run", config) == 2
    assert capsys.readouterr().err == (
        "error: line 2: 'grid_size' already set on line 1\n")
    assert not (tmp_path / "out").exists()


def test_convergence_without_a_shape_exits_2(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(analysis, "run_simulation", no_run)
    config = write_config(tmp_path, "shape = none\ngrid_sizes = 30, 40\n"
                                    "reference_size = 80\nfinal_time = 0.2\n")
    assert run_cli(tmp_path, "convergence", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shape: convergence_study needs a PEC shape")
    assert len(err.splitlines()) == 1
    assert list((tmp_path / "out").iterdir()) == []


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


def test_freespace_tabulates_a_failed_grid_and_exits_1(tmp_path, capsys,
                                                       monkeypatch):
    run = analysis.run_simulation

    def plain_blows_up_at_16(config, n=None, **kwargs):
        if config.scheme == "plain" and n == 16:
            raise StabilityError(2, 0.1)
        return run(config, n=n, **kwargs)

    monkeypatch.setattr(analysis, "run_simulation", plain_blows_up_at_16)
    config = write_config(tmp_path, "grid_sizes = 16, 24\nfinal_time = 0.2\n"
                                    "cfl = 0.6\n")
    assert run_cli(tmp_path, "freespace", config) == 1
    captured = capsys.readouterr()
    assert "free space, scheme=plain" in captured.out
    assert "free space, scheme=bfecc" in captured.out
    assert "error: 1 grid(s) failed" in captured.err.splitlines()
    rows = {name: (tmp_path / "out" / name).read_text().splitlines()[1:]
            for name in ("freespace_plain.csv", "freespace_bfecc.csv")}
    assert rows["freespace_plain.csv"][0] == (
        "16,,,,,,failed: non-finite field values after step 2 (t=0.1)")
    assert [r.split(",")[-1] for r in rows["freespace_bfecc.csv"]] == [
        "ok", "ok"]


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
    printed = capsys.readouterr().out
    assert "reference 80^2" in printed
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["convergence.csv",
                                                     "convergence.txt"]
    assert (out / "convergence.txt").read_text() == printed
    rows = (out / "convergence.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["30", "40"]


def test_output_dir_under_a_file_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, "grid_size = 30\nfinal_time = 0.2\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["--quiet", "--output-dir", str(blocker / "sub"), "run",
                 str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NotADirectoryError: ")
    assert len(err.splitlines()) == 1


def test_config_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "case.cfg"
    config.write_bytes(b"grid_size = 30\n# caf\xe9\n")
    assert run_cli(tmp_path, "run", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config ")
    assert len(err.splitlines()) == 1
