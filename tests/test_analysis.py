import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from pecshift import analysis
from pecshift.analysis import (AnalysisError, ErrorReport, convergence_study,
                               interpolate_reference, observed_orders,
                               sampling_mask)
from pecshift.config import SimulationConfig
from pecshift.grid import NodeClass, build_uniform_grid
from pecshift.shapes import Domain
from pecshift.solver import FieldState, StabilityError


def test_observed_orders_skip_missing_and_zero_errors():
    errors = [4.0, 1.0, None, 0.5, 0.125, 0.0]
    assert observed_orders(errors) == [None, 2.0, None, None, 2.0, None]


class TestSamplingMask:
    def test_band_selects_exterior_nodes_only(self):
        phi = np.array([[-0.25, -2.0], [0.5, -0.75]])
        classes = np.array([[NodeClass.EXTERIOR, NodeClass.EXTERIOR],
                            [NodeClass.GHOST, NodeClass.BOUNDARY]], dtype=np.int8)
        mask = sampling_mask(phi, classes, band_width=2.0, coarsest_dx=0.5)
        assert mask.tolist() == [[True, False], [False, False]]

    def test_empty_band_raises(self):
        phi = np.full((4, 4), -1.0)
        classes = np.zeros((4, 4), dtype=np.int8)
        with pytest.raises(AnalysisError, match="empty sampling band"):
            sampling_mask(phi, classes, band_width=0.5, coarsest_dx=1.0)


class TestInterpolateReference:
    @pytest.fixture
    def bilinear(self):
        grid = build_uniform_grid(Domain(), 11, 11)

        def field(x, y, k):
            return k + 0.5 * x - 0.25 * y + 0.125 * k * x * y

        state = FieldState(*(field(grid.x, grid.y, k) for k in (1.0, 2.0, 3.0)))
        return SimpleNamespace(grid=grid), state, field

    def test_exact_on_bilinear_field(self, bilinear):
        setup, state, field = bilinear
        rng = np.random.default_rng(4)
        qx, qy = rng.uniform(0, 10, 50), rng.uniform(0, 10, 50)
        qx[:2], qy[:2] = (0.0, 10.0), (10.0, 0.0)  # domain corners
        for got, k in zip(interpolate_reference(state, setup, qx, qy),
                          (1.0, 2.0, 3.0)):
            np.testing.assert_allclose(got, field(qx, qy, k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("qx, qy", [(-0.5, 5.0), (5.0, 10.5)])
    def test_outside_domain_raises(self, bilinear, qx, qy):
        setup, state, _ = bilinear
        with pytest.raises(AnalysisError, match="outside"):
            interpolate_reference(state, setup, np.array([qx]), np.array([qy]))


class TestErrorReport:
    @pytest.fixture
    def report(self):
        return ErrorReport(grid_sizes=[50, 100, 200, 400],
                           sample_counts=[10, 0, 40, 160],
                           err_ez=[0.5, None, 0.125, 0.03125],
                           err_hx=[0.25, None, 0.0625, 0.015625],
                           failures={100: "StabilityError: boom"},
                           label="circle").finalize()

    def test_text_rows(self, report):
        lines = report.to_text().splitlines()
        assert lines[0] == "circle"
        assert lines[3].split() == ["100", "FAILED", "StabilityError:", "boom"]
        assert lines[4].split() == ["200", "40", "1.2500e-01", "-",
                                    "6.2500e-02", "-"]
        assert lines[5].split() == ["400", "160", "3.1250e-02", "2.00",
                                    "1.5625e-02", "2.00"]

    def test_csv_rows(self, report, tmp_path):
        path = tmp_path / "convergence.csv"
        report.to_csv(path)
        assert path.read_text().splitlines() == [
            "grid,samples,err_ez,order_ez,err_hx_bx,order_hx,status",
            "50,10,0.5,,0.25,,ok",
            "100,,,,,,failed: StabilityError: boom",
            "200,40,0.125,,0.0625,,ok",
            "400,160,0.03125,2,0.015625,2,ok",
        ]


@pytest.mark.parametrize("overrides, message", [
    (dict(grid_sizes=(100,)), "at least 2 grid sizes"),
    (dict(grid_sizes=(100, 200), reference_size=300), "at least twice"),
    (dict(shape="none", grid_sizes=(50, 100), reference_size=200),
     "needs a PEC shape"),
])
def test_convergence_study_rejects_arguments_before_running(
        monkeypatch, overrides, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(analysis, "run_simulation", no_run)
    with pytest.raises(AnalysisError, match=message):
        convergence_study(SimulationConfig(**overrides))


TINY_STUDY = SimulationConfig(grid_sizes=(30, 40), reference_size=80,
                              final_time=0.2)


@pytest.fixture(scope="module")
def tiny_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    return convergence_study(TINY_STUDY, output_dir=out), out


def test_convergence_study_tabulates_every_grid(tiny_study):
    report, out = tiny_study
    assert report.grid_sizes == [30, 40] and not report.failures
    assert all(k > 0 for k in report.sample_counts)
    assert np.isfinite(report.err_ez + report.err_hx).all()
    assert report.order_ez[0] is None and np.isfinite(report.order_ez[1])
    assert (out / "convergence.txt").read_text() == report.to_text() + "\n"
    rows = (out / "convergence.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["30", "40"]


@pytest.fixture
def unstable_at_30(monkeypatch):
    run = analysis.run_simulation

    def run_or_blow_up(config, n=None, **kwargs):
        if n == 30:
            raise StabilityError(4, 0.25)
        return run(config, n=n, **kwargs)

    monkeypatch.setattr(analysis, "run_simulation", run_or_blow_up)


def forked_pool():
    # Forked workers inherit the patched module; the study's results and
    # errors still travel back through pickle.
    return ProcessPoolExecutor(max_workers=2,
                               mp_context=multiprocessing.get_context("fork"))


def test_convergence_study_records_a_failed_grid(unstable_at_30):
    report = convergence_study(TINY_STUDY)
    assert report.failures == {
        30: "non-finite field values after step 4 (t=0.25)"}
    assert report.err_ez[0] is None and np.isfinite(report.err_ez[1])
    assert report.to_text().splitlines()[2].split()[:2] == ["30", "FAILED"]


def test_convergence_study_in_a_process_pool_matches_serial(tiny_study):
    with forked_pool() as pool:
        report = convergence_study(TINY_STUDY, executor=pool)
    assert report == tiny_study[0]


def test_failed_grid_in_a_process_pool_matches_serial(unstable_at_30):
    with forked_pool() as pool:
        report = convergence_study(TINY_STUDY, executor=pool)
    assert report == convergence_study(TINY_STUDY)
    assert list(report.failures) == [30]
