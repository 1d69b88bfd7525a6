"""Span arithmetic and patching of the benchmark's tracer."""

import pytest

from tracing import Span, Tracer, self_times, summarize
from worker import Counters, install, layer_metrics


def test_self_time_of_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("c", 2.0, 3.0, 1),
             Span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 6.0, 0),
             Span("b", 4.0, 8.0, 0),
             Span("late", 9.0, 12.0, 0)]  # clipped to the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_summarize_aggregates_by_name():
    spans = [Span("step", 0.0, 4.0, -1), Span("sweep", 0.5, 1.5, 0),
             Span("sweep", 2.0, 3.5, 0), Span("step", 5.0, 6.0, -1)]
    agg = summarize(spans)
    assert agg["step"] == {"calls": 2, "total_s": 5.0, "self_s": 2.5}
    assert agg["sweep"]["calls"] == 2
    assert agg["sweep"]["total_s"] == pytest.approx(2.5)


def test_span_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.start, outer.end, outer.parent) == (0.0, 3.0, -1)
    assert (inner.start, inner.end, inner.parent) == (1.0, 2.0, 0)


def test_patch_records_and_restores():
    from pecshift.stencil import FitTable

    original_build = FitTable.__dict__["build"]
    original_value = FitTable.__dict__["value"]
    tracer = Tracer()
    assert tracer.patch("pecshift.stencil:FitTable.build", "stencil.build")
    assert tracer.patch("pecshift.stencil:FitTable.value", "stencil.apply")
    try:
        from pecshift.grid import build_uniform_grid
        from pecshift.shapes import Domain

        fits = FitTable.build(build_uniform_grid(Domain(), 12, 12))
        fits.value(fits.valid.astype(float))
    finally:
        tracer.unpatch()
    assert [s.name for s in tracer.spans] == ["stencil.build", "stencil.apply"]
    assert FitTable.__dict__["build"] is original_build
    assert FitTable.__dict__["value"] is original_value


def test_unknown_target_is_listed_missing():
    tracer = Tracer()
    assert not tracer.patch("pecshift.no_such_module:f", "solver.sweep")
    assert not tracer.patch("pecshift.solver:MaxwellStepper.no_such", "solver.sweep")
    assert tracer.missing == ["pecshift.no_such_module:f",
                              "pecshift.solver:MaxwellStepper.no_such"]


def test_removed_function_is_reported_missing_not_zero(monkeypatch, tmp_path):
    from pecshift.config import SimulationConfig
    from pecshift.extension import GhostExtender
    from pecshift.solver import MaxwellStepper, build_setup

    monkeypatch.delattr(GhostExtender, "extend_fields")
    monkeypatch.delattr(MaxwellStepper, "sweep")
    tracer = Tracer()
    install(tracer, Counters())
    tracer.unpatch()
    assert sorted(tracer.missing) == [
        "pecshift.extension:GhostExtender.extend_fields",
        "pecshift.solver:MaxwellStepper.sweep"]

    setup = build_setup(SimulationConfig(shape="none"), 12)
    out = tmp_path / "out"
    out.mkdir()
    run = {"setup": setup, "out": out, "error_s": 0.1, "grad_dev_max": 0.0}
    metrics = layer_metrics(tracer, Counters(), run)
    for key in ("extension.calls", "extension.extend_s", "extension.extend_ms",
                "solver.sweeps", "solver.sweep_s", "solver.sweep_ms",
                "solver.node_updates_per_s"):
        assert key not in metrics
    # Present but not called: a true zero.
    assert metrics["stencil.apply_calls"]["value"] == 0
    assert metrics["analysis.error_s"]["value"] == 0.1
