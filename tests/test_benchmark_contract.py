"""The benchmark's traced repetition still fits its declared metric names.

``benchmarks/worker.py`` wraps public functions of ``pecshift`` by name
(``TRACE_TARGETS``). A renamed or deleted target, or a changed signature
the tracer relies on, silently drops its per-layer metrics from the
result line, and the benchmark then reads the run as malformed. This
runs one traced repetition per PEC workload in-process and checks the
result against ``BENCHMARK.json``. It also checks that every traced span
the workload runs is entered: a target that still resolves but that the
pipeline no longer calls through its module attribute reads 0, and is not
listed missing. Free space builds no level set, extender or shifted
grid and exports nothing, so there only the fit table and the solver
spans run.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_layer_names() -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run.py adds trace.overhead_frac from the traced and plain runs
    return {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}


@pytest.mark.parametrize("name", ["circle-n200", "halfmoon-n200",
                                  "freespace-n600"])
def test_traced_repetition_reports_every_declared_metric(name, monkeypatch,
                                                         tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import worker

    spans_path = tmp_path / "spans.json"
    result = worker.run_rep(name, 1, traced=True, out=tmp_path / "out",
                            spans_path=spans_path)
    assert result["missing"] == []
    assert result["problems"] == []
    assert set(result["layers"]) == declared_layer_names()
    json.dumps(result, allow_nan=False)
    entered = {s["name"] for s in json.loads(spans_path.read_text())["spans"]}
    _, _, pec = worker.WORKLOADS[name]
    expected = {span for span in worker.TRACE_TARGETS
                if pec or span.startswith(("stencil.", "solver."))}
    assert entered == expected
