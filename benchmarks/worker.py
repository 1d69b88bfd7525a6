"""One benchmark repetition in a fresh process.

Runs one workload the way ``pecshift run`` does (build_setup, then
MaxwellStepper.run, then the exporters), checks the outputs and prints
one JSON object as the last line of stdout. With ``--trace 1`` the
public functions of every module are wrapped from outside and the
per-layer metrics are added; the spans are written to ``--spans``.

    python3 benchmarks/worker.py --workload circle-n200 --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import gate
from tracing import Tracer, summarize
from workloads import (ERROR_BAND_DX, OUT_DIR, WORKLOADS, make_config,
                       reference_path, use_checkout_source)

# Span name -> public functions it wraps. Every name feeds the per-layer
# metrics in layer_metrics().
TRACE_TARGETS = {
    "shapes.crossings": ["pecshift.shapes:boundary_intersections"],
    "grid.shift": ["pecshift.grid:apply_point_shift"],
    "grid.classify": ["pecshift.grid:classify_nodes"],
    "stencil.build": ["pecshift.stencil:FitTable.build"],
    "stencil.apply": ["pecshift.stencil:FitTable.value",
                      "pecshift.stencil:FitTable.ddx",
                      "pecshift.stencil:FitTable.ddy"],
    "levelset.build": ["pecshift.levelset:build_levelset"],
    "levelset.redistance": ["pecshift.levelset:redistance"],
    "levelset.normals": ["pecshift.levelset:compute_normals_tangents"],
    "extension.build": ["pecshift.extension:GhostExtender.__init__"],
    "extension.extend": ["pecshift.extension:GhostExtender.extend_fields"],
    "solver.setup": ["pecshift.solver:build_setup"],
    "solver.run": ["pecshift.solver:MaxwellStepper.run"],
    "solver.step": ["pecshift.solver:MaxwellStepper.bfecc_step"],
    "solver.sweep": ["pecshift.solver:MaxwellStepper.sweep"],
    "solver.boundary": ["pecshift.solver:MaxwellStepper.enforce_boundary",
                        "pecshift.solver:MaxwellStepper.apply_outer_boundary"],
    "export.field_csv": ["pecshift.export:export_field"],
    "export.vtk": ["pecshift.export:export_vtk"],
    "export.grid_csv": ["pecshift.export:export_grid"],
}


class Counters:
    """Counts read at the traced call boundaries."""

    def __init__(self):
        self.crossings = 0
        self.redistance_history: list = []

    def crossings_call(self, fn, *args, **kwargs):
        pts = fn(*args, **kwargs)
        self.crossings += len(pts)
        return pts

    def redistance_call(self, fn, *args, **kwargs):
        # The public history= hook collects the per-iteration max update.
        if kwargs.get("history") is None:
            kwargs["history"] = self.redistance_history
        return fn(*args, **kwargs)


def install(tracer, counters: Counters) -> None:
    calls = {"pecshift.shapes:boundary_intersections": counters.crossings_call,
             "pecshift.levelset:redistance": counters.redistance_call}
    for name, targets in TRACE_TARGETS.items():
        for target in targets:
            tracer.patch(target, name, calls.get(target))


def run_pipeline(name: str, out: Path) -> dict:
    """build_setup -> MaxwellStepper.run -> exports, each timed."""
    from pecshift import export, solver

    cfg = make_config(name)
    _, n, pec = WORKLOADS[name]
    clock = time.perf_counter

    # One set-up per fresh process, as a user's run pays it: a second
    # build_setup in the same process reuses memory the allocator already
    # holds and reads faster than any real run.
    t0 = clock()
    setup = solver.build_setup(cfg, n)
    setup_s = clock() - t0

    t0 = clock()
    state = setup.stepper.run(cfg.final_time, setup.dt, scheme=cfg.scheme)
    march_s = clock() - t0

    out.mkdir(parents=True, exist_ok=True)
    t0 = clock()
    if pec:
        phi = setup.ls.phi
        export.export_field(state, setup.grid, phi, setup.classes, out / "final.csv")
        export.export_vtk(state, setup.grid, phi, out / "final.vtk")
        export.export_grid(setup.grid, setup.classes, out / "grid.csv")
    export_s = clock() - t0 if pec else 0.0
    return {"cfg": cfg, "setup": setup, "state": state, "out": out,
            "setup_s": setup_s, "march_s": march_s, "export_s": export_s,
            "wall_s": setup_s + march_s + export_s}


def check_run(name: str, run: dict, seed: int) -> tuple:
    """Correctness gate and accuracy metrics; returns (metrics, problems)."""
    setup, state, out = run["setup"], run["state"], run["out"]
    _, _, pec = WORKLOADS[name]
    problems = gate.check_state(state, setup)
    t0 = time.perf_counter()
    if pec:
        reference = json.loads(reference_path(name).read_text())
        problems += gate.check_geometry(setup, reference["geometry"])
        err_ez, err_hx, errs = gate.pec_errors(state, setup, reference,
                                               ERROR_BAND_DX)
    else:
        expected = {"exterior": setup.classes.size, "boundary": 0, "ghost": 0,
                    "deep_interior": 0, "shift_drops": 0}
        problems += gate.check_geometry(setup, expected)
        err_ez, err_hx, errs = gate.freespace_errors(state, setup,
                                                     run["cfg"].omega)
    error_s = time.perf_counter() - t0
    problems += errs
    if pec:
        problems += gate.check_field_csv(out / "final.csv", state, setup.grid, seed)
        problems += gate.check_vtk(out / "final.vtk", state, setup.grid, seed)
        problems += gate.check_grid_csv(out / "grid.csv", setup.grid, seed)
    metrics = {"err_ez_l1": err_ez, "err_hx_l1": err_hx, "error_s": error_s}
    return metrics, problems


def grad_dev_max(setup) -> float:
    """max | ||grad phi|| - 1 | over valid nodes within 5 dx of the PEC."""
    from pecshift.levelset import gradient_with_edges

    if setup.ls is None:
        return 0.0
    gx, gy = gradient_with_edges(setup.ls.phi, setup.grid, setup.fits)
    band = (np.abs(setup.ls.phi) <= 5 * max(setup.grid.dx, setup.grid.dy))
    band &= setup.fits.valid
    return float(np.abs(np.hypot(gx, gy)[band] - 1.0).max())


def layer_metrics(tracer, counters: Counters, run: dict) -> dict:
    """Per-layer metrics from the spans; a metric whose wrapped function
    is missing is left out."""
    from pecshift.grid import NodeClass

    setup = run["setup"]
    agg = summarize(tracer.spans)
    missing_spans = {name for name, targets in TRACE_TARGETS.items()
                     if any(t in tracer.missing for t in targets)}

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def per_call_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    classes = setup.classes
    inside = (classes == NodeClass.GHOST) | (classes == NodeClass.DEEP_INTERIOR)
    updated = int((~inside & setup.fits.valid).sum())
    apply_bytes = 7 * 8 * classes.size  # 5 weight planes, input, output
    export_names = ("export.field_csv", "export.vtk", "export.grid_csv")
    export_mb = sum(p.stat().st_size for p in run["out"].iterdir()) / 1e6
    export_total = sum(total(k) for k in export_names)
    history = counters.redistance_history
    covered = (total("extension.extend") + total("solver.sweep")
               + total("solver.boundary")
               + agg.get("solver.step", {}).get("self_s", 0.0))

    metrics = {
        ("shapes.crossings_s", "s"): ("shapes.crossings", total("shapes.crossings")),
        ("shapes.crossings", "count"): ("shapes.crossings", counters.crossings),
        ("grid.shift_s", "s"): ("grid.shift", total("grid.shift")),
        ("grid.classify_s", "s"): ("grid.classify", total("grid.classify")),
        ("grid.shifted_nodes", "count"): (None, int(setup.grid.shifted.sum())),
        ("grid.shift_drops", "count"): (None, int(setup.grid.shift_drops)),
        ("grid.boundary_nodes", "count"): (None, int((classes == NodeClass.BOUNDARY).sum())),
        ("grid.ghost_nodes", "count"): (None, int((classes == NodeClass.GHOST).sum())),
        ("stencil.build_s", "s"): ("stencil.build", total("stencil.build")),
        ("stencil.weight_mb", "MB"): (None, setup.fits.w.nbytes / 1e6),
        ("stencil.apply_calls", "count"): ("stencil.apply", calls("stencil.apply")),
        ("stencil.apply_s", "s"): ("stencil.apply", total("stencil.apply")),
        ("stencil.apply_ms", "ms"): ("stencil.apply", per_call_ms("stencil.apply")),
        ("stencil.apply_gbps", "GB/s"): (
            "stencil.apply", (apply_bytes * calls("stencil.apply") / 1e9
                              / total("stencil.apply")) if calls("stencil.apply") else 0.0),
        ("levelset.build_s", "s"): ("levelset.build", total("levelset.build")),
        ("levelset.redistance_iters", "count"): ("levelset.redistance", len(history)),
        ("levelset.redistance_final_update", "len"): (
            "levelset.redistance", history[-1] if history else 0.0),
        ("levelset.normals_s", "s"): ("levelset.normals", total("levelset.normals")),
        ("levelset.grad_dev_max", "1"): (None, run["grad_dev_max"]),
        ("extension.build_s", "s"): ("extension.build", total("extension.build")),
        ("extension.calls", "count"): ("extension.extend", calls("extension.extend")),
        ("extension.extend_s", "s"): ("extension.extend", total("extension.extend")),
        ("extension.extend_ms", "ms"): ("extension.extend", per_call_ms("extension.extend")),
        ("solver.steps", "count"): ("solver.step", calls("solver.step")),
        ("solver.step_ms", "ms"): ("solver.step", per_call_ms("solver.step")),
        ("solver.sweeps", "count"): ("solver.sweep", calls("solver.sweep")),
        ("solver.sweep_s", "s"): ("solver.sweep", total("solver.sweep")),
        ("solver.sweep_ms", "ms"): ("solver.sweep", per_call_ms("solver.sweep")),
        ("solver.boundary_s", "s"): ("solver.boundary", total("solver.boundary")),
        ("solver.bfecc_self_s", "s"): (
            "solver.step", agg.get("solver.step", {}).get("self_s", 0.0)),
        ("solver.node_updates_per_s", "1/s"): (
            "solver.sweep", updated * calls("solver.sweep") / total("solver.sweep")
            if calls("solver.sweep") else 0.0),
        ("export.field_csv_s", "s"): ("export.field_csv", total("export.field_csv")),
        ("export.vtk_s", "s"): ("export.vtk", total("export.vtk")),
        ("export.grid_csv_s", "s"): ("export.grid_csv", total("export.grid_csv")),
        ("export.mb", "MB"): (None, export_mb),
        ("export.mb_per_s", "MB/s"): (
            "export.vtk", export_mb / export_total if export_total else 0.0),
        ("analysis.error_s", "s"): (None, run["error_s"]),
        ("trace.march_coverage", "1"): (
            "solver.run", covered / total("solver.run") if calls("solver.run") else 0.0),
    }
    out = {}
    for (key, unit), (span, value) in metrics.items():
        if span is None or span not in missing_spans:
            out[key] = {"value": value, "unit": unit}
    return out


def run_rep(name: str, seed: int, traced: bool, out: Path,
            spans_path=None) -> dict:
    tracer, counters = Tracer(), Counters()
    if traced:
        install(tracer, counters)
    try:
        run = run_pipeline(name, out)
    finally:
        tracer.unpatch()
    # Peak memory of the pipeline alone: the checks below read the
    # exported files back.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        metrics, problems = check_run(name, run, seed)
        result = {key: run[key] for key in
                  ("setup_s", "march_s", "export_s", "wall_s")}
        result.update(metrics)
        if traced:
            run["error_s"] = metrics["error_s"]
            run["grad_dev_max"] = grad_dev_max(run["setup"])
            result["layers"] = layer_metrics(tracer, counters, run)
            result["missing"] = tracer.missing
            if spans_path is not None:
                tracer.dump(spans_path)
    finally:
        shutil.rmtree(run["out"], ignore_errors=True)
    result["problems"] = problems
    result["peak_rss_mb"] = peak_rss_mb
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="scratch directory for the exported files")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run writes its spans (JSON)")
    args = parser.parse_args(argv)
    use_checkout_source()
    out = args.out or OUT_DIR / args.workload
    result = run_rep(args.workload, args.seed, bool(args.trace), out, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
