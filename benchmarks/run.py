"""Benchmark entry point: repeats one workload in fresh worker processes.

    python3 benchmarks/run.py --workload circle-n200 --seed 1 --seconds 28 --trace 0

Each repetition runs ``worker.py`` in a new process, one at a time, with
OMP/OpenBLAS/MKL pinned to one thread in that child's environment only.
Repetitions continue until ``--seconds`` have passed (at least
MIN_REPS of them). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over repetitions) with ``--trace 0``, the per-layer
metrics (medians over traced repetitions) with ``--trace 1``. A
repetition that crashes or fails the correctness gate counts as failed.
Machine details and every repetition's numbers go to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, OUT_DIR, ROOT, SRC, WORKLOADS

MIN_REPS = 3         # untraced repetitions per run
MIN_TRACED_REPS = 2  # one traced and one untraced
REP_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("march_s", "s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"), ("err_ez_l1", "1"), ("err_hx_l1", "1"))
# Printed and recorded, but not in the result line: export times follow
# this machine's speed swings more than the 0.25 bound allows (see README).
REPORTED = (("export_s", "s"),)


def machine_info() -> dict:
    import numpy
    import scipy

    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_worker(workload: str, seed: int, traced: bool, rep: int) -> dict:
    """One repetition in a fresh process; failures come back as
    ``{"problems": [...]}``."""
    tag = f"{workload}-s{seed}-r{rep}-{'traced' if traced else 'plain'}"
    out = OUT_DIR / "work" / tag
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out)]
    if traced:
        spans = OUT_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{tag}.json")]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {REP_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"worker exited {proc.returncode}: {tail[0]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"problems": [f"worker printed no result: {lines[-1][:200]}"]}


def median_metrics(reps: list, keys) -> dict:
    return {key: {"value": statistics.median(r[key] for r in reps), "unit": unit}
            for key, unit in keys}


def layer_summary(traced: list, plain: list) -> dict:
    """Medians of the per-layer metrics over traced repetitions, plus the
    tracing overhead against the untraced ones."""
    names = {}
    for r in traced:
        for key, m in r["layers"].items():
            names[key] = m["unit"]
    out = {key: {"value": statistics.median(r["layers"][key]["value"]
                                            for r in traced
                                            if key in r["layers"]),
                 "unit": unit}
           for key, unit in names.items()}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0)
    out["trace.overhead_frac"] = {"value": overhead, "unit": "1"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pecshift" / "__init__.py").is_file():
        print(f"error: no pecshift source under {SRC}", file=sys.stderr)
        return 2

    traced_mode = bool(args.trace)
    min_reps = MIN_TRACED_REPS if traced_mode else MIN_REPS
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < args.seconds:
        # Traced runs alternate traced and untraced repetitions.
        traced = traced_mode and len(reps) % 2 == 0
        rep = run_worker(args.workload, args.seed, traced, len(reps))
        rep["traced"] = traced
        reps.append(rep)

    good = [r for r in reps if not r["problems"]]
    failed = len(reps) - len(good)
    for k, r in enumerate(reps):
        for problem in r["problems"]:
            print(f"repetition {k}: {problem}", file=sys.stderr)
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (traced_mode and not traced):
        print("error: no repetition passed the correctness gate", file=sys.stderr)
        return 1
    metrics = (layer_summary(traced, plain) if traced_mode
               else median_metrics(plain, END_TO_END))
    missing = sorted({t for r in traced for t in r["missing"]})
    if missing:
        print(f"missing, so their metrics are left out: {', '.join(missing)}",
              file=sys.stderr)

    reported = {} if traced_mode else median_metrics(plain, REPORTED)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(), "repetitions": reps,
              "metrics": metrics, "reported": reported}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    m = record["machine"]
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"{failed} failed; {m['cpu']}, nproc={m['nproc']}, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    for key, val in metrics.items():
        print(f"  {key:34s} {val['value']:.6g} {val['unit']}")
    for key, val in reported.items():
        print(f"  {key:34s} {val['value']:.6g} {val['unit']} (not gated)")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
