"""One-off generator of the stored accuracy references.

For each PEC workload it runs the solver at 800^2 (a few minutes per
shape on one core), interpolates the final (hx, ez) with
``analysis.interpolate_reference`` onto every exterior node of the
workload grid within 12 dx of the PEC, and writes them with 17
significant digits, keyed by lattice (i, j). It also records the node
class counts and shift drops of the workload grid, which the correctness
gate requires to stay unchanged, and the commit and configuration the
values came from.

    python3 benchmarks/make_reference.py [workload ...]
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np

from gate import geometry_counts
from workloads import (REFERENCE_BAND_DX, REFERENCE_SIZE, ROOT, WORKLOADS,
                       make_config, reference_path, use_checkout_source)


def commit_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def make_reference(name: str) -> dict:
    from pecshift.analysis import interpolate_reference
    from pecshift.grid import NodeClass
    from pecshift.solver import build_setup, run_simulation

    cfg = make_config(name)
    n = cfg.grid_size
    t0 = time.perf_counter()
    ref_state, ref_setup = run_simulation(cfg, n=REFERENCE_SIZE)
    ref_seconds = time.perf_counter() - t0

    setup = build_setup(cfg, n)
    dx = setup.grid.dx
    phi = setup.ls.phi
    band = ((setup.classes == NodeClass.EXTERIOR) & (phi < 0)
            & (phi >= -REFERENCE_BAND_DX * dx))
    ii, jj = np.nonzero(band)
    hx, _, ez = interpolate_reference(ref_state, ref_setup,
                                      setup.grid.x[band], setup.grid.y[band])
    return {
        "workload": name,
        "commit": commit_id(),
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in dataclasses.asdict(cfg).items()},
        "reference_size": REFERENCE_SIZE,
        "reference_seconds": round(ref_seconds, 1),
        "band_dx": REFERENCE_BAND_DX,
        "geometry": geometry_counts(setup),
        "nodes": [[int(i), int(j), float(a), float(b)]
                  for i, j, a, b in zip(ii, jj, hx, ez)],
    }


def main(argv) -> int:
    use_checkout_source()
    names = argv or [w for w, (shape, _, _) in WORKLOADS.items()
                     if shape != "none"]
    for name in names:
        ref = make_reference(name)
        # json writes floats with repr(), the shortest exact form (<= 17
        # significant digits), so a reload is bitwise.
        text = json.dumps(ref, separators=(",", ":"))
        reference_path(name).write_text(text + "\n")
        print(f"{name}: {len(ref['nodes'])} nodes, "
              f"{ref['reference_seconds']} s at {REFERENCE_SIZE}^2")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
