"""Workload table shared by run.py, worker.py and the reference
generator.

Every workload is a single `pecshift run` at T=1, cfl=1, the default
omega = 2*pi/0.6 and the BFECC scheme, in one process with no worker
pool. The solver inputs are fixed per workload, because the accuracy
gate compares against stored values for exactly this geometry.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".bench_out"

# name -> (shape, grid size, runs the exporters)
WORKLOADS = {
    "circle-n200": ("circle", 200, True),
    "halfmoon-n200": ("half_moon", 200, True),
    "freespace-n600": ("none", 600, False),
}

REFERENCE_SIZE = 800
ERROR_BAND_DX = 10.0      # sampling band of the accuracy metrics
REFERENCE_BAND_DX = 12.0  # band stored by make_reference.py (a superset)


def use_checkout_source():
    """Import ``pecshift`` from this checkout's ``src`` and nowhere else.

    Raises ``FileNotFoundError`` when the checkout has no source tree, so a
    directory holding only the benchmark fails instead of measuring some
    other installed copy.
    """
    if not (SRC / "pecshift" / "__init__.py").is_file():
        raise FileNotFoundError(f"no pecshift source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pecshift
    if Path(pecshift.__file__).resolve().parent != SRC / "pecshift":
        raise ImportError(f"pecshift imported from {pecshift.__file__}, "
                          f"not from {SRC}")
    return pecshift


def make_config(name: str):
    """SimulationConfig of one workload (pecshift must be importable)."""
    from pecshift.config import SimulationConfig

    shape, n, _ = WORKLOADS[name]
    cfg = SimulationConfig(shape=shape, grid_size=n, cfl=1.0, final_time=1.0,
                           scheme="bfecc", threads=1, parallel_grids=False)
    return cfg.validate()


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"
