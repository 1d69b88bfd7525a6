"""Grid-refinement error analysis against a fine-grid reference.

Errors are sampled on exterior nodes within a fixed physical band outside
the PEC boundary (its width set in coarsest-grid dx units), the reference
solution is interpolated bilinearly onto the sample points, and observed
orders are log2 ratios of consecutive l1 errors. l1 here is the mean
absolute difference over the samples, so sample counts may differ per
grid without skewing the orders.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .grid import NodeClass
from .solver import FieldState, SimulationSetup, incident_wave, run_simulation

logger = logging.getLogger(__name__)


class AnalysisError(ValueError):
    pass


def sampling_mask(phi: np.ndarray, classes: np.ndarray,
                  band_width: float, coarsest_dx: float) -> np.ndarray:
    """Exterior nodes with -band_width*coarsest_dx <= phi < 0.

    The band width is measured in the coarsest mesh's dx for every grid of
    a study, so all grids sample the same physical annulus."""
    mask = (classes == NodeClass.EXTERIOR) & (phi < 0)
    mask &= phi >= -band_width * coarsest_dx
    if not mask.any():
        raise AnalysisError("empty sampling band: geometry degenerate or "
                            "band width too small")
    return mask


def interpolate_reference(state: FieldState, setup: SimulationSetup,
                          qx: np.ndarray, qy: np.ndarray):
    """Bilinear interpolation of (hx, hy, ez) at query points.

    Cell lookup uses the reference grid's unshifted lattice; nodal values
    are taken as stored (near-boundary nodes are shifted, introducing an
    O(dx_ref) coordinate error well below the scheme error at the required
    reference ratio).
    """
    g = setup.grid
    tx = (np.asarray(qx, dtype=float) - g.x0) / g.dx
    ty = (np.asarray(qy, dtype=float) - g.y0) / g.dy
    if (tx < -1e-9).any() or (tx > g.nx - 1 + 1e-9).any() \
            or (ty < -1e-9).any() or (ty > g.ny - 1 + 1e-9).any():
        raise AnalysisError("query point outside the reference domain")
    i = np.clip(np.floor(tx).astype(np.intp), 0, g.nx - 2)
    j = np.clip(np.floor(ty).astype(np.intp), 0, g.ny - 2)
    fx = tx - i
    fy = ty - j
    w00 = (1 - fx) * (1 - fy)
    w10 = fx * (1 - fy)
    w01 = (1 - fx) * fy
    w11 = fx * fy

    def interp(a: np.ndarray) -> np.ndarray:
        return (w00 * a[i, j] + w10 * a[i + 1, j]
                + w01 * a[i, j + 1] + w11 * a[i + 1, j + 1])

    return interp(state.hx), interp(state.hy), interp(state.ez)


def observed_orders(errors) -> list:
    """log2(E_k / E_{k+1}) between consecutive entries; None leads."""
    orders: list = [None]
    for a, b in zip(errors[:-1], errors[1:]):
        if a is None or b is None or not (a > 0 and b > 0):
            orders.append(None)
        else:
            orders.append(float(np.log2(a / b)))
    return orders


@dataclass
class ErrorReport:
    """Sampled-band l1 errors and observed orders per grid size."""

    grid_sizes: list
    sample_counts: list
    err_ez: list
    err_hx: list
    order_ez: list = field(default_factory=list)
    order_hx: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    label: str = ""

    def finalize(self) -> "ErrorReport":
        self.order_ez = observed_orders(self.err_ez)
        self.order_hx = observed_orders(self.err_hx)
        return self

    @staticmethod
    def _fmt(v, width: int, prec: str) -> str:
        if v is None:
            return "-".rjust(width)
        return f"{v:{prec}}".rjust(width)

    def to_text(self) -> str:
        head = (f"{'Grid':>6} {'Samples':>8} {'Ez l1':>12} {'Ez order':>9} "
                f"{'Hx(Bx) l1':>12} {'Hx order':>9}")
        lines = [self.label, head] if self.label else [head]
        for k, n in enumerate(self.grid_sizes):
            if n in self.failures:
                lines.append(f"{n:>6} {'FAILED':>8}  {self.failures[n]}")
                continue
            lines.append(" ".join([
                f"{n:>6}",
                f"{self.sample_counts[k]:>8}",
                self._fmt(self.err_ez[k], 12, ".4e"),
                self._fmt(self.order_ez[k], 9, ".2f"),
                self._fmt(self.err_hx[k], 12, ".4e"),
                self._fmt(self.order_hx[k], 9, ".2f"),
            ]))
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("grid,samples,err_ez,order_ez,err_hx_bx,order_hx,status\n")
            for k, n in enumerate(self.grid_sizes):
                if n in self.failures:
                    fh.write(f"{n},,,,,,failed: {self.failures[n]}\n")
                    continue
                row = [str(n), str(self.sample_counts[k])]
                for v in (self.err_ez[k], self.order_ez[k],
                          self.err_hx[k], self.order_hx[k]):
                    row.append("" if v is None else f"{v:.17g}")
                row.append("ok")
                fh.write(",".join(row) + "\n")


def _run_one(config, n: int):
    return run_simulation(config, n=n)


def convergence_study(config, executor: Optional[ProcessPoolExecutor] = None,
                      output_dir: Optional[Path] = None) -> ErrorReport:
    """Run the grid ladder plus the reference and tabulate band errors.

    Individual study grids that fail keep the rest of the table usable;
    the failure reason is recorded in their row.
    """
    sizes = list(config.grid_sizes)
    if len(sizes) < 2:
        raise AnalysisError("convergence study needs at least 2 grid sizes")
    if config.reference_size < 2 * max(sizes):
        raise AnalysisError(
            f"reference_size {config.reference_size} must be at least twice "
            f"the largest study grid {max(sizes)}")
    if config.make_shape() is None:
        raise AnalysisError("convergence_study needs a PEC shape; "
                            "use the free-space study for shape = none")

    coarsest_dx = config.domain().width / (min(sizes) - 1)

    logger.info("reference run at %d^2", config.reference_size)
    ref_state, ref_setup = run_simulation(config, n=config.reference_size)

    results: dict = {}
    if executor is not None:
        futures = {n: executor.submit(_run_one, config, n) for n in sizes}
        for n in sizes:
            try:
                results[n] = futures[n].result()
            except Exception as err:  # noqa: BLE001 - record and continue
                results[n] = err
    else:
        for n in sizes:
            try:
                results[n] = _run_one(config, n)
            except Exception as err:  # noqa: BLE001
                results[n] = err

    report = ErrorReport(grid_sizes=sizes, sample_counts=[], err_ez=[],
                         err_hx=[],
                         label=(f"{config.shape} shape, dt/dx={config.cfl:g}, "
                                f"T={config.final_time:g}, reference "
                                f"{config.reference_size}^2"))
    for n in sizes:
        outcome = results[n]
        if isinstance(outcome, Exception):
            logger.error("grid %d failed: %s", n, outcome)
            report.failures[n] = str(outcome)
            report.sample_counts.append(0)
            report.err_ez.append(None)
            report.err_hx.append(None)
            continue
        state, setup = outcome
        mask = sampling_mask(setup.ls.phi, setup.classes,
                             config.band_width, coarsest_dx)
        qx, qy = setup.grid.x[mask], setup.grid.y[mask]
        rhx, _, rez = interpolate_reference(ref_state, ref_setup, qx, qy)
        report.sample_counts.append(int(mask.sum()))
        report.err_ez.append(float(np.mean(np.abs(state.ez[mask] - rez))))
        report.err_hx.append(float(np.mean(np.abs(state.hx[mask] - rhx))))
    report.finalize()

    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(output_dir / "convergence.csv")
        (output_dir / "convergence.txt").write_text(report.to_text() + "\n")
    return report


def freespace_errors(state: FieldState, setup: SimulationSetup,
                     omega: float) -> tuple[float, float]:
    """Mean absolute error against the analytic plane wave over the
    interior (full-stencil) nodes."""
    g = setup.grid
    sl = np.s_[1:-1, 1:-1]
    ihx, _, iez = incident_wave(g.x[sl], g.y[sl], state.time, omega)
    err_ez = float(np.mean(np.abs(state.ez[sl] - iez)))
    err_hx = float(np.mean(np.abs(state.hx[sl] - ihx)))
    return err_ez, err_hx


def freespace_study(config) -> ErrorReport:
    """Plane-wave accuracy ladder in free space (no PEC), measured against
    the analytic solution rather than a reference grid."""
    if config.make_shape() is not None:
        raise AnalysisError("free-space study requires shape = none")
    sizes = list(config.grid_sizes)
    report = ErrorReport(grid_sizes=sizes, sample_counts=[], err_ez=[],
                         err_hx=[],
                         label=f"free space, scheme={config.scheme}")
    for n in sizes:
        state, setup = run_simulation(config, n=n)
        err_ez, err_hx = freespace_errors(state, setup, config.omega)
        report.sample_counts.append((n - 2) * (n - 2))
        report.err_ez.append(err_ez)
        report.err_hx.append(err_hx)
    return report.finalize()
