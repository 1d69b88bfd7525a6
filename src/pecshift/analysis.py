"""Grid-refinement studies: a PEC shape against a fine-grid reference run,
and free space against the analytic plane wave. Both fill an
``ErrorReport`` through one ladder, ``_tabulate``, in which a grid whose
run raises becomes a FAILED row; the CLI writes the reports' files.

PEC errors are sampled on exterior nodes within a fixed physical band
outside the boundary (its width set in coarsest-grid dx units), where the
reference solution is interpolated bilinearly. l1 is the mean absolute
difference over the samples, so sample counts may differ per grid without
skewing the orders, which are log2 ratios of consecutive l1 errors.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .config import ConfigError
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
    sample_counts: list = field(default_factory=list)
    err_ez: list = field(default_factory=list)
    err_hx: list = field(default_factory=list)
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["grid", "samples", "err_ez", "order_ez",
                             "err_hx_bx", "order_hx", "status"])
            for k, n in enumerate(self.grid_sizes):
                if n in self.failures:
                    writer.writerow([n, "", "", "", "", "",
                                     f"failed: {self.failures[n]}"])
                    continue
                writer.writerow(
                    [n, self.sample_counts[k]]
                    + ["" if v is None else f"{v:.17g}"
                       for v in (self.err_ez[k], self.order_ez[k],
                                 self.err_hx[k], self.order_hx[k])]
                    + ["ok"])


def _run_one(config, n: int):
    return run_simulation(config, n=n)


def _tabulate(report: ErrorReport, runs: dict, errors) -> ErrorReport:
    """Run each ``runs[n]() -> (state, setup)`` in order. A run that raises
    becomes a logged FAILED row; otherwise ``errors(state, setup)`` gives
    the row's ``(samples, err_ez, err_hx)``, and what it raises propagates.
    """
    for n, run in runs.items():
        try:
            state, setup = run()
        except Exception as err:  # noqa: BLE001 - record and continue
            logger.error("grid %d failed: %s", n, err)
            report.failures[n] = str(err)
            row = (0, None, None)
        else:
            row = errors(state, setup)
        for column, value in zip(
                (report.sample_counts, report.err_ez, report.err_hx), row):
            column.append(value)
    return report.finalize()


def convergence_study(config, executor: Optional[ProcessPoolExecutor] = None
                      ) -> ErrorReport:
    """Run the grid ladder plus the reference and tabulate band errors.
    With an ``executor``, every grid is submitted before the reference."""
    sizes = list(config.grid_sizes)
    if len(sizes) < 2:
        raise ConfigError("grid_sizes: convergence study needs at least 2 "
                          "grid sizes")
    if config.reference_size < 2 * max(sizes):
        raise ConfigError(
            f"reference_size: {config.reference_size} must be at least twice "
            f"the largest study grid {max(sizes)}")
    if config.make_shape() is None:
        raise ConfigError("shape: convergence_study needs a PEC shape; "
                          "use the free-space study for shape = none")

    coarsest_dx = config.domain().width / (min(sizes) - 1)
    runs = {n: (partial(_run_one, config, n) if executor is None
                else executor.submit(_run_one, config, n).result)
            for n in sizes}
    logger.info("reference run at %d^2", config.reference_size)
    ref_state, ref_setup = run_simulation(config, n=config.reference_size)

    def band_errors(state, setup):
        mask = sampling_mask(setup.ls.phi, setup.classes,
                             config.band_width, coarsest_dx)
        qx, qy = setup.grid.x[mask], setup.grid.y[mask]
        rhx, _, rez = interpolate_reference(ref_state, ref_setup, qx, qy)
        return (int(mask.sum()), float(np.mean(np.abs(state.ez[mask] - rez))),
                float(np.mean(np.abs(state.hx[mask] - rhx))))

    report = ErrorReport(grid_sizes=sizes,
                         label=(f"{config.shape} shape, dt/dx={config.cfl:g}, "
                                f"T={config.final_time:g}, reference "
                                f"{config.reference_size}^2"))
    return _tabulate(report, runs, band_errors)


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
        raise ConfigError("shape: free-space study requires shape = none")
    runs = {n: partial(_run_one, config, n) for n in config.grid_sizes}

    def plane_wave_errors(state, setup):
        g = setup.grid
        return ((g.nx - 2) * (g.ny - 2),
                *freespace_errors(state, setup, config.omega))

    report = ErrorReport(grid_sizes=list(runs),
                         label=f"free space, scheme={config.scheme}")
    return _tabulate(report, runs, plane_wave_errors)
