"""Command-line interface: run simulations, convergence studies, and
free-space order checks from a config file."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .analysis import convergence_study, freespace_study
from .config import ConfigError, load_config
from .export import export_field, export_grid, export_vtk
from .solver import build_setup

logger = logging.getLogger("pecshift")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pecshift",
        description="2D TMz Maxwell scattering around PEC objects on "
                    "point-shifted grids with BFECC time stepping")
    parser.add_argument("--output-dir", default=None,
                        help="override the config's output directory")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("run", "single simulation with optional snapshots"),
            ("convergence", "grid-refinement study against a reference run"),
            ("freespace", "plane-wave order check without a PEC")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="path to the key=value config file")
    return parser


def _cmd_run(cfg, out: Path) -> int:
    setup = build_setup(cfg, cfg.grid_size)
    phi = setup.ls.phi if setup.ls is not None else None

    def on_step(state, step):
        if cfg.snapshot_every and step % cfg.snapshot_every == 0:
            export_field(state, setup.grid, phi, setup.classes,
                         out / f"snapshot_{step:05d}.csv")

    state = setup.stepper.run(cfg.final_time, setup.dt, scheme=cfg.scheme,
                              on_step=on_step)
    export_field(state, setup.grid, phi, setup.classes, out / "final.csv")
    export_vtk(state, setup.grid, phi, out / "final.vtk")
    export_grid(setup.grid, setup.classes, out / "grid.csv")
    logger.info("final state at t=%g written to %s", state.time, out)
    return 0


def _exit_status(*reports) -> int:
    failed = sum(len(report.failures) for report in reports)
    if failed:
        print(f"error: {failed} grid(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_convergence(cfg, out: Path) -> int:
    with (ProcessPoolExecutor(max_workers=cfg.threads)
          if cfg.parallel_grids and cfg.threads > 1
          else contextlib.nullcontext()) as executor:
        report = convergence_study(cfg, executor=executor)
    print(report.to_text())
    report.to_csv(out / "convergence.csv")
    (out / "convergence.txt").write_text(report.to_text() + "\n")
    return _exit_status(report)


def _cmd_freespace(cfg, out: Path) -> int:
    configs = [dataclasses.replace(cfg, shape="none", scheme=scheme).validate()
               for scheme in ("plain", "bfecc")]
    plain, bfecc = map(freespace_study, configs)
    print(plain.to_text())
    print()
    print(bfecc.to_text())
    plain.to_csv(out / "freespace_plain.csv")
    bfecc.to_csv(out / "freespace_bfecc.csv")
    orders = [o for o in bfecc.order_ez if o is not None]
    logger.info("BFECC Ez orders: %s", ", ".join(f"{o:.2f}" for o in orders))
    return _exit_status(plain, bfecc)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        out = Path(args.output_dir or cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return {"run": _cmd_run, "convergence": _cmd_convergence,
                "freespace": _cmd_freespace}[args.command](cfg, out)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - single-line machine-parsable exit
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
