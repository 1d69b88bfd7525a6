"""Flat key=value configuration files for simulations and studies.

One ``key = value`` assignment per line, ``#`` starts a comment. Unknown
keys and malformed values are rejected with the offending key named.
The keys are the fields of :class:`SimulationConfig`, documented there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .shapes import Circle, Domain, HalfMoon, Shape, edge_clearance, validate_shape


class ConfigError(ValueError):
    pass


# Largest stable cfl (dt/dx) of each scheme on the uniform stencil, from
# its von Neumann symbol g = a +- i cfl sqrt(sin^2 al + sin^2 be), with
# a = 0.2 (1 + 2 cos al + 2 cos be): the plain sweep needs |g|^2 <= 1,
# BFECC's g (3 - |g|^2) / 2 needs |g|^2 <= 4.
CFL_BOUNDS = {"plain": math.sqrt(2 / 5),
              "bfecc": math.sqrt(4.6 + math.sqrt(10.92)) / 2}


@dataclass
class SimulationConfig:
    """Every input of a run or study; each field is a config key. Every
    float key must be finite.

    - ``domain_{x,y}{min,max}``: the rectangle, meshed with n x n nodes.
    - ``shape``: ``circle`` (``circle_*``), ``half_moon`` (the
      ``moon_outer_*`` disc minus the ``moon_cutter_*`` disc) or ``none``.
    - ``grid_size``: n of a single run; ``grid_sizes``: the strictly
      increasing ladder of a convergence study (comma or space separated);
      ``reference_size``: its reference run, at least twice the largest.
    - ``cfl`` (dt/dx), ``omega`` (incident angular frequency, positive),
      ``final_time`` (at most the time the scattered field needs to reach
      the domain edge), ``scheme`` (``bfecc`` or ``plain``). ``cfl`` may
      not exceed the scheme's free-space stability bound: sqrt(2/5) ~
      0.63246 for ``plain``, sqrt(4.6 + sqrt(10.92))/2 ~ 1.40575 for
      ``bfecc``.
    - ``band_width``: the study's error-sampling band outside the PEC, in
      coarsest-grid dx units.
    - ``snapshot_every``: steps between field snapshots of ``run``, 0 =
      off; ``output_dir``: where results are written.
    - ``parallel_grids``: run the study grids in a pool of ``threads``
      worker processes. Booleans accept 1/0, true/false, yes/no, on/off.
      ``threads`` sizes only that pool: a march uses a second CPU by
      itself once its grid has two or more blocks
      (``MaxwellStepper.lanes``).
    """

    domain_xmin: float = 0.0
    domain_xmax: float = 10.0
    domain_ymin: float = 0.0
    domain_ymax: float = 10.0

    shape: str = "circle"
    circle_center_x: float = 5.0
    circle_center_y: float = 5.0
    circle_radius: float = 2.0
    moon_outer_center_x: float = 5.0
    moon_outer_center_y: float = 5.0
    moon_outer_radius: float = 2.0
    moon_cutter_center_x: float = 6.2
    moon_cutter_center_y: float = 5.0
    moon_cutter_radius: float = 2.0

    grid_size: int = 100
    grid_sizes: tuple = (100, 200, 400)
    reference_size: int = 800
    cfl: float = 1.0
    omega: float = 2 * math.pi / 0.6
    final_time: float = 1.0
    scheme: str = "bfecc"
    band_width: float = 10.0

    snapshot_every: int = 0
    output_dir: str = "out"
    threads: int = 1
    parallel_grids: bool = False

    def domain(self) -> Domain:
        return Domain(self.domain_xmin, self.domain_xmax,
                      self.domain_ymin, self.domain_ymax)

    def make_shape(self) -> Optional[Shape]:
        if self.shape == "none":
            return None
        if self.shape == "circle":
            return Circle(self.circle_center_x, self.circle_center_y,
                          self.circle_radius)
        if self.shape == "half_moon":
            return HalfMoon(
                Circle(self.moon_outer_center_x, self.moon_outer_center_y,
                       self.moon_outer_radius),
                Circle(self.moon_cutter_center_x, self.moon_cutter_center_y,
                       self.moon_cutter_radius))
        raise ConfigError(f"shape: unknown kind {self.shape!r}")

    def validate(self) -> "SimulationConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        dom = self.domain()
        if dom.width <= 0 or dom.height <= 0:
            raise ConfigError("domain_xmax/domain_ymax: domain sides must be positive")
        for name in ("grid_size", "reference_size"):
            if getattr(self, name) < 8:
                raise ConfigError(f"{name}: must be at least 8")
        if not self.grid_sizes or any(n < 8 for n in self.grid_sizes):
            raise ConfigError("grid_sizes: every entry must be at least 8")
        if any(b <= a for a, b in zip(self.grid_sizes, self.grid_sizes[1:])):
            raise ConfigError("grid_sizes: must be strictly increasing")
        if self.final_time <= 0:
            raise ConfigError("final_time: must be positive")
        if self.scheme not in CFL_BOUNDS:
            raise ConfigError(f"scheme: unknown scheme {self.scheme!r}")
        if self.cfl <= 0:
            raise ConfigError("cfl: must be positive")
        bound = CFL_BOUNDS[self.scheme]
        if self.cfl > bound:
            raise ConfigError(
                f"cfl: {self.cfl:g} exceeds the {self.scheme} scheme's "
                f"stability bound {bound:.5f}")
        if self.omega <= 0:
            raise ConfigError("omega: must be positive")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every: must be at least 0")
        if self.band_width <= 0:
            raise ConfigError("band_width: must be positive")
        if self.threads < 1:
            raise ConfigError("threads: must be at least 1")
        shape = self.make_shape()
        if shape is not None:
            try:
                validate_shape(shape, dom)
            except ValueError as err:
                raise ConfigError(f"shape: {err}") from err
            clearance = edge_clearance(shape, dom)
            if self.final_time > clearance:
                raise ConfigError(
                    f"final_time: {self.final_time:g} exceeds the causality "
                    f"bound {clearance:g} (scattered field would reach the "
                    f"outer boundary, whose values follow the incident wave)")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(SimulationConfig)}


def _parse_value(key: str, text: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "float":
            return float(text)
        if kind == "int":
            return int(text)
        if kind == "bool":
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind == "tuple":
            return tuple(int(tok) for tok in text.replace(",", " ").split())
        return text
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from err


def parse_config_text(text: str) -> SimulationConfig:
    cfg = SimulationConfig()
    seen = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} already set on line "
                              f"{seen[key]}")
        setattr(cfg, key, _parse_value(key, value))
    return cfg.validate()


def load_config(path) -> SimulationConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {p}: {err}") from err
    return parse_config_text(text)
