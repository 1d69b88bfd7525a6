"""2D TMz Maxwell scattering around curved PEC objects on locally
point-shifted grids, with level-set ghost extension and BFECC stepping."""

from .config import ConfigError, SimulationConfig, load_config
from .grid import (GridTopology, NodeClass, apply_point_shift,
                   build_uniform_grid, classify_nodes)
from .levelset import (LevelSetData, build_levelset, compute_normals_tangents,
                       redistance)
from .shapes import Circle, Domain, HalfMoon, boundary_intersections
from .solver import (FieldState, MaxwellStepper, StabilityError,
                     incident_wave, run_simulation)
from .stencil import DegenerateStencilError, FitTable

__all__ = [
    "Circle", "ConfigError", "DegenerateStencilError", "Domain",
    "FieldState", "FitTable", "GridTopology", "HalfMoon", "LevelSetData",
    "MaxwellStepper", "NodeClass", "SimulationConfig", "StabilityError",
    "apply_point_shift", "boundary_intersections", "build_levelset",
    "build_uniform_grid", "classify_nodes", "compute_normals_tangents",
    "incident_wave", "load_config", "redistance", "run_simulation",
]

__version__ = "0.1.0"
