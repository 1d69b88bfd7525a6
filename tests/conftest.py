"""Shared geometry fixtures. Heavy constructions are cached per session."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from pecshift.extension import GhostExtender
from pecshift.grid import (NodeClass, apply_point_shift, build_uniform_grid,
                           classify_nodes)
from pecshift.levelset import LevelSetData, build_levelset, redistance
from pecshift.shapes import Circle, Domain, boundary_intersections
from pecshift.stencil import FitTable

CIRCLE = Circle(5.0, 5.0, 2.0)

# Ghosts on the domain ring of the synthetic planar fixture read ring
# nodes, which have no fit (real shapes keep clearance); tests compare
# only ghosts at least this many rows away from the ring.
PLANAR_RING_MARGIN = 20


@lru_cache(maxsize=8)
def circle_geometry(n: int):
    """Shifted grid, classes, fits, and level set for the reference circle."""
    grid = build_uniform_grid(Domain(), n, n)
    pts = boundary_intersections(CIRCLE, grid.lattice_x(), grid.lattice_y())
    grid = apply_point_shift(grid, pts)
    fits = FitTable.build(grid)
    phi = redistance(CIRCLE, grid)
    classes = classify_nodes(grid, phi)
    return grid, classes, fits, build_levelset(CIRCLE, phi, grid)


@lru_cache(maxsize=8)
def planar_geometry(n: int):
    """Vertical PEC wall through the central lattice column: exact phi,
    constant frame, interior-ghost mask with ring margin."""
    grid = build_uniform_grid(Domain(), n, n)
    iw = n // 2
    grid.shifted[iw, 1:-1] = True
    x_wall = float(grid.lattice_x()[iw])
    phi = grid.x - x_wall
    phi[grid.shifted] = 0.0
    classes = classify_nodes(grid, phi)
    one = np.ones(grid.shape)
    zero = np.zeros(grid.shape)
    ls = LevelSetData(phi=phi, normal_x=one, normal_y=zero,
                      tangent_x=zero.copy(), tangent_y=-one)
    fits = FitTable.build(grid)
    ghosts = classes == NodeClass.GHOST
    ghosts[:, :PLANAR_RING_MARGIN] = False
    ghosts[:, -PLANAR_RING_MARGIN:] = False
    return grid, classes, fits, ls, ghosts, x_wall


@pytest.fixture(scope="session")
def circle_100():
    return circle_geometry(100)


@pytest.fixture(scope="session")
def planar_101():
    return planar_geometry(101)


@pytest.fixture(scope="session")
def planar_extender_101(planar_101):
    grid, classes, fits, ls, ghosts, x_wall = planar_101
    return GhostExtender(grid, ls, classes, fits)
