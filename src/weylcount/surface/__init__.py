"""Surfaces: parametric charts, triangle meshes, and damping fields."""

from .charts import (
    AnalyticSurface,
    Chart,
    DEFAULT_QUAD_ORDER,
    MIN_QUAD_ORDER,
    polar_bump,
    smooth_step,
)
from .damping import DampingField
from .mesh import (
    SurfaceMesh,
    icosphere,
    read_off,
    read_vertex_values,
    write_off,
)

__all__ = [
    "AnalyticSurface",
    "Chart",
    "DEFAULT_QUAD_ORDER",
    "DampingField",
    "MIN_QUAD_ORDER",
    "SurfaceMesh",
    "icosphere",
    "polar_bump",
    "read_off",
    "read_vertex_values",
    "smooth_step",
    "write_off",
]
