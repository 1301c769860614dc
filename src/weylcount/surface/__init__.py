"""Surfaces: parametric charts, triangle meshes, and damping fields."""

from .charts import (
    AnalyticSurface,
    Chart,
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
    "DampingField",
    "SurfaceMesh",
    "icosphere",
    "read_off",
    "read_vertex_values",
    "write_off",
]
