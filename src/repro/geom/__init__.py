"""Geometric primitives for Manhattan-metric clock tree routing.

Clock tree synthesis works in the rectilinear (Manhattan, L1) plane: wire
length between two points equals their L1 distance, merge segments are
Manhattan arcs (segments of slope +/-1), and routed paths are rectilinear
polylines. This package provides those primitives; the routing grids live
with their routers in :mod:`repro.core`.
"""

from repro.geom.point import Point, manhattan
from repro.geom.bbox import BBox
from repro.geom.segment import Segment, PathPolyline
from repro.geom.manhattan_arc import ManhattanArc, tilted_rect_region

__all__ = [
    "Point",
    "manhattan",
    "BBox",
    "Segment",
    "PathPolyline",
    "ManhattanArc",
    "tilted_rect_region",
]
