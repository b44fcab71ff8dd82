"""Line segments and rectilinear polylines (routing paths)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geom.point import Point


@dataclass(frozen=True, slots=True)
class Segment:
    """A straight segment between two points (any slope)."""

    a: Point
    b: Point

    @property
    def manhattan_length(self) -> float:
        return self.a.manhattan_to(self.b)

    @property
    def euclidean_length(self) -> float:
        return self.a.euclidean_to(self.b)

    def point_at(self, t: float) -> Point:
        """Point at parameter ``t`` in [0, 1] (a at 0, b at 1)."""
        return self.a.lerp(self.b, t)

    def midpoint(self) -> Point:
        return self.point_at(0.5)

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)


class PathPolyline:
    """A polyline through a list of points, measured in Manhattan length.

    Used to represent a routing path: consecutive vertices are connected by
    wires whose electrical length is the Manhattan distance between them
    (the detailed rectilinear staircase between the vertices does not change
    wire length in the L1 metric, so it need not be materialized).
    """

    def __init__(self, points: list[Point]):
        if len(points) < 1:
            raise ValueError("polyline needs at least one point")
        self._points = list(points)
        self._cumlen = [0.0]
        for prev, cur in zip(self._points, self._points[1:]):
            self._cumlen.append(self._cumlen[-1] + prev.manhattan_to(cur))

    @property
    def points(self) -> list[Point]:
        return list(self._points)

    @property
    def length(self) -> float:
        return self._cumlen[-1]

    def __len__(self) -> int:
        return len(self._points)

    def point_at_length(self, s: float) -> Point:
        """Point at arc length ``s`` from the start (clamped to the ends)."""
        if s <= 0:
            return self._points[0]
        if s >= self.length:
            return self._points[-1]
        # Find the hosting edge by scanning; paths are short (few dozen pts).
        for i in range(1, len(self._points)):
            if s <= self._cumlen[i]:
                seg_len = self._cumlen[i] - self._cumlen[i - 1]
                if seg_len == 0:
                    return self._points[i]
                t = (s - self._cumlen[i - 1]) / seg_len
                return self._points[i - 1].lerp(self._points[i], t)
        return self._points[-1]

    def prefix_length(self, index: int) -> float:
        """Arc length from the start to vertex ``index``."""
        return self._cumlen[index]

    def reversed(self) -> "PathPolyline":
        return PathPolyline(list(reversed(self._points)))

    def subpath(self, s0: float, s1: float) -> "PathPolyline":
        """Sub-polyline between arc lengths ``s0 <= s1`` (clamped)."""
        return PathPolyline(self.subpath_points(s0, s1))

    def subpath_points(self, s0: float, s1: float) -> list[Point]:
        """Vertices of :meth:`subpath` ``(s0, s1)``, as a new list."""
        s0 = max(0.0, min(s0, self.length))
        s1 = max(s0, min(s1, self.length))
        points = [self.point_at_length(s0)]
        for idx, cum in enumerate(self._cumlen):
            if s0 < cum < s1:
                points.append(self._points[idx])
        end = self.point_at_length(s1)
        if points[-1] != end or len(points) == 1:
            points.append(end)
        return points

    def concat(self, other: "PathPolyline") -> "PathPolyline":
        """Join two polylines; the seam point is kept once."""
        pts = self._points + (
            other._points[1:]
            if self._points[-1] == other._points[0]
            else other._points
        )
        return PathPolyline(pts)
