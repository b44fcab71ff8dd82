"""Closed-form distance-profile router (obstacle-free fast path).

In an obstacle-free uniform medium, the minimum-delay maze path between
two points is any monotone staircase, and the bidirectional wavefront
delay at a cell is a pure function of its Manhattan distance to each
terminal. The router therefore:

1. precomputes each side's delay-vs-distance profile with the shared
   :class:`~repro.core.segment_builder.PathBuilder` (identical buffer
   insertion/sizing logic to the general maze router);
2. evaluates every candidate grid cell's skew
   ``|t1 + d1(cell) - t2 - d2(cell)|`` vectorized with numpy;
3. picks the minimum-skew cell (ties: smaller max delay, then smaller
   total path length — prefer no detour).

A dedicated test asserts this router and the general maze router choose
equivalent merges on obstacle-free instances.
"""

from __future__ import annotations

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    ROUTING_MARGIN_RATIO,
    RoutedPath,
    RouteResult,
    RouteTerminal,
    choose_pitch,
    l_path,
)
from repro.core.segment_builder import PathBuilder, SegmentTables
from repro.geom.point import Point


def route_profile(
    term1: RouteTerminal,
    term2: RouteTerminal,
    library: DelaySlewLibrary,
    options: CTSOptions,
    stage_length: float,
) -> RouteResult:
    """Route one merge between two sub-tree roots (no blockages)."""
    p1, p2 = term1.point, term2.point
    dist = p1.manhattan_to(p2)
    if dist <= 0:
        raise ValueError("terminals are coincident; no routing needed")
    span = max(abs(p1.x - p2.x), abs(p1.y - p2.y), dist / 2.0)
    pitch, n_cells = choose_pitch(span, options, stage_length)

    margin = max(1, int(round(n_cells * ROUTING_MARGIN_RATIO)))
    xmin = min(p1.x, p2.x) - margin * pitch
    ymin = min(p1.y, p2.y) - margin * pitch
    nx = int(np.ceil((max(p1.x, p2.x) - min(p1.x, p2.x)) / pitch)) + 2 * margin + 1
    ny = int(np.ceil((max(p1.y, p2.y) - min(p1.y, p2.y)) / pitch)) + 2 * margin + 1

    xs = xmin + pitch * np.arange(nx)
    ys = ymin + pitch * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    k1 = np.rint((np.abs(gx - p1.x) + np.abs(gy - p1.y)) / pitch).astype(int)
    k2 = np.rint((np.abs(gx - p2.x) + np.abs(gy - p2.y)) / pitch).astype(int)

    max_k = int(max(k1.max(), k2.max()))
    tables = SegmentTables(library, pitch, max_k + 1, options.target_slew)
    builders = []
    for term in (term1, term2):
        builders.append(
            PathBuilder(
                tables,
                term.base_delay,
                term.load_name,
                options.target_slew,
                library.buffer_names,
                library.buffer_names[-1],
            )
        )
    prof1 = builders[0].delays_up_to(max_k)
    prof2 = builders[1].delays_up_to(max_k)

    d1 = prof1[k1]
    d2 = prof2[k2]
    skew = np.abs(d1 - d2)
    total = np.maximum(d1, d2)
    hops = k1 + k2
    # Lexicographic minimum: skew, then max delay, then path length.
    order = np.lexsort(
        (hops.ravel(), total.ravel(), np.round(skew.ravel(), 15))
    )
    best = order[0]
    bi, bj = np.unravel_index(best, skew.shape)
    meeting = Point(float(xs[bi]), float(ys[bj]))
    kk1, kk2 = int(k1[bi, bj]), int(k2[bi, bj])

    left = RoutedPath(term1, l_path(p1, meeting), builders[0].state(kk1), pitch)
    right = RoutedPath(term2, l_path(p2, meeting), builders[1].state(kk2), pitch)
    return RouteResult(
        meeting_point=meeting,
        left=left,
        right=right,
        est_left_delay=float(d1[bi, bj]),
        est_right_delay=float(d2[bi, bj]),
        grid_cells=max(nx, ny),
    )
