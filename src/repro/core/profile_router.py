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

:func:`route_profile` routes one merge (the single-pair path of
:meth:`~repro.core.merge_routing.MergeRouter.route_plan`);
:func:`route_profile_level` is its level kernel, which
:func:`repro.core.grid_cache.route_level` runs over every slice of an
obstacle-free level: the pairs' lattices come from the same
:func:`profile_lattice`, their profiles expand through the lockstep
scheduler (:func:`repro.core.batch_expand.expand_level`), and their
meeting cells are picked by the chunked ranking of the maze level
router too (:func:`~repro.core.routing_common.rank_pairs`), in the same
tie order as the per-pair ``lexsort``. A level routed by the kernel is
bit-identical to routing its pairs one at a time.

A dedicated test asserts this router and the general maze router choose
equivalent merges on obstacle-free instances.
"""

from __future__ import annotations

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.batch_expand import expand_level
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    ROUTING_MARGIN_RATIO,
    RoutedPath,
    RouteResult,
    RouteTerminal,
    choose_pitch,
    l_path,
    rank_pairs,
)
from repro.core.segment_builder import PathBuilder, SegmentTables
from repro.geom.point import Point


def profile_lattice(
    p1: Point, p2: Point, options: CTSOptions, stage_length: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """The candidate lattice of a merge between ``p1`` and ``p2``:
    ``(pitch, xs, ys)``, the cell-center coordinates per axis."""
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
    return pitch, xs, ys


def _step_fields(
    firsts: list[Point], seconds: list[Point], lattices: list[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """Profile step counts of every cell of a chunk of lattices, from
    each pair's first and second terminal.

    Cell ``(i, j)`` of lattice ``(pitch, xs, ys)`` holds its Manhattan
    distance to the terminal in pitches, rounded:
    ``rint((|xs[i] - p.x| + |ys[j] - p.y|) / pitch)``. Each field is the
    lattices' ``(nx, ny)`` grids ravelled and concatenated in order,
    built from the per-pair axis distances with those element-wise ops.
    """
    nx = np.array([xs.size for __, xs, __y in lattices])
    ny = np.array([ys.size for __, __x, ys in lattices])
    xs_all = np.concatenate([xs for __, xs, __y in lattices])
    ys_all = np.concatenate([ys for __, __x, ys in lattices])
    # Cell c of grid row r (x index i of lattice p) reads
    # ys_all[y_start[p] + c - first[r]], first[r] being the row's first cell.
    row_cells = np.repeat(ny, nx)
    row_y = np.repeat(np.cumsum(ny) - ny, nx) - (np.cumsum(row_cells) - row_cells)
    y_cells = np.repeat(row_y, row_cells) + np.arange(int(row_cells.sum()))
    pitches = np.repeat(
        np.repeat([pitch for pitch, __x, __y in lattices], nx), row_cells
    )
    fields = []
    for points in (firsts, seconds):
        ax = np.abs(xs_all - np.repeat([p.x for p in points], nx))
        ay = np.abs(ys_all - np.repeat([p.y for p in points], ny))
        steps = np.repeat(ax, row_cells)
        steps += ay[y_cells]
        steps /= pitches
        fields.append(np.rint(steps, out=steps).astype(int))
    return fields[0], fields[1]


def _max_step(p: Point, pitch: float, xs: np.ndarray, ys: np.ndarray) -> int:
    """The largest step count of ``p``'s field (:func:`_step_fields`)
    over the lattice, without the field: every term is monotone in both
    axis distances, so the maximum sits at the lattice corner farthest
    from ``p``."""
    ax = max(abs(xs[0] - p.x), abs(xs[-1] - p.x))
    ay = max(abs(ys[0] - p.y), abs(ys[-1] - p.y))
    return int(np.rint((ax + ay) / pitch))


def route_profile(
    term1: RouteTerminal,
    term2: RouteTerminal,
    library: DelaySlewLibrary,
    options: CTSOptions,
    stage_length: float,
) -> RouteResult:
    """Route one merge between two sub-tree roots (no blockages)."""
    p1, p2 = term1.point, term2.point
    pitch, xs, ys = profile_lattice(p1, p2, options, stage_length)
    k1, k2 = _step_fields([p1], [p2], [(pitch, xs, ys)])
    k1 = k1.reshape(xs.size, ys.size)
    k2 = k2.reshape(xs.size, ys.size)

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
        grid_cells=max(xs.size, ys.size),
    )


def route_profile_level(
    pairs: list[tuple[RouteTerminal, RouteTerminal]],
    library: DelaySlewLibrary,
    options: CTSOptions,
    stage_length: float,
    stats,
) -> list[RouteResult]:
    """Route many merges (no blockages) together; results in pair order.

    Each pair's lattice, step fields and tables are exactly
    :func:`route_profile`'s. All profiles expand through one lockstep
    scheduler run, and the meeting cells are ranked in pair-group
    chunks (:func:`rank_pairs`) whose step fields are built only for
    the chunk. The ranking keeps the ``lexsort`` tie order
    (rounded skew, max delay, hops, ravel index), so every result equals
    the single-pair router's. ``stats`` is the level's
    :class:`~repro.core.grid_cache.SharingStats`.
    """
    lattices = [
        profile_lattice(t1.point, t2.point, options, stage_length)
        for t1, t2 in pairs
    ]
    primed = []
    for (t1, t2), (pitch, xs, ys) in zip(pairs, lattices):
        max_k = max(
            _max_step(t1.point, pitch, xs, ys), _max_step(t2.point, pitch, xs, ys)
        )
        tables = SegmentTables(library, pitch, max_k + 1, options.target_slew)
        primed.append((t1, t2, tables))
    builders_by_pair = expand_level(primed, library, options, stats)

    sizes = [xs.size * ys.size for _, xs, ys in lattices]
    firsts = [t1.point for t1, _ in pairs]
    seconds = [t2.point for _, t2 in pairs]
    best, kk1, kk2, est1, est2 = rank_pairs(
        sizes,
        builders_by_pair,
        [tables.n_steps for __, __t, tables in primed],
        lambda lo, hi: _step_fields(firsts[lo:hi], seconds[lo:hi], lattices[lo:hi]),
    )
    stats.cells_ranked += sum(sizes)
    stats.finish_batches += 1
    stats.pairs_routed += len(pairs)

    results: list[RouteResult] = []
    for (t1, t2, _), (pitch, xs, ys), (b1, b2), cell, k1s, k2s, e1, e2 in zip(
        primed,
        lattices,
        builders_by_pair,
        best.tolist(),
        kk1.tolist(),
        kk2.tolist(),
        est1.tolist(),
        est2.tolist(),
    ):
        bi, bj = divmod(cell, ys.size)
        meeting = Point(float(xs[bi]), float(ys[bj]))
        results.append(
            RouteResult(
                meeting_point=meeting,
                left=RoutedPath(t1, l_path(t1.point, meeting), b1.state(k1s), pitch),
                right=RoutedPath(t2, l_path(t2.point, meeting), b2.state(k2s), pitch),
                est_left_delay=e1,
                est_right_delay=e2,
                grid_cells=max(xs.size, ys.size),
            )
        )
    return results
