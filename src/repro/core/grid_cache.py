"""Level routing: cross-pair batching of one topology level's merges.

The route phase of one topology level searches one maze window per merge
pair, or (without blockages) ranks one closed-form profile lattice per
pair. This module routes the level's pairs together where batching pays:

- :func:`route_level` is the **cross-pair batcher**: each maze pair's
  window search runs through
  :func:`~repro.core.maze_router.search_maze_pair`, the same search as
  the single-pair :func:`~repro.core.maze_router.route_maze`. A window
  no blockage covers is *open*: it is planned (bbox, pitch, cell
  counts, the two snapped cells), not rasterized, and carries no
  blocked mask, distance fields or co-reached mask. Then every
  pair's delay profiles expand through the lockstep scheduler
  (:func:`repro.core.batch_expand.expand_level`), whose grouped curve
  rounds evaluate the (drive, load, fn) fit curves over the
  concatenation of all pairs' length grids — one ``partial_curve`` call
  per distinct triple instead of one per pair per triple. Obstacle-free
  levels skip the search: their slices go to the profile level kernel
  (:func:`repro.core.profile_router.route_profile_level`), which runs
  the same scheduler and ranks the pairs' closed-form step fields with
  the same segmented ranking pass.

- :func:`_finish_level` is the **route-finishing kernel**: the level's
  merge cells are picked by segmented ranking passes over chunks of
  pairs (:func:`~repro.core.routing_common.rank_pairs`, the chunked
  ranking the profile kernel uses too, scalar-identical tie order).
  Each chunk's candidate step counts are built for that chunk only
  (:func:`_window_steps`): an open window's as the closed-form
  ``|i - i0| + |j - j0|`` over all its cells, a searched grid's read off
  its distance fields at its co-reached cells. All winning paths on
  blocked grids then materialize through one lockstep batched
  distance-field descent (:func:`~repro.core.maze_router.descend_many`),
  the others as analytic staircases.

Counters of both kernels are kept in :class:`SharingStats`.

Bit-identity contract
---------------------

A level routed here is byte-identical to routing its pairs one at a time
through :func:`~repro.core.maze_router.route_maze` (search,
:class:`~repro.core.segment_builder.PathBuilder` lazy expansion,
:func:`~repro.core.maze_router.finish_maze_route`) or, without blockages,
:func:`~repro.core.profile_router.route_profile` — the single-pair paths
of :meth:`~repro.core.merge_routing.MergeRouter.route_plan`:

- the window search is the same function, and the profile lattice runs
  through the exact same arithmetic;
- an open window's step counts are the integers the closed-form BFS
  field holds, in the same ravel order;
- path geometry is a deterministic descent of the distance field;
- the batched curve rounds evaluate the same contracted polynomial
  element-wise over a concatenation, so each pair's slice equals its
  private evaluation bit for bit.

Because every per-pair computation is replicated exactly and the batch
axis only regroups element-wise work, results are also invariant to how
pairs are split into batches; a batch of one is the single-pair path.
:func:`route_level` relies on this to carry a level through in slices
of at most :data:`ROUTE_SLICE_PAIRS` pairs, which caps the route phase's
working set without changing any result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import groupby

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.batch_expand import expand_level
from repro.core.maze_router import (
    _UNREACHED,
    cells_polylines_many,
    descend_many,
    search_maze_pair,
    staircase_arrays_many,
)
from repro.core.options import CTSOptions
from repro.core.profile_router import route_profile_level
from repro.core.routing_common import (
    MazeSearch,
    RoutedPath,
    RouteResult,
    RouteTerminal,
    rank_pairs,
    uses_maze_router,
)
from repro.core.segment_builder import PathBuilder, SegmentTables
from repro.geom.bbox import BBox
from repro.geom.segment import PathPolyline


@dataclass
class SharingStats:
    """Counters of the merge routers (diagnostics only).

    Maze searches feed ``windows_served`` and ``cells_rasterized`` (one
    count per window searched, whichever path searched it, and its
    cells; an open window is planned, not rasterized, but counts the
    same); maze levels feed every other counter too. Obstacle-free
    levels feed the expansion scheduler's (``curve_*``,
    ``expansion_*``) and the profile kernel's ``pairs_routed``,
    ``cells_ranked`` (every lattice cell of every pair) and
    ``finish_batches``; they serve no windows and descend no paths.

    ``search_rounds`` counts the maze pairs the level router searched.
    The per-pair counters (``windows_served``, ``cells_rasterized``,
    ``search_rounds``, ``pairs_routed``, ``cells_ranked``, ``descent_sides``,
    ``descent_cells``, ``curve_points``, ``expansion_lanes``,
    ``expansion_runs``, ``expansion_insertions``) are invariant to how
    a level is split into batches and slices; the per-slice ones
    (``curve_rounds``, ``expansion_rounds``, ``finish_batches``) count
    once per :data:`ROUTE_SLICE_PAIRS` slice of a ``route_level`` call
    (the curve and expansion rounds once per round in it) and so depend
    on the (deterministic) batch split.
    """

    windows_served: int = 0
    cells_rasterized: int = 0
    search_rounds: int = 0
    pairs_routed: int = 0
    curve_rounds: int = 0
    curves_evaluated: int = 0
    curve_points: int = 0
    expansion_rounds: int = 0
    expansion_lanes: int = 0
    expansion_runs: int = 0
    expansion_insertions: int = 0
    finish_batches: int = 0
    cells_ranked: int = 0
    descent_sides: int = 0
    descent_cells: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# The cross-pair level batcher
# ----------------------------------------------------------------------

#: Most pairs :func:`route_level` carries through search, expansion and
#: finishing at once. A slice's blocked windows, distance fields and
#: expanded profiles are live together, so an unsliced 4000-sink level
#: holds them all (peak RSS 88 MiB on the six-macro 4000-sink workload
#: vs 72 MiB at 256). Results do not depend on the split (see the
#: module docstring).
ROUTE_SLICE_PAIRS = 256


@dataclass
class _PairSearch:
    """One searched maze pair of a slice."""

    index: int
    term1: RouteTerminal
    term2: RouteTerminal
    search: MazeSearch
    both: np.ndarray | None  # co-reached mask; None for an open window

    @property
    def rows(self) -> int:
        """Candidate rows: every cell of an open window, else the
        co-reached cells."""
        if self.search.is_open:
            return self.search.grid.nx * self.search.grid.ny
        return int(np.count_nonzero(self.both))


def _open_steps(searches: list[MazeSearch]) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' step counts over every cell of consecutive open
    windows, each window in ravel order, concatenated.

    Cell ``(i, j)`` holds ``|i - i0| + |j - j0|`` from the side's cell
    ``(i0, j0)``: the BFS field of a window without blocked cells
    (:meth:`~repro.core.maze_router.BfsEngine.closed_form`), built from
    per-row and per-cell index ramps of the whole run at once.
    """
    nx = np.array([s.grid.nx for s in searches], dtype=np.int64)
    ny = np.array([s.grid.ny for s in searches], dtype=np.int64)
    row_cells = np.repeat(ny, nx)  # one grid row per x index
    i = np.arange(row_cells.size) - np.repeat(np.cumsum(nx) - nx, nx)
    j = np.arange(int(row_cells.sum())) - np.repeat(
        np.cumsum(row_cells) - row_cells, row_cells
    )
    fields = []
    for side in (0, 1):
        i0 = np.repeat([s.cells[side][0] for s in searches], nx)
        j0 = np.repeat([s.cells[side][1] for s in searches], nx * ny)
        steps = np.repeat(np.abs(i - i0), row_cells)
        steps += np.abs(j - j0)
        fields.append(steps)
    return fields[0], fields[1]


def _window_steps(jobs: list[_PairSearch]) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' step counts of a ranking chunk's candidate rows,
    concatenated in pair order.

    A searched grid's rows are its co-reached cells in ravel order, read
    off its distance fields; an open window's rows are all its cells in
    ravel order (:func:`_open_steps`, one call per run of consecutive
    open windows).
    """
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    for is_open, group in groupby(jobs, key=lambda job: job.search.is_open):
        if is_open:
            pieces.append(_open_steps([job.search for job in group]))
            continue
        for job in group:
            cand = np.flatnonzero(job.both)
            dist1, dist2 = job.search.dists
            pieces.append((dist1.ravel()[cand], dist2.ravel()[cand]))
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate([k1 for k1, __ in pieces]), np.concatenate(
        [k2 for __, k2 in pieces]
    )


def _finish_level(
    primed: list[tuple[_PairSearch, SegmentTables]],
    builders_by_pair: list[list[PathBuilder]],
    stats: SharingStats,
    results: list[RouteResult | None],
) -> None:
    """The level-wide route-finishing kernel (one ranking pass, batched
    descent).

    The batched twin of per-pair :func:`finish_maze_route` calls: the
    merge cells of the whole slice are picked by segmented ranking
    passes over chunks of pairs' candidate rows
    (:func:`~repro.core.routing_common.rank_pairs`, scalar-identical tie
    order), each chunk's step counts built only for that chunk
    (:func:`_window_steps`) and its profile costs gathered with one
    fancy index over the concatenation of the chunk's distance
    profiles. Winning paths on blocked grids then materialize through
    one lockstep batched descent
    (:func:`repro.core.maze_router.descend_many`); windows without a
    blocked cell keep the analytic staircase.

    ``builders_by_pair`` (from the lockstep expansion scheduler,
    :func:`repro.core.batch_expand.expand_level`) supplies each pair's
    two already-expanded profile builders.

    Bit-identity with per-pair finishing: profile evaluation runs the
    same :class:`PathBuilder` state machines over the same primed tables;
    an open window's step counts are the closed-form field's integers in
    the same ravel order; the ranking keys are gathers and element-wise
    maps of the same floats; the refinement compares (never combines)
    them; the descent replicates the scalar neighbor priority on the
    same distance fields. Batching only regroups element-wise work, so
    results are also invariant to how pairs are split into batches.
    """
    if not primed:
        return
    jobs = [job for job, _ in primed]
    sizes = [job.rows for job in jobs]
    winners, kk1, kk2, est1, est2 = rank_pairs(
        sizes,
        builders_by_pair,
        [tables.n_steps for __, tables in primed],
        lambda lo, hi: _window_steps(jobs[lo:hi]),
    )
    stats.cells_ranked += sum(sizes)
    stats.finish_batches += 1

    # A winner's position among its pair's rows is the ravel index of
    # its cell in an open window, and indexes the co-reached cells of a
    # searched grid.
    cells: list[tuple[int, int]] = []
    for job, row in zip(jobs, winners.tolist()):
        if not job.search.is_open:
            row = int(np.flatnonzero(job.both)[row])
        cells.append(divmod(row, job.search.grid.ny))

    # Blocked sides join the lockstep batched descent, the others the
    # batched analytic staircase (two per pair, in pair order).
    slot: dict[int, int] = {}
    stair_slot: dict[int, int] = {}
    descent_sides: list[tuple[np.ndarray, tuple[int, int]]] = []
    stair_starts: list[tuple[int, int]] = []
    stair_cells: list[tuple[int, int]] = []
    for pos, job in enumerate(jobs):
        if job.search.blocked:
            slot[pos] = len(descent_sides)
            descent_sides.append((job.search.dists[0], cells[pos]))
            descent_sides.append((job.search.dists[1], cells[pos]))
        else:
            stair_slot[pos] = len(stair_starts)
            stair_starts.extend(job.search.cells[:2])
            stair_cells.extend((cells[pos], cells[pos]))
    paths = descend_many(descent_sides)
    staircases = staircase_arrays_many(stair_starts, stair_cells)
    stats.descent_sides += len(descent_sides)
    stats.descent_cells += sum(int(ci.size) for ci, _ in paths)

    # All sides' cell sequences compress to polylines in one batched
    # pass (two sides per pair, in pair order).
    firsts: list = []
    side_ci: list[np.ndarray] = []
    side_cj: list[np.ndarray] = []
    side_grids: list = []
    for pos, job in enumerate(jobs):
        grid = job.search.grid
        blocked = job.search.blocked
        for side, term in enumerate((job.term1, job.term2)):
            if blocked:
                ci, cj = paths[slot[pos] + side]
            else:
                ci, cj = staircases[stair_slot[pos] + side]
            firsts.append(term.point)
            side_ci.append(ci[1:])
            side_cj.append(cj[1:])
            side_grids.append(grid)
    polylines = cells_polylines_many(firsts, side_ci, side_cj, side_grids)

    lines = iter(polylines)
    for (job, _), pair_builders, cell, k1s, k2s, e1, e2, left_pts, right_pts in zip(
        primed,
        builders_by_pair,
        cells,
        kk1.tolist(),
        kk2.tolist(),
        est1.tolist(),
        est2.tolist(),
        lines,
        lines,
    ):
        grid, pitch = job.search.grid, job.search.pitch
        meeting = grid.center(*cell)
        sides: list[RoutedPath] = []
        for builder, term, k_steps, points in (
            (pair_builders[0], job.term1, k1s, left_pts),
            (pair_builders[1], job.term2, k2s, right_pts),
        ):
            if len(points) == 1:
                points.append(meeting)
            sides.append(
                RoutedPath(
                    term,
                    PathPolyline(points),
                    builder.state(k_steps),
                    pitch,
                )
            )
        results[job.index] = RouteResult(
            meeting_point=meeting,
            left=sides[0],
            right=sides[1],
            est_left_delay=e1,
            est_right_delay=e2,
            grid_cells=max(grid.nx, grid.ny),
        )
    stats.pairs_routed += len(primed)


def route_level(
    pairs: list[tuple[RouteTerminal, RouteTerminal] | None],
    library: DelaySlewLibrary,
    options: CTSOptions,
    stage_length: float,
    blockages: list[BBox],
    stats: SharingStats,
) -> list[RouteResult | None]:
    """Route one topology level's merge pairs through the level kernels.

    ``pairs`` entries may be ``None`` (coincident or otherwise unroutable
    slots); results come back indexed like the input. The routed pairs
    go through in slices of at most :data:`ROUTE_SLICE_PAIRS` pairs.
    Maze slices search each pair's window
    (:func:`~repro.core.maze_router.search_maze_pair`), run the lockstep
    profile-expansion scheduler
    (:func:`repro.core.batch_expand.expand_level` — grouped curve
    rounds + masked insertion sub-rounds), then the level-wide finishing
    kernel (:func:`_finish_level`); obstacle-free slices run the profile
    level kernel
    (:func:`~repro.core.profile_router.route_profile_level`: the same
    scheduler, then segmented ranking over closed-form step fields).
    Each kernel replicates the per-pair computation of
    :func:`~repro.core.maze_router.route_maze` or
    :func:`~repro.core.profile_router.route_profile` exactly, so a level
    of one pair routes to the same result as that function.
    """
    results: list[RouteResult | None] = [None] * len(pairs)
    maze = uses_maze_router(options, blockages)
    routed = [(i, pair) for i, pair in enumerate(pairs) if pair is not None]
    for lo in range(0, len(routed), ROUTE_SLICE_PAIRS):
        chunk = routed[lo : lo + ROUTE_SLICE_PAIRS]
        if maze:
            _route_slice(
                chunk, library, options, stage_length, blockages, stats, results
            )
        else:
            routes = route_profile_level(
                [pair for _, pair in chunk],
                library,
                options,
                stage_length,
                stats,
            )
            for (i, _), route in zip(chunk, routes):
                results[i] = route
    return results


def _route_slice(
    pairs: list[tuple[int, tuple[RouteTerminal, RouteTerminal]]],
    library: DelaySlewLibrary,
    options: CTSOptions,
    stage_length: float,
    blockages: list[BBox],
    stats: SharingStats,
    results: list[RouteResult | None],
) -> None:
    """Search, expand and finish one slice of a level's maze pairs
    (``(result index, terminals)`` entries)."""
    primed: list[tuple[_PairSearch, SegmentTables]] = []
    for i, (term1, term2) in pairs:
        search = search_maze_pair(
            term1, term2, options, stage_length, blockages, stats
        )
        stats.search_rounds += 1
        if search.is_open:
            # The farthest cell from a side's cell is a window corner.
            both = None
            nx, ny = search.grid.nx, search.grid.ny
            max_k = max(
                max(i0, nx - 1 - i0) + max(j0, ny - 1 - j0)
                for i0, j0 in search.cells
            )
        else:
            dist1, dist2 = search.dists
            both = (dist1 != _UNREACHED) & (dist2 != _UNREACHED)
            max_k = int(max(dist1[both].max(), dist2[both].max()))
        tables = SegmentTables(library, search.pitch, max_k + 1, options.target_slew)
        primed.append((_PairSearch(i, term1, term2, search, both), tables))

    builders_by_pair = expand_level(
        [(job.term1, job.term2, tables) for job, tables in primed],
        library,
        options,
        stats,
    )
    _finish_level(primed, builders_by_pair, stats, results)
