"""Shared types and helpers for the two merge-routers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.options import CTSOptions
from repro.core.segment_builder import PathBuilder, PathState
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.geom.segment import PathPolyline
from repro.tree.nodes import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.grid_cache import SharingStats
    from repro.core.maze_router import MazeGrid

#: Per-window cell budget; above it the pitch is coarsened 1.5x at a time.
MAX_WINDOW_CELLS = 80_000

#: Window-expansion attempts before terminals count as disconnected.
MAX_SEARCH_ATTEMPTS = 4

#: Dynamic grid growth: a long route gets enough cells that a
#: slew-limited stage spans at least this many candidate buffer
#: locations, up to ``MAX_GRID_CELLS`` per dimension.
TARGET_CELLS_PER_STAGE = 6
MAX_GRID_CELLS = 200

#: Routing-window expansion around the terminals, as a fraction of the
#: window's cell count.
ROUTING_MARGIN_RATIO = 0.12


def uses_maze_router(options, blockages) -> bool:
    """Whether a merge routes through the maze router (vs the profile
    router) — the one dispatch predicate shared by ``route_plan``, the
    level batcher and the flow's sweep gating."""
    return options.router == "maze" or bool(blockages)


@dataclass
class RouteTerminal:
    """One sub-tree root as seen by the router.

    Routing itself only reads the scalar fields (point, delays, load
    type); ``node`` is carried along so the commit phase can materialize
    the buffer chain onto the right sub-tree.
    """

    node: TreeNode | None
    point: Point
    base_delay: float  # max delay from this point to the sub-tree's sinks
    min_delay: float  # min delay (for skew bookkeeping)
    load_name: str  # library load type approximating the root's stage cap


@dataclass
class RoutedPath:
    """One side of a routed merge: geometry plus buffer plan."""

    terminal: RouteTerminal
    polyline: PathPolyline  # from the terminal's point to the meeting point
    state: PathState  # expansion snapshot at the meeting distance
    step: float  # grid pitch used for this route

    @property
    def arc_length(self) -> float:
        return self.polyline.length


@dataclass
class RouteResult:
    """Output of the routing stage (input to binary search)."""

    meeting_point: Point
    left: RoutedPath
    right: RoutedPath
    est_left_delay: float  # delay estimate through the left side at meeting
    est_right_delay: float
    grid_cells: int  # diagnostics: per-dimension cell count used

    @property
    def est_skew(self) -> float:
        return abs(self.est_left_delay - self.est_right_delay)


def slew_limited_length(
    library: DelaySlewLibrary, target_slew: float, resolution: int = 200
) -> float:
    """Longest single wire any buffer can drive within the slew target.

    Used to size routing grids so a slew-limited stage always spans
    several cells (the paper's dynamic grid-size adjustment) and to cap
    the collapsed capacitance of unbuffered stages.
    """
    best = 0.0
    for drive in library.buffer_names:
        fit = library.single[(drive, drive)]["wire_slew"]
        lo, hi = float(fit.lo[1]), float(fit.hi[1])
        lengths = np.linspace(lo, hi, resolution)
        slews = fit.predict_many(
            np.column_stack([np.full(resolution, target_slew), lengths])
        )
        ok = lengths[slews <= target_slew]
        if ok.size:
            best = max(best, float(ok.max()))
    if best <= 0:
        raise ValueError("no buffer can satisfy the slew target at any length")
    return best


def choose_pitch(span: float, options: CTSOptions, stage_length: float) -> tuple[float, int]:
    """Grid pitch and per-dimension cell count for a route of ``span``.

    Default R = ``options.grid_resolution`` cells; for long routes the
    count grows so a slew-limited stage covers at least
    :data:`TARGET_CELLS_PER_STAGE` cells, capped at :data:`MAX_GRID_CELLS`
    (the paper: "if the distance of two merging nodes is large, the
    routing grid size can increase dynamically").
    """
    if span <= 0:
        raise ValueError("span must be positive")
    n = options.grid_resolution
    pitch_cap = stage_length / TARGET_CELLS_PER_STAGE
    if span / n > pitch_cap:
        n = int(np.ceil(span / pitch_cap))
    n = min(n, MAX_GRID_CELLS)
    return span / n, n


def grow_window(bbox: BBox, blockages: list[BBox], margin: float) -> BBox | None:
    """One step of blockage-driven window expansion.

    A blockage can wall off a routing window even though a detour exists
    just outside it; the window grows around every intersecting blockage.
    Returns the grown window, or ``None`` when no blockage forces growth
    (the window is as large as it will ever get).
    """
    expanded = bbox
    for region in blockages:
        if region.intersects(bbox):
            expanded = expanded.union(region.expanded(2.0 * margin))
    if expanded.width == bbox.width and expanded.height == bbox.height:
        return None
    return expanded


class MazeWindow:
    """The cell lattice of one routing window.

    ``nx`` x ``ny`` cells, ceil-sized over ``bbox``; cell ``(i, j)`` is
    centered at ``(bbox.xmin + i * pitch, bbox.ymin + j * pitch)``. An
    open window (no blockage covers a cell center) is routed from this
    geometry alone; :class:`~repro.core.maze_router.MazeGrid` adds the
    blocked mask and the BFS.
    """

    def __init__(self, bbox: BBox, pitch: float):
        self.bbox = bbox
        self.pitch = pitch
        self.nx = int(np.ceil(bbox.width / pitch)) + 1
        self.ny = int(np.ceil(bbox.height / pitch)) + 1

    def center(self, i: int, j: int) -> Point:
        return Point(self.bbox.xmin + i * self.pitch, self.bbox.ymin + j * self.pitch)

    def nearest(self, p: Point) -> tuple[int, int]:
        i = int(round((p.x - self.bbox.xmin) / self.pitch))
        j = int(round((p.y - self.bbox.ymin) / self.pitch))
        return (min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1))


@dataclass
class MazeSearch:
    """Result of a windowed maze search: the accepted window, the grid
    cells of the input points (in order) and one BFS step-distance field
    per source.

    An *open* window has ``dists`` ``None`` and ``grid`` a bare
    :class:`MazeWindow`: every cell is reachable, and a cell's step
    count from a source cell is their Manhattan distance in cells, so
    the level router builds step counts a ranking chunk at a time
    instead. :meth:`with_fields` materializes the grid and the fields.
    """

    grid: MazeWindow  # a MazeGrid unless the window is open
    pitch: float
    cells: list[tuple[int, int]]
    dists: list[np.ndarray] | None

    @property
    def is_open(self) -> bool:
        return self.dists is None

    @property
    def blocked(self) -> bool:
        """Whether a cell of the window is blocked, so that paths descend
        the distance fields instead of taking the analytic staircase."""
        return not self.is_open and self.grid._any_blocked

    def with_fields(self, n_sources: int) -> "MazeSearch":
        """This search with a :class:`MazeGrid` and the distance fields
        of its first ``n_sources`` cells (built here for an open window,
        exactly as the search builds them for a covered one)."""
        if not self.is_open:
            return self
        from repro.core.maze_router import MazeGrid  # deferred: import cycle

        grid = MazeGrid(self.grid.bbox, self.pitch)
        return MazeSearch(
            grid, self.pitch, self.cells, grid.bfs_many(self.cells[:n_sources])
        )


def coarsen_pitch(bbox: BBox, pitch: float, cell_cap: int = MAX_WINDOW_CELLS) -> float:
    """The ``MAX_WINDOW_CELLS`` pitch-coarsening decision, as arithmetic.

    Replicates (float operation for float operation) the seed's loop of
    building a grid and coarsening 1.5x while the cell count exceeds the
    cap — without allocating the thrown-away grids.
    """
    nx = int(np.ceil(bbox.width / pitch)) + 1
    ny = int(np.ceil(bbox.height / pitch)) + 1
    while nx * ny > cell_cap:
        pitch *= 1.5
        nx = int(np.ceil(bbox.width / pitch)) + 1
        ny = int(np.ceil(bbox.height / pitch)) + 1
    return pitch


def covering_blockages(window: MazeWindow, blockages: list[BBox]) -> list[BBox]:
    """The blockages that can mark at least one cell center of ``window``.

    Cell centers span ``[xmin, xmin + (nx-1)*pitch] x [ymin, ...]`` (the
    ceil-sized grid overhangs its bbox by up to one pitch); a region
    outside that cover is an exact no-op for :meth:`MazeGrid.block`, so
    filtering it out leaves the blocked mask byte-identical. Order is
    preserved.
    """
    x_hi = window.bbox.xmin + (window.nx - 1) * window.pitch
    y_hi = window.bbox.ymin + (window.ny - 1) * window.pitch
    return [
        region
        for region in blockages
        if region.xmax >= window.bbox.xmin
        and region.xmin <= x_hi
        and region.ymax >= window.bbox.ymin
        and region.ymin <= y_hi
    ]


def build_window(
    bbox: BBox,
    pitch: float,
    blockages: list[BBox],
    cell_cap: int = MAX_WINDOW_CELLS,
):
    """Rasterize + block one routing window.

    Returns ``(grid, resolved_pitch)``. A window is a pure function of
    its bbox, pitch and blockages, so building it again for a repeated
    search yields the same grid.
    """
    from repro.core.maze_router import MazeGrid  # deferred: avoids an import cycle

    pitch = coarsen_pitch(bbox, pitch, cell_cap)
    grid = MazeGrid(bbox, pitch)
    for region in covering_blockages(grid, blockages):
        grid.block(region)
    return grid, pitch


def snap_cells(
    grid: "MazeGrid",
    points: list[Point],
    blockages: list[BBox],
    what: str = "terminal",
) -> list[tuple[int, int]]:
    """Quantize ``points`` onto free grid cells (shared snap logic).

    A point whose quantized cell landed inside a blockage (coarse pitch)
    snaps to the nearest free cell via the documented deterministic
    fallback scan (:meth:`MazeGrid.nearest_free`); a point genuinely
    inside a blockage raises.
    """
    cells = []
    for p in points:
        cell = grid.nearest(p)
        if grid.blocked[cell]:
            if any(region.contains(p) for region in blockages):
                raise ValueError(f"a {what} lies inside a blockage")
            cell = grid.nearest_free(cell)
        cells.append(cell)
    return cells


def run_maze_search(
    points: list[Point],
    bbox: BBox,
    pitch: float,
    blockages: list[BBox],
    margin: float,
    reachable: Callable[[MazeSearch], bool],
    what: str = "terminal",
    n_sources: int | None = None,
    max_attempts: int = MAX_SEARCH_ATTEMPTS,
    cell_cap: int | None = None,
    stats: "SharingStats | None" = None,
) -> MazeSearch:
    """The window-expansion / pitch-coarsening loop shared by maze routes.

    Plans a window over ``bbox`` (coarsening the pitch while the cell
    count exceeds ``cell_cap``, :data:`MAX_WINDOW_CELLS` by default).
    An open window — no blockage covers a cell center — connects every
    cell to every other, so it is accepted as planned: the result has
    the snapped cells but no grid and no fields (see
    :class:`MazeSearch`). Otherwise the window is rasterized, its
    blockage regions blocked, one BFS runs from each of the first
    ``n_sources`` points, and the result is accepted when ``reachable``
    says so; if not, the window grows around intersecting blockages
    (:func:`grow_window`) and the search retries. When no growth is
    possible the points are genuinely disconnected.

    ``stats``, when given, counts every window planned
    (``windows_served``) and its cells (``cells_rasterized``), open or
    not.
    """
    if n_sources is None:
        n_sources = len(points)
    if cell_cap is None:
        cell_cap = MAX_WINDOW_CELLS
    for _ in range(max_attempts):
        pitch = coarsen_pitch(bbox, pitch, cell_cap)
        window = MazeWindow(bbox, pitch)
        covering = covering_blockages(window, blockages)
        if stats is not None:
            stats.windows_served += 1
            stats.cells_rasterized += window.nx * window.ny
        if not covering:
            return MazeSearch(window, pitch, [window.nearest(p) for p in points], None)
        grid, pitch = build_window(bbox, pitch, covering, cell_cap)
        cells = snap_cells(grid, points, blockages, what)
        dists = grid.bfs_many(cells[:n_sources])
        search = MazeSearch(grid, pitch, cells, dists)
        if reachable(search):
            return search
        grown = grow_window(bbox, blockages, margin)
        if grown is None:
            break
        bbox = grown
    raise RuntimeError(f"{what}s are disconnected by blockages")


#: Candidate-row budget of one ranking chunk (see :func:`row_chunks`):
#: large enough that per-call numpy overhead amortizes away (a chunk
#: spans dozens of pairs), small enough that the chunk's ~8 live key
#: arrays stay cache-resident — the ranking is pure streaming passes, so
#: spilling to memory loses to the cache-hot per-pair loop. 32k rows
#: measured fastest on the 1000-sink blockage scenario (0.287 s route
#: phase vs 0.317 s at 256k rows and 0.303 s at 16k).
RANK_ROW_BUDGET = 32_768


def rank_level_cells(
    counts: np.ndarray,
    rounded_skew: np.ndarray,
    total: np.ndarray,
    hops: np.ndarray,
) -> np.ndarray:
    """Pick every pair's merge cell in one segmented ranking pass.

    The level-batched twin of the per-pair successive argmin refinement
    in :func:`repro.core.maze_router.rank_candidates`: the key arrays are
    the concatenation of every pair's candidate rows (``counts[i]`` rows
    per pair, in pair order), and the winner of each segment is the row
    minimizing ``rounded_skew``, then ``total``, then ``hops``, with
    remaining ties resolved to the earliest row — the exact scalar tie
    order, because each refinement keeps only exact-equality survivors of
    the previous one (float comparisons, no arithmetic, so batching
    cannot change any outcome).

    Returns the winning *global* row index per segment; subtract the
    segment start for the within-pair position. Implemented as one
    segmented-minimum pass over the full concatenation (the skew stage)
    followed by a lexicographic tie resolution over the surviving rows
    only — O(rows) plus O(ties log ties), no per-pair Python.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if (counts <= 0).any():
        raise ValueError("every segment needs at least one candidate row")
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # Stage 1 over the full row set: per-segment minimum rounded skew.
    min_skew = np.minimum.reduceat(rounded_skew, starts)
    survivors = np.flatnonzero(rounded_skew == np.repeat(min_skew, counts))
    if survivors.size == counts.size:
        return survivors  # one survivor per segment: no ties anywhere
    # Tie stages over the (typically tiny) survivor set: ascending
    # lexicographic order by (segment, total, hops, row) makes the first
    # row of each segment exactly the scalar refinement's winner —
    # comparisons only, no arithmetic, so outcomes cannot drift.
    seg = np.searchsorted(starts, survivors, side="right") - 1
    order = np.lexsort((survivors, hops[survivors], total[survivors], seg))
    seg_sorted = seg[order]
    first = np.ones(seg_sorted.size, dtype=bool)
    first[1:] = seg_sorted[1:] != seg_sorted[:-1]
    return survivors[order[first]]


def row_chunks(sizes: list[int]):
    """Split pairs with ``sizes`` candidate rows into ranking chunks.

    Yields ``(lo, hi)`` pair ranges in order: each chunk takes pairs
    while its rows fit :data:`RANK_ROW_BUDGET` (at least one pair per
    chunk). Chunking keeps every key array and profile gather
    cache-resident (one level's concatenation would stream the whole
    working set through memory on every pass) while still amortizing
    the per-call overhead over thousands of rows. Segments stay whole,
    so the winners do not depend on the chunk boundaries.
    """
    n_pairs = len(sizes)
    lo = 0
    while lo < n_pairs:
        hi = lo + 1
        rows = sizes[lo]
        while hi < n_pairs and rows + sizes[hi] <= RANK_ROW_BUDGET:
            rows += sizes[hi]
            hi += 1
        yield lo, hi
        lo = hi


def rank_profile_rows(
    counts: np.ndarray,
    k1: np.ndarray,
    k2: np.ndarray,
    prof1: list[np.ndarray],
    prof2: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick every pair's merge cell by its two delay profiles.

    ``k1``/``k2`` are the concatenated candidate rows' step counts
    (``counts[i]`` rows per pair, in pair order) and ``prof1``/``prof2``
    each pair's profile per side (both sides of a pair have the same
    length). The costs are one gather per side over the concatenated
    profiles (each pair's rows index its own slice via the segment
    offset); the winners come from :func:`rank_level_cells` keyed by
    rounded skew, max delay and hops. Returns the winning global rows
    and both sides' delays there.
    """
    prof_lens = np.array([p.size for p in prof1], dtype=np.int64)
    prof_offs = np.zeros(prof_lens.size, dtype=np.int64)
    np.cumsum(prof_lens[:-1], out=prof_offs[1:])
    row_offs = np.repeat(prof_offs, counts)
    d1 = np.concatenate(prof1)[k1 + row_offs]
    d2 = np.concatenate(prof2)[k2 + row_offs]
    skew = np.abs(d1 - d2)
    total = np.maximum(d1, d2)
    winners = rank_level_cells(counts, np.round(skew, 15), total, k1 + k2)
    return winners, d1[winners], d2[winners]


def rank_pairs(
    sizes: list[int],
    builders: list[list[PathBuilder]],
    n_steps: list[int],
    fields: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pick every pair's merge row, one ranking chunk at a time.

    Pair ``p`` has ``sizes[p]`` candidate rows and ``builders[p]``, its
    two expanded profile builders, read to ``n_steps[p]`` steps. The
    pairs are ranked in the chunks of :func:`row_chunks`, and
    ``fields(lo, hi)`` builds the step counts of pairs ``lo..hi-1``'s
    rows per side, concatenated in pair order, so only one chunk's rows
    and profile views are live at a time. Returns, per pair, the
    winning row's position among the pair's own rows, both sides' step
    counts there and both sides' delays (:func:`rank_profile_rows`).
    """
    n_pairs = len(sizes)
    pos = np.empty(n_pairs, dtype=np.int64)
    kk1 = np.empty(n_pairs, dtype=np.int64)
    kk2 = np.empty(n_pairs, dtype=np.int64)
    est1 = np.empty(n_pairs)
    est2 = np.empty(n_pairs)
    for lo, hi in row_chunks(sizes):
        k1, k2 = fields(lo, hi)
        counts = np.array(sizes[lo:hi], dtype=np.int64)
        chunk = list(zip(builders[lo:hi], n_steps[lo:hi]))
        winners, est1[lo:hi], est2[lo:hi] = rank_profile_rows(
            counts,
            k1,
            k2,
            [b1.delays_view(n - 1) for (b1, __), n in chunk],
            [b2.delays_view(n - 1) for (__, b2), n in chunk],
        )
        pos[lo:hi] = winners - (np.cumsum(counts) - counts)
        kk1[lo:hi] = k1[winners]
        kk2[lo:hi] = k2[winners]
    return pos, kk1, kk2, est1, est2


def l_path(a: Point, b: Point) -> PathPolyline:
    """An L-shaped rectilinear path from ``a`` to ``b`` (bend at (b.x, a.y))."""
    if a.x == b.x or a.y == b.y:
        return PathPolyline([a, b])
    return PathPolyline([a, Point(b.x, a.y), b])
