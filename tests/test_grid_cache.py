"""Level routing: equivalence and determinism.

The contract of :mod:`repro.core.grid_cache`:

- synthesis through the level router (cross-pair batcher) is
  byte-identical — tree signature and merge stats — to routing every
  level pair by pair through the retained single-pair path in the same
  test run, on blockage, H-structure and snaking scenarios;
- routing results are invariant to how a level is split into batches,
  and a batch of one equals :func:`repro.core.maze_router.route_maze`;
- an open window (no blockage covers a cell center) routes without a
  grid or distance fields, and equals the single-pair route whether it
  sits alone, next to blocked windows in one ranking chunk or across a
  chunk boundary, or at a coarsened pitch;
- the documented ``nearest_free`` fallback scan is deterministic, and
  the BFS engine matches its reference on windows as
  :func:`~repro.core.routing_common.build_window` builds them.
"""

import numpy as np
import pytest

import repro.core.grid_cache as grid_cache
import repro.core.routing_common as routing_common
from repro.core.grid_cache import SharingStats, route_level
from repro.core.maze_router import (
    BfsEngine,
    MazeGrid,
    plan_maze_window,
    route_maze,
    search_maze_pair,
)
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    RouteTerminal,
    build_window,
    row_chunks,
    slew_limited_length,
)
from repro.evalx.perfstats import scaling_scenario
from repro.geom.bbox import BBox
from repro.geom.point import Point
from tests.conftest import synthesize_signature


def snaking_scenario():
    """A tight cluster plus one far-flung sink: the top merge's delay
    imbalance exceeds what routing absorbs, forcing balance snaking."""
    gen = np.random.default_rng(7)
    sinks = [
        (Point(float(x), float(y)), 8e-15)
        for x, y in gen.uniform(0, 3000, (24, 2))
    ]
    sinks.append((Point(42000.0, 38000.0), 8e-15))
    blockages = [BBox(15000, 5000, 22000, 30000)]
    return sinks, Point(2000.0, 2000.0), blockages


class TestSharedEqualsPerPair:
    def test_blockage_scenario_serial(self):
        sinks, source, blockages = scaling_scenario(120, True)
        shared_sig, shared = synthesize_signature(sinks, source, blockages)
        per_pair_sig, per_pair = synthesize_signature(
            sinks, source, blockages, pair_by_pair=True
        )
        assert shared_sig == per_pair_sig
        assert shared.merge_stats == per_pair.merge_stats
        assert shared.levels == per_pair.levels
        # the level router searched every routed pair (and the comparison
        # side none); both built the same windows
        sharing = shared.route_sharing
        assert sharing["search_rounds"] == sharing["pairs_routed"] > 0
        assert per_pair.route_sharing["search_rounds"] == 0
        for name in ("windows_served", "cells_rasterized"):
            assert sharing[name] == per_pair.route_sharing[name]

    def test_hstructure_scenario(self):
        """H-structure correction re-routes each pair once per candidate
        pairing — the flow where equal windows genuinely recur."""
        sinks, source, blockages = scaling_scenario(60, True)
        shared_sig, shared = synthesize_signature(
            sinks, source, blockages, hstructure="correct"
        )
        per_pair_sig, per_pair = synthesize_signature(
            sinks, source, blockages, pair_by_pair=True, hstructure="correct"
        )
        assert shared_sig == per_pair_sig
        assert shared.merge_stats == per_pair.merge_stats

    def test_snaking_scenario(self):
        sinks, source, blockages = snaking_scenario()
        shared_sig, shared = synthesize_signature(sinks, source, blockages)
        per_pair_sig, per_pair = synthesize_signature(
            sinks, source, blockages, pair_by_pair=True
        )
        assert shared.merge_stats.n_snaked > 0, "scenario must exercise snaking"
        assert shared_sig == per_pair_sig
        assert shared.merge_stats == per_pair.merge_stats


class TestBatchInvariance:
    """route_level results do not depend on how pairs are grouped."""

    @pytest.fixture(scope="class")
    def routed(self, library):
        options = CTSOptions(router="maze")
        stage_length = slew_limited_length(library, options.target_slew)
        blockages = [
            BBox(4000, -2000, 5000, 1200),
            BBox(9000, 2000, 10500, 9000),
        ]
        gen = np.random.default_rng(11)

        def free_point():
            while True:
                x, y = gen.uniform(0, 14000, 2)
                p = Point(float(x), float(y))
                if not any(r.contains(p) for r in blockages):
                    return p

        pairs = []
        for k in range(8):
            t1 = RouteTerminal(None, free_point(), float(k) * 5e-12, 0.0, "BUF20X")
            t2 = RouteTerminal(None, free_point(), 0.0, 0.0, "BUF20X")
            pairs.append((t1, t2))
        return pairs, library, options, stage_length, blockages

    @staticmethod
    def _route(pairs, library, options, stage_length, blockages):
        return route_level(
            pairs,
            library,
            options,
            stage_length,
            blockages,
            stats=SharingStats(),
        )

    def test_one_batch_equals_split_batches_equals_per_pair(self, routed):
        pairs, library, options, stage_length, blockages = routed
        whole = self._route(pairs, library, options, stage_length, blockages)
        split = []
        for chunk in (pairs[:3], pairs[3:5], pairs[5:]):
            split.extend(
                self._route(chunk, library, options, stage_length, blockages)
            )
        single = [
            route_maze(t1, t2, library, options, stage_length, blockages)
            for t1, t2 in pairs
        ]
        for a, b, c in zip(whole, split, single):
            for other in (b, c):
                assert a.meeting_point == other.meeting_point
                assert a.est_left_delay == other.est_left_delay
                assert a.est_right_delay == other.est_right_delay
                assert a.left.polyline.points == other.left.polyline.points
                assert a.right.polyline.points == other.right.polyline.points
                assert a.left.state == other.left.state
                assert a.right.state == other.right.state


def assert_same_routes(got, want):
    """Route results equal field for field (geometry, plan, estimates)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.meeting_point == b.meeting_point
        assert a.est_left_delay == b.est_left_delay
        assert a.est_right_delay == b.est_right_delay
        assert a.grid_cells == b.grid_cells
        for side_a, side_b in ((a.left, b.left), (a.right, b.right)):
            assert side_a.polyline.points == side_b.polyline.points
            assert side_a.state == side_b.state
            assert side_a.step == side_b.step


class TestOpenWindows:
    """A window no blockage covers is planned, not rasterized: the level
    router ranks it from closed-form step counts, and a batch of one
    equals the single-pair route, which builds the grid and fields."""

    FAR = [BBox(90000.0, 90000.0, 91000.0, 91000.0)]

    @pytest.fixture(scope="class")
    def setting(self, library):
        options = CTSOptions(router="maze")
        return library, options, slew_limited_length(library, options.target_slew)

    @staticmethod
    def pair(x1, y1, x2, y2, skew=0.0):
        return (
            RouteTerminal(None, Point(x1, y1), skew, 0.0, "BUF20X"),
            RouteTerminal(None, Point(x2, y2), 0.0, 0.0, "BUF20X"),
        )

    @staticmethod
    def search(pair, setting, blockages):
        library, options, stage_length = setting
        return search_maze_pair(*pair, options, stage_length, blockages)

    @staticmethod
    def check(pairs, setting, blockages):
        library, options, stage_length = setting
        stats = SharingStats()
        batched = route_level(pairs, library, options, stage_length, blockages, stats)
        single = [
            route_maze(t1, t2, library, options, stage_length, blockages)
            for t1, t2 in pairs
        ]
        assert_same_routes(batched, single)
        assert stats.pairs_routed == stats.search_rounds == len(pairs)

    def test_open_window(self, setting):
        pair = self.pair(1000.0, 2000.0, 7300.0, 5100.0, skew=12e-12)
        search = self.search(pair, setting, self.FAR)
        assert search.is_open and search.dists is None
        assert not isinstance(search.grid, MazeGrid)
        self.check([pair], setting, self.FAR)
        # Without blockages the maze router plans the same open window.
        self.check([pair], setting, [])

    def test_covering_blockage_between_cell_centers(self, setting):
        """A blockage inside the window that holds no cell center: the
        window is rasterized, but no cell is blocked."""
        library, options, stage_length = setting
        pair = self.pair(1000.0, 2000.0, 7300.0, 5100.0, skew=12e-12)
        bbox, pitch, __ = plan_maze_window(
            pair[0].point, pair[1].point, options, stage_length
        )
        x = bbox.xmin + 3.3 * pitch
        y = bbox.ymin + 4.3 * pitch
        between = [BBox(x, y, x + 0.4 * pitch, y + 0.4 * pitch)]
        search = self.search(pair, setting, between)
        assert not search.is_open
        assert not search.blocked
        self.check([pair], setting, between)

    def test_coarsened_open_window(self, setting, monkeypatch):
        library, options, stage_length = setting
        pair = self.pair(1000.0, 2000.0, 7300.0, 5100.0, skew=12e-12)
        __, pitch, __ = plan_maze_window(
            pair[0].point, pair[1].point, options, stage_length
        )
        monkeypatch.setattr(routing_common, "MAX_WINDOW_CELLS", 600)
        search = self.search(pair, setting, self.FAR)
        assert search.is_open
        assert search.pitch > pitch
        assert search.grid.nx * search.grid.ny <= 600
        self.check([pair], setting, self.FAR)

    @pytest.fixture(scope="class")
    def mixed(self, setting):
        """Short pairs on both sides of a blockage: some windows open,
        some blocked, interleaved in pair order."""
        blockages = [BBox(5000.0, 0.0, 5600.0, 6000.0)]
        pairs = []
        for k in range(10):
            y = 500.0 * k
            if k % 3 == 0:
                pairs.append(self.pair(4000.0, y, 6800.0, y + 900.0, 3e-12 * k))
            else:
                x = 7000.0 if k % 3 == 1 else 0.0
                pairs.append(self.pair(x, y, x + 2600.0, y + 1300.0, 3e-12 * k))
        searches = [self.search(pair, setting, blockages) for pair in pairs]
        sizes = []
        for search in searches:
            if search.is_open:
                sizes.append(search.grid.nx * search.grid.ny)
            else:
                d1, d2 = search.dists
                sizes.append(int(np.count_nonzero((d1 >= 0) & (d2 >= 0))))
        is_open = [search.is_open for search in searches]
        assert any(is_open) and not all(is_open)
        assert any(search.blocked for search in searches)
        return pairs, blockages, sizes, is_open

    @pytest.mark.parametrize("budget", ["default", "small"])
    def test_mixed_slice(self, setting, mixed, budget, monkeypatch):
        pairs, blockages, sizes, is_open = mixed
        if budget == "small":
            monkeypatch.setattr(
                routing_common, "RANK_ROW_BUDGET", sizes[0] + sizes[1] + sizes[2]
            )
        chunks = list(row_chunks(sizes))
        mixed_chunks = [
            (lo, hi) for lo, hi in chunks if len(set(is_open[lo:hi])) == 2
        ]
        assert mixed_chunks, "some chunk must rank open and blocked windows"
        if budget == "small":
            assert len(chunks) > 2
            # Some chunk boundary separates an open from a blocked window.
            assert any(is_open[hi - 1] != is_open[hi] for __, hi in chunks[:-1])
        self.check(pairs, setting, blockages)

    def test_open_level_builds_no_grid(self, setting, monkeypatch):
        """Routing an all-open level runs no BFS and builds no grid."""
        library, options, stage_length = setting
        pairs = [
            self.pair(1000.0 * k, 2000.0, 1000.0 * k + 4000.0, 6100.0, 2e-12 * k)
            for k in range(6)
        ]
        want = [
            route_maze(t1, t2, library, options, stage_length, self.FAR)
            for t1, t2 in pairs
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("an open window built a grid or a field")

        monkeypatch.setattr(BfsEngine, "closed_form", forbidden)
        monkeypatch.setattr(MazeGrid, "__init__", forbidden)
        got = route_level(
            pairs, library, options, stage_length, self.FAR, SharingStats()
        )
        assert_same_routes(got, want)


class TestRouteSlices:
    """Synthesis does not depend on how ``route_level`` slices a level."""

    #: The per-pair counters of :class:`SharingStats`.
    PER_PAIR = (
        "windows_served",
        "cells_rasterized",
        "search_rounds",
        "pairs_routed",
        "cells_ranked",
        "descent_sides",
        "descent_cells",
        "curve_points",
        "expansion_lanes",
        "expansion_runs",
        "expansion_insertions",
    )

    def test_slice_size_changes_nothing(self, monkeypatch):
        from repro.tree.export import signature_digest

        sinks, source, blockages = scaling_scenario(60, True)
        runs = {}
        for size in (1, 3, grid_cache.ROUTE_SLICE_PAIRS):
            monkeypatch.setattr(grid_cache, "ROUTE_SLICE_PAIRS", size)
            sig, result = synthesize_signature(
                sinks, source, blockages, hstructure="correct"
            )
            sharing = result.route_sharing
            runs[size] = (
                signature_digest(sig),
                {name: sharing[name] for name in self.PER_PAIR},
                sharing["finish_batches"],
            )
        (digest, counters, __), *others = runs.values()
        for other_digest, other_counters, __ in others:
            assert other_digest == digest
            assert other_counters == counters
        # The slices really differed: slices of one pair finish one
        # batch per routed pair, larger slices fewer.
        batches = {size: run[2] for size, run in runs.items()}
        assert batches[1] == counters["pairs_routed"]
        assert batches[grid_cache.ROUTE_SLICE_PAIRS] < batches[3] < batches[1]


class TestWindowSearch:
    def test_nearest_free_tie_breaks_row_major(self):
        """The documented fallback scan: Manhattan ties resolve to the
        free cell with the lowest i, then the lowest j."""
        grid = MazeGrid(BBox(0, 0, 400, 400), pitch=100.0)
        # Block the center cell (2, 2); its four neighbors tie at
        # distance 1 and (1, 2) is the row-major winner.
        grid.block(BBox(150, 150, 250, 250))
        assert grid.blocked[2, 2]
        assert grid.nearest_free((2, 2)) == (1, 2)
        # Blocking the winner moves the choice to the next row-major
        # free cell at the same distance.
        grid.blocked[1, 2] = True
        assert grid.nearest_free((2, 2)) == (2, 1)

    def test_consolidated_engine_matches_reference_on_built_windows(self):
        """Unit bit-identity of the engine on blocked and unblocked
        windows exactly as the window search builds them."""
        blockages = [BBox(500, 500, 1500, 1500)]
        blocked_grid, __ = build_window(BBox(0, 0, 3000, 3000), 100.0, blockages)
        unblocked_grid, __ = build_window(BBox(5000, 5000, 8000, 8000), 100.0, blockages)
        assert blocked_grid._any_blocked
        assert not unblocked_grid._any_blocked
        for grid in (blocked_grid, unblocked_grid):
            free = np.argwhere(~grid.blocked)
            for cell in (tuple(free[0]), tuple(free[len(free) // 2])):
                assert np.array_equal(grid.bfs(cell), grid.bfs_reference(cell))
