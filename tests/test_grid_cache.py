"""Level routing: equivalence and determinism.

The contract of :mod:`repro.core.grid_cache`:

- synthesis through the level router (cross-pair batcher) is
  byte-identical — tree signature and merge stats — to routing every
  level pair by pair through the retained single-pair path in the same
  test run, on blockage, H-structure and snaking scenarios;
- routing results are invariant to how a level is split into batches,
  and a batch of one equals :func:`repro.core.maze_router.route_maze`;
- the documented ``nearest_free`` fallback scan is deterministic, and
  the BFS engine matches its reference on windows as
  :func:`~repro.core.routing_common.build_window` builds them.
"""

import numpy as np
import pytest

import repro.core.grid_cache as grid_cache
from repro.core.grid_cache import SharingStats, route_level
from repro.core.maze_router import MazeGrid, route_maze
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    RouteTerminal,
    build_window,
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
