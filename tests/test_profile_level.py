"""The obstacle-free level kernel equals the single-pair profile router.

:func:`repro.core.profile_router.route_profile_level` routes a slice of
obstacle-free merge pairs together (lockstep profile expansion, segmented
ranking over closed-form step fields). Its contract:

- every pair's result equals :func:`route_profile` on that pair alone —
  meeting point, estimated delays, grid size, both polylines and both
  ``PathState`` snapshots — including mixed base delays and load types,
  spans long enough to hit ``MAX_GRID_CELLS``, and mirror-symmetric
  pairs whose candidates tie on skew, max delay and hops;
- results do not depend on the ranking-chunk budget or on how
  ``route_level`` slices a level, so synthesis is unchanged too.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.grid_cache as grid_cache
import repro.core.routing_common as routing_common
from repro.core.grid_cache import SharingStats, route_level
from repro.core.options import CTSOptions
from repro.core.profile_router import (
    profile_lattice,
    route_profile,
    route_profile_level,
)
from repro.core.routing_common import (
    MAX_GRID_CELLS,
    RouteTerminal,
    choose_pitch,
    slew_limited_length,
)
from repro.evalx.perfstats import scaling_scenario
from repro.geom.point import Point
from repro.tree.export import signature_digest
from tests.conftest import synthesize_signature


def random_pairs(gen, loads, n_random=40):
    """Seeded merge pairs: random spans over four scales, mixed delays
    and loads, plus mirror-symmetric pairs that force ranking ties.

    Spans of a few pitches tie on rounded skew and max delay near the
    terminals, so the hops key decides there."""
    pairs = []
    for k in range(n_random):
        scale = (60.0, 2_000.0, 20_000.0, 130_000.0)[k % 4]
        x1, y1, x2, y2 = gen.uniform(0.0, scale, 4)
        pairs.append(
            (
                RouteTerminal(
                    None,
                    Point(float(x1), float(y1)),
                    float(gen.choice([0.0, gen.uniform(0.0, 200e-12)])),
                    0.0,
                    str(gen.choice(loads)),
                ),
                RouteTerminal(
                    None,
                    Point(float(x2), float(y2)),
                    float(gen.choice([0.0, gen.uniform(0.0, 200e-12)])),
                    0.0,
                    str(gen.choice(loads)),
                ),
            )
        )
    # Mirror-symmetric pairs: equal terminals on a line or a diagonal,
    # so whole rows of candidate cells tie on every ranking key.
    for span, load in ((6_000.0, loads[0]), (15_000.0, loads[-1]), (120_000.0, loads[1])):
        for dx, dy in ((span, 0.0), (0.0, span), (span, span)):
            pairs.append(
                (
                    RouteTerminal(None, Point(1_000.0, 1_000.0), 20e-12, 0.0, load),
                    RouteTerminal(
                        None, Point(1_000.0 + dx, 1_000.0 + dy), 20e-12, 0.0, load
                    ),
                )
            )
    return pairs


def assert_same_route(a, b):
    assert a.meeting_point == b.meeting_point
    assert a.est_left_delay == b.est_left_delay
    assert a.est_right_delay == b.est_right_delay
    assert a.grid_cells == b.grid_cells
    for side_a, side_b in ((a.left, b.left), (a.right, b.right)):
        assert side_a.terminal is side_b.terminal
        assert side_a.step == side_b.step
        assert side_a.polyline.points == side_b.polyline.points
        assert dataclasses.astuple(side_a.state) == dataclasses.astuple(
            side_b.state
        )


@pytest.fixture(scope="module")
def setup(library):
    options = CTSOptions()
    stage_length = slew_limited_length(library, options.target_slew)
    pairs = random_pairs(np.random.default_rng(20), library.buffer_names)
    singles = [
        route_profile(t1, t2, library, options, stage_length) for t1, t2 in pairs
    ]
    return pairs, singles, library, options, stage_length


class TestLevelEqualsPerPair:
    def test_cases_cover_the_grid_cap(self, setup):
        pairs, __, __, options, stage_length = setup
        capped = 0
        for t1, t2 in pairs:
            p1, p2 = t1.point, t2.point
            span = max(abs(p1.x - p2.x), abs(p1.y - p2.y), p1.manhattan_to(p2) / 2)
            capped += choose_pitch(span, options, stage_length)[1] == MAX_GRID_CELLS
        assert capped >= 3

    def test_one_level_equals_route_profile(self, setup):
        pairs, singles, library, options, stage_length = setup
        stats = SharingStats()
        level = route_profile_level(pairs, library, options, stage_length, stats)
        assert len(level) == len(singles)
        for a, b in zip(level, singles):
            assert_same_route(a, b)
        sizes = [
            xs.size * ys.size
            for __, xs, ys in (
                profile_lattice(t1.point, t2.point, options, stage_length)
                for t1, t2 in pairs
            )
        ]
        assert stats.pairs_routed == len(pairs)
        assert stats.cells_ranked == sum(sizes)
        assert stats.finish_batches == 1
        assert stats.expansion_lanes == 2 * len(pairs)

    def test_ranking_chunks_change_nothing(self, setup, monkeypatch):
        pairs, singles, library, options, stage_length = setup
        for budget in (1, 5_000):
            monkeypatch.setattr(routing_common, "RANK_ROW_BUDGET", budget)
            level = route_profile_level(
                pairs, library, options, stage_length, SharingStats()
            )
            for a, b in zip(level, singles):
                assert_same_route(a, b)

    def test_route_level_keeps_slots(self, setup):
        pairs, singles, library, options, stage_length = setup
        slots = [None, *pairs[:5], None, *pairs[5:8]]
        expected = [None, *singles[:5], None, *singles[5:8]]
        stats = SharingStats()
        routed = route_level(slots, library, options, stage_length, [], stats)
        for a, b in zip(routed, expected):
            if b is None:
                assert a is None
            else:
                assert_same_route(a, b)
        assert stats.pairs_routed == 8
        assert stats.search_rounds == 0
        assert stats.windows_served == 0

    def test_coincident_terminals_rejected(self, setup):
        __, __, library, options, stage_length = setup
        t = RouteTerminal(None, Point(5.0, 5.0), 0.0, 0.0, "BUF20X")
        with pytest.raises(ValueError, match="coincident"):
            route_profile_level([(t, t)], library, options, stage_length, SharingStats())


class TestObstacleFreeSlices:
    #: The per-pair counters the profile kernel and its scheduler keep.
    PER_PAIR = (
        "pairs_routed",
        "cells_ranked",
        "curve_points",
        "expansion_lanes",
        "expansion_runs",
        "expansion_insertions",
    )

    def test_slice_size_changes_nothing(self, monkeypatch):
        sinks, source, __ = scaling_scenario(300, False)
        runs = {}
        for size in (1, 3, grid_cache.ROUTE_SLICE_PAIRS):
            monkeypatch.setattr(grid_cache, "ROUTE_SLICE_PAIRS", size)
            sig, result = synthesize_signature(sinks, source, [])
            sharing = result.route_sharing
            runs[size] = (
                signature_digest(sig),
                result.merge_stats,
                {name: sharing[name] for name in self.PER_PAIR},
                sharing["finish_batches"],
            )
        (digest, stats, counters, __), *others = runs.values()
        for other_digest, other_stats, other_counters, __ in others:
            assert other_digest == digest
            assert other_stats == stats
            assert other_counters == counters
        assert counters["pairs_routed"] == len(sinks) - 1
        assert counters["expansion_lanes"] == 2 * counters["pairs_routed"]
        batches = {size: run[3] for size, run in runs.items()}
        assert batches[1] == counters["pairs_routed"]
        assert batches[grid_cache.ROUTE_SLICE_PAIRS] < batches[3] < batches[1]

    def test_level_kernel_equals_pair_by_pair(self):
        sinks, source, __ = scaling_scenario(300, False)
        level_sig, level = synthesize_signature(sinks, source, [])
        pair_sig, pair = synthesize_signature(sinks, source, [], pair_by_pair=True)
        assert level_sig == pair_sig
        assert level.merge_stats == pair.merge_stats
        assert level.route_sharing["expansion_lanes"] > 0
        assert pair.route_sharing["expansion_lanes"] == 0
