"""Lockstep batched commit equals a pair-by-pair scalar commit, bit for bit.

The contract under test: every topology level's merge commits advance
in lockstep through the vectorized query engine, yet the synthesized
tree — topology, geometry, wire lengths, buffer types, and (after the
serial renumbering pass) auto-generated node names — is identical to
the one the reference engine's pair-by-pair scalar commit
(:func:`repro.evalx.perfstats.commit_pair_by_pair`) builds in the same
run, and the merge diagnostics (including the floating-point
snake-delay sum) compare equal. Also unit-covers the batched query APIs
against their scalar counterparts and the binary-search iteration
accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CTSOptions
from repro.core.binary_search import MergeSearchState, binary_search_merge
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.timing.analysis import SLEW_QUANTUM, LibraryTimingEngine
from repro.tree.nodes import (
    NodeKind,
    make_buffer,
    make_merge,
    make_sink,
    make_steiner,
)

from tests.conftest import (
    batched_bounds,
    make_sink_pairs,
    scalar_bucket_bounds,
    synthesize_signature,
)


def synth(sinks, scalar_commit, blockages=None, **option_overrides):
    """One synthesis run plus the rebased signature of its tree."""
    return synthesize_signature(
        sinks, None, blockages, scalar_commit=scalar_commit, **option_overrides
    )


class TestBatchedMatchesScalar:
    def _assert_identical(self, sinks, blockages=None, **overrides):
        scalar_sig, scalar = synth(sinks, True, blockages, **overrides)
        batched_sig, batched = synth(sinks, False, blockages, **overrides)
        assert scalar_sig == batched_sig
        assert scalar.merge_stats == batched.merge_stats
        assert scalar.levels == batched.levels
        assert scalar.n_flippings == batched.n_flippings
        assert scalar.commit_queries["batched_rounds"] == 0
        return scalar, batched

    def test_plain_instance(self):
        self._assert_identical(make_sink_pairs(24, 30000.0, seed=21))

    def test_odd_level_sizes_promote_seed(self):
        self._assert_identical(make_sink_pairs(13, 30000.0, seed=22))

    def test_with_blockages_maze_router(self):
        blockages = [
            BBox(8000.0, 8000.0, 16000.0, 16000.0),
            BBox(20000.0, 2000.0, 26000.0, 12000.0),
        ]
        clear = [bbox.expanded(1200.0) for bbox in blockages]
        sinks = [
            (p, c)
            for p, c in make_sink_pairs(30, 30000.0, seed=13)
            if not any(region.contains(p) for region in clear)
        ]
        assert len(sinks) >= 16
        self._assert_identical(sinks, blockages=blockages)

    def test_with_hstructure_correction(self):
        self._assert_identical(
            make_sink_pairs(16, 26000.0, seed=14), hstructure="correct"
        )

    def test_with_hstructure_reestimation(self):
        self._assert_identical(
            make_sink_pairs(16, 26000.0, seed=15), hstructure="reestimate"
        )

    def test_snaking_scenario(self):
        """An off-cluster outlier forces balance/commit snaking rounds."""
        sinks = make_sink_pairs(20, 12000.0, seed=23)
        sinks.append((Point(60000.0, 60000.0), 8e-15))
        scalar, __ = self._assert_identical(sinks)
        assert scalar.merge_stats.n_snaked > 0  # the scenario did snake

    def test_small_levels_fall_back_to_scalar(self):
        """Rounds below ``SCALAR_ROUND_ROWS`` probe rows answer scalar,
        so a small instance spends no vectorized round."""
        sinks = make_sink_pairs(10, 20000.0, seed=25)
        __, result = synth(sinks, False)
        assert result.commit_queries["batched_rounds"] == 0
        assert result.commit_queries["search_probes"] > 0
        assert len(result.tree.sinks()) == len(sinks)

    def test_batched_rounds_engage_on_large_levels(self):
        sinks = make_sink_pairs(40, 34000.0, seed=26)
        __, result = synth(sinks, False)
        assert result.commit_queries["batched_rounds"] > 0
        assert result.commit_queries["batched_rows"] > 0


class TestBatchedQueryAPIs:
    @pytest.fixture()
    def branch_rows(self, rng):
        n = 40
        return np.column_stack(
            [
                rng.uniform(20e-12, 120e-12, n),
                np.zeros(n),
                rng.uniform(-100.0, 9000.0, n),
                rng.uniform(-100.0, 9000.0, n),
                rng.uniform(1e-15, 80e-15, n),
                rng.uniform(1e-15, 80e-15, n),
            ]
        )

    def test_branch_component_many_bit_identical(self, library, branch_rows):
        drive = library.buffer_names[-1]
        batch = library.branch_component_many(
            drive,
            branch_rows[:, 0],
            0.0,
            branch_rows[:, 2],
            branch_rows[:, 3],
            branch_rows[:, 4],
            branch_rows[:, 5],
            include_buffer_delay=True,
        )
        for k, row in enumerate(branch_rows):
            timing = library.branch_component(drive, row[0], 0.0, *row[2:])
            assert batch.left_delay[k] == timing.left_delay
            assert batch.right_delay[k] == timing.right_delay
            assert batch.left_slew[k] == timing.left_slew
            assert batch.right_slew[k] == timing.right_slew
            assert batch.buffer_delay[k] == timing.buffer_delay

    def test_branch_slews_many_bit_identical(self, library, branch_rows):
        drive = library.buffer_names[0]
        left, right = library.branch_slews_many(
            drive,
            80e-12,
            0.0,
            branch_rows[:, 2],
            branch_rows[:, 3],
            branch_rows[:, 4],
            branch_rows[:, 5],
        )
        for k, row in enumerate(branch_rows):
            scalar = library.branch_slews(drive, 80e-12, 0.0, *row[2:])
            assert (left[k], right[k]) == scalar

    def test_predict_many_bit_identical_to_predict(self, library, rng):
        drive = library.buffer_names[-1]
        fit = library.single[(drive, drive)]["wire_slew"]
        queries = np.column_stack(
            [rng.uniform(0.0, 200e-12, 64), rng.uniform(-10.0, 20000.0, 64)]
        )
        vector = fit.predict_many(queries)
        scalar = np.array([fit.predict(*q) for q in queries])
        assert np.array_equal(vector, scalar)

    @staticmethod
    def _deep_stage(buffers):
        """A buffer stage no flat-stage row can hold: its split nests an
        unbuffered merge beside a 3-way Steiner tap, one of whose loads is
        another buffer stage."""
        inner = make_merge(Point(2000, 2000))
        inner.attach(make_sink(Point(1500, 2600), 7e-15))
        inner.attach(make_sink(Point(2600, 1700), 9e-15))
        tail = make_buffer(Point(4400, 1200), buffers["BUF10X"])
        tail.attach(make_sink(Point(4900, 1000), 6e-15))
        tap = make_steiner(Point(4000, 1500))
        tap.attach(make_sink(Point(3600, 800), 5e-15))
        tap.attach(make_sink(Point(4300, 2300), 8e-15))
        tap.attach(tail)
        top = make_merge(Point(3000, 3000))
        top.attach(inner)
        top.attach(tap)
        head = make_buffer(Point(3000, 3500), buffers["BUF30X"])
        head.attach(top)
        return head

    @pytest.mark.parametrize("cache", ["before", "after"])
    def test_subtree_bounds_many_matches_scalar(
        self, library, tech, buffers, cache
    ):
        """The batched fill stores the scalar recursion's values, bit for bit.

        ``before``: the engine that builds the trees answers the batched
        query with its build-time bounds table and flat-stage columns
        warm. ``after``: a fresh engine answers it once the trees exist.
        Either way the flat stages take the column kernel and the deep
        stage the scalar recursion.
        """
        from repro.core.merge_routing import MergeRouter

        engine = LibraryTimingEngine(library, tech)
        router = MergeRouter(tech, library, buffers, engine, CTSOptions())
        root = router.merge(
            router.merge(make_sink(Point(0, 0), 8e-15), make_sink(Point(7000, 0), 8e-15)),
            make_sink(Point(3000, 9000), 6e-15),
        )
        deep = self._deep_stage(buffers)
        nodes = list(root.walk()) + list(deep.walk())
        if cache == "before":
            probe = engine
        else:
            probe = LibraryTimingEngine(library, tech)
        items = [(node, 80e-12 + 0.37e-12 * i) for i, node in enumerate(nodes)]
        batched = batched_bounds(probe, items)
        # The misses went through the kernel, which traced their stages.
        assert np.any(probe._flat.fs_state != 0)
        fresh = LibraryTimingEngine(library, tech)
        scalar = [fresh.subtree_bounds(node, slew) for node, slew in items]
        assert batched == scalar
        # Every stored bucket (prefetched ones included) is the scalar
        # value of its key.
        for (node, bucket), value in probe.stored_bounds().items():
            assert scalar_bucket_bounds(fresh, node, bucket) == value
        # A second batched call is all hits: no new misses counted.
        misses = probe.bounds_cache_misses
        again = batched_bounds(probe, items)
        assert again == batched
        assert probe.bounds_cache_misses == misses

    def test_cap_memo_survives_renumbering(self, library, tech, buffers):
        from repro.core.merge_routing import MergeRouter

        engine = LibraryTimingEngine(library, tech)
        router = MergeRouter(tech, library, buffers, engine, CTSOptions())
        root = router.merge(
            make_sink(Point(0, 0), 8e-15), make_sink(Point(5000, 0), 8e-15)
        )
        merge = next(n for n in root.walk() if n.kind is NodeKind.MERGE)
        cap = engine._load_cap_of(merge)
        assert engine._cap_cache[merge] == cap
        # The memo is keyed by the node, so a new id changes nothing.
        merge.id += 10_000_000
        assert engine._cap_cache[merge] == cap
        assert engine._load_cap_of(merge) == cap
        engine.clear_cache()
        assert not engine._cap_cache and not engine.stored_bounds()


class TestIterationAccounting:
    """The post-clamp re-evaluation counts (the seed undercounted it)."""

    def drive(self, state, diff_fn, slews_fn):
        probes = 0
        while not state.done:
            requests = state.requests()
            probes += len(requests)
            results = []
            for request in requests:
                if request.kind == "diff":
                    d = diff_fn(request.ratio)
                    results.append((d, *slews_fn(request.ratio)))
                else:
                    results.append(slews_fn(request.ratio))
            state.advance(results)
        return probes

    def test_clamped_search_counts_final_reevaluation(self):
        target = 80e-12
        state = MergeSearchState(
            1000.0, max_iters=24, tolerance=0.0, slew_target=target
        )
        # Monotone difference nulling at r=0.7; left slew violated above
        # r=0.4, so the clamp window search and the final re-evaluation
        # at the moved ratio run for real.
        probes = self.drive(
            state,
            lambda r: (r - 0.7) * 1e-12,
            lambda r: (100e-12 if r > 0.4 else 70e-12, 50e-12),
        )
        # 2 bracket + 24 bisect + 1 clamp check + 16 window + 1 final.
        assert state.iterations == 2 + 24 + 1 + 16 + 1
        # The clamp check reused the last evaluation's slews; the window
        # and the moved-ratio re-evaluation genuinely probed.
        assert probes == 2 + 24 + 16 + 1
        assert state.ratio < 0.7  # clamped toward the feasible window

    def test_unclamped_search_reuses_final_reevaluation(self):
        state = MergeSearchState(
            1000.0, max_iters=24, tolerance=0.0, slew_target=80e-12
        )
        probes = self.drive(
            state, lambda r: (r - 0.5) * 1e-12, lambda r: (50e-12, 50e-12)
        )
        # Clamp check and final re-evaluation count but need no probes.
        assert state.iterations == 2 + 24 + 1 + 1
        assert probes == 2 + 24

    def test_binary_search_merge_accounts_clamp(self, engine, buffers):
        buf = buffers["BUF20X"]
        v1 = make_buffer(Point(0, 0), buf)
        v1.attach(make_sink(Point(-1000, 0), 8e-15))
        v2 = make_buffer(Point(4000, 0), buf)
        v2.attach(make_sink(Point(5000, 0), 8e-15))
        from repro.geom.segment import PathPolyline

        span = PathPolyline([Point(0, 0), Point(4000, 0)])
        free = binary_search_merge(
            engine, "BUF30X", 80e-12, v1, v2, span, slew_target=None
        )
        clamped = binary_search_merge(
            engine, "BUF30X", 80e-12, v1, v2, span, slew_target=80e-12
        )
        # Same bisection; the clamp path adds the feasibility check and
        # the (possibly reused) re-evaluation to the count.
        assert clamped.iterations == free.iterations + 2


class TestDeterministicBounds:
    def test_bucket_values_are_order_independent(self, library, tech, buffers):
        buf = buffers["BUF20X"]
        a = make_buffer(Point(0, 0), buf)
        a.attach(make_sink(Point(1500, 0), 8e-15))
        slews = [78.3e-12, 81.9e-12, 80.1e-12]
        first = LibraryTimingEngine(library, tech)
        forward = [first.buffer_subtree_bounds(a, s) for s in slews]
        second = LibraryTimingEngine(library, tech)
        backward = [
            second.buffer_subtree_bounds(a, s) for s in reversed(slews)
        ]
        assert forward == list(reversed(backward))

    def test_interpolation_tracks_bucket_endpoints(self, engine, buffers):
        buf = buffers["BUF20X"]
        node = make_buffer(Point(0, 0), buf)
        node.attach(make_sink(Point(1200, 0), 8e-15))
        lo = engine.buffer_subtree_bounds(node, 80e-12)
        hi = engine.buffer_subtree_bounds(node, 80e-12 + SLEW_QUANTUM)
        mid = engine.buffer_subtree_bounds(node, 80e-12 + 0.5 * SLEW_QUANTUM)
        assert min(lo.max_delay, hi.max_delay) <= mid.max_delay <= max(
            lo.max_delay, hi.max_delay
        )
