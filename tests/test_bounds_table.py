"""The engine's bounds table: one memo store for every bounds reader.

``LibraryTimingEngine`` memoizes sub-tree bounds in a
:class:`~repro.timing.analysis.BoundsTable` (a row per bounded node, a
column per slew bucket) that the scalar readers and the batched kernels
share. Its contract:

- growth never changes a value: rows past the initial capacity and
  buckets past the initial width (a 250 ps input slew) answer exactly
  what a fresh scalar engine answers, and cells stored before a growth
  keep their values;
- a negative, NaN or infinite input slew raises ``ValueError`` on the
  scalar and the batched path alike, before anything is stored, counted
  or traced into the flat-stage columns — on a fresh engine and on one
  whose table and columns already hold the same stages;
- the batched readers' hit/miss accounting on a fixed 200-sink synthesis
  is pinned;
- released nodes leave no trace: their rows and caps are forgotten and
  their rows reused, and after an H-structure synthesis every stored
  node is in the final tree and every stored bucket is its key's scalar
  value on that tree;
- the table's memory tracks the buckets it stores: after a synthesis,
  with or without H-structure correction, its live value cells are the
  stored buckets (released cells are reused, none leak), and its used
  bytes stay within 4 B per (row, bucket) plus twice 24 B per stored
  bucket.
"""

import numpy as np
import pytest

from repro.core.cts import AggressiveBufferedCTS
from repro.core.options import CTSOptions
from repro.geom.point import Point
from repro.timing.analysis import BoundsTable, LibraryTimingEngine
from repro.tree.nodes import make_buffer, make_merge, make_sink

from tests.conftest import batched_bounds, make_sink_pairs, scalar_bucket_bounds

BAD_SLEWS = [-1e-12, float("-inf"), float("nan"), float("inf")]


def forest(buffers, n):
    """``n`` two-stage trees; returns their top buffers.

    Each top buffer drives a split into a buffered sink and a bare sink,
    so a top's bounds take one branch stage and the single-wire stage of
    its inner buffer: two bounded nodes per tree.
    """
    tops = []
    for i in range(n):
        x = 100.0 * i
        inner = make_buffer(Point(x, 400.0), buffers["BUF10X"])
        inner.attach(make_sink(Point(x, 900.0 + 50.0 * (i % 7)), 6e-15))
        merge = make_merge(Point(x, 200.0))
        merge.attach(inner)
        merge.attach(make_sink(Point(x + 300.0 + 40.0 * (i % 5), 200.0), 8e-15))
        top = make_buffer(Point(x, 0.0), buffers["BUF20X"])
        top.attach(merge)
        tops.append(top)
    return tops


def items_at(tops, base):
    return [(top, base + 0.37e-12 * (i % 9)) for i, top in enumerate(tops)]


class TestGrowth:
    def test_batched_past_initial_rows_and_width_equals_scalar(
        self, library, tech, buffers
    ):
        tops = forest(buffers, BoundsTable.ROWS // 2 + 100)
        engine = LibraryTimingEngine(library, tech)
        fresh = LibraryTimingEngine(library, tech)
        before = None
        for base in (80e-12, 250e-12):
            items = items_at(tops, base)
            assert batched_bounds(engine, items) == [
                fresh.subtree_bounds(node, slew) for node, slew in items
            ]
            if before is None:
                before = engine.stored_bounds()
        stored = engine.stored_bounds()
        assert len({node for node, __ in stored}) > BoundsTable.ROWS
        assert max(bucket for __, bucket in before) < BoundsTable.BUCKETS
        assert max(bucket for __, bucket in stored) >= BoundsTable.BUCKETS
        # Cells stored before the table grew kept their values, and every
        # cell is its key's scalar value.
        assert all(stored[key] == value for key, value in before.items())
        oracle = LibraryTimingEngine(library, tech)
        for (node, bucket), value in stored.items():
            assert scalar_bucket_bounds(oracle, node, bucket) == value

    def test_scalar_reader_growth_keeps_values(self, library, tech, buffers):
        tops = forest(buffers, BoundsTable.ROWS // 2 + 100)
        engine = LibraryTimingEngine(library, tech)
        low = items_at(tops, 80e-12)
        first = [engine.subtree_bounds(node, slew) for node, slew in low]
        snapshot = engine.stored_bounds()
        assert len({node for node, __ in snapshot}) > BoundsTable.ROWS
        high = [
            engine.subtree_bounds(node, slew)
            for node, slew in items_at(tops, 250e-12)
        ]
        assert [engine.subtree_bounds(node, slew) for node, slew in low] == first
        stored = engine.stored_bounds()
        assert max(bucket for __, bucket in stored) >= BoundsTable.BUCKETS
        assert all(stored[key] == value for key, value in snapshot.items())
        oracle = LibraryTimingEngine(library, tech)
        assert high == [
            oracle.subtree_bounds(node, slew) for node, slew in items_at(tops, 250e-12)
        ]


class TestBadSlews:
    @pytest.fixture()
    def stage(self, buffers):
        (top,) = forest(buffers, 1)
        merge = top.children[0]
        sink = merge.children[1]
        return top, merge, sink

    @pytest.mark.parametrize("slew", BAD_SLEWS)
    def test_scalar_readers_raise(self, library, tech, stage, slew):
        engine = LibraryTimingEngine(library, tech)
        top, merge, sink = stage
        for node in (top, merge, sink):
            with pytest.raises(ValueError, match="input slew"):
                engine.subtree_bounds(node, slew)
        with pytest.raises(ValueError, match="input slew"):
            engine.buffer_subtree_bounds(top, slew)
        assert not engine.stored_bounds()

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("slew", BAD_SLEWS)
    def test_batched_reader_raises(self, library, tech, stage, slew, warm):
        engine = LibraryTimingEngine(library, tech)
        top, merge, sink = stage
        if warm:
            # The same stages answered once at other slews: the table
            # holds their buckets and the columns their traced stages.
            engine.subtree_bounds_many([top, merge, sink], np.full(3, 60e-12))
        stored = engine.stored_bounds()
        counts = (engine.bounds_cache_hits, engine.bounds_cache_misses)
        traced = engine._flat.fs_state.copy()
        assert bool(stored) == bool(np.count_nonzero(traced)) == warm
        for bad in (0, 1, 2):
            slews = np.full(3, 80e-12)
            slews[bad] = slew
            with pytest.raises(ValueError, match="input slew"):
                engine.subtree_bounds_many([top, merge, sink], slews)
        assert engine.stored_bounds() == stored
        assert (engine.bounds_cache_hits, engine.bounds_cache_misses) == counts
        assert np.array_equal(engine._flat.fs_state, traced)


def test_hit_and_miss_counts_are_pinned():
    """The batched readers' bucket accounting on a fixed instance."""
    cts = AggressiveBufferedCTS(options=CTSOptions())
    cts.synthesize(make_sink_pairs(200, 30000.0, seed=6))
    assert (cts.engine.bounds_cache_hits, cts.engine.bounds_cache_misses) == (
        1284,
        1222,
    )


class TestRelease:
    def test_released_rows_are_reused_and_refilled(self, library, tech, buffers):
        tops = forest(buffers, 6)
        engine = LibraryTimingEngine(library, tech)
        items = items_at(tops, 80e-12)
        batched_bounds(engine, items)
        table = engine._bounds
        gone = list(tops[1].walk())
        rows = sorted(table.row_of[node] for node in gone if node in table.row_of)
        engine.release(gone)
        assert not any(node in table.row_of for node in gone)
        assert not any(node in engine._cap_cache for node in gone)
        assert sorted(table.free) == rows
        every_bucket = np.arange(table.width)
        assert not table.stored(np.array(rows)[:, None], every_bucket).any()
        assert table.live_cells == len(engine.stored_bounds())
        assert (engine._flat.fs_state[rows] == 0).all()
        # New trees take the released rows first and answer fresh values.
        high_water = len(table.nodes)
        new = forest(buffers, 1)
        fresh = LibraryTimingEngine(library, tech)
        new_items = items_at(new, 90e-12)
        assert batched_bounds(engine, new_items) == [
            fresh.subtree_bounds(node, slew) for node, slew in new_items
        ]
        assert len(table.nodes) == high_water
        assert not table.free
        oracle = LibraryTimingEngine(library, tech)
        for (node, bucket), value in engine.stored_bounds().items():
            assert node not in gone
            assert scalar_bucket_bounds(oracle, node, bucket) == value

    @pytest.mark.parametrize("hstructure", [None, "correct", "reestimate"])
    @pytest.mark.parametrize(
        "sinks",
        [(16, 26000.0, 14), (200, 30000.0, 6)],
        ids=["16-sinks", "200-sinks"],
    )
    def test_hstructure_memos_describe_the_final_tree(
        self, library, tech, sinks, hstructure
    ):
        """Correction and re-estimation release the structures they
        discard, so no memo outlives its tree, and no value cell outlives
        its bucket."""
        n, span, seed = sinks
        cts = AggressiveBufferedCTS(options=CTSOptions(hstructure=hstructure))
        result = cts.synthesize(make_sink_pairs(n, span, seed=seed))
        in_tree = set(result.tree.root.walk())
        stored = cts.engine.stored_bounds()
        assert stored
        assert {node for node, __ in stored} <= in_tree
        assert set(cts.engine._cap_cache) <= in_tree
        assert set(cts.engine._codes_below) <= in_tree
        assert cts.engine._bounds.live_cells == len(stored)
        fresh = LibraryTimingEngine(library, tech)
        for (node, bucket), value in stored.items():
            assert scalar_bucket_bounds(fresh, node, bucket) == value


def used_bytes(table):
    """Bytes of the table's mapped planes that back handed-out rows (a
    plane of shape (rows, width)) or handed-out value cells (a column)."""
    total = 0
    for name in table._maps:
        plane = getattr(table, name)
        if plane.ndim == 2:
            total += len(table.nodes) * plane.shape[1] * plane.itemsize
        else:
            total += table.used * plane.itemsize
    return total


class TestFootprint:
    @pytest.mark.parametrize("hstructure", [None, "correct"])
    def test_used_bytes_track_stored_buckets(self, hstructure):
        """4 B per (row, bucket) for the slot plane, 24 B per stored
        bucket for the value columns, with 2x slack for their growth."""
        cts = AggressiveBufferedCTS(options=CTSOptions(hstructure=hstructure))
        cts.synthesize(make_sink_pairs(200, 30000.0, seed=6))
        table = cts.engine._bounds
        stored = len(cts.engine.stored_bounds())
        used = used_bytes(table)
        assert used <= 4 * len(table.nodes) * table.width + 24 * stored * 2
        assert table.live_cells == stored
