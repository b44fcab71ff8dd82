"""The library timing engine vs mini-SPICE ground truth."""

import pytest

from repro.evalx import engine_metrics, evaluate_tree
from repro.geom import Point
from repro.tech import cts_buffer_library
from repro.timing.analysis import LibraryTimingEngine
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import make_buffer, make_merge, make_sink


@pytest.fixture()
def buf20():
    return cts_buffer_library()["BUF20X"]


def balanced_tree(buf20, span=6000.0):
    s_a = make_sink(Point(0, 0), 8e-15, "sA")
    s_b = make_sink(Point(span, 0), 8e-15, "sB")
    b_a = make_buffer(Point(span * 0.25, 100), buf20)
    b_a.attach(s_a)
    b_b = make_buffer(Point(span * 0.75, 100), buf20)
    b_b.attach(s_b)
    merge = make_merge(Point(span / 2, 100))
    merge.attach(b_a)
    merge.attach(b_b)
    root = make_buffer(Point(span / 2, 300), buf20)
    root.attach(merge)
    return ClockTree.from_network(Point(span / 2, 320), root)


class TestAccuracy:
    def test_skew_matches_simulation_closely(self, engine, tech, buf20):
        tree = balanced_tree(buf20)
        spice = evaluate_tree(tree, tech)
        est = engine_metrics(tree, engine)
        assert est.skew == pytest.approx(spice.skew, abs=2e-12)
        assert est.latency == pytest.approx(spice.latency, rel=0.05)
        assert est.worst_slew == pytest.approx(spice.worst_slew, rel=0.08)

    def test_asymmetric_skew_tracked(self, engine, tech, buf20):
        s_a = make_sink(Point(0, 0), 8e-15, "sA")
        s_b = make_sink(Point(2500, 0), 8e-15, "sB")
        merge = make_merge(Point(800, 0))  # deliberately off-center
        merge.attach(s_a)
        merge.attach(s_b)
        root = make_buffer(Point(800, 50), buf20)
        root.attach(merge)
        tree = ClockTree.from_network(Point(800, 60), root)
        spice = evaluate_tree(tree, tech)
        est = engine_metrics(tree, engine)
        assert spice.skew > 5e-12  # genuinely unbalanced
        assert est.skew == pytest.approx(spice.skew, abs=3e-12)

    def test_arrival_ordering_preserved(self, engine, tech, buf20):
        s_a = make_sink(Point(0, 0), 8e-15, "sA")
        s_b = make_sink(Point(4000, 0), 8e-15, "sB")
        merge = make_merge(Point(1000, 0))
        merge.attach(s_a)
        merge.attach(s_b)
        root = make_buffer(Point(1000, 50), buf20)
        root.attach(merge)
        tree = ClockTree.from_network(Point(1000, 60), root)
        spice = evaluate_tree(tree, tech)
        est = engine_metrics(tree, engine)
        assert (spice.sink_arrivals["sA"] < spice.sink_arrivals["sB"]) == (
            est.sink_arrivals["sA"] < est.sink_arrivals["sB"]
        )


class TestSubtreeBounds:
    def test_sink_bounds_are_zero(self, engine):
        sink = make_sink(Point(0, 0), 5e-15)
        bounds = engine.subtree_bounds(sink, 80e-12)
        assert bounds.min_delay == 0.0
        assert bounds.max_delay == 0.0

    def test_buffer_bounds_include_intrinsic_delay(self, engine, buf20):
        buf = make_buffer(Point(0, 0), buf20)
        buf.attach(make_sink(Point(1000, 0), 8e-15))
        bounds = engine.buffer_subtree_bounds(buf, 80e-12)
        assert bounds.max_delay > 30e-12  # buffer delay + wire delay
        assert bounds.skew == pytest.approx(0.0, abs=1e-15)

    def test_merge_bounds_span_children(self, engine, buf20):
        merge = make_merge(Point(0, 0))
        merge.attach(make_sink(Point(200, 0), 8e-15))
        merge.attach(make_sink(Point(1500, 0), 8e-15))
        bounds = engine.subtree_bounds(merge, 80e-12)
        assert bounds.min_delay < bounds.max_delay
        assert bounds.skew > 1e-12

    def test_memoization_hit(self, engine, buf20):
        buf = make_buffer(Point(0, 0), buf20)
        buf.attach(make_sink(Point(1000, 0), 8e-15))
        engine.clear_cache()
        b1 = engine.buffer_subtree_bounds(buf, 80e-12)
        # Queries between the same two buckets add no cache entries and
        # interpolate deterministically (exact function of the raw slew).
        b2 = engine.buffer_subtree_bounds(buf, 80e-12 + 0.01e-12)
        n_entries = len(engine.stored_bounds())
        b3 = engine.buffer_subtree_bounds(buf, 80e-12 + 0.01e-12)
        assert len(engine.stored_bounds()) == n_entries
        assert b2 == b3
        assert abs(b2.max_delay - b1.max_delay) <= 0.25e-12

    def test_memoization_respects_slew_bins(self, engine, buf20):
        buf = make_buffer(Point(0, 0), buf20)
        buf.attach(make_sink(Point(1000, 0), 8e-15))
        engine.clear_cache()
        b1 = engine.buffer_subtree_bounds(buf, 40e-12)
        b2 = engine.buffer_subtree_bounds(buf, 120e-12)
        assert b1.max_delay < b2.max_delay  # slower input -> slower buffer


class TestSlewPropagation:
    def test_slews_damped_after_buffer(self, engine, buf20):
        """Input slew strongly affects the first stage, weakly the second -
        the buffer regenerates the edge (why memoization cuts off)."""
        buf1 = make_buffer(Point(0, 0), buf20)
        buf2 = make_buffer(Point(1200, 0), buf20)
        buf1.attach(buf2)
        buf2.attach(make_sink(Point(2400, 0), 8e-15))
        t1 = engine.stage_timing(buf1, 40e-12)
        t2 = engine.stage_timing(buf1, 120e-12)
        slew_out_1 = t1.loads[0][2]
        slew_out_2 = t2.loads[0][2]
        assert abs(slew_out_2 - slew_out_1) < 0.5 * (120e-12 - 40e-12)
