"""Full synthesis flow, verified with the mini-SPICE substrate."""

import pytest

from repro.core import AggressiveBufferedCTS, CTSOptions, synthesize_clock_tree
from repro.evalx import evaluate_tree
from repro.geom import Point
from repro.geom.bbox import BBox
from repro.tree.nodes import NodeKind
from repro.tree.validate import validate_tree

from tests.conftest import make_sink_pairs


class TestSmallSynthesis:
    def test_tree_structure(self, small_sinks):
        cts = AggressiveBufferedCTS()
        result = cts.synthesize(small_sinks)
        validate_tree(result.tree.root, expect_source_root=True)
        assert len(result.tree.sinks()) == len(small_sinks)
        # All sink locations preserved.
        built = {(s.location.x, s.location.y) for s in result.tree.sinks()}
        given = {(p.x, p.y) for p, __ in small_sinks}
        assert built == given

    def test_slew_constraint_honored_by_simulation(self, small_sinks, tech):
        """The paper's headline: worst SPICE slew <= the 100 ps limit."""
        cts = AggressiveBufferedCTS()
        result = cts.synthesize(small_sinks)
        metrics = evaluate_tree(result.tree, tech)
        assert metrics.worst_slew <= cts.options.slew_limit

    def test_skew_is_small_fraction_of_latency(self, small_sinks, tech):
        cts = AggressiveBufferedCTS()
        result = cts.synthesize(small_sinks)
        metrics = evaluate_tree(result.tree, tech)
        assert metrics.skew < 0.12 * metrics.latency

    def test_single_sink(self, tech):
        cts = AggressiveBufferedCTS()
        result = cts.synthesize([(Point(1000, 1000), 8e-15)])
        assert len(result.tree.sinks()) == 1
        metrics = evaluate_tree(result.tree, tech)
        assert metrics.skew == 0.0

    def test_two_sinks(self, tech):
        cts = AggressiveBufferedCTS()
        result = cts.synthesize([(Point(0, 0), 8e-15), (Point(9000, 0), 8e-15)])
        metrics = evaluate_tree(result.tree, tech)
        assert metrics.worst_slew <= cts.options.slew_limit
        assert metrics.skew < 10e-12

    def test_source_location_respected(self, small_sinks):
        source = Point(0.0, 0.0)
        cts = AggressiveBufferedCTS()
        result = cts.synthesize(small_sinks, source_location=source)
        assert result.tree.root.location == source
        assert result.tree.root.kind is NodeKind.SOURCE

    def test_convenience_wrapper(self, small_sinks):
        result = synthesize_clock_tree(small_sinks)
        assert result.tree.stats()["n_sinks"] == len(small_sinks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AggressiveBufferedCTS().synthesize([])


class TestAggressivenessProperties:
    def test_buffers_off_merge_nodes_exist(self):
        """The defining feature vs [6,8,16]: buffers along routing paths."""
        sinks = make_sink_pairs(10, 40000.0, seed=9)
        cts = AggressiveBufferedCTS()
        result = cts.synthesize(sinks)
        merges = [
            n for n in result.tree.root.walk() if n.kind is NodeKind.MERGE
        ]
        off_merge = 0
        for buf in result.tree.buffers():
            if all(buf.location.manhattan_to(m.location) > 300 for m in merges):
                off_merge += 1
        assert off_merge >= len(merges) * 0.3

    def test_levels_count_consistent(self, small_sinks):
        import math

        cts = AggressiveBufferedCTS()
        result = cts.synthesize(small_sinks)
        assert result.levels >= math.ceil(math.log2(len(small_sinks)))

    def test_deterministic_given_same_input(self, small_sinks):
        r1 = AggressiveBufferedCTS().synthesize(small_sinks)
        r2 = AggressiveBufferedCTS().synthesize(small_sinks)
        assert r1.tree.total_wirelength() == pytest.approx(
            r2.tree.total_wirelength()
        )
        assert r1.tree.buffer_count() == r2.tree.buffer_count()


class TestOptionsVariants:
    def test_binary_search_off_worsens_skew(self, tech):
        sinks = make_sink_pairs(8, 25000.0, seed=21)
        on = AggressiveBufferedCTS(options=CTSOptions()).synthesize(sinks)
        off = AggressiveBufferedCTS(
            options=CTSOptions(enable_binary_search=False)
        ).synthesize(sinks)
        m_on = evaluate_tree(on.tree, tech)
        m_off = evaluate_tree(off.tree, tech)
        assert m_on.skew <= m_off.skew * 1.2  # usually much better

    def test_maze_router_mode(self, tech, small_sinks):
        cts = AggressiveBufferedCTS(options=CTSOptions(router="maze"))
        result = cts.synthesize(small_sinks)
        metrics = evaluate_tree(result.tree, tech)
        assert metrics.worst_slew <= cts.options.slew_limit

    def test_synthesis_with_blockage(self, tech):
        sinks = [(Point(0, 0), 8e-15), (Point(10000, 0), 8e-15)]
        blockages = [BBox(4500, -800, 5500, 800)]
        cts = AggressiveBufferedCTS(blockages=blockages)
        result = cts.synthesize(sinks)
        metrics = evaluate_tree(result.tree, tech)
        assert metrics.worst_slew <= cts.options.slew_limit
        for node in result.tree.nodes():
            if node.kind is not NodeKind.SOURCE:
                assert not blockages[0].contains(node.location, tol=-400)

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            CTSOptions(router="teleport")
        with pytest.raises(ValueError):
            CTSOptions(slew_margin=0.0)
        with pytest.raises(ValueError):
            CTSOptions(hstructure="magic")
