"""Merge-routing end to end: balance -> route -> search -> commit."""

import pytest

from repro.core.merge_routing import MergeRouter
from repro.core.options import CTSOptions
from repro.geom.point import Point
from repro.tech import cts_buffer_library, default_technology
from repro.timing.analysis import LibraryTimingEngine
from repro.tree.nodes import NodeKind, make_sink
from repro.tree.validate import validate_tree


@pytest.fixture()
def router(tech, library, buffers):
    options = CTSOptions()
    engine = LibraryTimingEngine(library, tech)
    return MergeRouter(tech, library, buffers, engine, options)


def sink(x, y, cap=8e-15):
    return make_sink(Point(x, y), cap)


class TestBasicMerges:
    def test_two_sinks_short(self, router):
        root = router.merge(sink(0, 0), sink(800, 0))
        validate_tree(root)
        bounds = router.subtree_bounds([root])[0]
        assert bounds.skew < 3e-12
        assert bounds.worst_slew <= router.options.target_slew * 1.05

    def test_two_sinks_long_inserts_buffers(self, router):
        root = router.merge(sink(0, 0), sink(14000, 0))
        validate_tree(root)
        buffers = [n for n in root.walk() if n.kind is NodeKind.BUFFER]
        assert len(buffers) >= 2
        bounds = router.subtree_bounds([root])[0]
        assert bounds.skew < 3e-12
        assert bounds.worst_slew <= router.options.target_slew * 1.05

    def test_non_merge_buffer_positions(self, router):
        """The point of the paper: buffers NOT at merge nodes."""
        root = router.merge(sink(0, 0), sink(14000, 0))
        merge = next(n for n in root.walk() if n.kind is NodeKind.MERGE)
        off_merge = [
            b
            for b in root.walk()
            if b.kind is NodeKind.BUFFER
            and b.location.manhattan_to(merge.location) > 500
        ]
        assert off_merge, "expected buffers along the routing paths"

    def test_coincident_roots(self, router):
        root = router.merge(sink(100, 100), sink(100, 100))
        validate_tree(root)
        assert router.subtree_bounds([root])[0].skew < 0.5e-12

    def test_sink_caps_respected(self, router):
        heavy = sink(0, 0, cap=14e-15)
        light = sink(3000, 0, cap=4e-15)
        root = router.merge(heavy, light)
        assert router.subtree_bounds([root])[0].skew < 3e-12


class TestUnbalancedMerges:
    def test_deep_vs_shallow(self, router):
        deep = router.merge(sink(0, 0), sink(9000, 0))
        shallow = sink(2000, 12000)
        root = router.merge(deep, shallow)
        validate_tree(root)
        bounds = router.subtree_bounds([root])[0]
        assert bounds.skew < 6e-12
        assert bounds.worst_slew <= router.options.target_slew * 1.05

    def test_snaking_triggers_on_hopeless_imbalance(self, router, library, buffers):
        from repro.core.balance import snake_delay

        slow = snake_delay(
            sink(0, 0), 600e-12, library, buffers, router.options, 8e-15
        ).new_root
        fast = sink(1500, 0)
        before = router.stats.n_snaked
        root = router.merge(slow, fast)
        assert router.stats.n_snaked > before
        assert router.subtree_bounds([root])[0].skew < 10e-12

    def test_multilevel_skew_stays_bounded(self, router):
        m1 = router.merge(sink(0, 0), sink(6000, 0))
        m2 = router.merge(sink(0, 8000), sink(6000, 8000))
        m3 = router.merge(sink(14000, 0), sink(14000, 8000))
        top = router.merge(router.merge(m1, m2), m3)
        validate_tree(top)
        bounds = router.subtree_bounds([top])[0]
        assert bounds.skew < 12e-12
        assert bounds.worst_slew <= router.options.target_slew * 1.08


class TestStageShapeControl:
    def test_forced_buffer_keeps_stage_caps_bounded(self, router):
        root = router.merge(sink(0, 0), sink(5000, 0))
        # Whatever the shape, the collapsed cap at the returned root must
        # be library-representable.
        cap = router.root_stage_cap(root)
        assert cap <= router.max_stage_cap * 1.001 or root.kind is NodeKind.BUFFER

    def test_trunk_routing(self, router):
        root = router.merge(sink(0, 0), sink(4000, 0))
        top, wire = router.route_trunk(root, Point(2000, 20000))
        assert wire <= router.stage_length * 1.2
        chain_buffers = 0
        node = top
        while node is not root and node.children:
            if node.kind is NodeKind.BUFFER:
                chain_buffers += 1
            node = node.children[0]
        assert chain_buffers >= 3  # ~18k units of trunk needs several stages

    def test_trunk_noop_when_source_at_root(self, router):
        root = router.merge(sink(0, 0), sink(4000, 0))
        top, wire = router.route_trunk(root, root.location)
        assert top is root
        assert wire == 0.0
