"""Merge-routing edge cases: blockages, window growth, trunk routing."""

import pytest

from repro.core.maze_router import blocked_path
from repro.core.merge_routing import MergeRouter
from repro.core.options import CTSOptions
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.geom.segment import PathPolyline
from repro.timing.analysis import LibraryTimingEngine
from repro.tree.nodes import NodeKind, make_sink
from repro.tree.validate import validate_tree


def make_router(tech, library, buffers, blockages=None, **opt_kwargs):
    options = CTSOptions(**opt_kwargs)
    engine = LibraryTimingEngine(library, tech)
    return MergeRouter(tech, library, buffers, engine, options, blockages)


class TestBlockedMerges:
    def test_merge_detours_blockage(self, tech, library, buffers):
        wall = BBox(4500, -1200, 5500, 1200)
        router = make_router(tech, library, buffers, blockages=[wall])
        root = router.merge(make_sink(Point(0, 0), 8e-15), make_sink(Point(10000, 0), 8e-15))
        validate_tree(root)
        for node in root.walk():
            assert not wall.contains(node.location, tol=-250), node

    def test_nudge_off_blockages(self, tech, library, buffers):
        wall = BBox(1000, 1000, 2000, 2000)
        router = make_router(tech, library, buffers, blockages=[wall])
        inside = Point(1500, 1400)
        moved = router._nudge_off_blockages(inside)
        assert not wall.contains(moved)
        # Projected to the nearest edge, not across the region.
        assert moved.manhattan_to(inside) <= 600
        outside = Point(0, 0)
        assert router._nudge_off_blockages(outside) == outside

    def test_trunk_routes_around_blockage(self, tech, library, buffers):
        wall = BBox(800, 2000, 5200, 3000)
        router = make_router(tech, library, buffers, blockages=[wall])
        root = router.merge(make_sink(Point(2000, 0), 8e-15), make_sink(Point(4000, 0), 8e-15))
        top, wire = router.route_trunk(root, Point(3000, 6000))
        node = top
        while node is not root:
            assert not wall.contains(node.location, tol=-250), node
            node = node.children[0]


class TestBlockedPathHelper:
    def test_direct_when_clear(self):
        path = blocked_path(Point(0, 0), Point(1000, 0), 100.0, [], 300.0)
        assert path.length == pytest.approx(1000.0, abs=150.0)

    def test_detour_length(self):
        wall = BBox(400, -150, 600, 150)
        path = blocked_path(Point(0, 0), Point(1000, 0), 50.0, [wall], 300.0)
        assert path.length > 1000.0 + 200.0
        for s in range(0, int(path.length), 25):
            assert not wall.contains(path.point_at_length(float(s)), tol=-60)

    def test_sealed_terminal_raises(self):
        ring = [
            BBox(-300, -300, 300, -100),
            BBox(-300, 100, 300, 300),
            BBox(-300, -100, -100, 100),
            BBox(100, -300, 300, 100),
        ]
        with pytest.raises((RuntimeError, ValueError)):
            blocked_path(Point(0, 0), Point(5000, 0), 50.0, ring, 200.0)


class TestRouterInternals:
    def test_delay_per_unit_plausible(self, tech, library, buffers):
        router = make_router(tech, library, buffers)
        # Buffered paths in this technology run ~0.015-0.05 ps/unit.
        assert 0.005e-12 < router._delay_per_unit < 0.1e-12

    def test_stats_accumulate(self, tech, library, buffers):
        router = make_router(tech, library, buffers)
        router.merge(make_sink(Point(0, 0), 8e-15), make_sink(Point(9000, 0), 8e-15))
        router.merge(make_sink(Point(0, 9000), 8e-15), make_sink(Point(9000, 9000), 8e-15))
        assert router.stats.n_merges == 2
        assert router.stats.n_route_buffers >= 4
        assert router.stats.binary_search_iters > 0

    def test_merge_of_snaked_roots(self, tech, library, buffers):
        """Roots that are themselves snake chains merge cleanly."""
        from repro.core.balance import snake_delay

        router = make_router(tech, library, buffers)
        a = snake_delay(
            make_sink(Point(0, 0), 8e-15), 150e-12, library, buffers,
            router.options, 8e-15,
        ).new_root
        b = snake_delay(
            make_sink(Point(5000, 0), 8e-15), 150e-12, library, buffers,
            router.options, 8e-15,
        ).new_root
        root = router.merge(a, b)
        validate_tree(root)
        # The slew clamp may override perfect balance; the residual stays
        # within a buffer-delay quantum.
        assert router.subtree_bounds([root])[0].skew < 15e-12

    def test_disable_balance_flag(self, tech, library, buffers):
        router = make_router(tech, library, buffers, enable_balance=False)
        deep = router.merge(make_sink(Point(0, 0), 8e-15), make_sink(Point(9000, 0), 8e-15))
        shallow = make_sink(Point(2000, 9000), 8e-15)
        root = router.merge(deep, shallow)
        validate_tree(root)
        assert router.stats.n_snaked == 0
