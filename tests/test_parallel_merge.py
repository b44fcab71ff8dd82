"""Serial-identical renumbering of the level pipeline, plus the seed
tie-breaks it relies on.

The level pipeline creates a level's nodes phase by phase (all
prepares, then all commits); :func:`serial_id_mapping` maps those ids
back onto pair-by-pair creation order so auto-generated node names are
the ones a pair-by-pair merge would give.
"""

from __future__ import annotations

from repro.core.parallel_merge import renumber_subtrees, serial_id_mapping
from repro.core.topology import SubTree, greedy_matching, select_seed
from repro.geom.point import Point
from repro.timing.analysis import LibraryTimingEngine, SubtreeBounds
from repro.tree.nodes import make_merge, make_sink, peek_node_id


class TestSerialIdMapping:
    def test_reorders_phase_blocks_into_pair_order(self):
        # Pair 0 consumed [10,12) in prepare and [16,19) in commit; pair 1
        # consumed [12,16) and [19,20). Serial order interleaves per pair.
        spans = [[(10, 12), (16, 19)], [(12, 16), (19, 20)]]
        mapping = serial_id_mapping(10, spans)
        assert mapping == {16: 12, 17: 13, 18: 14, 12: 15, 13: 16, 14: 17, 15: 18}

    def test_identity_when_already_serial(self):
        spans = [[(5, 7), (7, 9)], [(9, 10), (10, 12)]]
        assert serial_id_mapping(5, spans) == {}


class TestRenumberSubtrees:
    def test_renumbers_level_nodes_and_keeps_cache_entries(self, library, tech):
        engine = LibraryTimingEngine(library, tech)
        old = make_sink(Point(0, 0), 5e-15, "s0")
        base = peek_node_id()
        # ``top`` keeps its id; the two level nodes below it swap theirs.
        top, mid, low = (make_merge(Point(0, 0)) for _ in range(3))
        top.attach(mid, 0.0)
        mid.attach(low, 0.0)
        low.attach(old, 0.0)
        caps = {node: engine._load_cap_of(node) for node in (top, mid, low)}
        bounds = {node: engine.subtree_bounds(node, 80e-12) for node in caps}
        cached = engine.stored_bounds()
        mapping = {base + 1: base + 2, base + 2: base + 1}
        renumber_subtrees([top], mapping, base)
        assert (top.id, mid.id, low.id) == (base, base + 2, base + 1)
        assert (mid.name, low.name) == (f"m{base + 2}", f"m{base + 1}")
        assert old.name == "s0"
        # The engine's memos are keyed by node: untouched, and still
        # serve each node its own entries.
        assert engine._cap_cache == caps
        assert engine.stored_bounds() == cached
        for node in caps:
            assert engine._load_cap_of(node) == caps[node]
            assert engine.subtree_bounds(node, 80e-12) == bounds[node]
        assert engine.stored_bounds() == cached


class TestTieBreaks:
    def _subtree(self, x, y, delay):
        node = make_sink(Point(x, y), 5e-15)
        return SubTree(node, SubtreeBounds(delay, delay, 0.0))

    def test_select_seed_ties_resolve_to_first(self):
        tied = [self._subtree(0, 0, 5e-12) for _ in range(3)]
        assert select_seed(tied) is tied[0]

    def test_seed_removed_by_identity(self):
        """Equal-comparing sub-trees must not shadow the promoted seed."""
        shared = make_sink(Point(0.0, 0.0), 5e-15)
        bounds = SubtreeBounds(9e-12, 9e-12, 0.0)
        dup_a = SubTree(shared, bounds)
        dup_b = SubTree(shared, bounds)
        other = self._subtree(4000.0, 0.0, 1e-12)
        assert dup_a == dup_b  # precondition: ==-equal, distinct objects

        class Cost:
            alpha = 1.0

            def __call__(self, a, b):
                return a.point.manhattan_to(b.point)

        pairs, seed = greedy_matching([dup_a, dup_b, other], Point(0, 0), Cost())
        assert seed is dup_a  # first max-delay occurrence promoted
        matched = {id(s) for pair in pairs for s in pair}
        assert id(dup_b) in matched and id(dup_a) not in matched
