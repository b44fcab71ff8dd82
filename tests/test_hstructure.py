"""H-structure re-estimation and correction (Sec. 4.1.2)."""

import pytest

from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.core.hstructure import PAIRINGS, correct_pairing, reestimate_pairing
from repro.core.merge_routing import MergeRouter
from repro.core.topology import EdgeCost, SubTree
from repro.evalx import evaluate_tree
from repro.geom import Point
from repro.timing.analysis import LibraryTimingEngine
from repro.tree.export import tree_to_dict
from repro.tree.nodes import NodeKind, make_buffer, make_sink
from repro.tree.validate import validate_tree

from tests.conftest import make_sink_pairs


@pytest.fixture()
def router(tech, library, buffers):
    engine = LibraryTimingEngine(library, tech)
    return MergeRouter(tech, library, buffers, engine, CTSOptions())


def interleaved_quad(router, a=None):
    """Four sinks where the 'wrong' pairing is the interleaved one.

    A = (0,0), B = (4000,0), C = (300,0), D = (4300, 0): the natural
    pairing is (A,C)(B,D); we force the H-prone original (A,B)(C,D).
    ``a``, when given, is the sub-tree root used as A.
    """
    a = a or make_sink(Point(0, 0), 8e-15, "A")
    b = make_sink(Point(4000, 0), 8e-15, "B")
    c = make_sink(Point(300, 0), 8e-15, "C")
    d = make_sink(Point(4300, 0), 8e-15, "D")
    p = router.merge(a, b)
    q = router.merge(c, d)
    p_sub = SubTree(p, router.subtree_bounds([p])[0], parts=(a, b))
    q_sub = SubTree(q, router.subtree_bounds([q])[0], parts=(c, d))
    return p_sub, q_sub, (a, b, c, d)


def good_quad(router):
    """Four sinks whose original pairing (A,B)(C,D) is the natural one."""
    a = make_sink(Point(0, 0), 8e-15)
    b = make_sink(Point(300, 0), 8e-15)
    c = make_sink(Point(4000, 0), 8e-15)
    d = make_sink(Point(4300, 0), 8e-15)
    p = router.merge(a, b)
    q = router.merge(c, d)
    p_sub = SubTree(p, router.subtree_bounds([p])[0], parts=(a, b))
    q_sub = SubTree(q, router.subtree_bounds([q])[0], parts=(c, d))
    return p_sub, q_sub


class TestPairings:
    def test_three_pairings_cover_all(self):
        assert len(PAIRINGS) == 3
        for (i, j), (k, l) in PAIRINGS:
            assert sorted([i, j, k, l]) == [0, 1, 2, 3]


class TestReestimate:
    def test_flips_interleaved_pairing(self, router):
        p_sub, q_sub, __ = interleaved_quad(router)
        cost = EdgeCost(CTSOptions(), router._delay_per_unit)
        (outcome,) = reestimate_pairing(router, cost, [(p_sub, q_sub)])
        assert outcome.flipped
        validate_tree(outcome.left_root)
        validate_tree(outcome.right_root)
        # The chosen pairing has much shorter wirelength.
        wl = (
            outcome.left_root.downstream_wirelength()
            + outcome.right_root.downstream_wirelength()
        )
        assert wl < 4000

    def test_keeps_good_pairing(self, router):
        p_sub, q_sub = good_quad(router)
        cost = EdgeCost(CTSOptions(), router._delay_per_unit)
        (outcome,) = reestimate_pairing(router, cost, [(p_sub, q_sub)])
        assert not outcome.flipped


class TestCorrect:
    def test_correction_chooses_low_skew_pairing(self, router):
        p_sub, q_sub, parts = interleaved_quad(router)
        (outcome,) = correct_pairing(router, [(p_sub, q_sub)])
        assert outcome.flipped
        validate_tree(outcome.left_root)
        validate_tree(outcome.right_root)
        # All four grandchildren survive, each in exactly one tree.
        names = set()
        for root in (outcome.left_root, outcome.right_root):
            names.update(
                n.name for n in root.walk() if n.name in ("A", "B", "C", "D")
            )
        assert names == {"A", "B", "C", "D"}

    def test_correction_skew_not_worse(self, router):
        p_sub, q_sub, __ = interleaved_quad(router)
        orig_worse = max(p_sub.bounds.skew, q_sub.bounds.skew)
        (outcome,) = correct_pairing(router, [(p_sub, q_sub)])
        new_worse = max(
            router.subtree_bounds([outcome.left_root])[0].skew,
            router.subtree_bounds([outcome.right_root])[0].skew,
        )
        assert new_worse <= orig_worse + 1e-12


class TestKeptStructures:
    """A surviving pairing keeps the trees that were built and measured:
    P and Q for the original pairing, the candidate for a flip."""

    def test_correction_keeps_p_and_q(self, router):
        p_sub, q_sub = good_quad(router)
        before = tree_to_dict(p_sub.root)
        n_merges = router.stats.n_merges
        (outcome,) = correct_pairing(router, [(p_sub, q_sub)])
        assert not outcome.flipped
        assert outcome.left_root is p_sub.root
        assert outcome.right_root is q_sub.root
        assert tree_to_dict(p_sub.root) == before
        # Only the two alternative pairings are merge-routed.
        assert len(outcome.merges) == 4
        assert router.stats.n_merges - n_merges == 4

    def test_reestimation_keeps_p_and_q(self, router):
        p_sub, q_sub = good_quad(router)
        n_merges = router.stats.n_merges
        cost = EdgeCost(CTSOptions(), router._delay_per_unit)
        (outcome,) = reestimate_pairing(router, cost, [(p_sub, q_sub)])
        assert outcome.left_root is p_sub.root
        assert outcome.right_root is q_sub.root
        assert outcome.merges == ()
        assert router.stats.n_merges == n_merges

    def test_flipped_winner_keeps_child_order(self, router, buffers, monkeypatch):
        """A buffered A hangs directly under the winner's merge node, ahead
        of C's chain buffer: re-attaching A by appending would swap them."""
        candidates = []
        merge_batch = router.merge_batch

        def recorded(sides):
            batch = merge_batch(sides)
            candidates.extend((m.root, tree_to_dict(m.root)) for m in batch)
            return batch

        monkeypatch.setattr(router, "merge_batch", recorded)
        a = make_buffer(Point(0, 0), buffers["BUF20X"])
        a.attach(make_sink(Point(0, 0), 8e-15, "A"), 0.0)
        p_sub, q_sub, __ = interleaved_quad(router, a)
        (outcome,) = correct_pairing(router, [(p_sub, q_sub)])
        assert outcome.flipped
        merge = a.parent
        assert merge.kind is NodeKind.MERGE
        assert merge.children.index(a) == 0
        assert merge.children[1].kind is NodeKind.BUFFER
        for root in (outcome.left_root, outcome.right_root):
            (built,) = [data for node, data in candidates if node is root]
            assert tree_to_dict(root) == built


class TestFlowIntegration:
    @pytest.mark.parametrize("mode", ["reestimate", "correct"])
    def test_full_flow_with_hstructure(self, tech, mode):
        sinks = make_sink_pairs(12, 30000.0, seed=17)
        cts = AggressiveBufferedCTS(options=CTSOptions(hstructure=mode))
        result = cts.synthesize(sinks)
        validate_tree(result.tree.root, expect_source_root=True)
        assert result.n_flippings >= 0
        metrics = evaluate_tree(result.tree, tech)
        assert metrics.worst_slew <= cts.options.slew_limit
        assert metrics.n_sinks == 12

    def test_flippings_counted(self, tech):
        """A sink layout engineered to provoke at least one flip."""
        sinks = make_sink_pairs(16, 50000.0, seed=5)
        cts = AggressiveBufferedCTS(options=CTSOptions(hstructure="correct"))
        result = cts.synthesize(sinks)
        assert result.n_flippings >= 1
