"""Structure-of-arrays flat-stage cache: identity-keyed rows, kernels,
end to end.

The cache (:mod:`repro.core.soa_tree`) gives every node the commit
kernels query a row of numpy columns, keyed by node identity, and
answers the commit phase's bounds-bucket prefill, collapsed caps and
forced-stage-buffer decisions from them. Its contract is bit-identity
with the object walks it replaces — compared in the same run against a
synthesis with no cache attached
(:func:`repro.evalx.perfstats.synthesize_without_mirror`) or against a
fresh scalar engine — so every test here reduces to exact equality —
signatures, cache values, rows — never approx.
"""

import numpy as np
import pytest

from repro.core.checkpoint import _encode_rows, _replay_rows
from repro.core.cts import AggressiveBufferedCTS
from repro.core.merge_routing import MergeRouter
from repro.core.options import CTSOptions
from repro.core.parallel_merge import renumber_subtrees
from repro.core.soa_tree import SoaTree
from repro.evalx.faultinject import reset_plans
from repro.evalx.perfstats import (
    checkpoint_resume_equivalence,
    scaling_scenario,
    synthesize_without_mirror,
)
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.tech import cts_buffer_library
from repro.timing.analysis import SLEW_QUANTUM, LibraryTimingEngine
from repro.tree.export import tree_signature
from repro.tree.nodes import (
    NodeKind,
    TreeNode,
    make_buffer,
    make_merge,
    make_sink,
    peek_node_id,
)

from tests.conftest import (
    batched_bounds,
    make_sink_pairs,
    scalar_bucket_bounds,
    synthesize_signature,
)

BLOCKAGES = [BBox(8000.0, 8000.0, 16000.0, 16000.0)]


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    reset_plans()
    yield
    reset_plans()


def synth(sinks, blockages=None, without_mirror=False, **option_overrides):
    """One synthesis run plus the rebased signature of its tree.

    ``without_mirror`` runs the reference engine's
    :func:`synthesize_without_mirror`, so the commit phase walks node
    objects: the comparison side of the kernel-equality tests.
    """
    cts = AggressiveBufferedCTS(
        options=CTSOptions(**option_overrides), blockages=blockages
    )
    run = synthesize_without_mirror if without_mirror else type(cts).synthesize
    base = peek_node_id()
    result = run(cts, sinks)
    return tree_signature(result.tree, base), result, cts


def blocked_sinks(n, seed):
    clear = [bbox.expanded(1200.0) for bbox in BLOCKAGES]
    sinks = [
        (p, c)
        for p, c in make_sink_pairs(n, 30000.0, seed=seed)
        if not any(region.contains(p) for region in clear)
    ]
    assert len(sinks) >= 10
    return sinks


def rebuild(rows, buffers, wire_scale=1.0):
    """Decode checkpoint node rows into a fresh tree, as a resumed run
    does: every node keeps its explicit id. ``wire_scale`` > 1 snakes
    every wire, giving a tree whose ids match but whose timing does not.
    """
    by_id = {}
    root = None
    for node_id, kind, name, x, y, wire, cap, buf_name, parent_id in rows:
        node = TreeNode(
            kind=NodeKind(kind),
            location=Point(x, y),
            name=name,
            cap=cap,
            buffer=buffers[buf_name] if buf_name is not None else None,
            id=node_id,
        )
        by_id[node_id] = node
        if root is None:
            root = node  # preorder: the subtree root comes first
        else:
            by_id[parent_id].attach(node, wire * wire_scale)
    return root


class TestCheckpointRoundTrip:
    """Trees built by random surgery rebuild from their checkpoint rows."""

    def _random_forest(self, rng, buffers):
        names = list(buffers.names)
        roots = [
            make_sink(
                Point(float(rng.uniform(0, 9000)), float(rng.uniform(0, 9000))),
                float(rng.uniform(4e-15, 12e-15)),
            )
            for __ in range(12)
        ]
        for __ in range(60):
            op = rng.integers(0, 4)
            if op == 0 or len(roots) < 2:
                roots.append(
                    make_sink(
                        Point(
                            float(rng.uniform(0, 9000)),
                            float(rng.uniform(0, 9000)),
                        ),
                        float(rng.uniform(4e-15, 12e-15)),
                    )
                )
            elif op == 1:
                # Merge two roots under a new MERGE node.
                a = roots.pop(int(rng.integers(0, len(roots))))
                b = roots.pop(int(rng.integers(0, len(roots))))
                m = make_merge(
                    Point(
                        (a.location.x + b.location.x) / 2,
                        (a.location.y + b.location.y) / 2,
                    )
                )
                m.attach(a)
                m.attach(b)
                roots.append(m)
            elif op == 2:
                # Drive a root with a new BUFFER.
                child = roots.pop(int(rng.integers(0, len(roots))))
                buf = make_buffer(
                    Point(child.location.x + 10.0, child.location.y),
                    buffers[names[int(rng.integers(0, len(names)))]],
                )
                buf.attach(child)
                roots.append(buf)
            else:
                # Detach a random child somewhere and re-root it.
                root = roots[int(rng.integers(0, len(roots)))]
                nodes = [n for n in root.walk() if n.parent is not None]
                if nodes:
                    picked = nodes[int(rng.integers(0, len(nodes)))]
                    roots.append(picked.detach())
        return roots

    def test_random_surgery_rebuilds_from_checkpoint_rows(self):
        # Rebuilding from the checkpoint rows (as a resumed run decodes
        # them) reproduces the tree signature exactly.
        rng = np.random.default_rng(17)
        buffers = cts_buffer_library()
        roots = self._random_forest(rng, buffers)
        root = max(roots, key=lambda r: len(list(r.walk())))
        rows = _encode_rows([root], 0)
        by_id = {}
        _replay_rows(rows, by_id, buffers)
        rebuilt = by_id[root.id]
        base = min(r[0] for r in rows)
        assert tree_signature(rebuilt, base) == tree_signature(root, base)


class TestIdentityKeyedRows:
    """Rows follow node objects, never node ids."""

    def _stage_roots(self):
        """The non-sink nodes of a synthesized tree below its source."""
        sinks = blocked_sinks(14, seed=31)
        __, result, __c = synth(sinks, blockages=BLOCKAGES)
        (top,) = result.tree.root.children
        nodes = [n for n in top.walk() if n.kind is not NodeKind.SINK]
        assert any(n.kind is NodeKind.BUFFER for n in nodes)
        assert any(n.kind is NodeKind.MERGE for n in nodes)
        return top, nodes

    def test_renumbered_nodes_served_from_earlier_rows(self, library, tech):
        top, nodes = self._stage_roots()
        soa = SoaTree()
        engine = LibraryTimingEngine(library, tech)
        engine.attach_soa(soa)
        items = [(node, 80e-12 + 0.37e-12 * i) for i, node in enumerate(nodes)]
        first = batched_bounds(engine, items)
        bounded = {node for node, __ in engine.stored_bounds()}
        traced = np.count_nonzero(soa.fs_state)
        assert bounded and traced
        # Reverse the subtree's ids: every old id becomes another node's.
        ids = sorted(node.id for node in top.walk())
        mapping = {
            old: new for old, new in zip(ids, reversed(ids)) if old != new
        }
        renumber_subtrees([top], mapping, ids[0])
        # The same queries are all hits: each entry stayed with its node.
        misses = engine.bounds_cache_misses
        assert batched_bounds(engine, items) == first
        assert engine.bounds_cache_misses == misses
        items = [(node, 97e-12 + 0.53e-12 * i) for i, node in enumerate(nodes)]
        got = batched_bounds(engine, items)
        assert engine.bounds_cache_misses > misses
        fresh = LibraryTimingEngine(library, tech)
        assert got == [fresh.subtree_bounds(node, slew) for node, slew in items]
        # The new buckets were filled from the rows traced before the
        # renumbering, and every stored bucket is its node's scalar value.
        stored = engine.stored_bounds()
        assert {node for node, __ in stored} == bounded
        assert np.count_nonzero(soa.fs_state) == traced
        for (node, bucket), value in stored.items():
            assert scalar_bucket_bounds(fresh, node, bucket) == value

    def test_equal_ids_get_separate_rows(self, library, tech, buffers):
        top, nodes = self._stage_roots()
        # A decoded copy shares every id with the original; its snaked
        # wires give it different bounds.
        copy = rebuild(_encode_rows([top], 0), buffers, wire_scale=1.25)
        copies = [n for n in copy.walk() if n.kind is not NodeKind.SINK]
        assert [n.id for n in copies] == [n.id for n in nodes]
        soa = SoaTree()
        # One engine and one flat-stage cache serve both trees.
        engine = LibraryTimingEngine(library, tech)
        engine.attach_soa(soa)
        answers = []
        for tree_nodes in (nodes, copies):
            items = [
                (node, 80e-12 + 0.37e-12 * i)
                for i, node in enumerate(tree_nodes)
            ]
            got = batched_bounds(engine, items)
            fresh = LibraryTimingEngine(library, tech)
            assert got == [
                fresh.subtree_bounds(node, slew) for node, slew in items
            ]
            answers.append(got)
        # A row or memo entry shared by id would have served one tree the
        # other's stages, whose answers differ.
        assert answers[0] != answers[1]
        bounded = {node for node, __ in engine.stored_bounds()}
        assert set(nodes) <= bounded and set(copies) <= bounded
        assert len(set(nodes) | set(copies)) == 2 * len(nodes)


class TestKernelEquality:
    """Kernel outputs equal the object walks they shadow, bit for bit."""

    def test_prefill_fills_object_cache_superset(self):
        sinks = blocked_sinks(18, seed=22)
        base_soa = peek_node_id()
        __, __r, cts_soa = synth(sinks, blockages=BLOCKAGES)
        base_obj = peek_node_id()
        __, __r, cts_obj = synth(sinks, blockages=BLOCKAGES, without_mirror=True)

        def rebase(cache, base):
            rebased = {
                (node.id - base, bucket): val
                for (node, bucket), val in cache.items()
            }
            # Every cached node has an id of its own, so nothing merges.
            assert len(rebased) == len(cache)
            return rebased

        soa_bounds = rebase(cts_soa.engine.stored_bounds(), base_soa)
        obj_bounds = rebase(cts_obj.engine.stored_bounds(), base_obj)
        # The cache may prefetch extra buckets (pure functions of the
        # key); everything the object walk computed must be present and
        # bit-identical.
        assert set(obj_bounds) <= set(soa_bounds)
        assert all(soa_bounds[k] == v for k, v in obj_bounds.items())

    def test_collapsed_cap_bit_exact(self, engine):
        buffers = cts_buffer_library()
        rng = np.random.default_rng(5)
        sinks = [
            make_sink(
                Point(float(rng.uniform(0, 4000)), float(rng.uniform(0, 4000))),
                float(rng.uniform(4e-15, 12e-15)),
            )
            for __ in range(6)
        ]
        b0 = make_buffer(Point(10.0, 10.0), buffers["BUF10X"])
        b0.attach(sinks[0])
        m0 = make_merge(Point(500.0, 500.0))
        m0.attach(b0)
        m0.attach(sinks[1])
        b1 = make_buffer(Point(900.0, 900.0), buffers["BUF30X"])
        b1.attach(m0)
        m1 = make_merge(Point(1500.0, 1500.0))
        m1.attach(b1)
        m1.attach(sinks[2])
        m2 = make_merge(Point(2500.0, 2500.0))
        m2.attach(m1)
        m2.attach(sinks[3])
        soa = SoaTree()
        for node in (m0, m1, m2):
            fast = soa._collapsed_cap(node, engine)
            engine._cap_cache.pop(node, None)
            slow = engine._load_cap_of(node)
            assert fast == slow


class TestLevelBoundsPass:
    """Synthesis bounds each level's new roots, and the sinks, in one
    batched pass through :meth:`MergeRouter.subtree_bounds`."""

    CASES = {
        "open": (make_sink_pairs(120, 30000.0, seed=4), None, {}),
        "blocked-correct": (
            blocked_sinks(40, seed=23),
            BLOCKAGES,
            {"hstructure": "correct"},
        ),
    }

    @staticmethod
    def _record_passes(monkeypatch):
        """Wrap the pass: per call, the roots and every bucket the call
        stored, each next to a fresh scalar engine's value for its key
        (taken right away, before a later level builds above it)."""
        passes = []
        original = MergeRouter.subtree_bounds

        def recording(self, roots):
            before = set(self.engine.stored_bounds())
            answers = original(self, roots)
            fresh = LibraryTimingEngine(self.engine.library, self.engine.tech)
            stored = {
                key: (value, scalar_bucket_bounds(fresh, *key))
                for key, value in self.engine.stored_bounds().items()
                if key not in before
            }
            target = self.options.target_slew
            scalar = [fresh.subtree_bounds(root, target) for root in roots]
            passes.append((list(roots), answers, scalar, stored))
            return answers

        monkeypatch.setattr(MergeRouter, "subtree_bounds", recording)
        return passes

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stored_buckets_equal_fresh_scalar_engine(self, monkeypatch, case):
        sinks, blockages, overrides = self.CASES[case]
        passes = self._record_passes(monkeypatch)
        synth(sinks, blockages=blockages, **overrides)
        assert sum(len(stored) for *__, stored in passes) > 0
        for roots, answers, scalar, stored in passes:
            assert answers == scalar
            for key, (value, fresh) in stored.items():
                assert value == fresh, key

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_pass_per_level_plus_the_leaves(self, monkeypatch, case):
        sinks, blockages, overrides = self.CASES[case]
        passes = self._record_passes(monkeypatch)
        __, result, __ = synth(sinks, blockages=blockages, **overrides)
        assert len(passes) == result.levels + 1
        leaves = passes[0][0]
        assert len(leaves) == len(sinks)
        assert all(node.kind is NodeKind.SINK for node in leaves)
        # Each level pass bounds that level's merged roots: half the
        # previous level, rounded down (an odd level's seed is carried).
        remaining = len(sinks)
        for roots, *__ in passes[1:]:
            assert len(roots) == remaining // 2
            remaining -= len(roots)
        assert remaining == 1


class TestQuantumBoundary:
    """Slews exactly on SLEW_QUANTUM multiples: the two adjacent
    buckets answer identically, so bucket choice cannot matter."""

    def _buffer_nodes(self):
        sinks = blocked_sinks(14, seed=31)
        __, result, cts = synth(sinks, blockages=BLOCKAGES, without_mirror=True)
        nodes = [
            n
            for n in result.tree.root.walk()
            if n.kind is NodeKind.BUFFER
        ]
        assert nodes
        return nodes, cts.engine

    def test_exact_multiple_slews_bucket_invariant(self):
        nodes, engine = self._buffer_nodes()
        rng = np.random.default_rng(41)
        for node in nodes[:8]:
            for k in sorted(set(rng.integers(0, 24, size=6).tolist())):
                slew = k * SLEW_QUANTUM
                # The quantizer lands exactly on the bucket: no
                # interpolation fraction survives the float round-trip.
                q = slew / SLEW_QUANTUM
                assert (int(q), q - int(q)) == (k, 0.0)
                # Element-wise twin used by the SoA prefill kernel.
                q = np.asarray([slew]) / SLEW_QUANTUM
                ks = q.astype(np.int64)
                assert (int(ks[0]), float((q - ks)[0])) == (k, 0.0)
                lo = engine._buffer_bucket_bounds(node, k)
                hi = engine._buffer_bucket_bounds(node, k + 1)
                # frac == 0 collapses the lerp onto the low bucket
                # exactly; the full query returns that very value.
                assert engine._lerp_bounds(lo, hi, 0.0) == lo
                assert engine.buffer_subtree_bounds(node, slew) == lo


class TestEndToEnd:
    """Cache attached / not attached / resumed: identical trees, stats
    and queries."""

    def test_serial_identical(self):
        sinks, source, blockages = scaling_scenario(80, True, seed=7)
        soa_sig, soa = synthesize_signature(sinks, source, blockages)
        obj_sig, obj = synthesize_signature(
            sinks, source, blockages, without_mirror=True
        )
        assert soa_sig == obj_sig
        assert soa.merge_stats == obj.merge_stats
        assert soa.levels == obj.levels
        assert soa.commit_queries == obj.commit_queries

    def test_resumed_identical(self):
        # Resume decodes the checkpoint's nodes with explicit ids; a
        # halt + resume must land on the clean run's tree.
        eq = checkpoint_resume_equivalence(
            n_sinks=60, with_blockages=True, seed=11, halt_after=2
        )
        assert eq["checkpoints_written"] >= 1
        assert eq["resumed_tree"] == eq["clean_tree"]
        assert eq["resumed_stats"] == eq["clean_stats"]
        assert eq["resumed_levels"] == eq["clean_levels"]
