"""The engine's flat-stage columns and the batched stage decisions:
identity-keyed rows, kernels, end to end.

Every timing engine builds flat-stage columns
(:mod:`repro.timing.flat_stages`) with its bounds table: a row of numpy
columns per bounded node, keyed by node identity, from which
``subtree_bounds_many`` fills its misses. The router's
:meth:`~repro.core.merge_routing.MergeRouter.stage_drivers` decides the
forced stage buffers of a batch of merges at once. Their contract is
bit-identity with the scalar paths — a fresh engine's scalar recursion,
``_choose_stage_driver``, and the pair-by-pair scalar reference run —
so every test here reduces to exact equality — signatures, cache
values, rows, drivers — never approx.
"""

import numpy as np
import pytest

from repro.core.checkpoint import _encode_rows, _replay_rows
from repro.core.cts import AggressiveBufferedCTS
from repro.core.merge_routing import MergeRouter
from repro.core.options import CTSOptions
from repro.core.parallel_merge import renumber_subtrees
from repro.evalx.faultinject import reset_plans
from repro.evalx.perfstats import checkpoint_resume_equivalence, scaling_scenario
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


def synth(sinks, blockages=None, **option_overrides):
    """One synthesis run plus the rebased signature of its tree."""
    cts = AggressiveBufferedCTS(
        options=CTSOptions(**option_overrides), blockages=blockages
    )
    base = peek_node_id()
    result = cts.synthesize(sinks)
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
        engine = LibraryTimingEngine(library, tech)
        items = [(node, 80e-12 + 0.37e-12 * i) for i, node in enumerate(nodes)]
        first = batched_bounds(engine, items)
        bounded = {node for node, __ in engine.stored_bounds()}
        traced = np.count_nonzero(engine._flat.fs_state)
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
        assert np.count_nonzero(engine._flat.fs_state) == traced
        for (node, bucket), value in stored.items():
            assert scalar_bucket_bounds(fresh, node, bucket) == value

    def test_equal_ids_get_separate_rows(self, library, tech, buffers):
        top, nodes = self._stage_roots()
        # A decoded copy shares every id with the original; its snaked
        # wires give it different bounds.
        copy = rebuild(_encode_rows([top], 0), buffers, wire_scale=1.25)
        copies = [n for n in copy.walk() if n.kind is not NodeKind.SINK]
        assert [n.id for n in copies] == [n.id for n in nodes]
        # One engine, with one table and its flat-stage columns, serves
        # both trees.
        engine = LibraryTimingEngine(library, tech)
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
    """The batched kernels equal the scalar paths they stand for, bit
    for bit."""

    CASES = {
        "open": (make_sink_pairs(60, 30000.0, seed=22), None, {}),
        "blocked": (blocked_sinks(18, seed=22), BLOCKAGES, {}),
        "hstructure": (
            make_sink_pairs(16, 26000.0, seed=14),
            None,
            {"hstructure": "correct"},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stored_buckets_equal_scalar_recursion(self, monkeypatch, case):
        # Every bucket a synthesis stores through a batched query — the
        # level passes and the commit's probe rounds, prefetched windows
        # included — is its key's value under a fresh engine's scalar
        # recursion. Each is checked right after the call that stored
        # it: H-structure correction later discards candidate merges,
        # whose detached children change what a fresh engine computes.
        checked = []
        original = LibraryTimingEngine.subtree_bounds_many

        def recording(self, nodes, slews):
            before = set(self.stored_bounds())
            answers = original(self, nodes, slews)
            fresh = LibraryTimingEngine(self.library, self.tech)
            for key, value in self.stored_bounds().items():
                if key not in before:
                    assert scalar_bucket_bounds(fresh, *key) == value, key
                    checked.append(key)
            return answers

        monkeypatch.setattr(LibraryTimingEngine, "subtree_bounds_many", recording)
        sinks, blockages, overrides = self.CASES[case]
        __, __r, cts = synth(sinks, blockages=blockages, **overrides)
        assert np.count_nonzero(cts.engine._flat.fs_state)
        assert len(checked) == len(set(checked)) > 0

    @staticmethod
    def _heavy_merges(buffers):
        """24 merges whose collapsed stage caps force a stage buffer, over
        sinks, buffers and a nested merge, plus three light ones. Each
        merge's nodes share one location, so any wire length is legal."""
        rng = np.random.default_rng(3)
        merges = []
        for i in range(27):
            at = Point(1000.0 * i, 0.0)
            left = make_sink(at, float(rng.uniform(4e-15, 12e-15)))
            if i % 5 == 1:
                inner = make_buffer(at, buffers["BUF20X"])
                inner.attach(left, 40.0)
                left = inner
            elif i % 5 == 3:
                inner = make_merge(at)
                inner.attach(left, 60.0)
                inner.attach(make_sink(at, 6e-15), 50.0)
                left = inner
            right = make_sink(at, float(rng.uniform(4e-15, 12e-15)))
            merge = make_merge(at)
            if i < 24:
                wires = rng.uniform(20.0, 2500.0, size=2)
            else:
                wires = rng.uniform(1.0, 5.0, size=2)
            merge.attach(left, float(wires[0]))
            merge.attach(right, float(wires[1]))
            merges.append(merge)
        return merges

    def test_stage_drivers_match_choose_stage_driver(
        self, library, tech, buffers, monkeypatch
    ):
        router = MergeRouter(
            tech, library, buffers, LibraryTimingEngine(library, tech), CTSOptions()
        )
        merges = self._heavy_merges(buffers)
        batched = []
        original = library.branch_slews_many

        def counted(*args, **kwargs):
            batched.append(len(args[3]))
            return original(*args, **kwargs)

        monkeypatch.setattr(library, "branch_slews_many", counted)
        drivers = router.stage_drivers(merges)
        # Enough merges needed a driver for the vectorized rounds to run.
        assert batched and batched[0] >= 16
        expected = [
            router._choose_stage_driver(merge)
            if router.engine._load_cap_of(merge) > router.max_stage_cap
            else None
            for merge in merges
        ]
        assert drivers == expected
        assert expected[-3:] == [None] * 3
        assert len({d.name for d in expected[:-3]}) == len(buffers.names)

    def test_coincident_stage_buffer_same_in_merge_and_batch(
        self, library, tech, buffers
    ):
        def pair():
            at = Point(500.0, 500.0)
            return make_sink(at, 14e-15), make_sink(at, 13e-15)

        router = MergeRouter(
            tech, library, buffers, LibraryTimingEngine(library, tech), CTSOptions()
        )
        a, b = pair()
        single = router.merge(a, b)
        assert router.stats.n_forced_stage_buffers == 1
        (batched,) = router.merge_batch([pair()])
        root = router.commit_finish(batched.state)
        assert router.stats.n_forced_stage_buffers == 2
        for top in (single, root):
            assert top.kind is NodeKind.BUFFER
            (merge,) = top.children
            assert merge.kind is NodeKind.MERGE
            assert router.engine._load_cap_of(merge) > router.max_stage_cap
        assert root.buffer == single.buffer
        assert single.buffer == router._choose_stage_driver(single.children[0])


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
        __, result, cts = synth(sinks, blockages=BLOCKAGES)
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
                # Element-wise twin used by the flat-stage prefill.
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
    """Level pipeline / pair-by-pair scalar reference / resumed:
    identical trees, stats and probes."""

    PROBES = ("search_probes", "clamp_probes", "repair_probes", "reused_checks")

    def test_serial_identical(self):
        # The reference run routes and commits pair by pair with scalar
        # probes and bounds, and decides each stage buffer on its own.
        sinks, source, blockages = scaling_scenario(80, True, seed=7)
        sig, result = synthesize_signature(sinks, source, blockages)
        ref_sig, ref = synthesize_signature(
            sinks, source, blockages, pair_by_pair=True, scalar_commit=True
        )
        assert sig == ref_sig
        assert result.merge_stats == ref.merge_stats
        assert result.merge_stats.n_forced_stage_buffers > 0
        assert result.levels == ref.levels
        for key in self.PROBES:
            assert result.commit_queries[key] == ref.commit_queries[key]
        assert ref.commit_queries["batched_rounds"] == 0

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
