"""Top-level aggressive-buffered clock tree synthesis (Sec. 4.1, Fig. 4.1).

The flow: level 0 holds the sinks; each level pairs the current sub-trees
with the greedy nearest-neighbor matching and merge-routes every pair,
optionally running H-structure re-estimation/correction on pairs of
merge-rooted sub-trees; odd levels promote a max-latency seed node. The
loop ends when one sub-tree remains, which becomes the network under the
clock SOURCE.

Every level runs one pipeline (:meth:`AggressiveBufferedCTS._merge_level`)
in batches (:meth:`repro.core.merge_routing.MergeRouter.merge_batch`):
prepare in pair order, route the batch at once, commit it in lockstep
through :class:`repro.core.batch_commit.BatchCommitScheduler`. The
timing engine fills its bounds misses through its flat-stage columns
(:mod:`repro.timing.flat_stages`), and each scheduler round's
forced-stage-buffer decisions resolve in one
:meth:`~repro.core.merge_routing.MergeRouter.stage_drivers` call.
H-structure pairs run their re-pairing batches first (two candidate
sweeps over the alternative pairings under correction, one batch of the
flipped pairs under re-estimation; a pair keeping its original pairing
keeps its two sub-trees as built); one batch of final merges covers the
level, whose new roots are bounded in one batched pass and whose nodes
are then renumbered into serial creation order. With a checkpoint
directory, each level then writes one delta frame of the frame chain
(:mod:`repro.core.checkpoint`). There is no fallback path: a route or
commit kernel exception propagates out of :meth:`synthesize`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.charlib.build import load_default_library
from repro.charlib.library import DelaySlewLibrary
from repro.core.hstructure import correct_pairing, reestimate_pairing
from repro.core.merge_routing import MergeRouter, MergeStats
from repro.core.options import CTSOptions
from repro.core.topology import EdgeCost, SubTree, greedy_matching
from repro.geom.bbox import BBox
from repro.geom.point import Point, centroid
from repro.tech.buffers import BufferLibrary
from repro.tech.presets import cts_buffer_library, default_technology
from repro.tech.technology import Technology
from repro.timing.analysis import LibraryTimingEngine
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import make_sink, peek_node_id, set_node_id

if TYPE_CHECKING:
    from repro.core.checkpoint import CheckpointState, FrameChain


@dataclass
class SynthesisResult:
    """A synthesized clock tree plus flow diagnostics."""

    tree: ClockTree
    options: CTSOptions
    runtime: float
    n_flippings: int
    merge_stats: MergeStats
    levels: int
    #: Commit-query totals and routing counters
    #: (diagnostics — excluded from cross-mode equivalence comparisons).
    commit_queries: dict = field(default_factory=dict)
    route_sharing: dict = field(default_factory=dict)
    #: Degradation records carried forward from a resumed checkpoint; a
    #: run itself produces none (see repro.core.resilience).
    degradations: list = field(default_factory=list)
    #: The completed topology level this run restarted after, when it
    #: resumed from a checkpoint; None for a fresh synthesis.
    resumed_from: int | None = None

    def report(self) -> str:
        stats = self.tree.stats()
        lines = [
            f"clock tree: {stats['n_sinks']} sinks, {stats['n_buffers']} buffers,"
            f" wirelength {stats['wirelength']:.0f} units, {self.levels} levels",
            f"buffer mix: {stats['buffers']}",
            f"synthesis time: {self.runtime:.2f} s;"
            f" flippings: {self.n_flippings};"
            f" snaked merges: {self.merge_stats.n_snaked}",
        ]
        if self.resumed_from is not None:
            lines.append(f"resumed from checkpoint after level {self.resumed_from}")
        return "\n".join(lines)


class AggressiveBufferedCTS:
    """The paper's synthesis flow, reusable across benchmarks."""

    def __init__(
        self,
        tech: Technology | None = None,
        buffers: BufferLibrary | None = None,
        library: DelaySlewLibrary | None = None,
        options: CTSOptions | None = None,
        blockages: list[BBox] | None = None,
    ):
        self.tech = tech or default_technology()
        self.buffers = buffers or cts_buffer_library()
        self.library = library or load_default_library(self.tech)
        self.options = options or CTSOptions()
        self.engine = LibraryTimingEngine(self.library, self.tech)
        self.router = MergeRouter(
            self.tech,
            self.library,
            self.buffers,
            self.engine,
            self.options,
            blockages,
        )
        self._cost = EdgeCost(self.options, self.router._delay_per_unit)

    # ------------------------------------------------------------------

    def synthesize(
        self,
        sinks: list[tuple[Point, float]],
        source_location: Point | None = None,
    ) -> SynthesisResult:
        """Synthesize a clock tree over ``(location, capacitance)`` sinks."""
        if len(sinks) < 1:
            raise ValueError("need at least one sink")
        t0 = time.perf_counter()
        resumed_from: int | None = None
        state = None
        if self.options.resume_from is not None:
            state = self._resume(sinks)
            level, n_flips = state.subtrees, state.n_flips
            center = Point(*state.center)
            n_levels = resumed_from = state.levels_done
            degradations = state.degradations
        else:
            first_node_id = peek_node_id()
            level = self._leaves(sinks)
            center = centroid([s.point for s in level])
            n_flips = 0
            n_levels = 0
            degradations = []
        chain = None
        if self.options.checkpoint_dir is not None:
            from repro.core.checkpoint import FrameChain

            chain = (
                FrameChain(self.options, sinks, first_node_id)
                if state is None
                else FrameChain.resumed(self.options, sinks, state)
            )
        while len(level) > 1:
            n_levels += 1
            pairs, seed = greedy_matching(level, center, self._cost)
            merged_level, level_flips = self._merge_level(pairs)
            n_flips += level_flips
            level = ([seed] if seed else []) + merged_level
            if chain is not None:
                self._write_checkpoint(
                    chain, n_levels, level, n_flips, center, degradations
                )
            self._level_pulse(n_levels)
        root = level[0].root
        if source_location is None:
            source_location = root.location
        root, trunk_wire = self.router.route_trunk(root, source_location)
        tree = ClockTree.from_network(source_location, root, trunk_wire)
        return SynthesisResult(
            tree=tree,
            options=self.options,
            runtime=time.perf_counter() - t0,
            n_flippings=n_flips,
            merge_stats=self.router.stats,
            levels=n_levels,
            commit_queries=self.router.commit_queries.as_dict(),
            route_sharing=self.router.route_sharing.as_dict(),
            degradations=list(degradations),
            resumed_from=resumed_from,
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def _write_checkpoint(
        self,
        chain: FrameChain,
        n_levels: int,
        level: list[SubTree],
        n_flips: int,
        center: Point,
        degradations: list,
    ) -> None:
        """Write the frame of one completed topology level to ``chain``."""
        from repro.core.checkpoint import write_checkpoint

        write_checkpoint(
            chain,
            level=n_levels,
            subtrees=level,
            n_flips=n_flips,
            next_node_id=peek_node_id(),
            center=center,
            merge_stats=self.router.stats,
            commit_queries=self.router.commit_queries,
            route_sharing=self.router.route_sharing,
            degradations=degradations,
        )
        if self.options.fault_plan:
            from repro.evalx.faultinject import active_plan

            # ``checkpoint:N:halt`` simulates a kill right after the N-th
            # snapshot landed; SynthesisHalted is a BaseException, so no
            # ``except Exception`` on the way out can absorb it.
            active_plan(self.options.fault_plan).consult("checkpoint")

    def _level_pulse(self, n_levels: int) -> None:
        """Prove liveness after one completed topology level.

        Stamps ``options.heartbeat_file`` (atomically, content changes
        every level) so the job supervisor's staleness watchdog can tell
        a slow level from a hung process. The ``job_hang``/``job_oom``
        fault sites live here — right where a real hang would silence
        the heartbeat — so chaos tests exercise the watchdog for real.
        """
        if self.options.heartbeat_file is not None:
            from repro.jobs.heartbeat import stamp_heartbeat

            stamp_heartbeat(
                self.options.heartbeat_file, f"level:{n_levels}"
            )
        if self.options.fault_plan:
            from repro.evalx.faultinject import active_plan

            plan = active_plan(self.options.fault_plan)
            plan.consult("job_hang")
            plan.consult("job_oom")

    def _resume(self, sinks: list[tuple[Point, float]]) -> CheckpointState:
        """Rebuild the level-loop state from ``options.resume_from``.

        Replays the checkpoint's frame chain, level 1 first
        (:func:`repro.core.checkpoint.load_checkpoint`): a directory
        resumes from the last frame of its longest valid chain prefix, a
        named frame only if it and all its predecessors are valid. The
        node-id counter is restored so post-resume nodes get the ids and
        auto-names the uninterrupted run would have assigned, and the
        timing engine's memoized caches are dropped (memoization is
        order-independent, so recomputed entries are bit-identical).
        """
        from repro.core.checkpoint import load_checkpoint

        state = load_checkpoint(
            self.options.resume_from, sinks, self.options, self.buffers
        )
        set_node_id(state.next_node_id)
        self.engine.clear_cache()
        self.router.stats = state.merge_stats
        self.router.commit_queries = state.commit_queries
        self.router.route_sharing = state.route_sharing
        return state

    # ------------------------------------------------------------------
    # Level routing
    # ------------------------------------------------------------------

    def _merge_level(
        self, pairs: list[tuple[SubTree, SubTree]]
    ) -> tuple[list[SubTree], int]:
        """Merge one topology level through the level pipeline.

        Every batch (:meth:`MergeRouter.merge_batch`) prepares its pairs
        in order, routes them at once and commits them in lockstep.
        H-structure pairs first run their re-pairing batches
        (:func:`correct_pairing` / :func:`reestimate_pairing`); one batch
        of final merges then covers every pair. Merges finish in the
        serial flow's order (the H pairs', pair by pair, then the plain
        pairs'), and the level's nodes are renumbered into serial
        creation order, so the tree is the one a pair-by-pair merge
        would build. Only ids and auto-names move: the timing engine's
        memos are keyed by node, so they need no renumbering.

        The level's new roots are bounded in one pass
        (:meth:`MergeRouter.subtree_bounds` over the whole list), which
        fills the engine's bounds table through the batched kernel; the
        next level's topology cost, balancing and terminals read those
        buckets back from the table.
        """
        from repro.core.parallel_merge import (
            renumber_subtrees,
            serial_id_mapping,
        )

        base = peek_node_id()
        h_index = [
            i for i, (a, b) in enumerate(pairs) if self._is_hstructure_pair(a, b)
        ]
        sides = [(a.root, b.root) for a, b in pairs]
        merges: list[list] = [[] for _ in pairs]
        n_flips = 0
        if h_index:
            h_pairs = [pairs[i] for i in h_index]
            if self.options.hstructure == "reestimate":
                outcomes = reestimate_pairing(self.router, self._cost, h_pairs)
            else:
                outcomes = correct_pairing(self.router, h_pairs)
            for i, outcome in zip(h_index, outcomes):
                sides[i] = (outcome.left_root, outcome.right_root)
                merges[i].extend(outcome.merges)
                n_flips += outcome.flipped
        for i, final in enumerate(self.router.merge_batch(sides)):
            merges[i].append(final)

        h_set = set(h_index)
        for i in h_index + [i for i in range(len(pairs)) if i not in h_set]:
            for merge in merges[i]:
                self.router.commit_finish(merge.state)
        roots = [pair_merges[-1].root for pair_merges in merges]
        merged_level = [
            SubTree(root, bounds, side)
            for root, bounds, side in zip(
                roots, self.router.subtree_bounds(roots), sides
            )
        ]
        spans = [
            [span for merge in pair_merges for span in merge.spans]
            for pair_merges in merges
        ]
        renumber_subtrees(
            [s.root for s in merged_level], serial_id_mapping(base, spans), base
        )
        return merged_level, n_flips

    # ------------------------------------------------------------------

    def _leaves(self, sinks: list[tuple[Point, float]]) -> list[SubTree]:
        """Level 0: one sink sub-tree per sink, bounded in one pass."""
        nodes = [
            make_sink(pt, cap, name=f"s{i}") for i, (pt, cap) in enumerate(sinks)
        ]
        return [
            SubTree(node, bounds)
            for node, bounds in zip(nodes, self.router.subtree_bounds(nodes))
        ]

    def _is_hstructure_pair(self, a: SubTree, b: SubTree) -> bool:
        """Whether this pair goes through H-structure re-pairing."""
        return bool(self.options.hstructure and a.parts and b.parts)


def synthesize_clock_tree(
    sinks: list[tuple[Point, float]],
    tech: Technology | None = None,
    options: CTSOptions | None = None,
    **kwargs,
) -> SynthesisResult:
    """One-call convenience wrapper around :class:`AggressiveBufferedCTS`."""
    cts = AggressiveBufferedCTS(tech=tech, options=options, **kwargs)
    return cts.synthesize(sinks)
