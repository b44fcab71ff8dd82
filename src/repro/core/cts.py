"""Top-level aggressive-buffered clock tree synthesis (Sec. 4.1, Fig. 4.1).

The flow: level 0 holds the sinks; each level pairs the current sub-trees
with the greedy nearest-neighbor matching and merge-routes every pair,
optionally running H-structure re-estimation/correction on pairs of
merge-rooted sub-trees; odd levels promote a max-latency seed node. The
loop ends when one sub-tree remains, which becomes the network under the
clock SOURCE.

Every level runs one pipeline (:meth:`AggressiveBufferedCTS._merge_level`):
prepare in pair order, route the level at once, commit it in lockstep
through :class:`repro.core.batch_commit.BatchCommitScheduler` with the
structure-of-arrays tree mirror (:mod:`repro.core.soa_tree`) installed,
then renumber the level's nodes into serial creation order. H-structure
pairs merge serially inside it. There is no fallback path: a route or
commit kernel exception propagates out of :meth:`synthesize`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.charlib.build import load_default_library
from repro.charlib.library import DelaySlewLibrary
from repro.core.batch_commit import BatchCommitScheduler
from repro.core.hstructure import correct_pairing, reestimate_pairing
from repro.core.merge_routing import MergeRouter, MergeStats
from repro.core.options import CTSOptions
from repro.core.soa_tree import SoaTree
from repro.core.topology import EdgeCost, SubTree, greedy_matching
from repro.geom.bbox import BBox
from repro.geom.point import Point, centroid
from repro.tech.buffers import BufferLibrary
from repro.tech.presets import cts_buffer_library, default_technology
from repro.tech.technology import Technology
from repro.timing.analysis import LibraryTimingEngine
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import (
    TreeNode,
    make_sink,
    peek_node_id,
    set_node_id,
    set_tree_recorder,
)
from repro.tree.validate import validate_tree


@dataclass
class SynthesisResult:
    """A synthesized clock tree plus flow diagnostics."""

    tree: ClockTree
    options: CTSOptions
    runtime: float
    n_flippings: int
    merge_stats: MergeStats
    levels: int
    #: Wall-clock of the route and commit phases plus commit-query totals
    #: and shared-window routing counters (diagnostics — excluded from
    #: cross-mode equivalence comparisons).
    phase_seconds: dict = field(default_factory=dict)
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
        self.engine = LibraryTimingEngine(
            self.library, self.tech, self.options.virtual_drive
        )
        self.router = MergeRouter(
            self.tech,
            self.library,
            self.buffers,
            self.engine,
            self.options,
            blockages,
        )
        self.scheduler = BatchCommitScheduler(self.router)
        self._cost = EdgeCost(self.options, self.router._delay_per_unit)

    # ------------------------------------------------------------------

    def synthesize(
        self,
        sinks: list[tuple[Point, float]],
        source_location: Point | None = None,
    ) -> SynthesisResult:
        """Synthesize a clock tree over ``(location, capacitance)`` sinks.

        The run executes with a structure-of-arrays mirror of the
        in-flight tree installed (:class:`repro.core.soa_tree.SoaTree`):
        every node creation / attach / detach is echoed into flat numpy
        columns, and the commit phase's bounds-bucket prefill, collapsed
        stage caps and forced-stage-buffer decisions read the columns
        instead of walking node objects.
        """
        soa = SoaTree()
        previous = set_tree_recorder(soa)
        self.engine.attach_soa(soa)
        try:
            return self._synthesize(sinks, source_location)
        finally:
            set_tree_recorder(previous)
            self.engine.attach_soa(None)

    def _synthesize(
        self,
        sinks: list[tuple[Point, float]],
        source_location: Point | None = None,
    ) -> SynthesisResult:
        if len(sinks) < 1:
            raise ValueError("need at least one sink")
        t0 = time.perf_counter()
        resumed_from: int | None = None
        if self.options.resume_from is not None:
            level, center, n_flips, n_levels, degradations = self._resume(sinks)
            resumed_from = n_levels
        else:
            level = [self._leaf(pt, cap, i) for i, (pt, cap) in enumerate(sinks)]
            center = centroid([s.point for s in level])
            n_flips = 0
            n_levels = 0
            degradations = []
        while len(level) > 1:
            n_levels += 1
            self.router.reset_grid_cache()
            pairs, seed = greedy_matching(level, center, self._cost)
            merged_level, level_flips = self._merge_level(pairs)
            n_flips += level_flips
            level = ([seed] if seed else []) + merged_level
            if self.options.checkpoint_dir is not None:
                self._write_checkpoint(
                    n_levels, level, n_flips, center, sinks, degradations
                )
            self._level_pulse(n_levels)
        root = level[0].root
        if source_location is None:
            source_location = root.location
        root, trunk_wire = self.router.route_trunk(root, source_location)
        tree = ClockTree.from_network(source_location, root, trunk_wire)
        if self.options.validate_every_merge:
            validate_tree(tree.root, expect_source_root=True)
        return SynthesisResult(
            tree=tree,
            options=self.options,
            runtime=time.perf_counter() - t0,
            n_flippings=n_flips,
            merge_stats=self.router.stats,
            levels=n_levels,
            phase_seconds=dict(self.router.phase_seconds),
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
        n_levels: int,
        level: list[SubTree],
        n_flips: int,
        center: Point,
        sinks: list[tuple[Point, float]],
        degradations: list,
    ) -> None:
        """Snapshot the flow after one completed topology level."""
        from repro.core.checkpoint import write_checkpoint

        write_checkpoint(
            self.options.checkpoint_dir,
            level=n_levels,
            subtrees=level,
            n_flips=n_flips,
            next_node_id=peek_node_id(),
            center=center,
            options=self.options,
            sinks=sinks,
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

    def _resume(
        self, sinks: list[tuple[Point, float]]
    ) -> tuple[list[SubTree], Point, int, int, list]:
        """Rebuild the level-loop state from ``options.resume_from``.

        The node-id counter is restored so post-resume nodes get the ids
        and auto-names the uninterrupted run would have assigned, and the
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
        # ``route_sharing`` is aliased by the router's grid cache — merge
        # the saved counters in rather than swapping the object out.
        self.router.route_sharing.merge(state.route_sharing)
        return (
            state.subtrees,
            Point(*state.center),
            state.n_flips,
            state.levels_done,
            state.degradations,
        )

    # ------------------------------------------------------------------
    # Level routing
    # ------------------------------------------------------------------

    def _merge_level(
        self, pairs: list[tuple[SubTree, SubTree]]
    ) -> tuple[list[SubTree], int]:
        """Merge one topology level in phase sweeps.

        Four sweeps, each in pair order: (1) the stateful prepare phase
        (H-structure pairs take the full serial path here, since their
        re-pairing decisions interleave routing); (2) the pure route
        phase, the whole level at once through
        :meth:`MergeRouter.route_level`; (3) the stateful commit phase,
        every pair's commit state machine advanced in lockstep by the
        batched scheduler; (4) the level's nodes are renumbered into
        serial creation order, so the tree is the one a pair-by-pair
        merge would build.
        """
        from repro.core.parallel_merge import (
            renumber_subtrees,
            serial_id_mapping,
        )

        base = peek_node_id()
        n_flips = 0
        spans: list[list[tuple[int, int]]] = []
        prepared: list[tuple[str, object]] = []
        for a, b in pairs:
            start = peek_node_id()
            if self._is_hstructure_pair(a, b):
                merged, flips = self._merge_pair(a, b)
                n_flips += flips
                prepared.append(("done", merged))
            else:
                prepared.append(("plan", (a, b, self.router.prepare(a.root, b.root))))
            spans.append([(start, peek_node_id())])

        plans = [
            payload[2] if kind == "plan" else None
            for kind, payload in prepared
        ]
        routes = self.router.route_level(plans)
        roots = self._commit_level(prepared, routes, spans)

        merged_level: list[SubTree] = []
        level_roots: list[TreeNode] = []
        for i, (kind, payload) in enumerate(prepared):
            if kind == "done":
                subtrees = payload
            else:
                a, b, __ = payload
                subtrees = [self._subtree(roots[i], (a.root, b.root))]
            merged_level.extend(subtrees)
            level_roots.extend(s.root for s in subtrees)

        renumber_subtrees(
            level_roots, serial_id_mapping(base, spans), self.engine
        )
        return merged_level, n_flips

    def _commit_level(
        self, prepared, routes, spans
    ) -> dict[int, TreeNode]:
        """Commit a level in lockstep through the batched scheduler.

        Chain materialization (``commit_prepare``) happens in pair order;
        the scheduler then advances all state machines together, one
        library round per step, recording the id span every
        node-creating advance consumed so the serial renumbering covers
        the interleaved creation order.
        """
        t0 = time.perf_counter()
        states: list = []
        order: list[int] = []
        for i, (kind, payload) in enumerate(prepared):
            if kind != "plan":
                continue
            start = peek_node_id()
            __, __, plan = payload
            states.append(self.router.commit_prepare(plan, routes[i]))
            end = peek_node_id()
            if end > start:
                spans[i].append((start, end))
            order.append(i)
        self.scheduler.run(states, [spans[i] for i in order])
        roots = {
            i: self.router.commit_finish(states[pos])
            for pos, i in enumerate(order)
        }
        self.router.phase_seconds["commit"] += time.perf_counter() - t0
        return roots

    # ------------------------------------------------------------------

    def _leaf(self, point: Point, cap: float, index: int) -> SubTree:
        node = make_sink(point, cap, name=f"s{index}")
        return SubTree(node, self.router.subtree_bounds(node))

    def _subtree(
        self, root: TreeNode, parts: tuple[TreeNode, TreeNode] | None
    ) -> SubTree:
        return SubTree(root, self.router.subtree_bounds(root), parts)

    def _is_hstructure_pair(self, a: SubTree, b: SubTree) -> bool:
        """Whether this pair goes through H-structure re-pairing."""
        return bool(self.options.hstructure and a.parts and b.parts)

    def _merge_pair(
        self, a: SubTree, b: SubTree
    ) -> tuple[list[SubTree], int]:
        """Merge one H-structure pair serially: re-estimation or
        correction may swap its halves, then the chosen pairing merges
        through the single-pair path."""
        if self.options.hstructure == "reestimate":
            outcome = reestimate_pairing(self.router, self._cost, a, b)
        else:
            outcome = correct_pairing(self.router, a, b)
        root = self.router.merge(outcome.left_root, outcome.right_root)
        merged = self._subtree(root, (outcome.left_root, outcome.right_root))
        return [merged], (1 if outcome.flipped else 0)


def synthesize_clock_tree(
    sinks: list[tuple[Point, float]],
    tech: Technology | None = None,
    options: CTSOptions | None = None,
    **kwargs,
) -> SynthesisResult:
    """One-call convenience wrapper around :class:`AggressiveBufferedCTS`."""
    cts = AggressiveBufferedCTS(tech=tech, options=options, **kwargs)
    return cts.synthesize(sinks)
