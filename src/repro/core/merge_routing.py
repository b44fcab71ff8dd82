"""Merge-routing: balance -> route -> binary search -> commit (Sec. 4.2).

This module orchestrates one merge of two sub-trees:

1. *balance* — if the delay difference exceeds what the routed path can
   absorb, wire-snake above the faster root (:mod:`repro.core.balance`);
2. *route* — bidirectional (profile or maze) routing with slew-driven
   buffer insertion picks the tentative merge cell
   (:mod:`repro.core.profile_router` / :mod:`repro.core.maze_router`);
3. *binary search* — the merge node slides between the last fixed nodes
   until the timing-engine delay difference nulls
   (:mod:`repro.core.binary_search`);
4. *commit* — tree nodes are materialized; branch slews are re-checked
   with the library and violations fixed by corrective buffer insertion;
   merges whose collapsed unbuffered capacitance grew too large get a
   buffer immediately above them (keeping stages library-shaped).

Stages 3 and 4 are implemented as a resumable per-pair state machine
(:class:`repro.core.batch_commit.PairCommitState`): :meth:`MergeRouter.commit`
drives one machine with scalar probes (the single-pair path H-structure
merges take), while the top-level flow runs
:meth:`MergeRouter.commit_prepare` for every pair of a topology level and
advances all machines in lockstep through the batched scheduler
(:class:`repro.core.batch_commit.BatchCommitScheduler`), answering each
step's probes with one vectorized library round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.balance import snake_delay
from repro.core.batch_commit import CommitQueryStats, PairCommitState
from repro.core.maze_router import route_maze
from repro.core.options import CTSOptions
from repro.core.profile_router import route_profile
from repro.core.routing_common import (
    RoutedPath,
    RouteResult,
    RouteTerminal,
    choose_pitch,
    l_path,
    slew_limited_length,
    uses_maze_router,
)
from repro.core.segment_builder import PathBuilder, SegmentTables
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.tech.buffers import BufferLibrary, BufferType
from repro.tech.technology import Technology
from repro.timing.analysis import LibraryTimingEngine, SubtreeBounds
from repro.tree.nodes import NodeKind, TreeNode, make_buffer, make_merge


@dataclass
class MergeStats:
    """Per-merge diagnostics aggregated by the top-level flow."""

    n_merges: int = 0
    n_snaked: int = 0
    snaked_delay: float = 0.0
    n_route_buffers: int = 0
    n_corrective_buffers: int = 0
    n_forced_stage_buffers: int = 0
    binary_search_iters: int = 0

    def combine(self, other: "MergeStats") -> "MergeStats":
        """Field-wise sum — merge diagnostics from independent routers."""
        return MergeStats(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            )
        )


@dataclass
class MergePlan:
    """Output of the serial prepare phase of one merge.

    ``root1``/``root2`` are the (possibly re-rooted by balance snaking)
    sub-tree roots the commit phase will join. For non-coincident pairs
    the terminals carry everything the side-effect-free route phase
    needs.
    """

    root1: TreeNode
    root2: TreeNode
    coincident: bool
    term1: RouteTerminal | None = None
    term2: RouteTerminal | None = None
    #: Balance-snaking diagnostics of the prepare phase. Applied to the
    #: router stats by the pair's commit finish (with the commit phase's
    #: own snake deltas), so the floating-point accumulation order is
    #: pair-ordered in every execution mode.
    n_snaked: int = 0
    snaked_delay: float = 0.0


class MergeRouter:
    """Stateful merge-routing engine shared across the whole synthesis."""

    def __init__(
        self,
        tech: Technology,
        library: DelaySlewLibrary,
        buffers: BufferLibrary,
        engine: LibraryTimingEngine,
        options: CTSOptions,
        blockages: list[BBox] | None = None,
    ):
        self.tech = tech
        self.library = library
        self.buffers = buffers
        self.engine = engine
        self.options = options
        self.blockages = blockages or []
        self.stats = MergeStats()
        self.stage_length = slew_limited_length(library, options.target_slew)
        largest = library.buffer_names[-1]
        self.max_stage_cap = options.max_unbuffered_cap_ratio * library.input_cap(
            largest
        )
        self._virtual = options.virtual_drive or library.buffer_names[-1]
        # Branch fits clamp beyond their trained length range and would be
        # silently optimistic there; such wires are violations by fiat.
        self._branch_hi = float(
            library.branch[self._virtual]["left_slew"].hi[2]
        ) * 1.001
        #: Commit-phase query totals (scalar and batched drivers).
        self.commit_queries = CommitQueryStats()
        #: Wall-clock spent in the route and commit phases.
        self.phase_seconds = {"route": 0.0, "commit": 0.0}
        #: Shared-window / route-finishing counters of the level router.
        from repro.core.grid_cache import GridCache, SharingStats

        self.route_sharing = SharingStats()
        self._grid_cache = GridCache(self.blockages, stats=self.route_sharing)
        # Blockage bounds as columns: one vectorized containment test
        # gates the (rarely entered) sequential nudge loop.
        if self.blockages:
            self._blockage_xmin = np.array([b.xmin for b in self.blockages])
            self._blockage_xmax = np.array([b.xmax for b in self.blockages])
            self._blockage_ymin = np.array([b.ymin for b in self.blockages])
            self._blockage_ymax = np.array([b.ymax for b in self.blockages])
        else:
            self._blockage_xmin = None
        self._delay_per_unit = self._calibrate_delay_per_unit()

    # ------------------------------------------------------------------
    # Terminal/bookkeeping helpers
    # ------------------------------------------------------------------

    def subtree_bounds(self, root: TreeNode) -> SubtreeBounds:
        """Delay bounds of a sub-tree under the slew-target assumption."""
        return self.engine.subtree_bounds(root, self.options.target_slew)

    def root_stage_cap(self, root: TreeNode) -> float:
        return self.engine._load_cap_of(root)

    def terminal_for(self, root: TreeNode) -> RouteTerminal:
        bounds = self.subtree_bounds(root)
        if root.kind is NodeKind.BUFFER:
            load_name = root.buffer.name
        else:
            load_name = self.library.load_name_for_cap(self.root_stage_cap(root))
        return RouteTerminal(
            node=root,
            point=root.location,
            base_delay=bounds.max_delay,
            min_delay=bounds.min_delay,
            load_name=load_name,
        )

    def _calibrate_delay_per_unit(self) -> float:
        """Average routed-path delay per layout unit (for balance checks)."""
        pitch = self.stage_length / self.options.target_cells_per_stage
        k = 4 * self.options.target_cells_per_stage
        tables = SegmentTables(self.library, pitch, k + 1, self.options.target_slew)
        builder = PathBuilder(
            tables,
            0.0,
            self.library.buffer_names[-1],
            self.options.target_slew,
            self.library.buffer_names,
            self._virtual,
            self.options.sizing_lookahead,
        )
        return builder.state(k).delay / (k * pitch)

    # ------------------------------------------------------------------
    # The merge itself
    # ------------------------------------------------------------------

    def merge(self, root1: TreeNode, root2: TreeNode) -> TreeNode:
        """Merge two sub-trees and return the new root node."""
        plan = self.prepare(root1, root2)
        return self.commit(plan, self.route_plan(plan))

    def prepare(self, root1: TreeNode, root2: TreeNode) -> MergePlan:
        """Stateful pre-route phase: balance snaking plus terminal capture.

        Everything that mutates the tree or the stats before routing
        happens here, so the route phase between :meth:`prepare` and
        :meth:`commit` is side-effect-free and can route a whole level
        at once.
        """
        self.stats.n_merges += 1
        if root1.location.manhattan_to(root2.location) <= 1e-9:
            return MergePlan(root1, root2, True)
        root1, root2, added_delay = self._balance(root1, root2)
        return MergePlan(
            root1,
            root2,
            False,
            self.terminal_for(root1),
            self.terminal_for(root2),
            n_snaked=0 if added_delay is None else 1,
            snaked_delay=0.0 if added_delay is None else added_delay,
        )

    def reset_grid_cache(self) -> None:
        """Start a new topology level's tile scope.

        Called by the flow once per level, so tiles cached by
        ``route_plan``'s provider (H-structure candidate routing) never
        accumulate across levels.
        """
        self._grid_cache.reset()

    def route_plan(self, plan: MergePlan) -> RouteResult | None:
        """Route one prepared merge (None for coincident pairs).

        The single-pair path, which only H-structure pairs take. Maze
        windows come from the router's tile cache (H-structure candidate routing
        re-requests the same window up to three times per pair).
        """
        if plan.coincident:
            return None
        t0 = time.perf_counter()
        try:
            if uses_maze_router(self.options, self.blockages):
                return route_maze(
                    plan.term1,
                    plan.term2,
                    self.library,
                    self.options,
                    self.stage_length,
                    self.blockages,
                    grid_provider=self._grid_cache.provider(),
                )
            return route_profile(
                plan.term1,
                plan.term2,
                self.library,
                self.options,
                self.stage_length,
            )
        finally:
            self.phase_seconds["route"] += time.perf_counter() - t0

    def route_level(
        self, plans: list[MergePlan | None]
    ) -> list[RouteResult | None]:
        """Route a level's plans together through the level router.

        Maze levels run the lockstep window search, the lockstep profile
        expansion and the level-wide finishing kernel over the tile
        cache's level scope (:func:`repro.core.grid_cache.route_level`);
        profile levels route pair by pair. A kernel exception propagates:
        routing is pure, so there is nothing to recover.
        """
        from repro.core.grid_cache import route_level

        t0 = time.perf_counter()
        try:
            return route_level(
                [
                    None
                    if plan is None or plan.coincident
                    else (plan.term1, plan.term2)
                    for plan in plans
                ],
                self.library,
                self.options,
                self.stage_length,
                self.blockages,
                self._grid_cache,
            )
        finally:
            self.phase_seconds["route"] += time.perf_counter() - t0

    def commit(self, plan: MergePlan, route: RouteResult | None) -> TreeNode:
        """Stateful post-route phase: materialize, search, repair.

        This scalar driver (the single-pair path) and the lockstep
        batched scheduler walk the same state machine, so their results
        are bit-identical.
        """
        t0 = time.perf_counter()
        try:
            state = self.commit_prepare(plan, route)
            state.run_scalar()
            return self.commit_finish(state)
        finally:
            self.phase_seconds["commit"] += time.perf_counter() - t0

    def commit_prepare(
        self, plan: MergePlan, route: RouteResult | None
    ) -> PairCommitState:
        """Start one pair's commit: materialize chains, arm the search.

        The returned state machine is ready for probe-driven advancement
        (:class:`~repro.core.batch_commit.BatchCommitScheduler` for a
        topology level, :meth:`PairCommitState.run_scalar` for the
        single-pair path); :meth:`commit_finish` collects the merged root.
        """
        return PairCommitState(self, plan, route)

    def commit_finish(self, state: PairCommitState) -> TreeNode:
        """Collect the merged root of a finished commit state machine."""
        return state.finish()

    def _merge_coincident(self, root1: TreeNode, root2: TreeNode) -> TreeNode:
        merge = make_merge(root1.location)
        merge.attach(root1, 0.0)
        merge.attach(root2, 0.0)
        return self._maybe_force_stage_buffer(merge)

    def _balance(
        self, root1: TreeNode, root2: TreeNode
    ) -> tuple[TreeNode, TreeNode, float | None]:
        """Wire-snake above the faster root when routing cannot absorb the
        delay difference (Sec. 4.2.1).

        Returns the (possibly re-rooted) sides and the added snake delay
        (``None`` when no snaking happened). Stats are deferred to the
        pair's commit finish via the plan — see :class:`MergePlan`.
        """
        if not self.options.enable_balance:
            return root1, root2, None
        b1 = self.subtree_bounds(root1)
        b2 = self.subtree_bounds(root2)
        dist = root1.location.manhattan_to(root2.location)
        absorbable = self.options.balance_headroom * self._delay_per_unit * dist
        diff = b1.max_delay - b2.max_delay
        shortfall = abs(diff) - absorbable
        if shortfall <= 0:
            return root1, root2, None
        fast = root2 if diff > 0 else root1
        result = snake_delay(
            fast,
            shortfall,
            self.library,
            self.buffers,
            self.options,
            self.root_stage_cap(fast),
        )
        added = result.added_delay if result.n_buffers else None
        if diff > 0:
            return root1, result.new_root, added
        return result.new_root, root2, added

    def route_trunk(self, root: TreeNode, source_point: Point) -> tuple[TreeNode, float]:
        """Buffered path from the final tree root to the clock source.

        The source usually does not coincide with the last merge; the
        trunk is routed with the same slew-driven buffer insertion as any
        merge path. Returns the new network root (chain top) and the wire
        length of its connection to the source.
        """
        dist = root.location.manhattan_to(source_point)
        if dist <= 1e-9:
            return root, 0.0
        term = self.terminal_for(root)
        pitch, n_cells = choose_pitch(dist, self.options, self.stage_length)
        if self.blockages:
            from repro.core.maze_router import blocked_path

            margin = max(1.0, n_cells * self.options.routing_margin_ratio) * pitch
            path = blocked_path(
                root.location, source_point, pitch, self.blockages, margin
            )
        else:
            path = l_path(root.location, source_point)
        k = max(1, int(round(path.length / pitch)))
        tables = SegmentTables(self.library, pitch, k + 1, self.options.target_slew)
        builder = PathBuilder(
            tables,
            term.base_delay,
            term.load_name,
            self.options.target_slew,
            self.library.buffer_names,
            self._virtual,
            self.options.sizing_lookahead,
        )
        routed = RoutedPath(term, path, builder.state(k), pitch)
        top, arc = self._materialize_chain(routed)
        remaining = max(path.length - arc, source_point.manhattan_to(top.location))
        return top, remaining

    # ------------------------------------------------------------------
    # Materialization and commit
    # ------------------------------------------------------------------

    def _materialize_chain(self, routed: RoutedPath) -> tuple[TreeNode, float]:
        """Create the buffer chain of one routed side.

        Returns the topmost node (the "last fixed node") and its arc
        position along the routed polyline.
        """
        node = routed.terminal.node
        arc_prev = 0.0
        for placed in routed.state.buffers:
            arc = min(placed.steps * routed.step, routed.polyline.length)
            point = routed.polyline.point_at_length(arc)
            buf = make_buffer(point, self.buffers[placed.type_name])
            wire = max(arc - arc_prev, node.location.manhattan_to(point))
            buf.attach(node, wire)
            node = buf
            arc_prev = arc
            self.stats.n_route_buffers += 1
        return node, arc_prev

    # ------------------------------------------------------------------
    # Slew repair and stage-size control
    # ------------------------------------------------------------------

    def _snake_residual(
        self, v1: TreeNode, v2: TreeNode, residual: float
    ) -> tuple[TreeNode, TreeNode, float | None]:
        """Wire-snake away residual imbalance a pinned search left behind.

        Returns the (possibly re-rooted) side nodes plus the added snake
        delay, or ``None`` when snaking was skipped (shortfall below one
        buffer increment). Stats are NOT updated here — the commit state
        machine defers them to its finish so the floating-point
        accumulation order stays pair-ordered (and hence bit-identical)
        no matter how the lockstep scheduler interleaves pairs.
        """
        fast = v2 if residual > 0 else v1
        snaked = snake_delay(
            fast,
            abs(residual),
            self.library,
            self.buffers,
            self.options,
            self.engine._load_cap_of(fast),
        )
        if not snaked.n_buffers:
            return v1, v2, None
        if residual > 0:
            return v1, snaked.new_root, snaked.added_delay
        return snaked.new_root, v2, snaked.added_delay

    def _worst_slew_side(
        self, merge: TreeNode, branch_left: float, branch_right: float
    ) -> TreeNode | None:
        """The child whose branch slew violates the target worst, if any.

        ``branch_left``/``branch_right`` are the library's branch-slew
        answers for the merge's current children (evaluated by the scalar
        or the batched driver); wires beyond the fits' trained length
        range are violations by fiat (the clamped fit would be silently
        optimistic there).
        """
        target = self.options.target_slew
        left, right = merge.children
        left_slew = (
            float("inf") if left.wire_to_parent > self._branch_hi else branch_left
        )
        right_slew = (
            float("inf")
            if right.wire_to_parent > self._branch_hi
            else branch_right
        )
        worst_side = None
        if left_slew > target:
            worst_side = left
        if right_slew > target and (worst_side is None or right_slew > left_slew):
            worst_side = right
        return worst_side

    def _split_wire(self, merge: TreeNode, child: TreeNode) -> bool:
        """Insert a buffer into the wire merge->child (intelligent sizing)."""
        total = child.wire_to_parent
        load_cap = self.engine._load_cap_of(child)
        load_name = (
            child.buffer.name
            if child.kind is NodeKind.BUFFER
            else self.library.load_name_for_cap(load_cap)
        )
        target = self.options.target_slew
        best: tuple[float, str] | None = None  # (length from child, type)
        for name in self.library.buffer_names:
            lo, hi = 0.0, total
            for _ in range(24):
                mid = (lo + hi) / 2.0
                slew = self.library.single_wire_slew(name, load_name, target, mid)
                if slew <= target:
                    lo = mid
                else:
                    hi = mid
            if best is None or lo > best[0]:
                best = (lo, name)
        length, type_name = best
        length = min(length, total)
        if length < 0.25 * total:
            length = 0.5 * total  # guarantee progress even when imperfect
        frac = length / total if total > 0 else 0.0
        point = self._nudge_off_blockages(
            child.location.lerp(merge.location, frac)
        )
        child.detach()
        buf = make_buffer(point, self.buffers[type_name])
        buf.attach(child, max(length, point.manhattan_to(child.location)))
        merge.attach(buf, max(total - length, merge.location.manhattan_to(point)))
        self.stats.n_corrective_buffers += 1
        return True

    def _nudge_off_blockages(self, point: Point) -> Point:
        """Move a tentative buffer location just outside any blockage.

        Corrective buffers are positioned by interpolation between merge
        and child; with blockages the interpolated point can land inside
        a macro, so it is projected to the nearest blockage edge.
        """
        if self._blockage_xmin is None:
            return point
        # Vectorized any-contains pre-gate (same inclusive bounds as
        # ``BBox.contains``): almost every candidate point is outside
        # every macro, and the sequential projection loop below — whose
        # per-region order matters once a point moves — only runs on a
        # hit, with identical results.
        inside = (
            (self._blockage_xmin <= point.x)
            & (point.x <= self._blockage_xmax)
            & (self._blockage_ymin <= point.y)
            & (point.y <= self._blockage_ymax)
        )
        if not inside.any():
            return point
        for region in self.blockages:
            if region.contains(point):
                candidates = [
                    Point(region.xmin - 1.0, point.y),
                    Point(region.xmax + 1.0, point.y),
                    Point(point.x, region.ymin - 1.0),
                    Point(point.x, region.ymax + 1.0),
                ]
                point = min(candidates, key=lambda c: c.manhattan_to(point))
        return point

    def _maybe_force_stage_buffer(self, merge: TreeNode) -> TreeNode:
        """Keep merges library-shaped by buffering large collapsed stages.

        The characterized library models loads as buffer-gate-sized
        capacitances; a merge whose collapsed unbuffered capacitance
        exceeds ``max_unbuffered_cap_ratio`` times the largest buffer's
        input cap would be invisible to those fits, so it gets a buffer
        directly above it (sized via the branch fits).
        """
        cap = self.root_stage_cap(merge)
        if cap <= self.max_stage_cap:
            return merge
        buf = make_buffer(merge.location, self._choose_stage_driver(merge))
        buf.attach(merge, 0.0)
        self.stats.n_forced_stage_buffers += 1
        return buf

    def _apply_stage_driver(
        self, merge: TreeNode, driver: BufferType | None
    ) -> TreeNode:
        """Apply a batched stage-driver decision (see
        :meth:`repro.core.soa_tree.SoaTree.stage_drivers`): None keeps
        the merge bare, otherwise the chosen buffer goes directly above
        it — the same surgery and stats ``_maybe_force_stage_buffer``
        performs inline."""
        if driver is None:
            return merge
        buf = make_buffer(merge.location, driver)
        buf.attach(merge, 0.0)
        self.stats.n_forced_stage_buffers += 1
        return buf

    def _choose_stage_driver(self, merge: TreeNode) -> BufferType:
        """Smallest buffer that keeps both branch slews within target."""
        target = self.options.target_slew
        left, right = merge.children
        cap_l = self.engine._load_cap_of(left)
        cap_r = self.engine._load_cap_of(right)
        for name in self.library.buffer_names:
            left_slew, right_slew = self.library.branch_slews(
                name,
                target,
                0.0,
                left.wire_to_parent,
                right.wire_to_parent,
                cap_l,
                cap_r,
            )
            if left_slew <= target and right_slew <= target:
                return self.buffers[name]
        return self.buffers[self.library.buffer_names[-1]]
