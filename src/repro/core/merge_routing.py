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
(:class:`repro.core.batch_commit.PairCommitState`). Every machine ends
parked on its stage decision, which :meth:`MergeRouter.stage_drivers`
answers for a whole batch of merges at once.
:meth:`MergeRouter.merge_batch` is the path synthesis takes, for plain
and H-structure pairs alike: it prepares a batch of pairs in order,
routes them at once (:meth:`MergeRouter.route_level`) and advances all
their machines in lockstep through the batched scheduler
(:class:`repro.core.batch_commit.BatchCommitScheduler`), answering each
step's probes with one vectorized library round.
:meth:`MergeRouter.merge` is the single-pair path (per-pair
:meth:`~MergeRouter.route_plan`, scalar :meth:`~MergeRouter.commit`) that
tests and the pair-by-pair reference engine drive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.balance import snake_delay
from repro.core.batch_commit import (
    BatchCommitScheduler,
    CommitQueryStats,
    PairCommitState,
)
from repro.core.maze_router import route_maze
from repro.core.options import CTSOptions
from repro.core.profile_router import route_profile
from repro.core.routing_common import (
    ROUTING_MARGIN_RATIO,
    TARGET_CELLS_PER_STAGE,
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
from repro.tree.nodes import (
    NodeKind,
    TreeNode,
    make_buffer,
    make_merge,
    peek_node_id,
)

#: Balance snakes only the delay difference beyond this fraction of what
#: the routed path between the roots can absorb.
BALANCE_HEADROOM = 0.9

#: A merge whose collapsed stage cap exceeds this many times the largest
#: buffer's input cap gets a buffer above it, so every stage load stays
#: within the library's characterized range.
MAX_UNBUFFERED_CAP_RATIO = 2.0

#: Below this many merges needing a stage driver (and in tail rounds of
#: fewer than four times as many), :meth:`MergeRouter.stage_drivers`
#: answers with the scalar ``branch_slews`` evaluator — numpy dispatch
#: on tiny batches costs more (results are bit-identical either way).
_SCALAR_DRIVER_ROWS = 4


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


@dataclass
class BatchedMerge:
    """One merge of a :meth:`MergeRouter.merge_batch` batch.

    The commit has run but not finished: :meth:`MergeRouter.commit_finish`
    applies the merge's deferred snake stats, so the caller finishes its
    merges in serial order. ``spans`` lists the node-id ranges the merge
    consumed, in its own creation order (prepare, chain materialization,
    then each node-creating commit step).
    """

    state: PairCommitState
    spans: list[tuple[int, int]]

    @property
    def root(self) -> TreeNode:
        return self.state.root


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
        self._virtual = library.buffer_names[-1]
        self.max_stage_cap = MAX_UNBUFFERED_CAP_RATIO * library.input_cap(
            self._virtual
        )
        # Branch fits clamp beyond their trained length range and would be
        # silently optimistic there; such wires are violations by fiat.
        self._branch_hi = float(
            library.branch[self._virtual]["left_slew"].hi[2]
        ) * 1.001
        #: Commit-phase query totals (scalar and batched drivers).
        self.commit_queries = CommitQueryStats()
        #: The lockstep committer of :meth:`merge_batch`.
        self.scheduler = BatchCommitScheduler(self)
        #: Window, expansion and route-finishing counters of the routers.
        from repro.core.grid_cache import SharingStats

        self.route_sharing = SharingStats()
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

    def subtree_bounds(self, roots: list[TreeNode]) -> list[SubtreeBounds]:
        """Delay bounds of sub-trees under the slew-target assumption.

        One batched pass over a whole list of roots
        (:meth:`~repro.timing.analysis.LibraryTimingEngine.subtree_bounds_many`):
        synthesis calls it once for the sinks and once per level for the
        level's new roots. Every bucket it stores is a function of its
        key alone, so later scalar reads of the same roots
        (``engine.subtree_bounds(root, target_slew)``) hit the table and
        return the same values.
        """
        slews = np.full(len(roots), self.options.target_slew)
        mins, maxes, worsts = self.engine.subtree_bounds_many(roots, slews)
        return list(
            map(SubtreeBounds, mins.tolist(), maxes.tolist(), worsts.tolist())
        )

    def root_stage_cap(self, root: TreeNode) -> float:
        return self.engine._load_cap_of(root)

    def terminal_for(self, root: TreeNode) -> RouteTerminal:
        bounds = self.engine.subtree_bounds(root, self.options.target_slew)
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
        pitch = self.stage_length / TARGET_CELLS_PER_STAGE
        k = 4 * TARGET_CELLS_PER_STAGE
        tables = SegmentTables(self.library, pitch, k + 1, self.options.target_slew)
        builder = PathBuilder(
            tables,
            0.0,
            self._virtual,
            self.options.target_slew,
            self.library.buffer_names,
            self._virtual,
        )
        return builder.state(k).delay / (k * pitch)

    # ------------------------------------------------------------------
    # The merge itself
    # ------------------------------------------------------------------

    def merge(self, root1: TreeNode, root2: TreeNode) -> TreeNode:
        """Merge two sub-trees and return the new root node.

        The single-pair path: one prepare, route and scalar commit. The
        synthesis flow merges through :meth:`merge_batch` instead.
        """
        plan = self.prepare(root1, root2)
        return self.commit(plan, self.route_plan(plan))

    def merge_batch(
        self, sides: list[tuple[TreeNode, TreeNode]]
    ) -> list[BatchedMerge]:
        """Merge a batch of sub-tree pairs through the level pipeline.

        Prepare in order, route the batch at once through
        :meth:`route_level`, then commit it in lockstep through
        :attr:`scheduler`. Every merge records its own id spans;
        finishing is left to the caller (see :class:`BatchedMerge`).
        """
        plans: list[MergePlan] = []
        spans: list[list[tuple[int, int]]] = []
        for root1, root2 in sides:
            start = peek_node_id()
            plans.append(self.prepare(root1, root2))
            spans.append([(start, peek_node_id())])
        routes = self.route_level(plans)
        states: list[PairCommitState] = []
        for plan, route, merge_spans in zip(plans, routes, spans):
            start = peek_node_id()
            states.append(self.commit_prepare(plan, route))
            end = peek_node_id()
            if end > start:
                merge_spans.append((start, end))
        self.scheduler.run(states, spans)
        return [
            BatchedMerge(state, merge_spans)
            for state, merge_spans in zip(states, spans)
        ]

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

    def route_plan(self, plan: MergePlan) -> RouteResult | None:
        """Route one prepared merge (None for coincident pairs).

        The single-pair path of :meth:`merge`; synthesis routes every
        merge through :meth:`route_level`. Maze windows are counted in
        :attr:`route_sharing`.
        """
        if plan.coincident:
            return None
        if uses_maze_router(self.options, self.blockages):
            return route_maze(
                plan.term1,
                plan.term2,
                self.library,
                self.options,
                self.stage_length,
                self.blockages,
                stats=self.route_sharing,
            )
        return route_profile(
            plan.term1,
            plan.term2,
            self.library,
            self.options,
            self.stage_length,
        )

    def route_level(
        self, plans: list[MergePlan | None]
    ) -> list[RouteResult | None]:
        """Route a level's plans together through the level router.

        Maze levels run each pair's window search, the lockstep profile
        expansion and the level-wide finishing kernel
        (:func:`repro.core.grid_cache.route_level`);
        obstacle-free levels run the lockstep profile expansion and one
        segmented ranking pass per slice
        (:func:`repro.core.profile_router.route_profile_level`). A kernel
        exception propagates: routing is pure, so there is nothing to
        recover.
        """
        from repro.core.grid_cache import route_level

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
            self.route_sharing,
        )

    def commit(self, plan: MergePlan, route: RouteResult | None) -> TreeNode:
        """Stateful post-route phase: materialize, search, repair, stage.

        This scalar driver (the single-pair path of :meth:`merge`) and
        the lockstep batched scheduler walk the same state machine, so
        their results are bit-identical.
        """
        state = self.commit_prepare(plan, route)
        state.run_scalar()
        return self.commit_finish(state)

    def commit_prepare(
        self, plan: MergePlan, route: RouteResult | None
    ) -> PairCommitState:
        """Start one pair's commit: materialize chains, arm the search.

        The returned state machine is ready for probe-driven advancement
        (:class:`~repro.core.batch_commit.BatchCommitScheduler` for a
        :meth:`merge_batch` batch, :meth:`PairCommitState.run_scalar` for
        the single-pair path); :meth:`commit_finish` collects the merged
        root.
        """
        return PairCommitState(self, plan, route)

    def commit_finish(self, state: PairCommitState) -> TreeNode:
        """Collect the merged root of a finished commit state machine."""
        return state.finish()

    def _merge_coincident(self, root1: TreeNode, root2: TreeNode) -> TreeNode:
        """The bare merge of two coincident roots (its stage decision is
        :meth:`stage_drivers`', as for every merge)."""
        merge = make_merge(root1.location)
        merge.attach(root1, 0.0)
        merge.attach(root2, 0.0)
        return merge

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
        target = self.options.target_slew
        b1 = self.engine.subtree_bounds(root1, target)
        b2 = self.engine.subtree_bounds(root2, target)
        dist = root1.location.manhattan_to(root2.location)
        absorbable = BALANCE_HEADROOM * self._delay_per_unit * dist
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

            margin = max(1.0, n_cells * ROUTING_MARGIN_RATIO) * pitch
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

    def stage_drivers(self, merges: list[TreeNode]) -> list[BufferType | None]:
        """Keep merges library-shaped by buffering large collapsed stages.

        The characterized library models loads as buffer-gate-sized
        capacitances; a merge whose collapsed unbuffered capacitance
        exceeds :data:`MAX_UNBUFFERED_CAP_RATIO` times the largest
        buffer's input cap would be invisible to those fits, so it gets
        a buffer directly above it. Returns, per merge, that buffer
        (:meth:`_choose_stage_driver`'s choice) or None.

        Fewer than :data:`_SCALAR_DRIVER_ROWS` such merges take
        :meth:`_choose_stage_driver` itself; more resolve in lockstep
        ``branch_slews_many`` rounds, one per buffer name over the
        still-unresolved merges, which evaluates exactly the (name,
        merge) pairs the scalar loop would.
        """
        engine = self.engine
        drivers: list[BufferType | None] = [None] * len(merges)
        need = [
            k
            for k, merge in enumerate(merges)
            if engine._load_cap_of(merge) > self.max_stage_cap
        ]
        if len(need) < _SCALAR_DRIVER_ROWS:
            for k in need:
                drivers[k] = self._choose_stage_driver(merges[k])
            return drivers
        target = self.options.target_slew
        n = len(need)
        l_lens = np.empty(n)
        r_lens = np.empty(n)
        l_caps = np.empty(n)
        r_caps = np.empty(n)
        for j, k in enumerate(need):
            left, right = merges[k].children
            l_lens[j] = left.wire_to_parent
            r_lens[j] = right.wire_to_parent
            l_caps[j] = engine._load_cap_of(left)
            r_caps[j] = engine._load_cap_of(right)
        names = self.library.buffer_names
        remaining = np.arange(n)
        for name in names:
            if not remaining.size:
                break
            if remaining.size < _SCALAR_DRIVER_ROWS * 4:
                # Tail subsets (merges the earlier names rejected) are a
                # handful of rows; the compiled scalar fits beat numpy
                # dispatch there with bit-identical values.
                ok_rows = []
                for j in remaining.tolist():
                    l_slew, r_slew = self.library.branch_slews(
                        name, target, 0.0,
                        l_lens[j], r_lens[j], l_caps[j], r_caps[j],
                    )
                    ok_rows.append(l_slew <= target and r_slew <= target)
                ok = np.asarray(ok_rows, dtype=bool)
            else:
                l_slews, r_slews = self.library.branch_slews_many(
                    name,
                    target,
                    0.0,
                    l_lens[remaining],
                    r_lens[remaining],
                    l_caps[remaining],
                    r_caps[remaining],
                )
                ok = (l_slews <= target) & (r_slews <= target)
            for j in remaining[ok].tolist():
                drivers[need[j]] = self.buffers[name]
            remaining = remaining[~ok]
        fallback = self.buffers[names[-1]]
        for j in remaining.tolist():
            drivers[need[j]] = fallback
        return drivers

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
