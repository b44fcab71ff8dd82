"""Lockstep batched commit phase: one vectorized library round per step.

PR 2 took the route phase off the critical path; what remained serial was
the commit phase's library timing queries — per pair, up to five rounds of
bisection (``MergeSearchState``) plus slew-repair checks, each a handful
of Horner-evaluated polynomial fits issued one at a time. Those queries
are independent across the merge pairs of a topology level given the
routed spans, so this module advances every pair of a level **in
lockstep**: each scheduler round collects the single probe (or probe
pair) every active merge is waiting on, answers all "diff" probes with
one batched branch-component evaluation plus one batched subtree-bounds
lookup, all "slews" probes with one batched branch-slews evaluation, and
scatters the results back before advancing the pairs in pair order.

Bit-identity with the scalar flow rests on three facts:

- ``PolynomialFit.predict_many`` performs the scalar evaluator's float
  operations element-wise, so each probe row's answer equals the scalar
  call's answer bit for bit;
- the timing engine's memoized bounds are exact functions of their cache
  key (bucket-representative evaluation + interpolation), so the
  interleaved cache fill order cannot change any value;
- pairs advance in pair order and every node-creating advance records
  the id span it consumed, so the level is renumbered into serial
  creation order afterwards (the PR 2 machinery, now with as many spans
  per pair as the pair had node-creating steps).

``PairCommitState`` is the single implementation of the commit loop:
the single-pair path (``MergeRouter.commit``, which H-structure merges
take) drives it probe by probe, every topology level drives its
machines through ``BatchCommitScheduler``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.binary_search import MergeSearchState, evaluate_probe
from repro.geom.segment import PathPolyline
from repro.tree.nodes import TreeNode, make_merge, peek_node_id

#: Search/repair/re-balance rounds per merge (the seed's fixed loop sizes).
MAX_COMMIT_ROUNDS = 5
MAX_REPAIR_ROUNDS = 8

#: Lockstep rounds with fewer probe rows than this answer them scalar —
#: below it, numpy dispatch on tiny arrays costs more than the compiled
#: scalar evaluators (results are bit-identical either way). The long
#: single-pair tail of a level (slew-window clamps run 18 sequential
#: rounds) stays cheap while the wide early rounds vectorize.
SCALAR_ROUND_ROWS = 32


@dataclass
class CommitQueryStats:
    """Commit-phase library-query totals, split by probe purpose.

    Probe-row counters are mode-independent (the scalar and batched
    drivers issue identical probe sequences); the ``batched_*`` counters
    are only advanced by the lockstep scheduler.
    """

    search_probes: int = 0  # split evaluations (bracket/bisect/final)
    clamp_probes: int = 0  # slew-window probes of the clamp stage
    repair_probes: int = 0  # branch-slew checks of corrective insertion
    reused_checks: int = 0  # checks answered from already-evaluated values
    batched_rounds: int = 0  # lockstep rounds answered vectorized
    batched_rows: int = 0  # probe rows across those rounds

    @property
    def total_probes(self) -> int:
        return self.search_probes + self.clamp_probes + self.repair_probes

    @property
    def mean_batch_rows(self) -> float:
        if not self.batched_rounds:
            return 0.0
        return self.batched_rows / self.batched_rounds

    def as_dict(self) -> dict:
        return {
            "search_probes": self.search_probes,
            "clamp_probes": self.clamp_probes,
            "repair_probes": self.repair_probes,
            "reused_checks": self.reused_checks,
            "batched_rounds": self.batched_rounds,
            "batched_rows": self.batched_rows,
            "mean_batch_rows": self.mean_batch_rows,
        }


class CommitProbe(NamedTuple):
    """One pending library evaluation of a commit state machine.

    ``kind`` is ``"diff"`` (answered with the ``(difference, left slew,
    right slew)`` triple of the split; needs the side nodes for subtree
    bounds) or ``"slews"`` (answered with the branch-slew pair).
    """

    kind: str
    left_length: float
    right_length: float
    cap_left: float
    cap_right: float
    left_node: TreeNode | None = None
    right_node: TreeNode | None = None


class PairCommitState:
    """Resumable commit of one merge pair: search -> repair -> finalize.

    Reproduces the serial commit loop exactly — corrective insertion
    (slew repair) changes one side's delay after the balance was found,
    so search, repair and re-balance iterate up to
    :data:`MAX_COMMIT_ROUNDS` times; residual imbalance that the span
    cannot absorb (search pinned at an extreme) is wire-snaked away.
    Construction materializes the routed buffer chains (node-creating);
    every subsequent node-creating step happens inside :meth:`advance`.
    """

    def __init__(self, router, plan, route) -> None:
        self.router = router
        self.root: TreeNode | None = None
        self.merge: TreeNode | None = None
        self.phase = "done"
        # Snake diagnostics (the prepare phase's via the plan, the commit
        # phase's accumulated here) are applied to the router stats at
        # finish — pair order in every mode — so the float sum does not
        # depend on how the lockstep scheduler interleaves pairs.
        self._n_snaked = plan.n_snaked
        self._snaked_delay = plan.snaked_delay
        self._finished = False
        #: Set by the lockstep scheduler when a SoA mirror is installed:
        #: park in phase "stage" instead of forcing the stage buffer
        #: inline, so a whole round's forced-stage decisions batch
        #: through the SoA kernel. The pair's node-creating order is
        #: unchanged — the stage buffer is always its last created node —
        #: so the serial renumbering sees identical per-pair span
        #: sequences.
        self.defer_stage = False
        self._pending_stage_merge: TreeNode | None = None
        if plan.coincident:
            self.root = router._merge_coincident(plan.root1, plan.root2)
            return
        self.v1, arc1 = router._materialize_chain(route.left)
        self.v2, arc2 = router._materialize_chain(route.right)
        self.span = route.left.polyline.subpath(
            arc1, route.left.polyline.length
        ).concat(
            route.right.polyline.subpath(
                arc2, route.right.polyline.length
            ).reversed()
        )
        self.round_idx = 0
        self._repair_inserted = 0
        self._repair_rounds = 0
        self._begin_search()

    @property
    def done(self) -> bool:
        return self.phase == "done"

    # ------------------------------------------------------------------

    def _begin_search(self) -> None:
        router = self.router
        options = router.options
        self.cap1 = router.engine._load_cap_of(self.v1)
        self.cap2 = router.engine._load_cap_of(self.v2)
        self.search = MergeSearchState(
            self.span.length,
            options.binary_search_iters,
            options.binary_search_tol,
            options.enable_binary_search,
            slew_target=options.target_slew,
        )
        self.phase = "search"

    def requests(self) -> list[CommitProbe]:
        """The probes to answer before the next :meth:`advance`.

        Call exactly once per round — probe-row counters are advanced
        here so the scalar and batched drivers account identically.
        """
        stats = self.router.commit_queries
        if self.phase == "search":
            total = self.span.length
            probes = []
            for request in self.search.requests():
                left_length = request.ratio * total
                right_length = (1.0 - request.ratio) * total
                if request.kind == "diff":
                    stats.search_probes += 1
                    probes.append(
                        CommitProbe(
                            "diff",
                            left_length,
                            right_length,
                            self.cap1,
                            self.cap2,
                            self.v1,
                            self.v2,
                        )
                    )
                else:
                    stats.clamp_probes += 1
                    probes.append(
                        CommitProbe(
                            "slews", left_length, right_length, self.cap1, self.cap2
                        )
                    )
            return probes
        if self.phase == "repair":
            left, right = self.merge.children
            engine = self.router.engine
            stats.repair_probes += 1
            return [
                CommitProbe(
                    "slews",
                    left.wire_to_parent,
                    right.wire_to_parent,
                    engine._load_cap_of(left),
                    engine._load_cap_of(right),
                )
            ]
        return []

    def advance(self, results: list) -> None:
        """Consume probe results (aligned with the last :meth:`requests`)."""
        if self.phase == "search":
            self.search.advance(results)
            if self.search.done:
                self._on_search_done()
        elif self.phase == "repair":
            self._on_repair_probe(results[0])

    # ------------------------------------------------------------------

    def _on_search_done(self) -> None:
        router = self.router
        position = self.search.position(self.span)
        router.stats.binary_search_iters += position.iterations
        residual = position.delay_difference
        pinned = position.ratio <= 1e-9 or position.ratio >= 1.0 - 1e-9
        if (
            self.round_idx < MAX_COMMIT_ROUNDS - 1
            and pinned
            and router.options.enable_balance
            and abs(residual) > 2.0e-12
        ):
            v1, v2, added_delay = router._snake_residual(
                self.v1, self.v2, residual
            )
            if added_delay is not None:
                self._n_snaked += 1
                self._snaked_delay += added_delay
                self.v1, self.v2 = v1, v2
                self.round_idx += 1
                self._begin_search()
                return
        # Re-balanced spans are straight lines that can cut through a
        # blockage; keep the merge node itself outside any macro.
        merge = make_merge(router._nudge_off_blockages(position.location))
        merge.attach(
            self.v1,
            max(
                position.left_length,
                merge.location.manhattan_to(self.v1.location),
            ),
        )
        merge.attach(
            self.v2,
            max(
                position.right_length,
                merge.location.manhattan_to(self.v2.location),
            ),
        )
        self.merge = merge
        self._repair_inserted = 0
        self._repair_rounds = 0
        self.phase = "repair"
        # First repair check reuse: when neither wire was stretched to
        # the manhattan distance, the merged branch the repair would
        # probe is exactly the component the search's accepted ratio
        # evaluated last — same lengths, same (memoized) caps — so the
        # stored slews answer it without a probe round.
        last = self.search.last_eval
        if (
            last is not None
            and last[0] == self.search.ratio
            and merge.children[0].wire_to_parent == position.left_length
            and merge.children[1].wire_to_parent == position.right_length
        ):
            router.commit_queries.reused_checks += 1
            self._on_repair_probe((last[2], last[3]))

    def _on_repair_probe(self, slews: tuple[float, float]) -> None:
        """One slew-repair round: check the merged branch, maybe insert.

        Routing checked each side as a single-wire component; the merged
        stage is a branch component whose shared driver sees both sides'
        load, so slews can degrade past the target. Violating sides get a
        buffer spliced into their final wire until the check passes or
        :data:`MAX_REPAIR_ROUNDS` insertions were made.
        """
        router = self.router
        branch_left, branch_right = slews
        worst = router._worst_slew_side(self.merge, branch_left, branch_right)
        if worst is not None and router._split_wire(self.merge, worst):
            self._repair_inserted += 1
            self._repair_rounds += 1
            if self._repair_rounds < MAX_REPAIR_ROUNDS:
                return
        self._finish_repair()

    def _finish_repair(self) -> None:
        router = self.router
        if not self._repair_inserted or self.round_idx == MAX_COMMIT_ROUNDS - 1:
            if self.defer_stage:
                self._pending_stage_merge = self.merge
                self.merge = None
                self.phase = "stage"
                return
            self.root = router._maybe_force_stage_buffer(self.merge)
            self.merge = None
            self.phase = "done"
            return
        # Re-balance between the new fixed nodes (corrective buffers or
        # the originals); the old merge node is discarded.
        new_v1, new_v2 = self.merge.children
        self.v1 = new_v1.detach()
        self.v2 = new_v2.detach()
        mid = self.merge.location
        points = [self.v1.location]
        if mid != self.v1.location and mid != self.v2.location:
            points.append(mid)
        points.append(self.v2.location)
        self.span = PathPolyline(points)
        self.merge = None
        self.round_idx += 1
        self._begin_search()

    # ------------------------------------------------------------------

    def _evaluate_scalar(self, probe: CommitProbe):
        """Answer one probe with the scalar library calls the seed made."""
        router = self.router
        return evaluate_probe(
            router.engine,
            router._virtual,
            router.options.target_slew,
            probe.kind,
            probe.left_node,
            probe.right_node,
            probe.left_length,
            probe.right_length,
            (probe.cap_left, probe.cap_right),
        )

    def run_scalar(self) -> None:
        """Drive this machine to completion with scalar probes."""
        while not self.done:
            self.advance([self._evaluate_scalar(p) for p in self.requests()])

    def finish(self) -> TreeNode:
        if not self.done:
            raise RuntimeError("commit state machine is not finished")
        if not self._finished:
            self._finished = True
            self.router.stats.n_snaked += self._n_snaked
            self.router.stats.snaked_delay += self._snaked_delay
        return self.root


class BatchCommitScheduler:
    """Advance a level's commit state machines in lockstep.

    Each round: gather every active pair's pending probes, answer all
    "diff" rows with one vectorized branch-component evaluation plus one
    grouped subtree-bounds lookup, all "slews" rows with one vectorized
    branch-slews evaluation (rounds under :data:`SCALAR_ROUND_ROWS` rows
    answer scalar), then advance the machines in pair order.
    Node-creating advances record the id span they consumed into
    ``spans`` so the caller can renumber the level into serial creation
    order. A kernel exception propagates: there is no fallback path.
    """

    def __init__(self, router) -> None:
        self.router = router

    def run(
        self,
        states: list[PairCommitState],
        spans: list[list[tuple[int, int]]],
    ) -> None:
        router = self.router
        stats = router.commit_queries
        drive = router._virtual
        input_slew = router.options.target_slew
        soa = router.engine._soa
        if soa is not None:
            # Stage-buffer forcing parks in phase "stage" and resolves
            # level-wide through the SoA kernel after each advance round.
            # The deferral regroups actual creation order across pairs,
            # which the serial renumbering undoes.
            for state in states:
                state.defer_stage = True
        active = [i for i, state in enumerate(states) if not state.done]
        while active:
            gathered: list[tuple[int, list[CommitProbe]]] = []
            diff_rows: list[tuple[int, int, CommitProbe]] = []
            slew_rows: list[tuple[int, int, CommitProbe]] = []
            for i in active:
                probes = states[i].requests()
                gathered.append((i, probes))
                for slot, probe in enumerate(probes):
                    row = (i, slot, probe)
                    if probe.kind == "diff":
                        diff_rows.append(row)
                    else:
                        slew_rows.append(row)
            results = {i: [None] * len(probes) for i, probes in gathered}
            n_rows = len(diff_rows) + len(slew_rows)
            if n_rows >= SCALAR_ROUND_ROWS:
                if diff_rows:
                    self._answer_diff_rows(diff_rows, results, drive, input_slew)
                if slew_rows:
                    self._answer_slew_rows(slew_rows, results, drive, input_slew)
                stats.batched_rounds += 1
                stats.batched_rows += n_rows
            else:
                for i, slot, probe in diff_rows + slew_rows:
                    results[i][slot] = states[i]._evaluate_scalar(probe)
            for i, __ in gathered:
                start = peek_node_id()
                states[i].advance(results[i])
                end = peek_node_id()
                if end > start:
                    spans[i].append((start, end))
            staged = [i for i, __ in gathered if states[i].phase == "stage"]
            if staged:
                self._finish_stage_states(states, staged, spans)
            active = [i for i, __ in gathered if not states[i].done]

    def _finish_stage_states(self, states, staged, spans) -> None:
        """Resolve a round's parked stage-buffer decisions level-wide.

        One batched :meth:`~repro.core.soa_tree.SoaTree.stage_drivers`
        call decides every parked merge; application (node creation,
        stats, span recording) stays in pair order, so the per-pair
        creation sequence — and therefore the serial renumbering —
        is exactly the inline flow's.
        """
        router = self.router
        merges = [states[i]._pending_stage_merge for i in staged]
        drivers = router.engine._soa.stage_drivers(router, merges)
        for pos, i in enumerate(staged):
            state = states[i]
            state._pending_stage_merge = None
            start = peek_node_id()
            state.root = router._apply_stage_driver(merges[pos], drivers[pos])
            end = peek_node_id()
            if end > start:
                spans[i].append((start, end))
            state.phase = "done"

    # ------------------------------------------------------------------

    @staticmethod
    def _row_inputs(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(rows)
        left_lengths = np.empty(n)
        right_lengths = np.empty(n)
        left_caps = np.empty(n)
        right_caps = np.empty(n)
        for k, (__, __, probe) in enumerate(rows):
            left_lengths[k] = probe.left_length
            right_lengths[k] = probe.right_length
            left_caps[k] = probe.cap_left
            right_caps[k] = probe.cap_right
        return left_lengths, right_lengths, left_caps, right_caps

    def _answer_diff_rows(self, rows, results, drive, input_slew) -> None:
        """One vectorized split evaluation for every pending diff probe.

        The scalar path's per-probe float ops are reproduced exactly: the
        four needed branch fits evaluate batched (bit-identical rows),
        the per-side bounds come from the engine's key-deterministic
        caches, and the final delay difference is composed per row with
        the same scalar additions ``evaluate_split`` performs.
        """
        router = self.router
        batch = router.library.branch_component_many(
            drive, input_slew, 0.0, *self._row_inputs(rows)
        )
        items: list[tuple[TreeNode, float]] = []
        for k, (__, __, probe) in enumerate(rows):
            items.append((probe.left_node, float(batch.left_slew[k])))
            items.append((probe.right_node, float(batch.right_slew[k])))
        bounds = router.engine.subtree_bounds_many(items)
        for k, (i, slot, __) in enumerate(rows):
            left_slew = items[2 * k][1]
            right_slew = items[2 * k + 1][1]
            left_max = float(batch.left_delay[k]) + bounds[2 * k].max_delay
            right_max = float(batch.right_delay[k]) + bounds[2 * k + 1].max_delay
            results[i][slot] = (left_max - right_max, left_slew, right_slew)

    def _answer_slew_rows(self, rows, results, drive, input_slew) -> None:
        left, right = self.router.library.branch_slews_many(
            drive, input_slew, 0.0, *self._row_inputs(rows)
        )
        for k, (i, slot, __) in enumerate(rows):
            results[i][slot] = (float(left[k]), float(right[k]))
