"""Library-driven top-down timing analysis (the paper's engine).

Walks a clock tree stage by stage from the root, propagating *actual*
slews through the characterized delay/slew library: each stage's input
slew is the slew computed at its driver's input, so slew-dependent buffer
intrinsic delay is accounted for — the effect the paper shows breaks
Elmore/moment-based CTS (Sec. 3.1).

During bottom-up synthesis the driver of a sub-tree does not exist yet, so
sub-tree delays are computed under the paper's worst-case assumption: the
(virtual) driver's input slew equals the slew limit (Sec. 4.2.2). These
sub-tree evaluations are memoized per (node, slew-quantization bucket):
once a sub-tree is merged its geometry never changes, and slew changes are
damped after a buffer stage, so the cache hit rate during binary search is
high. Each bucket's value is evaluated at the bucket's *representative*
slew and a query interpolates linearly between its two neighboring
buckets — a cached value is then an exact function of its key and a query
an exact function of (node, raw slew). The lockstep commit scheduler
interleaves queries across merge pairs, and the seed's first-query-wins
memoization would have made results depend on the order the cache fills.

Stage shapes beyond the characterized single-wire / two-branch components
(they are rare under aggressive buffer insertion) are composed recursively:
a nested merge is first treated as a virtual load whose capacitance is the
collapsed downstream stage capacitance, then expanded with a virtual driver
at the merge point using the slew computed there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.tech.technology import Technology
from repro.timing.moments import (
    d2m_delay,
    elmore_slew_peri,
    lognormal_step_slew,
    rc_tree_moments,
)
from repro.timing.rctree import RCTree
from repro.tree.nodes import NodeKind, TreeNode
from repro.tree.stages_map import StagePath, _trace_path, stage_structure

#: Slew quantization for bounds memoization (seconds). Queries interpolate
#: linearly between bucket-representative evaluations, so the error is
#: second-order in the quantum — 1 ps keeps synthesized skew within the
#: seed's quality envelope while quartering the bucket-miss rate of the
#: seed's 0.25 ps first-query-wins bins.
SLEW_QUANTUM = 1.0e-12


@dataclass(frozen=True)
class NodeTiming:
    """Arrival time and slew at one tree node."""

    arrival: float
    slew: float


@dataclass(frozen=True)
class StageTiming:
    """Delays (from the stage input) and slews at a stage's load nodes."""

    loads: tuple[tuple[TreeNode, float, float], ...]  # (node, delay, slew)


class SubtreeBounds(NamedTuple):
    """Min/max delay from a point to the sinks below it, plus worst slew.

    A ``NamedTuple`` rather than a frozen dataclass: the engine creates
    one per bounds query (interpolation) and per stage accumulation, and
    tuple construction is several times cheaper than ``__setattr__``
    spelunking — value semantics and field names are unchanged.
    """

    min_delay: float
    max_delay: float
    worst_slew: float

    @property
    def skew(self) -> float:
        return self.max_delay - self.min_delay


@dataclass
class TreeTiming:
    """Full-tree analysis result."""

    arrivals: dict[int, NodeTiming] = field(default_factory=dict)
    sink_nodes: list[TreeNode] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return max(self.arrivals[s.id].arrival for s in self.sink_nodes)

    @property
    def min_sink_arrival(self) -> float:
        return min(self.arrivals[s.id].arrival for s in self.sink_nodes)

    @property
    def skew(self) -> float:
        return self.latency - self.min_sink_arrival

    @property
    def worst_slew(self) -> float:
        return max(t.slew for t in self.arrivals.values())


class LibraryTimingEngine:
    """Top-down delay/slew analysis backed by the characterized library."""

    def __init__(
        self,
        library: DelaySlewLibrary,
        tech: Technology,
        virtual_drive: str | None = None,
    ):
        self.library = library
        self.tech = tech
        #: Buffer type assumed to drive not-yet-driven sub-trees.
        self.virtual_drive = virtual_drive or library.buffer_names[-1]
        self._bounds_cache: dict[tuple[int, int], SubtreeBounds] = {}
        #: Virtual-driver bounds of MERGE/STEINER roots, keyed by
        #: (node id, quantized slew, drive). Like the buffer cache it
        #: assumes the structure below a queried node never changes (the
        #: bottom-up flow only ever builds above existing roots).
        self._vbounds_cache: dict[tuple[int, int, str], SubtreeBounds] = {}
        #: Collapsed stage capacitance of MERGE/STEINER roots by node id
        #: (the walk is O(sub-tree) and sits inside every bisection probe).
        self._cap_cache: dict[int, float] = {}
        #: Buffer input capacitance by type name (pure per technology).
        self._buffer_cap_cache: dict[str, float] = {}
        #: subtree_bounds_many diagnostics (batched commit phase).
        self.bounds_cache_hits = 0
        self.bounds_cache_misses = 0
        #: Optional structure-of-arrays mirror (repro.core.soa_tree).
        #: When attached, the bounds-bucket prefill evaluates flat
        #: stages from its columns (bit-identical to the object walk).
        self._soa = None

    def attach_soa(self, soa) -> None:
        """Install (or clear, with None) the structure-of-arrays mirror."""
        self._soa = soa

    # ------------------------------------------------------------------
    # Stage evaluation
    # ------------------------------------------------------------------

    def _buffer_input_cap(self, name: str, buffer) -> float:
        cap = self._buffer_cap_cache.get(name)
        if cap is None:
            cap = self._buffer_cap_cache[name] = buffer.input_cap(self.tech)
        return cap

    def _load_cap_of(self, node: TreeNode) -> float:
        if node.kind is NodeKind.BUFFER:
            return self._buffer_input_cap(node.buffer.name, node.buffer)
        if node.kind is NodeKind.SINK:
            return node.cap
        cached = self._cap_cache.get(node.id)
        if cached is not None:
            return cached
        # Collapsed nested structure: wire + loads below this node.
        cap = node.unbuffered_cap(self.tech.wire.capacitance_per_unit)
        for n in node.walk():
            if n is not node and n.kind is NodeKind.BUFFER:
                cap += self._buffer_input_cap(n.buffer.name, n.buffer)
        self._cap_cache[node.id] = cap
        return cap

    def _eval_structure(
        self,
        drive: str,
        input_slew: float,
        structure: StagePath,
        include_buffer_delay: bool,
    ) -> list[tuple[TreeNode, float, float]]:
        """Evaluate one stage structure; returns (load, delay, slew) rows.

        ``delay`` is measured from the stage input (driver's input when
        ``include_buffer_delay``; the driver's output otherwise).
        """
        if structure.is_load:
            load_name = self.library.load_name_for_cap(
                self._load_cap_of(structure.end)
            )
            delay, slew = self.library.single_wire_delay_slew(
                drive,
                load_name,
                input_slew,
                structure.length,
                include_buffer_delay,
            )
            return [(structure.end, delay, slew)]
        branches = structure.branches
        if len(branches) != 2:
            # Rare >2-way split (Steiner tap): pair up recursively by
            # treating all but the first branch as one collapsed side.
            branches = [
                branches[0],
                StagePath(0.0, structure.end, structure.branches[1:]),
            ]
        left, right = branches
        timing = self.library.branch_component(
            drive,
            input_slew,
            structure.length,
            left.length,
            right.length,
            self._cap_of_branch(left),
            self._cap_of_branch(right),
        )
        base = timing.buffer_delay if include_buffer_delay else 0.0
        rows: list[tuple[TreeNode, float, float]] = []
        for path, delay, slew in (
            (left, timing.left_delay, timing.left_slew),
            (right, timing.right_delay, timing.right_slew),
        ):
            if path.is_load:
                rows.append((path.end, base + delay, slew))
            else:
                # Nested merge: expand with a virtual driver at the merge
                # point whose input slew is the slew computed there; the
                # virtual buffer's own delay is excluded.
                nested = self._eval_structure(drive, slew, path, False)
                rows.extend(
                    (node, base + delay + d2, s2) for node, d2, s2 in nested
                )
        return rows

    def _cap_of_branch(self, path: StagePath) -> float:
        if path.is_load:
            return self._load_cap_of(path.end)
        return (
            self.tech.wire.capacitance_per_unit
            * sum(b.length for b in path.branches)
            + self._load_cap_of(path.end)
        )

    def stage_timing(self, stage_root: TreeNode, input_slew: float) -> StageTiming:
        """Delays/slews at the loads of the stage rooted at a SOURCE/BUFFER."""
        structure = stage_structure(stage_root)
        if structure is None:
            return StageTiming(())
        if stage_root.kind is NodeKind.BUFFER:
            rows = self._eval_structure(
                stage_root.buffer.name, input_slew, structure, True
            )
        else:
            # SOURCE stage: the ideal (zero-impedance) source drives a bare
            # RC region; the characterized library does not apply (there is
            # no driving buffer), so use moment metrics with PERI ramp
            # composition, which are accurate for driver-less RC trees.
            rows = self._eval_source_structure(input_slew, structure)
        return StageTiming(tuple(rows))

    def _eval_source_structure(
        self, input_slew: float, structure: StagePath
    ) -> list[tuple[TreeNode, float, float]]:
        tree = RCTree("src", driver_resistance=0.0)
        loads: list[tuple[TreeNode, str]] = []
        counter = [0]

        def emit(path: StagePath, parent: str) -> None:
            counter[0] += 1
            name = f"p{counter[0]}"
            if path.length > 0:
                n_seg = max(2, min(16, int(path.length / 200.0)))
                tree.add_wire(parent, name, path.length, self.tech.wire, n_seg)
            else:
                tree.add_node(name, parent, 1e-3, 0.0)
            if path.is_load:
                tree.add_cap(name, self._load_cap_of(path.end))
                loads.append((path.end, name))
            else:
                for branch in path.branches:
                    emit(branch, name)

        if structure.end is not None and not structure.is_load and structure.length == 0.0 and structure.branches:
            for branch in structure.branches:
                emit(branch, "src")
        else:
            emit(structure, "src")
        moments = rc_tree_moments(tree, order=2)
        rows: list[tuple[TreeNode, float, float]] = []
        for node, rc_name in loads:
            m1, m2 = moments[rc_name]
            delay = d2m_delay(abs(m1), abs(m2))
            slew = elmore_slew_peri(
                lognormal_step_slew(abs(m1), abs(m2)), input_slew
            )
            rows.append((node, delay, slew))
        return rows

    # ------------------------------------------------------------------
    # Sub-tree bounds (memoized)
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        self._bounds_cache.clear()
        self._vbounds_cache.clear()
        self._cap_cache.clear()

    def remap_node_ids(self, mapping: dict[int, int]) -> None:
        """Rewrite memoized keys after a node-id renumbering.

        The parallel/batched merge flows renumber a level's freshly
        created nodes into serial creation order; cached bounds and caps
        are keyed by node id, so the keys must follow the (bijective)
        renumbering or a later node could hit a stale entry under its
        reassigned id.
        """
        if not mapping:
            return
        for cache in (self._bounds_cache, self._vbounds_cache):
            moved = [key for key in cache if key[0] in mapping]
            # Pop everything first: a moved key's target may itself be a
            # moved key, and reinserting early would clobber its entry.
            entries = [(key, cache.pop(key)) for key in moved]
            for key, bounds in entries:
                cache[(mapping[key[0]], *key[1:])] = bounds
        moved = [node_id for node_id in self._cap_cache if node_id in mapping]
        entries = [(node_id, self._cap_cache.pop(node_id)) for node_id in moved]
        for node_id, cap in entries:
            self._cap_cache[mapping[node_id]] = cap
        if self._soa is not None:
            self._soa.remap_ids(mapping)

    @staticmethod
    def _buckets_of(slew: float) -> tuple[int, float]:
        """Bucket index below ``slew`` plus the interpolation fraction."""
        q = slew / SLEW_QUANTUM
        k = int(q)  # slews are non-negative, so int() floors
        return k, q - k

    @staticmethod
    def _lerp_bounds(
        lo: SubtreeBounds, hi: SubtreeBounds, frac: float
    ) -> SubtreeBounds:
        return SubtreeBounds(
            lo.min_delay + (hi.min_delay - lo.min_delay) * frac,
            lo.max_delay + (hi.max_delay - lo.max_delay) * frac,
            lo.worst_slew + (hi.worst_slew - lo.worst_slew) * frac,
        )

    def buffer_subtree_bounds(
        self, buffer_node: TreeNode, input_slew: float
    ) -> SubtreeBounds:
        """Delay bounds from a BUFFER node's *input* to the sinks below.

        Interpolated between the two neighboring quantization buckets,
        each evaluated (and memoized) at its representative slew, so the
        result does not depend on which query filled the cache first
        (see the module docstring). The cache-hit path is inlined — this
        sits inside every bisection probe of every merge.
        """
        if buffer_node.kind is not NodeKind.BUFFER:
            raise ValueError(f"{buffer_node} is not a buffer")
        q = input_slew / SLEW_QUANTUM
        k = int(q)  # slews are non-negative, so int() floors
        cache = self._bounds_cache
        node_id = buffer_node.id
        lo = cache.get((node_id, k))
        if lo is None:
            lo = self._buffer_bucket_bounds(buffer_node, k)
        frac = q - k
        if frac == 0.0:
            return lo
        hi = cache.get((node_id, k + 1))
        if hi is None:
            hi = self._buffer_bucket_bounds(buffer_node, k + 1)
        return SubtreeBounds(
            lo[0] + (hi[0] - lo[0]) * frac,
            lo[1] + (hi[1] - lo[1]) * frac,
            lo[2] + (hi[2] - lo[2]) * frac,
        )

    def _buffer_bucket_bounds(
        self, buffer_node: TreeNode, bucket: int
    ) -> SubtreeBounds:
        key = (buffer_node.id, bucket)
        cached = self._bounds_cache.get(key)
        if cached is None:
            timing = self.stage_timing(buffer_node, bucket * SLEW_QUANTUM)
            cached = self._accumulate(timing)
            self._bounds_cache[key] = cached
        return cached

    def _accumulate(self, timing: StageTiming) -> SubtreeBounds:
        lo, hi, worst = float("inf"), float("-inf"), 0.0
        if not timing.loads:
            return SubtreeBounds(0.0, 0.0, 0.0)
        for node, delay, slew in timing.loads:
            worst = max(worst, slew)
            if node.kind is NodeKind.SINK:
                lo = min(lo, delay)
                hi = max(hi, delay)
            elif node.kind is NodeKind.BUFFER:
                below = self.buffer_subtree_bounds(node, slew)
                lo = min(lo, delay + below.min_delay)
                hi = max(hi, delay + below.max_delay)
                worst = max(worst, below.worst_slew)
            else:
                # Dangling merge/steiner endpoint: treat as zero-cap leaf.
                lo = min(lo, delay)
                hi = max(hi, delay)
        return SubtreeBounds(lo, hi, worst)

    def subtree_bounds(
        self,
        node: TreeNode,
        input_slew: float,
        drive: str | None = None,
    ) -> SubtreeBounds:
        """Delay bounds from an arbitrary sub-tree root to its sinks.

        For a BUFFER root the bounds start at the buffer input (intrinsic
        delay included). For MERGE/STEINER/SINK roots, a *virtual* driver
        of type ``drive`` (default: the engine's ``virtual_drive``) is
        assumed at the node with the given input slew, and its intrinsic
        delay is excluded — matching how merge-routing reasons about
        not-yet-driven sub-trees.
        """
        if node.kind is NodeKind.BUFFER:
            return self.buffer_subtree_bounds(node, input_slew)
        if node.kind is NodeKind.SINK:
            return SubtreeBounds(0.0, 0.0, input_slew)
        drive = drive or self.virtual_drive
        k, frac = self._buckets_of(input_slew)
        lo = self._virtual_bucket_bounds(node, k, drive)
        if frac == 0.0:
            return lo
        return self._lerp_bounds(
            lo, self._virtual_bucket_bounds(node, k + 1, drive), frac
        )

    def _virtual_bucket_bounds(
        self, node: TreeNode, bucket: int, drive: str
    ) -> SubtreeBounds:
        key = (node.id, bucket, drive)
        cached = self._vbounds_cache.get(key)
        if cached is not None:
            return cached
        if not node.children:
            bounds = SubtreeBounds(0.0, 0.0, 0.0)
        else:
            if len(node.children) == 1:
                child = node.children[0]
                structure = _trace_path(child, child.wire_to_parent)
            else:
                structure = StagePath(
                    0.0,
                    node,
                    [_trace_path(c, c.wire_to_parent) for c in node.children],
                )
            rows = self._eval_structure(
                drive, bucket * SLEW_QUANTUM, structure, False
            )
            bounds = self._accumulate(StageTiming(tuple(rows)))
        self._vbounds_cache[key] = bounds
        return bounds

    def subtree_bounds_many(
        self,
        items: list[tuple[TreeNode, float]],
        drive: str | None = None,
    ) -> list[SubtreeBounds]:
        """Batched :meth:`subtree_bounds` over (node, input slew) items.

        Splits the batch into cache hits and grouped misses: every bucket
        needed by any item is filled once through the scalar path, then
        each item assembles its interpolated answer from the (now warm)
        caches — bit for bit what per-item scalar calls would return,
        because cached bucket values are functions of their key alone.
        """
        virtual = drive or self.virtual_drive
        needed: dict[int, tuple[str, TreeNode, set[int]]] = {}
        for node, slew in items:
            if node.kind is NodeKind.SINK:
                continue
            k, frac = self._buckets_of(slew)
            buckets = (k,) if frac == 0.0 else (k, k + 1)
            if node.kind is NodeKind.BUFFER:
                kind, cache, suffix = "b", self._bounds_cache, ()
            else:
                kind, cache, suffix = "v", self._vbounds_cache, (virtual,)
            missing = None
            for b in buckets:
                if (node.id, b, *suffix) in cache:
                    self.bounds_cache_hits += 1
                    continue
                self.bounds_cache_misses += 1
                if missing is None:
                    job = needed.get(node.id)
                    if job is None:
                        job = needed[node.id] = (kind, node, set())
                    missing = job[2]
                # A node's missing buckets resolve as one job, so the
                # stage walk amortizes over the interpolation pair (and
                # over every pair probing this node in the same round).
                missing.add(b)
        if needed:
            self._prefill_bucket_jobs(
                [
                    (kind, node, sorted(buckets), virtual)
                    for kind, node, buckets in needed.values()
                ]
            )
        return [self.subtree_bounds(node, slew, drive) for node, slew in items]

    #: Fit groups smaller than this evaluate with the compiled scalar
    #: evaluators — numpy dispatch on tiny batches costs more than the
    #: handful of scalar calls. Results are bit-identical either way.
    _SCALAR_GROUP_ROWS = 16

    def _prefill_bucket_jobs(
        self, jobs: list[tuple[str, TreeNode, list[int], str]]
    ) -> None:
        """Fill missing bounds buckets (SoA columns when mirrored).

        When a structure-of-arrays mirror is attached, the flat-stage
        kernel answers the whole job list from its columns (delegating
        unmirrored/deep jobs back to the object walk itself); without
        one every job takes the object walk. Stored values are
        bit-identical either way.
        """
        if self._soa is not None:
            self._soa.prefill_bounds(self, jobs)
        else:
            self._prefill_bucket_jobs_object(jobs)

    def _prefill_bucket_jobs_object(
        self, jobs: list[tuple[str, TreeNode, list[int], str]]
    ) -> None:
        """Fill missing bounds buckets, batching flat stage evaluations.

        Each job is one node with the (uncached) buckets it needs
        (``kind`` "b" for a buffer stage, "v" for a virtual-driver root);
        the stage structure is walked once per node and evaluated at
        every requested bucket. The characterized stage shapes — one
        single-wire or one two-branch component with load ends — cover
        almost every stage under aggressive buffer insertion, so their
        fit evaluations are grouped per (drive, load) across all jobs
        and answered with one ``predict_many`` round each; the per-row
        compositions repeat the scalar code's float ops, so the cached
        values are bit for bit what the scalar recursion would have
        stored. Rows ending in buffers need the child's bounds: missing
        child buckets form the next wavefront (strictly deeper, so the
        recursion is bounded by tree depth). Rare non-flat shapes fall
        back to the scalar path per job.
        """
        pending: list[dict] = []
        single_groups: dict[tuple, list] = {}
        branch_groups: dict[tuple, list] = {}
        for kind, node, buckets, vdrive in jobs:
            if kind == "b":
                structure = stage_structure(node)
                drive = node.buffer.name
                include = True
            else:
                if not node.children:
                    for bucket in buckets:
                        key = (node.id, bucket, vdrive)
                        if key not in self._vbounds_cache:
                            self._vbounds_cache[key] = SubtreeBounds(0.0, 0.0, 0.0)
                    continue
                if len(node.children) == 1:
                    child = node.children[0]
                    structure = _trace_path(child, child.wire_to_parent)
                else:
                    structure = StagePath(
                        0.0,
                        node,
                        [_trace_path(c, c.wire_to_parent) for c in node.children],
                    )
                drive = vdrive
                include = False
            entry = {
                "kind": kind,
                "node": node,
                "buckets": buckets,
                "vdrive": vdrive,
                "rows": {},
                "scalar": False,
            }
            pending.append(entry)
            if structure is None:
                for bucket in buckets:
                    entry["rows"][bucket] = []
            elif structure.is_load:
                load_name = self.library.load_name_for_cap(
                    self._load_cap_of(structure.end)
                )
                group = single_groups.setdefault((drive, load_name, include), [])
                for bucket in buckets:
                    entry["rows"][bucket] = [None]
                    group.append(
                        (
                            entry,
                            bucket,
                            bucket * SLEW_QUANTUM,
                            structure.length,
                            structure.end,
                        )
                    )
            else:
                branches = structure.branches
                if (
                    len(branches) == 2
                    and branches[0].is_load
                    and branches[1].is_load
                ):
                    group = branch_groups.setdefault((drive, include), [])
                    for bucket in buckets:
                        entry["rows"][bucket] = [None, None]
                        group.append(
                            (
                                entry,
                                bucket,
                                bucket * SLEW_QUANTUM,
                                structure.length,
                                branches[0],
                                branches[1],
                            )
                        )
                else:
                    entry["scalar"] = True

        for (drive, load_name, include), rows in single_groups.items():
            fits = self.library.single[(drive, load_name)]
            if len(rows) < self._SCALAR_GROUP_ROWS:
                f_delay = fits["wire_delay"].predict
                f_slew = fits["wire_slew"].predict
                f_buf = fits["buffer_delay"].predict if include else None
                for entry, bucket, rep, length, end in rows:
                    delay = max(0.0, f_delay(rep, length))
                    if include:
                        delay = delay + max(0.0, f_buf(rep, length))
                    entry["rows"][bucket][0] = (
                        end,
                        delay,
                        max(1e-15, f_slew(rep, length)),
                    )
                continue
            x = np.empty((len(rows), 2))
            for k, (__, __b, rep, length, __end) in enumerate(rows):
                x[k, 0] = rep
                x[k, 1] = length
            wire_delay = fits["wire_delay"].predict_many(x)
            wire_slew = fits["wire_slew"].predict_many(x)
            buffer_delay = (
                fits["buffer_delay"].predict_many(x) if include else None
            )
            for k, (entry, bucket, __, __len, end) in enumerate(rows):
                delay = max(0.0, float(wire_delay[k]))
                if include:
                    delay = delay + max(0.0, float(buffer_delay[k]))
                entry["rows"][bucket][0] = (
                    end,
                    delay,
                    max(1e-15, float(wire_slew[k])),
                )

        for (drive, include), rows in branch_groups.items():
            fits = self.library.branch[drive]
            if len(rows) < self._SCALAR_GROUP_ROWS:
                for entry, bucket, rep, stem, left, right in rows:
                    args = (
                        rep,
                        stem,
                        left.length,
                        right.length,
                        self._load_cap_of(left.end),
                        self._load_cap_of(right.end),
                    )
                    base = (
                        max(0.0, fits["buffer_delay"].predict(*args))
                        if include
                        else 0.0
                    )
                    entry["rows"][bucket][0] = (
                        left.end,
                        base + max(0.0, fits["left_delay"].predict(*args)),
                        max(1e-15, fits["left_slew"].predict(*args)),
                    )
                    entry["rows"][bucket][1] = (
                        right.end,
                        base + max(0.0, fits["right_delay"].predict(*args)),
                        max(1e-15, fits["right_slew"].predict(*args)),
                    )
                continue
            n = len(rows)
            inputs = np.empty((4, n))
            for k, (__, __b, rep, stem, left, right) in enumerate(rows):
                inputs[0, k] = rep
                inputs[1, k] = stem
                inputs[2, k] = left.length
                inputs[3, k] = right.length
            left_caps = np.array(
                [self._load_cap_of(r[4].end) for r in rows]
            )
            right_caps = np.array(
                [self._load_cap_of(r[5].end) for r in rows]
            )
            batch = self.library.branch_component_many(
                drive,
                inputs[0],
                inputs[1],
                inputs[2],
                inputs[3],
                left_caps,
                right_caps,
                include_buffer_delay=include,
            )
            for k, (entry, bucket, __, __stem, left, right) in enumerate(rows):
                base = float(batch.buffer_delay[k]) if include else 0.0
                entry["rows"][bucket][0] = (
                    left.end,
                    base + float(batch.left_delay[k]),
                    float(batch.left_slew[k]),
                )
                entry["rows"][bucket][1] = (
                    right.end,
                    base + float(batch.right_delay[k]),
                    float(batch.right_slew[k]),
                )

        next_jobs: dict[int, tuple[str, TreeNode, set[int]]] = {}
        for entry in pending:
            if entry["scalar"]:
                continue
            for rows in entry["rows"].values():
                for end, __, slew in rows:
                    if end.kind is not NodeKind.BUFFER:
                        continue
                    k0, frac = self._buckets_of(slew)
                    for b in (k0,) if frac == 0.0 else (k0, k0 + 1):
                        if (end.id, b) in self._bounds_cache:
                            continue
                        job = next_jobs.get(end.id)
                        if job is None:
                            job = next_jobs[end.id] = ("b", end, set())
                        job[2].add(b)
        if next_jobs:
            self._prefill_bucket_jobs(
                [
                    (kind, node, sorted(buckets), None)
                    for kind, node, buckets in next_jobs.values()
                ]
            )

        for entry in pending:
            node = entry["node"]
            for bucket in entry["buckets"]:
                if entry["kind"] == "b":
                    if entry["scalar"]:
                        self._buffer_bucket_bounds(node, bucket)
                    else:
                        key = (node.id, bucket)
                        if key not in self._bounds_cache:
                            self._bounds_cache[key] = self._accumulate(
                                StageTiming(tuple(entry["rows"][bucket]))
                            )
                elif entry["scalar"]:
                    self._virtual_bucket_bounds(node, bucket, entry["vdrive"])
                else:
                    key = (node.id, bucket, entry["vdrive"])
                    if key not in self._vbounds_cache:
                        self._vbounds_cache[key] = self._accumulate(
                            StageTiming(tuple(entry["rows"][bucket]))
                        )

    # ------------------------------------------------------------------
    # Full-tree analysis
    # ------------------------------------------------------------------

    def analyze(self, root: TreeNode, source_slew: float) -> TreeTiming:
        """Arrival/slew at every stage load and sink of a full tree.

        ``root`` must be the SOURCE node (or any stage root); ``source_slew``
        is the slew of the waveform the source presents.
        """
        timing = TreeTiming()
        queue: list[tuple[TreeNode, float, float]] = [(root, source_slew, 0.0)]
        while queue:
            stage_root, slew_in, base = queue.pop()
            stage = self.stage_timing(stage_root, slew_in)
            for node, delay, slew in stage.loads:
                timing.arrivals[node.id] = NodeTiming(base + delay, slew)
                if node.kind is NodeKind.BUFFER:
                    queue.append((node, slew, base + delay))
                elif node.kind is NodeKind.SINK:
                    timing.sink_nodes.append(node)
        return timing
