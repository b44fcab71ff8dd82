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
    ):
        self.library = library
        self.tech = tech
        #: Buffer type assumed to drive not-yet-driven sub-trees: the
        #: largest one.
        self.virtual_drive = library.buffer_names[-1]
        #: Sub-tree bounds per (node, quantized slew). BUFFER roots are
        #: input-referenced (buffer delay included); MERGE/STEINER roots
        #: sit under the virtual driver. Keys are node objects (identity
        #: hashed, ``TreeNode`` being ``eq=False``), so a renumbering
        #: leaves them valid. Assumes the structure below a queried node
        #: never changes (the bottom-up flow only ever builds above
        #: existing roots).
        self._bounds_cache: dict[tuple[TreeNode, int], SubtreeBounds] = {}
        #: Collapsed stage capacitance of MERGE/STEINER roots by node
        #: (the walk is O(sub-tree) and sits inside every bisection probe).
        self._cap_cache: dict[TreeNode, float] = {}
        #: Buffer input capacitance by type name (pure per technology).
        self._buffer_cap_cache: dict[str, float] = {}
        #: subtree_bounds_many diagnostics (batched commit phase).
        self.bounds_cache_hits = 0
        self.bounds_cache_misses = 0
        #: Optional structure-of-arrays flat-stage cache
        #: (repro.core.soa_tree). When attached, ``subtree_bounds_many``
        #: fills its missing buckets from the cache's columns
        #: (bit-identical to the scalar recursion); without one every miss
        #: takes the scalar recursion.
        self._soa = None

    def attach_soa(self, soa) -> None:
        """Install (or clear, with None) the structure-of-arrays
        flat-stage cache. Its rows are keyed by node identity, so it may
        be attached before or after the queried trees are built."""
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
        cached = self._cap_cache.get(node)
        if cached is not None:
            return cached
        # Collapsed nested structure: wire + loads below this node.
        cap = node.unbuffered_cap(self.tech.wire.capacitance_per_unit)
        for n in node.walk():
            if n is not node and n.kind is NodeKind.BUFFER:
                cap += self._buffer_input_cap(n.buffer.name, n.buffer)
        self._cap_cache[node] = cap
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
        self._cap_cache.clear()

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
        lo = cache.get((buffer_node, k))
        if lo is None:
            lo = self._buffer_bucket_bounds(buffer_node, k)
        frac = q - k
        if frac == 0.0:
            return lo
        hi = cache.get((buffer_node, k + 1))
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
        key = (buffer_node, bucket)
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
        self, node: TreeNode, input_slew: float
    ) -> SubtreeBounds:
        """Delay bounds from an arbitrary sub-tree root to its sinks.

        For a BUFFER root the bounds start at the buffer input (intrinsic
        delay included). For MERGE/STEINER/SINK roots, a *virtual* driver
        of type ``virtual_drive`` is assumed at the node with the given
        input slew, and its intrinsic delay is excluded — matching how
        merge-routing reasons about not-yet-driven sub-trees.
        """
        if node.kind is NodeKind.BUFFER:
            return self.buffer_subtree_bounds(node, input_slew)
        if node.kind is NodeKind.SINK:
            return SubtreeBounds(0.0, 0.0, input_slew)
        k, frac = self._buckets_of(input_slew)
        lo = self._virtual_bucket_bounds(node, k)
        if frac == 0.0:
            return lo
        return self._lerp_bounds(
            lo, self._virtual_bucket_bounds(node, k + 1), frac
        )

    def _virtual_bucket_bounds(
        self, node: TreeNode, bucket: int
    ) -> SubtreeBounds:
        key = (node, bucket)
        cached = self._bounds_cache.get(key)
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
                self.virtual_drive, bucket * SLEW_QUANTUM, structure, False
            )
            bounds = self._accumulate(StageTiming(tuple(rows)))
        self._bounds_cache[key] = bounds
        return bounds

    def subtree_bounds_many(
        self, items: list[tuple[TreeNode, float]]
    ) -> list[SubtreeBounds]:
        """Batched :meth:`subtree_bounds` over (node, input slew) items.

        Counts cache hits and misses per bucket. With a structure-of-arrays
        flat-stage cache attached, every bucket any item misses is handed
        to :meth:`~repro.core.soa_tree.SoaTree.prefill_bounds` as one job
        list; without one, the per-item :meth:`subtree_bounds` calls fill
        the misses through the scalar recursion. Either way each answer is
        bit for bit what a per-item scalar call would return, because
        cached bucket values are functions of their key alone.
        """
        cache = self._bounds_cache
        needed: dict[TreeNode, set[int]] = {}
        for node, slew in items:
            if node.kind is NodeKind.SINK:
                continue
            k, frac = self._buckets_of(slew)
            buckets = (k,) if frac == 0.0 else (k, k + 1)
            missing = None
            for b in buckets:
                if (node, b) in cache:
                    self.bounds_cache_hits += 1
                    continue
                self.bounds_cache_misses += 1
                if missing is None:
                    missing = needed.setdefault(node, set())
                # A node's missing buckets resolve as one job, so the
                # stage walk amortizes over the interpolation pair (and
                # over every pair probing this node in the same round).
                missing.add(b)
        if needed and self._soa is not None:
            self._soa.prefill_bounds(
                self,
                [(node, sorted(buckets)) for node, buckets in needed.items()],
            )
        return [self.subtree_bounds(node, slew) for node, slew in items]

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
