"""Library-driven top-down timing analysis (the paper's engine).

Walks a clock tree stage by stage from the root, propagating *actual*
slews through the characterized delay/slew library: each stage's input
slew is the slew computed at its driver's input, so slew-dependent buffer
intrinsic delay is accounted for — the effect the paper shows breaks
Elmore/moment-based CTS (Sec. 3.1).

During bottom-up synthesis the driver of a sub-tree does not exist yet, so
sub-tree delays are computed under the paper's worst-case assumption: the
(virtual) driver's input slew equals the slew limit (Sec. 4.2.2). These
sub-tree evaluations are memoized per (node, slew-quantization bucket) in
one :class:`BoundsTable` the engine owns: a row per bounded node, a column
per bucket, an int32 slot per cell (0 when empty) that indexes the stored
bucket's ``min``/``max``/``worst`` in three packed float64 value columns,
so the memo's memory tracks the buckets it stores.
Once a sub-tree is merged its geometry never changes, and slew changes are
damped after a buffer stage, so the hit rate during binary search is high.
Each bucket's value is evaluated at the bucket's *representative* slew and
a query interpolates linearly between its two neighboring buckets — a
stored value is then an exact function of its key and a query an exact
function of (node, raw slew). The lockstep commit scheduler interleaves
queries across merge pairs, and a first-query-wins memo would have made
results depend on the order the table fills. The batched reader
(:meth:`LibraryTimingEngine.subtree_bounds_many`) gathers, masks and
stores whole arrays, and fills its misses through the prefill kernel of
:mod:`repro.timing.flat_stages`, whose flat-stage columns the engine
builds with each table; the scalar readers read single cells through
flat memoryviews and fill a miss through the scalar recursion.

Stage shapes beyond the characterized single-wire / two-branch components
(they are rare under aggressive buffer insertion) are composed recursively:
a nested merge is first treated as a virtual load whose capacitance is the
collapsed downstream stage capacitance, then expanded with a virtual driver
at the merge point using the slew computed there.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.tech.technology import Technology
from repro.timing.flat_stages import FlatStages
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

_INF = float("inf")


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


def _bad_slew(input_slew) -> ValueError:
    return ValueError(
        f"input slew {input_slew!r} is not a finite, non-negative number"
    )


class BoundsTable:
    """Memoized sub-tree bounds: one row per bounded node, one column per
    slew bucket, the stored cells' values packed in columns.

    Rows exist only for nodes that get bounds (BUFFER, MERGE and STEINER
    roots; a SINK's bounds are closed-form) and are keyed by node
    identity (``TreeNode`` is ``eq=False``), so a renumbering leaves them
    valid. ``slot`` is an int32 plane of shape (row capacity, width):
    0 marks an empty cell, and a stored cell's slot indexes its
    ``min_delay``, ``max_delay`` and ``worst_slew`` in three float64
    value columns. Value cell 0 is never handed out and stays 0.0, so a
    gather through an empty slot reads zeros. A released node's row
    (:meth:`release`) loses its cells, which go on a free list the next
    stores take from first, and the row is the next one :meth:`row`
    hands out. Rows grow on demand by doubling, buckets in steps of
    ``BUCKET_STEP`` and value cells by doubling; a bucket is never
    clamped. The ``*_cells`` memoryviews are flat views (slot cell
    ``row * width + bucket``) whose item reads return Python ints and
    floats: the scalar readers' hit path.
    """

    #: Initial row capacity and width. Buckets 0..111 cover slews below
    #: 112 ps, past the paper's 100 ps limit. A row costs 4 B a bucket in
    #: the slot plane, and a stored bucket 24 B in the value columns.
    ROWS = 1024
    BUCKETS = 112
    #: A wider table grows to the next multiple of this many buckets.
    BUCKET_STEP = 16
    #: Initial value-cell capacity.
    CELLS = 16 * ROWS
    #: Slew width of one bucket column.
    QUANTUM = SLEW_QUANTUM

    _COLUMNS = ("min_delay", "max_delay", "worst_slew")

    def __init__(self) -> None:
        self.row_of: dict[TreeNode, int] = {}
        #: The node of each row; ``None`` for a released row.
        self.nodes: list[TreeNode | None] = []
        #: Released rows, reused before the table appends a row.
        self.free: list[int] = []
        self.capacity = 0
        self.width = 0
        #: Value cells handed out so far, cell 0 included.
        self.used = 1
        #: Released value cells, reused before the columns grow.
        self.free_cells = np.empty(0, dtype=np.int32)
        self.cell_capacity = 0
        self._maps: dict[str, mmap.mmap] = {}
        self._resize(self.ROWS, self.BUCKETS)
        self._grow_cells(self.CELLS)

    def _view(self, name: str, cells: mmap.mmap, dtype, shape) -> np.ndarray:
        plane = np.frombuffer(cells, dtype=dtype).reshape(shape)
        self._maps[name] = cells
        setattr(self, name, plane)
        setattr(self, name + "_cells", memoryview(plane.reshape(-1)))
        return plane

    def _grow_map(self, name: str, dtype, shape) -> None:
        """Grow ``name``'s map in place to ``shape``, without a copy."""
        # A map cannot move while a view of it exists.
        setattr(self, name, None)
        setattr(self, name + "_cells", None)
        cells = self._maps[name]
        cells.resize(int(np.prod(shape)) * np.dtype(dtype).itemsize)
        self._view(name, cells, dtype, shape)

    def _resize(self, rows: int, buckets: int) -> None:
        """Grow the slot plane to ``rows`` x ``buckets`` cells.

        Each plane and column lives in an anonymous private memory map:
        zero-filled, committing a page only when a cell on it is written
        (numpy's own allocation of a plane this large would be advised
        onto 2 MiB huge pages). More rows extend the map in place; a
        wider row layout copies the used rows into a new map.
        """
        if buckets == self.width:
            self._grow_map("slot", np.int32, (rows, buckets))
        else:
            used, old = len(self.nodes), getattr(self, "slot", None)
            cells = mmap.mmap(-1, rows * buckets * 4, flags=mmap.MAP_PRIVATE)
            plane = self._view("slot", cells, np.int32, (rows, buckets))
            if used:
                plane[:used, : self.width] = old[:used]
        self.capacity, self.width = rows, buckets

    def _grow_cells(self, cells: int) -> None:
        """Grow the value columns to ``cells`` cells, each in place."""
        for name in self._COLUMNS:
            if name in self._maps:
                self._grow_map(name, np.float64, (cells,))
            else:
                self._view(
                    name,
                    mmap.mmap(-1, cells * 8, flags=mmap.MAP_PRIVATE),
                    np.float64,
                    (cells,),
                )
        self.cell_capacity = cells

    def _take(self, n: int) -> np.ndarray:
        """``n`` value cells for new stores: released cells first."""
        free = self.free_cells
        keep = max(free.size - n, 0)
        self.free_cells = free[:keep]
        start = self.used
        self.used = stop = start + n - (free.size - keep)
        if stop > self.cell_capacity:
            self._grow_cells(max(2 * self.cell_capacity, stop))
        return np.concatenate((free[keep:], np.arange(start, stop, dtype=np.int32)))

    def _take_one(self) -> int:
        """``_take(1)`` for the scalar store, without the array ops."""
        free = self.free_cells
        if free.size:
            self.free_cells = free[:-1]
            return int(free[-1])
        cell = self.used
        self.used += 1
        if self.used > self.cell_capacity:
            self._grow_cells(2 * self.cell_capacity)
        return cell

    @property
    def live_cells(self) -> int:
        """Value cells that hold a stored bucket."""
        return self.used - 1 - self.free_cells.size

    def row(self, node: TreeNode) -> int:
        """Row of ``node``, taken on first use: a released row if there
        is one, else a new row."""
        row = self.row_of.get(node)
        if row is None:
            if self.free:
                row = self.free.pop()
                self.nodes[row] = node
            else:
                row = len(self.nodes)
                if row == self.capacity:
                    self._resize(2 * self.capacity, self.width)
                self.nodes.append(node)
            self.row_of[node] = row
        return row

    def release(self, nodes: list[TreeNode]) -> np.ndarray:
        """Forget ``nodes``: their rows lose every stored cell and go on
        the free list, and the cells' value slots on theirs. Returns
        those rows (nodes without one are skipped)."""
        rows = [self.row_of.pop(node) for node in nodes if node in self.row_of]
        for row in rows:
            self.nodes[row] = None
        self.free.extend(rows)
        rows = np.array(rows, dtype=np.int64)
        slots = self.slot[rows]
        self.free_cells = np.concatenate((self.free_cells, slots[slots != 0]))
        self.slot[rows] = 0
        return rows

    def rows_of(self, nodes: list[TreeNode]) -> np.ndarray:
        """Rows of ``nodes`` (taken on first use); -1 for sinks."""
        rows = np.fromiter(
            map(self.row_of.get, nodes, repeat(-1)), np.int64, len(nodes)
        )
        for i in np.flatnonzero(rows < 0).tolist():
            node = nodes[i]
            if node.kind is not NodeKind.SINK:
                rows[i] = self.row(node)
        return rows

    def reserve(self, bucket: int) -> None:
        """Make ``bucket`` a valid column."""
        if bucket >= self.width:
            step = self.BUCKET_STEP
            self._resize(self.capacity, (bucket // step + 1) * step)

    def get(self, row: int, bucket: int) -> SubtreeBounds | None:
        if bucket >= self.width:
            return None
        slot = self.slot_cells[row * self.width + bucket]
        if not slot:
            return None
        return SubtreeBounds(
            self.min_delay_cells[slot],
            self.max_delay_cells[slot],
            self.worst_slew_cells[slot],
        )

    def put(self, row: int, bucket: int, bounds: SubtreeBounds) -> None:
        self.reserve(bucket)
        i = row * self.width + bucket
        slot = self.slot_cells[i]
        if not slot:
            slot = self.slot_cells[i] = self._take_one()
        self.min_delay_cells[slot] = bounds.min_delay
        self.max_delay_cells[slot] = bounds.max_delay
        self.worst_slew_cells[slot] = bounds.worst_slew

    def stored(self, rows: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """Whether each of the given cells holds a stored bucket."""
        return self.slot[rows, buckets] != 0

    def cells(self, rows: np.ndarray, buckets: np.ndarray):
        """The distinct (row, bucket) cells among the given ones, sorted
        by row, then bucket."""
        keys = np.sort(rows * self.width + buckets)
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return np.divmod(keys[first], self.width)

    def gather(self, rows: np.ndarray, buckets: np.ndarray):
        """``(min, max, worst)`` arrays of the given cells (zeros for an
        empty cell)."""
        slots = self.slot[rows, buckets]
        return (self.min_delay[slots], self.max_delay[slots], self.worst_slew[slots])

    def lerp(self, rows: np.ndarray, ks: np.ndarray, fracs: np.ndarray):
        """``(min, max, worst)`` arrays interpolated between buckets ``ks``
        and ``ks + 1`` at ``fracs``: the scalar reader's float ops
        element-wise, a zero fraction reading bucket ``ks`` alone."""
        two = fracs != 0.0
        return tuple(
            np.where(two, lo + (hi - lo) * fracs, lo)
            for lo, hi in zip(self.gather(rows, ks), self.gather(rows, ks + 1))
        )

    def store(self, rows, buckets, lo, hi, worst) -> None:
        """Store whole arrays of cells (duplicate cells carry equal
        values). An empty cell takes a value slot; a stored one is
        overwritten in place."""
        slots = self.slot[rows, buckets]
        empty = slots == 0
        if empty.any():
            new_rows, new_buckets = self.cells(rows[empty], buckets[empty])
            self.slot[new_rows, new_buckets] = self._take(new_rows.size)
            slots = self.slot[rows, buckets]
        self.min_delay[slots] = lo
        self.max_delay[slots] = hi
        self.worst_slew[slots] = worst

    def snapshot(self) -> dict[tuple[TreeNode, int], SubtreeBounds]:
        """Every stored cell as ``{(node, bucket): bounds}`` (a copy)."""
        rows, buckets = np.nonzero(self.slot[: len(self.nodes)])
        lo, hi, worst = self.gather(rows, buckets)
        nodes = self.nodes
        return {
            (nodes[row], bucket): SubtreeBounds(a, b, c)
            for row, bucket, a, b, c in zip(
                rows.tolist(),
                buckets.tolist(),
                lo.tolist(),
                hi.tolist(),
                worst.tolist(),
            )
        }


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
        #: sit under the virtual driver. Assumes the structure below a
        #: queried node never changes (the bottom-up flow only ever
        #: builds above existing roots). ``_flat`` holds the flat-stage
        #: columns of the table's rows that fill its batched misses.
        self._bounds = BoundsTable()
        self._flat = FlatStages(self._bounds)
        #: Collapsed stage capacitance of MERGE/STEINER roots by node
        #: (it sits inside every bisection probe).
        self._cap_cache: dict[TreeNode, float] = {}
        #: The buffer-type codes a cap in ``_cap_cache`` sums, one byte
        #: per buffer below the node in the order the sum adds them: a
        #: later cap walk splices them in rather than walking that
        #: sub-tree again.
        self._codes_below: dict[TreeNode, bytes] = {}
        #: Buffer input capacitance by type name (pure per technology),
        #: and by buffer-type code.
        self._buffer_cap_cache: dict[str, float] = {}
        self._buffer_codes: dict[str, int] = {}
        self._code_caps = np.empty(0)
        #: subtree_bounds_many diagnostics (batched commit phase).
        self.bounds_cache_hits = 0
        self.bounds_cache_misses = 0

    def release(self, nodes: list[TreeNode]) -> None:
        """Forget the memos of ``nodes``, which no tree reaches any more
        (e.g. the structures H-structure correction discards): their
        collapsed caps and buffer codes, their bounds rows and those
        rows' flat stages.
        The rows are reused by later nodes. Every memo is a function of
        its key alone, so releasing a node changes no later answer."""
        for node in nodes:
            self._cap_cache.pop(node, None)
            self._codes_below.pop(node, None)
        self._flat.reset(self._bounds.release(nodes))

    def stored_bounds(self) -> dict[tuple[TreeNode, int], SubtreeBounds]:
        """Read-only copy of the bounds memo: ``{(node, bucket): bounds}``
        for every stored bucket."""
        return self._bounds.snapshot()

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
        # Collapsed nested structure: wire + loads below this node, then
        # the input cap of every buffer below it in ``node.walk()`` order.
        # A node below with a memo stands for its whole sub-tree: a
        # sub-tree pops contiguously, in its own walk's order.
        codes_below = self._codes_below
        codes = bytearray()
        stack = list(node.children)
        while stack:
            below = stack.pop()
            known = codes_below.get(below)
            if known is not None:
                codes += known
                continue
            if below.kind is NodeKind.BUFFER:
                codes.append(self._buffer_code(below.buffer))
            stack.extend(below.children)
        codes = codes_below[node] = bytes(codes)
        terms = np.empty(len(codes) + 1)
        terms[0] = node.unbuffered_cap(self.tech.wire.capacitance_per_unit)
        terms[1:] = self._code_caps[np.frombuffer(codes, dtype=np.uint8)]
        # accumulate adds in sequence, as a scalar loop would (reduce
        # sums pairwise and can differ in the last bit).
        cap = self._cap_cache[node] = float(np.add.accumulate(terms)[-1])
        return cap

    def _buffer_code(self, buffer) -> int:
        code = self._buffer_codes.get(buffer.name)
        if code is None:
            code = self._buffer_codes[buffer.name] = len(self._buffer_codes)
            self._code_caps = np.append(
                self._code_caps, self._buffer_input_cap(buffer.name, buffer)
            )
        return code

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
        self._bounds = BoundsTable()
        self._flat = FlatStages(self._bounds)
        self._cap_cache.clear()
        self._codes_below.clear()

    @staticmethod
    def _lerp_bounds(
        lo: SubtreeBounds, hi: SubtreeBounds, frac: float
    ) -> SubtreeBounds:
        return SubtreeBounds(
            lo.min_delay + (hi.min_delay - lo.min_delay) * frac,
            lo.max_delay + (hi.max_delay - lo.max_delay) * frac,
            lo.worst_slew + (hi.worst_slew - lo.worst_slew) * frac,
        )

    def _read(
        self, node: TreeNode, input_slew: float, buffer: bool
    ) -> SubtreeBounds:
        """Interpolated bounds of a non-sink ``node`` at ``input_slew``.

        The hit path (both buckets stored) is inlined — this sits inside
        every bisection probe of every merge; a miss fills each missing
        bucket through the scalar recursion.
        """
        q = input_slew / SLEW_QUANTUM
        if not 0.0 <= q < _INF:
            raise _bad_slew(input_slew)
        k = int(q)  # q is non-negative, so int() floors
        frac = q - k
        table = self._bounds
        row = table.row_of.get(node)
        if row is not None and k + 1 < table.width:
            i = row * table.width + k
            # No view of the table outlives this branch: a miss below
            # may grow the table, which needs every view released.
            lo = table.slot_cells[i]
            hi = lo and (frac == 0.0 or table.slot_cells[i + 1])
            if hi:
                mins = table.min_delay_cells
                maxes = table.max_delay_cells
                worsts = table.worst_slew_cells
                lo_min, lo_max, lo_worst = mins[lo], maxes[lo], worsts[lo]
                if frac == 0.0:
                    return SubtreeBounds(lo_min, lo_max, lo_worst)
                return SubtreeBounds(
                    lo_min + (mins[hi] - lo_min) * frac,
                    lo_max + (maxes[hi] - lo_max) * frac,
                    lo_worst + (worsts[hi] - lo_worst) * frac,
                )
        fill = self._buffer_bucket_bounds if buffer else self._virtual_bucket_bounds
        lo = fill(node, k)
        if frac == 0.0:
            return lo
        return self._lerp_bounds(lo, fill(node, k + 1), frac)

    def buffer_subtree_bounds(
        self, buffer_node: TreeNode, input_slew: float
    ) -> SubtreeBounds:
        """Delay bounds from a BUFFER node's *input* to the sinks below.

        Interpolated between the two neighboring quantization buckets,
        each evaluated (and memoized) at its representative slew, so the
        result does not depend on which query filled the table first
        (see the module docstring). A negative, NaN or infinite
        ``input_slew`` raises ``ValueError``.
        """
        if buffer_node.kind is not NodeKind.BUFFER:
            raise ValueError(f"{buffer_node} is not a buffer")
        return self._read(buffer_node, input_slew, True)

    def _buffer_bucket_bounds(
        self, buffer_node: TreeNode, bucket: int
    ) -> SubtreeBounds:
        table = self._bounds
        row = table.row(buffer_node)
        cached = table.get(row, bucket)
        if cached is None:
            timing = self.stage_timing(buffer_node, bucket * SLEW_QUANTUM)
            cached = self._accumulate(timing)
            table.put(row, bucket, cached)
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
        merge-routing reasons about not-yet-driven sub-trees. A negative,
        NaN or infinite ``input_slew`` raises ``ValueError``.
        """
        kind = node.kind
        if kind is NodeKind.SINK:
            if not 0.0 <= input_slew < _INF:
                raise _bad_slew(input_slew)
            return SubtreeBounds(0.0, 0.0, input_slew)
        return self._read(node, input_slew, kind is NodeKind.BUFFER)

    def _virtual_bucket_bounds(
        self, node: TreeNode, bucket: int
    ) -> SubtreeBounds:
        table = self._bounds
        row = table.row(node)
        cached = table.get(row, bucket)
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
        table.put(row, bucket, bounds)
        return bounds

    def subtree_bounds_many(
        self, nodes: list[TreeNode], input_slews
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`subtree_bounds` over parallel ``nodes`` and
        ``input_slews``: ``(min_delay, max_delay, worst_slew)`` arrays.

        Counts table hits and misses per bucket. Every bucket any item
        misses is handed to
        :meth:`~repro.timing.flat_stages.FlatStages.prefill_bounds` as
        one job array. The answers then interpolate with the scalar reader's
        float ops element-wise, so each is bit for bit what a per-item
        :meth:`subtree_bounds` call would return (stored bucket values
        are functions of their key alone). A negative, NaN or infinite
        slew raises ``ValueError`` before anything is counted or stored.
        """
        slews = np.asarray(input_slews, dtype=np.float64)
        q = slews / SLEW_QUANTUM
        bad = ~((q >= 0.0) & (q < _INF))
        if bad.any():
            raise _bad_slew(float(slews[bad][0]))
        table = self._bounds
        rows = table.rows_of(nodes)
        mins = np.zeros(len(rows))
        maxes = np.zeros(len(rows))
        worsts = slews.copy()  # a sink's worst slew is its input slew
        sel = np.flatnonzero(rows >= 0)
        if not sel.size:
            return mins, maxes, worsts
        rows = rows[sel]
        q = q[sel]
        k = q.astype(np.int64)  # q is non-negative, so truncation floors
        frac = q - k
        k1 = k + 1
        table.reserve(int(k1.max()))
        two = frac != 0.0
        have_lo = table.stored(rows, k)
        have_hi = table.stored(rows, k1)
        hits = int(np.count_nonzero(have_lo)) + int(
            np.count_nonzero(have_hi & two)
        )
        self.bounds_cache_hits += hits
        self.bounds_cache_misses += rows.size + int(np.count_nonzero(two)) - hits
        miss_lo = ~have_lo
        miss_hi = two & ~have_hi
        if miss_lo.any() or miss_hi.any():
            self._flat.prefill_bounds(
                self,
                *table.cells(
                    np.concatenate((rows[miss_lo], rows[miss_hi])),
                    np.concatenate((k[miss_lo], k1[miss_hi])),
                ),
            )
        mins[sel], maxes[sel], worsts[sel] = table.lerp(rows, k, frac)
        return mins, maxes, worsts

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
