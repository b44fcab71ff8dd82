"""Flat-stage columns of the bounds table and the bounds prefill kernel.

The engine's bounds memo (:class:`repro.timing.analysis.BoundsTable`)
has a row per bounded node. Under aggressive buffer insertion almost
every stage below such a node is a single wire or a two-branch split, so
this module gives every row a set of numpy columns describing that *flat
stage*. Once a node's bounds are first queried, the stage below it is
frozen (the bottom-up flow only builds above existing roots — the same
invariant the engine's bounds and cap memos already rely on), so its
traced shape (single load path or two-branch split), fit group, stem
lengths, end caps and the rows of its buffer ends are written into its
row once, and every later bounds-bucket evaluation becomes a numpy
gather + one batched fit round per group + a vectorized accumulate.

The engine builds one :class:`FlatStages` with each bounds table and
replaces both together (``LibraryTimingEngine.clear_cache``). Rows are
keyed by node identity, so node ids never reach the columns and a
renumbering between two queries needs nothing from this module. Sinks
get no row: a stage end that is not a buffer contributes its wire delay
and slew only.

:meth:`FlatStages.prefill_bounds` is the miss path of
``subtree_bounds_many``. Jobs are arrays of (row, bucket) cells; each
pass masks them into windows, groups the flat stages by fit, evaluates
each group batched and stores every pass with one batched
``BoundsTable.store``. Whether a cell is stored is read through the
table's slot plane (``BoundsTable.stored``), never through its value
columns.
Deep stages take the engine's scalar recursion
(``_buffer_bucket_bounds`` / ``_virtual_bucket_bounds``) bucket by
bucket.

Bit-identity with the scalar recursion rests on the established facts:
``predict_many``/``branch_component_many`` perform the scalar
evaluators' float ops element-wise; memoized bounds and caps are exact
functions of their key, so fill *order* is irrelevant; and min/max folds
are exact under regrouping. Which buckets get stored does depend on
*when* each miss is checked, so the prefill keeps the scalar-era order:
a pass checks its windows before its deep stages recurse, and scans its
wavefront after. An exception in the kernel propagates: there is no
fallback.
"""

from __future__ import annotations

import numpy as np

from repro.tree.nodes import NodeKind

#: Flat-stage classification of the structure below a node.
_FS_UNKNOWN = 0  # not traced yet
_FS_EMPTY = 1  # no children (dangling driver / empty virtual root)
_FS_SINGLE = 2  # one load path: stem length + one end
_FS_BRANCH = 3  # two-branch split, both branches plain load paths
_FS_DEEP = 4  # nested merges / >2-way splits — scalar recursion

#: Columns of the cache: (attribute, dtype, fill value). ``fs_lend`` /
#: ``fs_rend`` hold the bounds-table row of each branch's end when it is
#: a buffer, -1 otherwise; ``fs_group`` indexes ``FlatStages._groups``.
_COLUMNS = (
    ("fs_state", np.int8, _FS_UNKNOWN),
    ("fs_group", np.int32, -1),
    ("fs_stem", np.float64, 0.0),
    ("fs_llen", np.float64, 0.0),
    ("fs_rlen", np.float64, 0.0),
    ("fs_lend", np.int64, -1),
    ("fs_rend", np.int64, -1),
    ("fs_lcap", np.float64, 0.0),
    ("fs_rcap", np.float64, 0.0),
)

#: Fit groups smaller than this evaluate with the compiled scalar
#: evaluators — numpy dispatch on tiny batches costs more than the
#: handful of scalar calls. Results are bit-identical either way.
_SCALAR_GROUP_ROWS = 16

#: Bucket-window prefetch of the prefill kernel: a job requesting
#: buckets [k, k+1] evaluates [k - BELOW, k+1 + ABOVE] in the same
#: batch. Bucket values are pure functions of their key, so the extra
#: stores are the values later rounds would compute anyway — the window
#: just trades a few more fit rows for far fewer scheduler-round misses
#: (smaller groups are where the python overhead lives).
_PREFETCH_BELOW = 1
_PREFETCH_ABOVE = 1


def _runs(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in ``keys``."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total)


class FlatStages:
    """Flat-stage columns of one bounds table's rows plus the prefill
    kernel.

    A row's flat stage is traced the first time the prefill evaluates
    it; the columns grow with the table's row capacity.
    """

    def __init__(self, table) -> None:
        #: The bounds table whose rows index the columns.
        self.table = table
        self._capacity = 0
        #: Fit groups: (state, drive, load name or None, include buffer
        #: delay) <-> group code.
        self._groups: list[tuple] = []
        self._group_of: dict[tuple, int] = {}
        self._grow()

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    def _grow(self) -> None:
        """Size the columns to the table's row capacity."""
        old, new = self._capacity, self.table.capacity
        if old < new:
            for name, dtype, fill in _COLUMNS:
                col = np.full(new, fill, dtype=dtype)
                if old:
                    col[:old] = getattr(self, name)[:old]
                setattr(self, name, col)
            self._capacity = new

    def reset(self, rows: np.ndarray) -> None:
        """Return ``rows`` (released table rows) to the untraced state."""
        rows = rows[rows < self._capacity]
        for name, __, fill in _COLUMNS:
            getattr(self, name)[rows] = fill

    def _group(self, key: tuple) -> int:
        code = self._group_of.get(key)
        if code is None:
            code = self._group_of[key] = len(self._groups)
            self._groups.append(key)
        return code

    # ------------------------------------------------------------------
    # Flat stage tracing
    # ------------------------------------------------------------------

    def _trace(self, node, length: float):
        """Iterative twin of ``stages_map._trace_path``.

        Returns ``(length, end_node, branch_children)`` where
        ``branch_children`` is None for a plain load path and the branch
        node's child list for a split (the caller traces each child).
        """
        while True:
            kind = node.kind
            if kind is NodeKind.BUFFER or kind is NodeKind.SINK:
                return length, node, None
            if kind is NodeKind.MERGE or kind is NodeKind.STEINER:
                kids = node.children
                if not kids:
                    return length, node, None
                if len(kids) == 1:
                    only = kids[0]
                    length += only.wire_to_parent
                    node = only
                    continue
                return length, node, kids
            raise ValueError(f"unexpected {kind} inside a stage")

    def _end_row(self, end) -> int:
        """Bounds-table row of a stage end that needs bounds, else -1."""
        return self.table.row(end) if end.kind is NodeKind.BUFFER else -1

    def _build_flat(self, i: int, node, engine) -> int:
        """Trace and cache the flat stage below ``node`` (row ``i``);
        returns its state. Can append table rows (buffer ends), so the
        caller grows the columns before reading an end's row."""
        children = node.children
        include = node.kind is NodeKind.BUFFER
        drive = node.buffer.name if include else engine.virtual_drive
        try:
            if not children:
                state = _FS_EMPTY
            else:
                if len(children) == 1:
                    child = children[0]
                    length, end, split = self._trace(
                        child, child.wire_to_parent
                    )
                else:
                    length, end, split = 0.0, node, children
                if split is None:
                    cap = engine._load_cap_of(end)
                    self.fs_stem[i] = length
                    self.fs_lend[i] = self._end_row(end)
                    self.fs_lcap[i] = cap
                    load = engine.library.load_name_for_cap(cap)
                    self.fs_group[i] = self._group(
                        (_FS_SINGLE, drive, load, include)
                    )
                    state = _FS_SINGLE
                elif len(split) == 2:
                    l_len, l_end, l_split = self._trace(
                        split[0], split[0].wire_to_parent
                    )
                    r_len, r_end, r_split = self._trace(
                        split[1], split[1].wire_to_parent
                    )
                    if l_split is None and r_split is None:
                        self.fs_stem[i] = length
                        self.fs_llen[i] = l_len
                        self.fs_rlen[i] = r_len
                        self.fs_lend[i] = self._end_row(l_end)
                        self.fs_rend[i] = self._end_row(r_end)
                        self.fs_lcap[i] = engine._load_cap_of(l_end)
                        self.fs_rcap[i] = engine._load_cap_of(r_end)
                        self.fs_group[i] = self._group(
                            (_FS_BRANCH, drive, None, include)
                        )
                        state = _FS_BRANCH
                    else:
                        state = _FS_DEEP
                else:
                    state = _FS_DEEP
        except ValueError:
            # Malformed stage (e.g. a SOURCE inside): classify deep so
            # the scalar recursion raises the error at evaluation time.
            state = _FS_DEEP
        self.fs_state[i] = state
        return state

    # ------------------------------------------------------------------
    # The bounds-bucket prefill
    # ------------------------------------------------------------------

    def prefill_bounds(self, engine, rows: np.ndarray, buckets: np.ndarray) -> None:
        """Store the missing bounds cells ``(rows[j], buckets[j])``.

        The miss path of ``subtree_bounds_many``; cells come sorted by
        (row, bucket), each once. Stored values are bit-identical to the
        scalar recursion's. Jobs whose stage is not flat take that
        recursion directly, so on return *every* requested cell is
        stored.
        """
        # Iterative wavefront: each pass groups and fit-evaluates one
        # depth of jobs, and rows ending in buffers enqueue their ends'
        # missing buckets as the next pass (strictly deeper, so bounded
        # by tree depth). Accumulation and stores then unwind deepest
        # pass first — exactly the order the recursive flow through the
        # engine wrapper produced — so every interpolation reads cells
        # its deeper pass already stored.
        passes: list[tuple] = []
        while rows.size:
            evaluated = self._evaluate_jobs(engine, rows, buckets)
            if evaluated is None:
                break
            passes.append(evaluated)
            rows, buckets = self._scan_wavefront(evaluated)
        for evaluated in reversed(passes):
            self._finalize_pass(evaluated)

    def _evaluate_jobs(self, engine, rows, buckets):
        """One pass: fit-evaluate the flat jobs' bucket windows.

        Returns ``(rows, buckets, ends, delays, slews, two_sided, ks,
        fracs, at)`` over the evaluated cells — ``ends``/``delays``/
        ``slews`` stacked (2, n) as (left, right) sides, the right side
        meaningful where ``two_sided`` — plus the bucket math of the
        buffer ends at flat positions ``at`` of the (2, n) stack; or
        None when no job is flat.
        """
        table = self.table
        self._grow()
        starts = _runs(rows)
        stops = np.append(starts[1:], rows.size)
        job_rows = rows[starts]
        state = self.fs_state[job_rows]
        unknown = np.flatnonzero(state == _FS_UNKNOWN)
        if unknown.size:
            nodes = table.nodes
            for j in unknown.tolist():
                row = int(job_rows[j])
                state[j] = self._build_flat(row, nodes[row], engine)
            self._grow()
        cell_state = np.repeat(state, stops - starts)
        empty = cell_state == _FS_EMPTY
        if empty.any():
            zeros = np.zeros(int(np.count_nonzero(empty)))
            table.store(rows[empty], buckets[empty], zeros, zeros, zeros)
        deep = cell_state == _FS_DEEP
        # Prefetch a contiguous bucket window around each flat job's
        # requested buckets: bisection slews drift a few buckets per node
        # over the rounds, and every bucket value is a pure function of
        # its key, so widening a job only moves future misses into this
        # batch (fewer rounds, fewer groups) without changing any stored
        # value. Requested buckets are missing by construction; the rest
        # of the window is masked against the table.
        flat = np.flatnonzero((state == _FS_SINGLE) | (state == _FS_BRANCH))
        cell_rows = cell_b = flat
        if flat.size:
            lo_b = np.maximum(buckets[starts[flat]] - _PREFETCH_BELOW, 0)
            hi_b = buckets[stops[flat] - 1] + _PREFETCH_ABOVE
            table.reserve(int(hi_b.max()))
            counts = hi_b - lo_b + 1
            cell_rows = np.repeat(job_rows[flat], counts)
            cell_b = _spans(lo_b, counts)
            keep = ~table.stored(cell_rows, cell_b)
            cell_rows = cell_rows[keep]
            cell_b = cell_b[keep]
        # Deep stages take the scalar recursion, which fills (and
        # memoizes) every bucket below them on the way.
        if deep.any():
            nodes = table.nodes
            for row, bucket in zip(rows[deep].tolist(), buckets[deep].tolist()):
                node = nodes[row]
                if node.kind is NodeKind.BUFFER:
                    engine._buffer_bucket_bounds(node, bucket)
                else:
                    engine._virtual_bucket_bounds(node, bucket)
        n = cell_rows.size
        if not n:
            return None
        ends = np.full((2, n), -1, dtype=np.int64)
        delays = np.zeros((2, n))
        slews = np.zeros((2, n))
        groups = self.fs_group[cell_rows]
        order = np.argsort(groups, kind="stable")
        cuts = _runs(groups[order])
        for lo, hi in zip(cuts.tolist(), np.append(cuts[1:], n).tolist()):
            at = order[lo:hi]
            idx = cell_rows[at]
            self._evaluate_group(
                engine,
                self._groups[int(groups[at[0]])],
                idx,
                cell_b[at],
                at,
                ends,
                delays,
                slews,
            )
        two_sided = self.fs_state[cell_rows] == _FS_BRANCH
        # Bucket math (q, truncation, frac) for the buffer ends is
        # computed once here; the wavefront scan and _finalize_pass
        # both read it. ``slew / QUANTUM``, truncation and ``q - k``
        # are the scalar bucket math's float ops element-wise (positive
        # slews, so ``astype`` truncation equals ``int()``).
        at = np.flatnonzero(ends.reshape(-1) >= 0)
        q = slews.reshape(-1)[at] / table.QUANTUM
        ks = q.astype(np.int64)
        return (
            cell_rows,
            cell_b,
            ends,
            delays,
            slews,
            two_sided,
            ks,
            q - ks,
            at,
        )

    def _evaluate_group(
        self, engine, group, idx, cell_b, at, ends, delays, slews
    ) -> None:
        """Fit-evaluate one group's cells into columns ``at`` of the
        (2, n) side arrays."""
        state, drive, load, include = group
        n = idx.size
        quantum = self.table.QUANTUM
        if state == _FS_SINGLE:
            fits = engine.library.single[(drive, load)]
            lengths = self.fs_stem[idx]
            if n < _SCALAR_GROUP_ROWS:
                f_delay = fits["wire_delay"].predict
                f_slew = fits["wire_slew"].predict
                f_buf = fits["buffer_delay"].predict if include else None
                l_delays = np.empty(n)
                l_slews = np.empty(n)
                for k, (bucket, length) in enumerate(
                    zip(cell_b.tolist(), lengths.tolist())
                ):
                    rep = bucket * quantum
                    delay = max(0.0, f_delay(rep, length))
                    if include:
                        delay = delay + max(0.0, f_buf(rep, length))
                    l_delays[k] = delay
                    l_slews[k] = max(1e-15, f_slew(rep, length))
            else:
                x = np.empty((n, 2))
                x[:, 0] = cell_b * quantum
                x[:, 1] = lengths
                l_delays = np.maximum(0.0, fits["wire_delay"].predict_many(x))
                if include:
                    l_delays = l_delays + np.maximum(
                        0.0, fits["buffer_delay"].predict_many(x)
                    )
                l_slews = np.maximum(1e-15, fits["wire_slew"].predict_many(x))
            ends[0, at] = self.fs_lend[idx]
            delays[0, at] = l_delays
            slews[0, at] = l_slews
            return
        fits = engine.library.branch[drive]
        stems = self.fs_stem[idx]
        l_lens = self.fs_llen[idx]
        r_lens = self.fs_rlen[idx]
        l_caps = self.fs_lcap[idx]
        r_caps = self.fs_rcap[idx]
        if n < _SCALAR_GROUP_ROWS:
            l_delays = np.empty(n)
            l_slews = np.empty(n)
            r_delays = np.empty(n)
            r_slews = np.empty(n)
            for k, args in enumerate(
                zip(
                    (cell_b * quantum).tolist(),
                    stems.tolist(),
                    l_lens.tolist(),
                    r_lens.tolist(),
                    l_caps.tolist(),
                    r_caps.tolist(),
                )
            ):
                base = (
                    max(0.0, fits["buffer_delay"].predict(*args))
                    if include
                    else 0.0
                )
                l_delays[k] = base + max(0.0, fits["left_delay"].predict(*args))
                l_slews[k] = max(1e-15, fits["left_slew"].predict(*args))
                r_delays[k] = base + max(0.0, fits["right_delay"].predict(*args))
                r_slews[k] = max(1e-15, fits["right_slew"].predict(*args))
        else:
            batch = engine.library.branch_component_many(
                drive,
                cell_b * quantum,
                stems,
                l_lens,
                r_lens,
                l_caps,
                r_caps,
                include_buffer_delay=include,
            )
            if include:
                l_delays = batch.buffer_delay + batch.left_delay
                r_delays = batch.buffer_delay + batch.right_delay
            else:
                l_delays = batch.left_delay
                r_delays = batch.right_delay
            l_slews = batch.left_slew
            r_slews = batch.right_slew
        ends[0, at] = self.fs_lend[idx]
        ends[1, at] = self.fs_rend[idx]
        delays[0, at] = l_delays
        delays[1, at] = r_delays
        slews[0, at] = l_slews
        slews[1, at] = r_slews

    def _scan_wavefront(self, evaluated):
        """The next pass's jobs: every bucket a buffer end of this pass
        interpolates from that the table does not hold yet, as sorted
        unique (row, bucket) cells."""
        __, __b, ends, __d, __s, __t, ks, fracs, at = evaluated
        end_rows = ends.reshape(-1)[at]
        if not end_rows.size:
            return end_rows, end_rows
        table = self.table
        k1 = ks + 1
        table.reserve(int(k1.max()))
        miss_lo = ~table.stored(end_rows, ks)
        miss_hi = (fracs != 0.0) & ~table.stored(end_rows, k1)
        return table.cells(
            np.concatenate((end_rows[miss_lo], end_rows[miss_hi])),
            np.concatenate((ks[miss_lo], k1[miss_hi])),
        )

    def _finalize_pass(self, evaluated) -> None:
        """Accumulate one pass's cells over their ends' interpolated
        bounds and store them with one fancy-indexed write."""
        rows, buckets, ends, delays, slews, two_sided, ks, fracs, at = evaluated
        b_min = np.zeros(ends.size)
        b_max = np.zeros(ends.size)
        b_worst = np.zeros(ends.size)
        if at.size:
            b_min[at], b_max[at], b_worst[at] = self._below_bounds(
                ends.reshape(-1)[at], ks, fracs
            )
        shape = ends.shape
        lo = delays + b_min.reshape(shape)
        hi = delays + b_max.reshape(shape)
        worst = np.maximum(slews, b_worst.reshape(shape))
        self.table.store(
            rows,
            buckets,
            np.where(two_sided, np.minimum(lo[0], lo[1]), lo[0]),
            np.where(two_sided, np.maximum(hi[0], hi[1]), hi[0]),
            np.maximum(
                0.0, np.where(two_sided, np.maximum(worst[0], worst[1]), worst[0])
            ),
        )

    def _below_bounds(self, end_rows, ks, fracs):
        """Interpolated bounds below buffer ends at their slews.

        Element-wise, the float ops are the scalar reader's
        interpolation. Every bucket read here was stored by a deeper
        pass or a deep stage's recursion (the wavefront scan requested
        each missing one), so a missing bucket is a kernel fault and
        raises rather than being recomputed.
        """
        table = self.table
        missing = ~table.stored(end_rows, ks) | (
            (fracs != 0.0) & ~table.stored(end_rows, ks + 1)
        )
        if missing.any():
            raise RuntimeError("bounds prefill read a bucket no pass stored")
        return table.lerp(end_rows, ks, fracs)
