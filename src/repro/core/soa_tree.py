"""Structure-of-arrays flat-stage cache of the in-flight clock tree.

The commit phase is Python-bookkeeping-bound, not fit-bound
(PERFORMANCE.md): the probe math was batched in PR 3, and what remains
is object-graph traversal — ``stage_structure`` walks re-tracing the
same frozen stage paths for every new bounds bucket, ``_load_cap_of``
re-walking collapsed stages, and ``_maybe_force_stage_buffer`` choosing
stage drivers one scalar ``branch_slews`` call at a time.

Under aggressive buffer insertion almost every stage is a single wire
or a two-branch split. This module gives every node the commit kernels
query a row of numpy columns describing that *flat stage*. Once a
node's bounds are first queried, the stage below it is frozen (the
bottom-up flow only builds above existing roots — the same invariant
the engine's bounds/cap dict caches already rely on), so its traced
shape (single load path or two-branch split), stem lengths, end rows
and end caps are written into its row once and every later
bounds-bucket evaluation becomes a numpy gather + one batched fit round
+ a vectorized accumulate.

Rows are keyed by node identity (``TreeNode`` compares by identity), as
are the engine's bounds and cap caches this module fills, so node ids
never reach either: a renumbering between two queries needs nothing
from this module or the engine.

Two commit-phase kernels read the rows:

- :meth:`SoaTree.prefill_bounds` — the level-wide bounds-bucket prefill
  behind ``subtree_bounds_many``'s miss path: flat stages are grouped
  and fit-evaluated from the columns; deep stages take the engine's
  scalar recursion (``_buffer_bucket_bounds`` /
  ``_virtual_bucket_bounds``) bucket by bucket;
- :meth:`SoaTree.stage_drivers` — batched forced-stage-buffer decisions
  for a whole scheduler round (collapsed caps folded from per-node
  buffer-code byte sequences, drivers chosen by lockstep
  ``branch_slews_many`` rounds over the still-unresolved merges).

Bit-identity with the scalar recursion and the object walks rests on
the established facts: ``predict_many``/``branch_component_many``/
``branch_slews_many`` perform the scalar evaluators' float ops
element-wise; memoized bounds and caps are exact functions of their
cache key, so fill *order* is irrelevant; min/max folds are exact
under regrouping; and the collapsed cap fold replays the object walk's
buffer-code sequence in its exact order (cached per node as ``bytes`` —
DFS-last-child-first sequences compose by concatenation), so the float
sum is the object walk's sum.

The cache has no fallback of its own: an exception in a kernel
propagates out of the synthesis. Engines with no cache attached take
the scalar recursion and the object walks.
"""

from __future__ import annotations

import numpy as np

from repro.timing.analysis import SLEW_QUANTUM, SubtreeBounds
from repro.tree.nodes import NodeKind

#: Stable small-int codes for node kinds (column dtype int8).
_KINDS = (
    NodeKind.SOURCE,
    NodeKind.SINK,
    NodeKind.MERGE,
    NodeKind.BUFFER,
    NodeKind.STEINER,
)
_CODE_OF = {kind: code for code, kind in enumerate(_KINDS)}
_BUFFER = _CODE_OF[NodeKind.BUFFER]

#: Flat-stage classification of the structure below a node.
_FS_UNKNOWN = 0  # not traced yet
_FS_EMPTY = 1  # no children (dangling driver / empty virtual root)
_FS_SINGLE = 2  # one load path: stem length + one end
_FS_BRANCH = 3  # two-branch split, both branches plain load paths
_FS_DEEP = 4  # nested merges / >2-way splits — scalar recursion

#: Columns of the cache: (attribute, dtype, fill value). ``fs_lend`` /
#: ``fs_rend`` hold the *row* of each branch's end node.
_COLUMNS = (
    ("fs_state", np.int8, _FS_UNKNOWN),
    ("fs_stem", np.float64, 0.0),
    ("fs_llen", np.float64, 0.0),
    ("fs_rlen", np.float64, 0.0),
    ("fs_lend", np.int64, -1),
    ("fs_rend", np.int64, -1),
    ("fs_lkind", np.int8, -1),
    ("fs_rkind", np.int8, -1),
    ("fs_lcap", np.float64, 0.0),
    ("fs_rcap", np.float64, 0.0),
    ("fs_lload", np.int32, -1),
)

#: Fit groups smaller than this evaluate with the compiled scalar
#: evaluators — numpy dispatch on tiny batches costs more than the
#: handful of scalar calls. Results are bit-identical either way.
_SCALAR_GROUP_ROWS = 16

#: Below this many unresolved merges a stage-driver round answers with
#: the scalar ``branch_slews`` evaluator — numpy dispatch on tiny
#: batches costs more (results are bit-identical either way).
_SCALAR_DRIVER_ROWS = 4

#: Bucket-window prefetch of the prefill kernel: a job requesting
#: buckets [k, k+1] evaluates [k - BELOW, k+1 + ABOVE] in the same
#: batch. Bucket values are pure functions of their key, so the extra
#: stores are the values later rounds would compute anyway — the window
#: just trades a few more fit rows for far fewer scheduler-round misses
#: (smaller groups are where the python overhead lives).
_PREFETCH_BELOW = 1
_PREFETCH_ABOVE = 1


class SoaTree:
    """Flat-stage rows of the queried nodes plus the commit kernels.

    Attach to one engine for the duration of one synthesis run
    (:meth:`repro.timing.analysis.LibraryTimingEngine.attach_soa`).
    A node gets its row the first time a kernel queries it or traces
    it as the end of a queried stage.
    """

    def __init__(self) -> None:
        self._capacity = 0
        #: node -> row, and row -> node.
        self._row_of: dict = {}
        self._nodes: list = []
        #: Buffer-type interning: code <-> (name, BufferType).
        self._buffer_names: list[str] = []
        self._buffer_types: list = []
        self._buffer_code_of: dict[str, int] = {}
        self._buffer_caps: list[float] = []
        #: Load-name interning for single-path group keys.
        self._load_names: list[str] = []
        self._load_code_of: dict[str, int] = {}
        #: node -> ordered buffer-code byte sequence of its subtree
        #: (DFS-last-child-first, i.e. ``TreeNode.walk`` order).
        self._bufseq: dict = {}

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    def _row(self, node) -> int:
        """Row of ``node``, appended on first use."""
        row = self._row_of.get(node)
        if row is None:
            row = len(self._nodes)
            if row == self._capacity:
                self._grow()
            self._row_of[node] = row
            self._nodes.append(node)
        return row

    def _grow(self) -> None:
        old = self._capacity
        self._capacity = max(1024, 2 * old)
        for name, dtype, fill in _COLUMNS:
            col = np.full(self._capacity, fill, dtype=dtype)
            if old:
                col[:old] = getattr(self, name)
            setattr(self, name, col)

    def _buffer_code(self, buffer) -> int:
        code = self._buffer_code_of.get(buffer.name)
        if code is None:
            code = len(self._buffer_names)
            if code > 255:
                raise OverflowError("buffer library too large for byte codes")
            self._buffer_code_of[buffer.name] = code
            self._buffer_names.append(buffer.name)
            self._buffer_types.append(buffer)
        return code

    def _load_code(self, name: str) -> int:
        code = self._load_code_of.get(name)
        if code is None:
            code = self._load_code_of[name] = len(self._load_names)
            self._load_names.append(name)
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

    def _build_flat(self, i: int, node, engine) -> int:
        """Trace and cache the flat stage below ``node`` (row ``i``);
        returns its state."""
        children = node.children
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
                    end_row = self._row(end)
                    self.fs_stem[i] = length
                    self.fs_lend[i] = end_row
                    self.fs_lkind[i] = _CODE_OF[end.kind]
                    self.fs_lcap[i] = cap
                    self.fs_lload[i] = self._load_code(
                        engine.library.load_name_for_cap(cap)
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
                        l_row = self._row(l_end)
                        r_row = self._row(r_end)
                        self.fs_stem[i] = length
                        self.fs_llen[i] = l_len
                        self.fs_rlen[i] = r_len
                        self.fs_lend[i] = l_row
                        self.fs_rend[i] = r_row
                        self.fs_lkind[i] = _CODE_OF[l_end.kind]
                        self.fs_rkind[i] = _CODE_OF[r_end.kind]
                        self.fs_lcap[i] = engine._load_cap_of(l_end)
                        self.fs_rcap[i] = engine._load_cap_of(r_end)
                        state = _FS_BRANCH
                    else:
                        state = _FS_DEEP
                else:
                    state = _FS_DEEP
        except ValueError:
            # Malformed stage (e.g. a SOURCE inside): classify deep so
            # the scalar recursion raises the error at evaluation time,
            # exactly as an engine with no cache would.
            state = _FS_DEEP
        self.fs_state[i] = state
        return state

    # ------------------------------------------------------------------
    # Kernel 1: level-wide bounds-bucket prefill
    # ------------------------------------------------------------------

    def prefill_bounds(self, engine, jobs) -> None:
        """Fill missing bounds buckets from the columns.

        The miss path of ``subtree_bounds_many``: stored values are
        bit-identical to the scalar recursion's. Jobs whose stage is not
        flat take that recursion directly, so on return *every*
        requested bucket is cached.
        """
        # Iterative wavefront: each pass groups and fit-evaluates one
        # depth of jobs, and rows ending in buffers enqueue their
        # children's missing buckets as the next pass (strictly deeper,
        # so bounded by tree depth). Accumulation and stores then unwind
        # deepest pass first — exactly the order the recursive flow
        # through the engine wrapper produced — so every interpolation
        # reads caches its deeper pass already filled.
        pending = jobs
        passes: list[list[tuple]] = []
        while pending:
            evaluated = self._evaluate_jobs(engine, pending)
            passes.append(evaluated)
            wavefront: dict = {}
            for *__, l_buckets, r_buckets in evaluated:
                self._scan_wavefront(engine, wavefront, l_buckets)
                self._scan_wavefront(engine, wavefront, r_buckets)
            pending = [
                (node, sorted(buckets)) for node, buckets in wavefront.items()
            ]
        for evaluated in reversed(passes):
            self._finalize_pass(engine, evaluated)

    def _evaluate_jobs(self, engine, jobs) -> list[tuple]:
        cache = engine._bounds_cache
        slow: list = []
        # group key -> [row indices, buckets, nodes]
        singles: dict[tuple, list] = {}
        branches: dict[tuple, list] = {}
        for job in jobs:
            node, buckets = job
            i = self._row(node)
            state = int(self.fs_state[i])
            if state == _FS_UNKNOWN:
                state = self._build_flat(i, node, engine)
            if state == _FS_DEEP:
                slow.append(job)
                continue
            include = node.kind is NodeKind.BUFFER
            if state == _FS_EMPTY:
                for bucket in buckets:
                    if (node, bucket) not in cache:
                        cache[node, bucket] = SubtreeBounds(0.0, 0.0, 0.0)
                continue
            drive = node.buffer.name if include else engine.virtual_drive
            if state == _FS_SINGLE:
                group = singles.setdefault(
                    (drive, int(self.fs_lload[i]), include), ([], [], [])
                )
            else:
                group = branches.setdefault((drive, include), ([], [], []))
            rows_i, rows_b, rows_node = group
            # Prefetch a contiguous bucket window around the requested
            # pair: bisection slews drift a few buckets per node over the
            # rounds, and every bucket value is a pure function of its
            # key, so widening a job only moves future misses into this
            # batch (fewer rounds, fewer groups) without changing any
            # stored value. Requested buckets are cache-missing by
            # construction; extras are filtered against the cache.
            lo_b = buckets[0] - _PREFETCH_BELOW
            if lo_b < 0:
                lo_b = 0
            hi_b = buckets[-1] + _PREFETCH_ABOVE
            requested = set(buckets)
            for bucket in range(lo_b, hi_b + 1):
                if bucket not in requested and (node, bucket) in cache:
                    continue
                rows_i.append(i)
                rows_b.append(bucket)
                rows_node.append(node)
        # Deep stages take the scalar recursion, which fills (and memoizes) every bucket below them on the way.
        for node, buckets in slow:
            for bucket in buckets:
                if node.kind is NodeKind.BUFFER:
                    engine._buffer_bucket_bounds(node, bucket)
                else:
                    engine._virtual_bucket_bounds(node, bucket)
        evaluated: list[tuple] = []
        for (drive, load_code, include), (rows_i, rows_b, rows_node) in (
            singles.items()
        ):
            idx = np.asarray(rows_i, dtype=np.intp)
            fits = engine.library.single[(drive, self._load_names[load_code])]
            lengths = self.fs_stem[idx]
            n = len(rows_b)
            if n < _SCALAR_GROUP_ROWS:
                f_delay = fits["wire_delay"].predict
                f_slew = fits["wire_slew"].predict
                f_buf = fits["buffer_delay"].predict if include else None
                lengths_l = lengths.tolist()
                delays = np.empty(n)
                slews = np.empty(n)
                for k in range(n):
                    rep = rows_b[k] * SLEW_QUANTUM
                    length = lengths_l[k]
                    delay = max(0.0, f_delay(rep, length))
                    if include:
                        delay = delay + max(0.0, f_buf(rep, length))
                    delays[k] = delay
                    slews[k] = max(1e-15, f_slew(rep, length))
            else:
                x = np.empty((n, 2))
                x[:, 0] = np.asarray(rows_b, dtype=np.float64) * SLEW_QUANTUM
                x[:, 1] = lengths
                delays = np.maximum(0.0, fits["wire_delay"].predict_many(x))
                if include:
                    delays = delays + np.maximum(
                        0.0, fits["buffer_delay"].predict_many(x)
                    )
                slews = np.maximum(1e-15, fits["wire_slew"].predict_many(x))
            evaluated.append(
                (
                    rows_node,
                    rows_b,
                    (self.fs_lend[idx], self.fs_lkind[idx], delays, slews),
                    None,
                )
            )
        for (drive, include), (rows_i, rows_b, rows_node) in branches.items():
            idx = np.asarray(rows_i, dtype=np.intp)
            fits = engine.library.branch[drive]
            stems = self.fs_stem[idx]
            l_lens = self.fs_llen[idx]
            r_lens = self.fs_rlen[idx]
            l_caps = self.fs_lcap[idx]
            r_caps = self.fs_rcap[idx]
            n = len(rows_b)
            if n < _SCALAR_GROUP_ROWS:
                stems_l = stems.tolist()
                ll_l = l_lens.tolist()
                rl_l = r_lens.tolist()
                lc_l = l_caps.tolist()
                rc_l = r_caps.tolist()
                l_delays = np.empty(n)
                l_slews = np.empty(n)
                r_delays = np.empty(n)
                r_slews = np.empty(n)
                for k in range(n):
                    args = (
                        rows_b[k] * SLEW_QUANTUM,
                        stems_l[k],
                        ll_l[k],
                        rl_l[k],
                        lc_l[k],
                        rc_l[k],
                    )
                    base = (
                        max(0.0, fits["buffer_delay"].predict(*args))
                        if include
                        else 0.0
                    )
                    l_delays[k] = base + max(
                        0.0, fits["left_delay"].predict(*args)
                    )
                    l_slews[k] = max(1e-15, fits["left_slew"].predict(*args))
                    r_delays[k] = base + max(
                        0.0, fits["right_delay"].predict(*args)
                    )
                    r_slews[k] = max(1e-15, fits["right_slew"].predict(*args))
            else:
                reps = np.asarray(rows_b, dtype=np.float64) * SLEW_QUANTUM
                batch = engine.library.branch_component_many(
                    drive,
                    reps,
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
            evaluated.append(
                (
                    rows_node,
                    rows_b,
                    (self.fs_lend[idx], self.fs_lkind[idx], l_delays, l_slews),
                    (self.fs_rend[idx], self.fs_rkind[idx], r_delays, r_slews),
                )
            )
        # Bucket math (q, truncation, frac) for each side's buffer ends
        # is computed once here; the driver scans it for the next pass's
        # wavefront and _finalize_pass interpolates from it on unwind.
        out: list[tuple] = []
        for rows_node, rows_b, left, right in evaluated:
            l_buckets = self._side_buckets(left[0], left[1], left[3])
            r_buckets = (
                None
                if right is None
                else self._side_buckets(right[0], right[1], right[3])
            )
            out.append((rows_node, rows_b, left, right, l_buckets, r_buckets))
        return out

    def _finalize_pass(self, engine, evaluated) -> None:
        cache = engine._bounds_cache
        for rows_node, rows_b, left, right, l_buckets, r_buckets in evaluated:
            __, __k, l_delays, l_slews = left
            l_bmin, l_bmax, l_bworst = self._below_bounds(
                engine, len(rows_b), l_buckets
            )
            if right is None:
                lo = l_delays + l_bmin
                hi = l_delays + l_bmax
                worst = np.maximum(0.0, np.maximum(l_slews, l_bworst))
            else:
                __, __k, r_delays, r_slews = right
                r_bmin, r_bmax, r_bworst = self._below_bounds(
                    engine, len(rows_b), r_buckets
                )
                lo = np.minimum(l_delays + l_bmin, r_delays + r_bmin)
                hi = np.maximum(l_delays + l_bmax, r_delays + r_bmax)
                worst = np.maximum(
                    0.0,
                    np.maximum(
                        np.maximum(l_slews, l_bworst),
                        np.maximum(r_slews, r_bworst),
                    ),
                )
            # Bulk insert: every bucket value is a pure function of its
            # key, so a duplicate row carries a bit-identical value and
            # last-write-wins is indistinguishable from first-write-wins.
            bounds = map(SubtreeBounds, lo.tolist(), hi.tolist(), worst.tolist())
            cache.update(zip(zip(rows_node, rows_b), bounds))

    def _side_buckets(self, ends, kinds, slews):
        """Bucket rows of one evaluated side's buffer ends.

        Returns ``(rows, end nodes, k, frac, slews)`` — compacted to the
        buffer rows — or None when the side has none. ``slew /
        SLEW_QUANTUM``, ``int`` truncation and ``q - k`` are evaluated
        element-wise with the scalar bucket math's float ops (positive
        slews, so ``astype`` truncation equals ``int()``).
        """
        rows = np.nonzero(kinds == _BUFFER)[0]
        if not rows.size:
            return None
        picked = slews[rows]
        q = picked / SLEW_QUANTUM
        ks = q.astype(np.int64)
        frac = q - ks
        nodes = self._nodes
        return (
            rows,
            [nodes[row] for row in ends[rows].tolist()],
            ks.tolist(),
            frac.tolist(),
            picked.tolist(),
        )

    def _scan_wavefront(self, engine, wavefront, buckets):
        if buckets is None:
            return
        cache = engine._bounds_cache
        __, ends, ks, fracs, __s = buckets
        for end, k, frac in zip(ends, ks, fracs):
            if (end, k) not in cache:
                wavefront.setdefault(end, set()).add(k)
            if frac != 0.0 and (end, k + 1) not in cache:
                wavefront.setdefault(end, set()).add(k + 1)

    def _below_bounds(self, engine, n, buckets):
        """Interpolated sub-bounds for buffer ends (zeros elsewhere).

        Per-row float ops are the inlined interpolation of
        ``buffer_subtree_bounds``; a missing bucket (wavefront raced or
        scalar-only child) falls back to that very method.
        """
        b_min = np.zeros(n)
        b_max = np.zeros(n)
        b_worst = np.zeros(n)
        if buckets is not None:
            rows, ends, ks, fracs, slews = buckets
            cache = engine._bounds_cache
            mins: list[float] = []
            maxes: list[float] = []
            worsts: list[float] = []
            for end, k, frac, slew in zip(ends, ks, fracs, slews):
                lo = cache.get((end, k))
                if lo is None:
                    below = engine.buffer_subtree_bounds(end, slew)
                elif frac == 0.0:
                    below = lo
                else:
                    hi = cache.get((end, k + 1))
                    if hi is None:
                        below = engine.buffer_subtree_bounds(end, slew)
                    else:
                        below = (
                            lo[0] + (hi[0] - lo[0]) * frac,
                            lo[1] + (hi[1] - lo[1]) * frac,
                            lo[2] + (hi[2] - lo[2]) * frac,
                        )
                mins.append(below[0])
                maxes.append(below[1])
                worsts.append(below[2])
            b_min[rows] = mins
            b_max[rows] = maxes
            b_worst[rows] = worsts
        return b_min, b_max, b_worst

    # ------------------------------------------------------------------
    # Kernel 2: batched forced-stage-buffer decisions
    # ------------------------------------------------------------------

    def stage_drivers(self, router, merges) -> list:
        """Choose the stage driver (or None) for each finished merge.

        Batched twin of the decision half of
        ``MergeRouter._maybe_force_stage_buffer`` +
        ``_choose_stage_driver`` for every pair that reached the stage
        phase in the same scheduler round: collapsed caps fold from the
        byte-cached buffer-code sequences, drivers resolve in lockstep
        ``branch_slews_many`` rounds — one per buffer name over the
        still-unresolved merges, which evaluates exactly the (name,
        merge) pairs the scalar loop would.
        """
        engine = router.engine
        cap_cache = engine._cap_cache
        max_cap = router.max_stage_cap
        drivers: list = [None] * len(merges)
        need: list[int] = []
        for k, merge in enumerate(merges):
            cap = cap_cache.get(merge)
            if cap is None:
                cap = self._collapsed_cap(merge, engine)
                cap_cache[merge] = cap
            if cap > max_cap:
                need.append(k)
        if not need:
            return drivers
        if len(need) < _SCALAR_DRIVER_ROWS:
            for k in need:
                drivers[k] = router._choose_stage_driver(merges[k])
            return drivers
        target = router.options.target_slew
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
        names = router.library.buffer_names
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
                    l_slew, r_slew = router.library.branch_slews(
                        name, target, 0.0,
                        l_lens[j], r_lens[j], l_caps[j], r_caps[j],
                    )
                    ok_rows.append(l_slew <= target and r_slew <= target)
                ok = np.asarray(ok_rows, dtype=bool)
            else:
                l_slews, r_slews = router.library.branch_slews_many(
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
                drivers[need[j]] = router.buffers[name]
            remaining = remaining[~ok]
        fallback = router.buffers[names[-1]]
        for j in remaining.tolist():
            drivers[need[j]] = fallback
        return drivers

    def _buffer_codes_below(self, node) -> bytes:
        """Ordered buffer-code sequence of ``node.walk()`` below ``node``.

        ``walk`` is DFS last-child-first, so a node's sequence is (own
        code if buffer) ++ seq(last child) ++ ... ++ seq(first child):
        sequences compose by concatenation and cache bottom-up. Valid
        under the frozen-below invariant — surgery only ever happens
        above nodes whose collapsed cap was already cached.
        """
        seq = self._bufseq
        cached = seq.get(node)
        if cached is not None:
            return cached
        stack = [(node, False)]
        while stack:
            current, ready = stack.pop()
            if current in seq:
                continue
            if not ready:
                stack.append((current, True))
                for child in current.children:
                    if child not in seq:
                        stack.append((child, False))
            else:
                parts = []
                if current.kind is NodeKind.BUFFER:
                    parts.append(
                        bytes((self._buffer_code(current.buffer),))
                    )
                for child in reversed(current.children):
                    parts.append(seq[child])
                seq[current] = b"".join(parts)
        return seq[node]

    def _collapsed_cap(self, node, engine) -> float:
        """Bit-exact twin of the ``_load_cap_of`` miss path for a
        MERGE/STEINER root: the shallow unbuffered region walks objects
        (it stops at buffer inputs), then the buffer input caps fold in
        the exact ``walk()`` order replayed from the byte sequence."""
        total = node.unbuffered_cap(engine.tech.wire.capacitance_per_unit)
        codes = self._buffer_codes_below(node)
        if codes:
            caps = self._buffer_caps
            if len(caps) != len(self._buffer_names):
                caps = [
                    engine._buffer_input_cap(name, buf)
                    for name, buf in zip(
                        self._buffer_names, self._buffer_types
                    )
                ]
                self._buffer_caps = caps
            for code in codes:
                total += caps[code]
        return total

