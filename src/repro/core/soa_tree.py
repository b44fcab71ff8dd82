"""Structure-of-arrays mirror of the in-flight clock tree.

The commit phase is Python-bookkeeping-bound, not fit-bound
(PERFORMANCE.md): the probe math was batched in PR 3, and what remains
is object-graph traversal — ``stage_structure`` walks re-tracing the
same frozen stage paths for every new bounds bucket, ``_load_cap_of``
re-walking collapsed stages, and ``_maybe_force_stage_buffer`` choosing
stage drivers one scalar ``branch_slews`` call at a time.

This module keeps a flat mirror of every :class:`~repro.tree.nodes.TreeNode`
in numpy columns — kind/position/cap/wire plus first-child/last-child/
sibling topology links — updated by the recorder hooks ``TreeNode``
exposes (:func:`repro.tree.nodes.set_tree_recorder`). On top of the
mirror it caches *flat stage* rows: once a node's bounds are first
queried, the stage below it is frozen (the bottom-up flow only builds
above existing roots — the same invariant the engine's bounds/cap dict
caches already rely on), so its traced shape (single load path or
two-branch split), stem lengths, end ids and end caps are written into
columns once and every later bounds-bucket evaluation becomes a numpy
gather + one batched fit round + a vectorized accumulate.

Three commit-phase kernels read the mirror:

- :meth:`SoaTree.prefill_bounds` — the level-wide bounds-bucket prefill
  (replaces the object walk in ``subtree_bounds_many``'s miss path);
- :meth:`SoaTree.stage_drivers` — batched forced-stage-buffer decisions
  for a whole scheduler round (collapsed caps folded from per-node
  buffer-code byte sequences, drivers chosen by lockstep
  ``branch_slews_many`` rounds over the still-unresolved merges);
- :meth:`SoaTree.load_cap` — collapsed stage caps of the binary-search
  probes, folded from the same byte sequences.

Checkpoint frames are encoded from the node objects
(:mod:`repro.core.checkpoint`), which measured faster than encoding
them from the columns.

Bit-identity with the object walks rests on the established
facts: ``predict_many``/``branch_component_many``/``branch_slews_many``
perform the scalar evaluators' float ops element-wise; memoized bounds
and caps are exact functions of their cache key, so fill *order* is
irrelevant; min/max folds are exact under regrouping; and the collapsed
cap fold replays the object walk's buffer-code sequence in its exact
order (cached per node as ``bytes`` — DFS-last-child-first sequences
compose by concatenation), so the float sum is the object walk's sum.

The mirror has no fallback of its own: an exception in a recorder hook
or a kernel propagates out of the synthesis. Engines used outside
``AggressiveBufferedCTS.synthesize`` have no mirror installed and take
the object walks, which the kernels also delegate unmirrored and deep
stages to.
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
_SOURCE, _SINK, _MERGE, _BUFFER, _STEINER = range(5)

#: Flat-stage classification of the structure below a node.
_FS_UNKNOWN = 0  # not traced yet
_FS_EMPTY = 1  # no children (dangling driver / empty virtual root)
_FS_SINGLE = 2  # one load path: stem length + one end
_FS_BRANCH = 3  # two-branch split, both branches plain load paths
_FS_DEEP = 4  # nested merges / >2-way splits — evaluate via objects

#: Columns of the mirror: (attribute, dtype, fill value). Reference
#: columns hold node *ids* (-1 = none) and are value-remapped on
#: renumbering; the rest are plain per-row payload.
_COLUMNS = (
    ("kind", np.int8, -1),
    ("parent", np.int64, -1),
    ("first_child", np.int64, -1),
    ("last_child", np.int64, -1),
    ("next_sib", np.int64, -1),
    ("prev_sib", np.int64, -1),
    ("n_children", np.int32, 0),
    ("x", np.float64, 0.0),
    ("y", np.float64, 0.0),
    ("wire", np.float64, 0.0),
    ("cap", np.float64, 0.0),
    ("buf_code", np.int16, -1),
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

#: Columns holding node ids that must follow a renumbering.
_REF_COLUMNS = (
    "parent",
    "first_child",
    "last_child",
    "next_sib",
    "prev_sib",
    "fs_lend",
    "fs_rend",
)

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
    """Flat-array mirror of the in-flight tree plus its commit kernels.

    Install with :func:`repro.tree.nodes.set_tree_recorder` for the
    duration of one synthesis run; the recorder hooks echo every node
    creation / attach / detach into the columns.
    """

    def __init__(self) -> None:
        self._base: int | None = None
        self._capacity = 0
        self._used = 0
        #: id -> live TreeNode (identity-checked before any fast read).
        self.nodes: list = []
        #: Buffer-type interning: code <-> (name, BufferType).
        self._buffer_names: list[str] = []
        self._buffer_types: list = []
        self._buffer_code_of: dict[str, int] = {}
        self._buffer_caps: list[float] = []
        #: Load-name interning for single-path group keys.
        self._load_names: list[str] = []
        self._load_code_of: dict[str, int] = {}
        #: id -> ordered buffer-code byte sequence of the subtree
        #: (DFS-last-child-first, i.e. ``TreeNode.walk`` order).
        self._bufseq: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    def _alloc(self, capacity: int) -> None:
        for name, dtype, fill in _COLUMNS:
            col = np.empty(capacity, dtype=dtype)
            col.fill(fill)
            setattr(self, name, col)
        self.nodes = [None] * capacity
        self._capacity = capacity

    def _grow_back(self, need: int) -> None:
        new_cap = max(need, 2 * self._capacity)
        for name, dtype, fill in _COLUMNS:
            col = np.empty(new_cap, dtype=dtype)
            col.fill(fill)
            col[: self._capacity] = getattr(self, name)
            setattr(self, name, col)
        self.nodes.extend([None] * (new_cap - self._capacity))
        self._capacity = new_cap

    def _grow_front(self, shortfall: int) -> None:
        # Checkpoint decode creates nodes with explicit (low) ids, so the
        # base adapts downward; front growth is a one-off per resume.
        shift = max(shortfall, self._capacity)
        shift = min(shift, self._base)
        if shift < shortfall:
            shift = shortfall  # cannot go below id 0 anyway
        new_cap = self._capacity + shift
        for name, dtype, fill in _COLUMNS:
            col = np.empty(new_cap, dtype=dtype)
            col.fill(fill)
            col[shift:] = getattr(self, name)
            setattr(self, name, col)
        self.nodes = [None] * shift + self.nodes
        self._capacity = new_cap
        self._base -= shift
        self._used += shift

    def _ensure(self, node_id: int) -> int:
        if self._base is None:
            self._base = node_id
            self._alloc(1024)
        i = node_id - self._base
        if i < 0:
            self._grow_front(-i)
            i = node_id - self._base
        elif i >= self._capacity:
            self._grow_back(i + 1)
        if i >= self._used:
            self._used = i + 1
        return i

    def _index_of(self, node) -> int:
        """Row of a live node, or -1 when the mirror cannot vouch for it."""
        base = self._base
        if base is None:
            return -1
        i = node.id - base
        if 0 <= i < self._used and self.nodes[i] is node:
            return i
        return -1

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
    # Recorder hooks
    # ------------------------------------------------------------------

    def on_create(self, node) -> None:
        i = self._ensure(node.id)
        self.kind[i] = _CODE_OF[node.kind]
        loc = node.location
        self.x[i] = loc.x
        self.y[i] = loc.y
        self.cap[i] = node.cap
        if node.buffer is not None:
            self.buf_code[i] = self._buffer_code(node.buffer)
        self.nodes[i] = node

    def on_attach(self, parent, child) -> None:
        base = self._base
        pi = parent.id - base
        ci = child.id - base
        if not (
            0 <= pi < self._used
            and 0 <= ci < self._used
            and self.nodes[pi] is parent
            and self.nodes[ci] is child
        ):
            raise RuntimeError("attach of a node the mirror never saw")
        self.parent[ci] = parent.id
        self.wire[ci] = child.wire_to_parent
        last = int(self.last_child[pi])
        if last < 0:
            self.first_child[pi] = child.id
        else:
            self.next_sib[last - base] = child.id
            self.prev_sib[ci] = last
        self.last_child[pi] = child.id
        self.n_children[pi] += 1

    def on_detach(self, parent, child) -> None:
        base = self._base
        pi = parent.id - base
        ci = child.id - base
        if not (
            0 <= pi < self._used
            and 0 <= ci < self._used
            and self.nodes[pi] is parent
            and self.nodes[ci] is child
        ):
            raise RuntimeError("detach of a node the mirror never saw")
        prev = int(self.prev_sib[ci])
        nxt = int(self.next_sib[ci])
        if prev < 0:
            self.first_child[pi] = nxt
        else:
            self.next_sib[prev - base] = nxt
        if nxt < 0:
            self.last_child[pi] = prev
        else:
            self.prev_sib[nxt - base] = prev
        self.parent[ci] = -1
        self.prev_sib[ci] = -1
        self.next_sib[ci] = -1
        self.wire[ci] = 0.0
        self.n_children[pi] -= 1

    # ------------------------------------------------------------------
    # Renumbering
    # ------------------------------------------------------------------

    def remap_ids(self, mapping: dict[int, int]) -> None:
        """Follow a serial-order renumbering (see ``parallel_merge``).

        The mapping is an identity-dropped permutation over the level's
        consumed id spans (keys set == values set), so scattering every
        mapped row to its target covers exactly the moved positions.
        Garbage (unreachable) nodes are scattered too — their objects
        keep the old id, so any later lookup fails the identity check
        and falls back, which is correct because they are never queried.
        """
        if not mapping or self._base is None:
            return
        base = self._base
        used = self._used
        n = len(mapping)
        old = np.fromiter(mapping.keys(), dtype=np.int64, count=n)
        new = np.fromiter(mapping.values(), dtype=np.int64, count=n)
        if (
            int(old.min()) < base
            or int(old.max()) >= base + used
            or int(new.min()) < base
            or int(new.max()) >= base + used
        ):
            raise RuntimeError("renumbering outside the mirrored id range")
        perm = np.arange(base, base + used, dtype=np.int64)
        perm[old - base] = new
        for name in _REF_COLUMNS:
            col = getattr(self, name)
            view = col[:used]
            mask = view >= 0
            view[mask] = perm[view[mask] - base]
        oi = old - base
        ni = new - base
        moved_nodes = [self.nodes[i] for i in oi.tolist()]
        for name, __, __f in _COLUMNS:
            col = getattr(self, name)
            col[ni] = col[oi]
        for row, node in zip(ni.tolist(), moved_nodes):
            self.nodes[row] = node
        seq = self._bufseq
        moved = [node_id for node_id in seq if node_id in mapping]
        entries = [(node_id, seq.pop(node_id)) for node_id in moved]
        for node_id, codes in entries:
            seq[mapping[node_id]] = codes

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

    def _build_flat(self, i: int, engine) -> int:
        """Trace and cache the flat stage below row ``i``; returns state."""
        node = self.nodes[i]
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
                    self.fs_stem[i] = length
                    self.fs_lend[i] = end.id
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
                        self.fs_stem[i] = length
                        self.fs_llen[i] = l_len
                        self.fs_rlen[i] = r_len
                        self.fs_lend[i] = l_end.id
                        self.fs_rend[i] = r_end.id
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
            # Malformed stage (e.g. a SOURCE inside): the object path
            # raises the same error at evaluation time; classify deep so
            # both paths surface it identically.
            state = _FS_DEEP
        self.fs_state[i] = state
        return state

    # ------------------------------------------------------------------
    # Kernel 1: level-wide bounds-bucket prefill
    # ------------------------------------------------------------------

    def prefill_bounds(self, engine, jobs) -> None:
        """Fill missing bounds buckets from the columns.

        Drop-in for the miss path of ``subtree_bounds_many``: same jobs,
        same caches, bit-identical stored values. Jobs whose stage shape
        is not mirrored or not flat are delegated to the object walk, so
        on return *every* requested bucket is cached.
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
            wavefront: dict[int, set[int]] = {}
            for entry in evaluated:
                self._scan_wavefront(engine, wavefront, entry[6])
                self._scan_wavefront(engine, wavefront, entry[7])
            nodes = self.nodes
            base = self._base
            pending = [
                ("b", nodes[node_id - base], sorted(buckets), None)
                for node_id, buckets in wavefront.items()
            ]
        for evaluated in reversed(passes):
            self._finalize_pass(engine, evaluated)

    def _evaluate_jobs(self, engine, jobs) -> list[tuple]:
        bounds_cache = engine._bounds_cache
        vbounds_cache = engine._vbounds_cache
        fs_state = self.fs_state
        slow: list = []
        # group key -> [row indices, buckets, node ids]
        singles: dict[tuple, list] = {}
        branches: dict[tuple, list] = {}
        for job in jobs:
            job_kind, node, buckets, vdrive = job
            i = self._index_of(node)
            if i < 0:
                slow.append(job)
                continue
            state = int(fs_state[i])
            if state == _FS_UNKNOWN:
                state = self._build_flat(i, engine)
            if state == _FS_DEEP:
                slow.append(job)
                continue
            include = job_kind == "b"
            if state == _FS_EMPTY:
                cache = bounds_cache if include else vbounds_cache
                for bucket in buckets:
                    key = (
                        (node.id, bucket)
                        if include
                        else (node.id, bucket, vdrive)
                    )
                    if key not in cache:
                        cache[key] = SubtreeBounds(0.0, 0.0, 0.0)
                continue
            drive = (
                self._buffer_names[int(self.buf_code[i])]
                if include
                else vdrive
            )
            if state == _FS_SINGLE:
                group = singles.setdefault(
                    (drive, int(self.fs_lload[i]), include), ([], [], [])
                )
            else:
                group = branches.setdefault((drive, include), ([], [], []))
            rows_i, rows_b, rows_id = group
            # Prefetch a contiguous bucket window around the requested
            # pair: bisection slews drift a few buckets per node over the
            # rounds, and every bucket value is a pure function of its
            # key, so widening a job only moves future misses into this
            # batch (fewer rounds, fewer groups) without changing any
            # stored value. Requested buckets are cache-missing by
            # construction; extras are filtered against the cache.
            node_id = node.id
            lo_b = buckets[0] - _PREFETCH_BELOW
            if lo_b < 0:
                lo_b = 0
            hi_b = buckets[-1] + _PREFETCH_ABOVE
            cache = bounds_cache if include else vbounds_cache
            requested = set(buckets)
            for bucket in range(lo_b, hi_b + 1):
                if bucket not in requested:
                    key = (
                        (node_id, bucket)
                        if include
                        else (node_id, bucket, vdrive)
                    )
                    if key in cache:
                        continue
                rows_i.append(i)
                rows_b.append(bucket)
                rows_id.append(node_id)
        if slow:
            engine._prefill_bucket_jobs_object(slow)
        evaluated: list[tuple] = []
        for (drive, load_code, include), (rows_i, rows_b, rows_id) in (
            singles.items()
        ):
            idx = np.asarray(rows_i, dtype=np.intp)
            fits = engine.library.single[(drive, self._load_names[load_code])]
            lengths = self.fs_stem[idx]
            n = len(rows_b)
            if n < engine._SCALAR_GROUP_ROWS:
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
                    include,
                    drive,
                    rows_id,
                    rows_b,
                    (self.fs_lend[idx], self.fs_lkind[idx], delays, slews),
                    None,
                )
            )
        for (drive, include), (rows_i, rows_b, rows_id) in branches.items():
            idx = np.asarray(rows_i, dtype=np.intp)
            fits = engine.library.branch[drive]
            stems = self.fs_stem[idx]
            l_lens = self.fs_llen[idx]
            r_lens = self.fs_rlen[idx]
            l_caps = self.fs_lcap[idx]
            r_caps = self.fs_rcap[idx]
            n = len(rows_b)
            if n < engine._SCALAR_GROUP_ROWS:
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
                    include,
                    drive,
                    rows_id,
                    rows_b,
                    (self.fs_lend[idx], self.fs_lkind[idx], l_delays, l_slews),
                    (self.fs_rend[idx], self.fs_rkind[idx], r_delays, r_slews),
                )
            )
        # Bucket math (q, truncation, frac) for each side's buffer ends
        # is computed once here; the driver scans it for the next pass's
        # wavefront and _finalize_pass interpolates from it on unwind.
        out: list[tuple] = []
        for include, drive, rows_id, rows_b, left, right in evaluated:
            l_buckets = self._side_buckets(left[0], left[1], left[3])
            r_buckets = (
                None
                if right is None
                else self._side_buckets(right[0], right[1], right[3])
            )
            out.append(
                (
                    include,
                    drive,
                    rows_id,
                    rows_b,
                    left,
                    right,
                    l_buckets,
                    r_buckets,
                )
            )
        return out

    def _finalize_pass(self, engine, evaluated) -> None:
        bounds_cache = engine._bounds_cache
        vbounds_cache = engine._vbounds_cache
        for (
            include,
            drive,
            rows_id,
            rows_b,
            left,
            right,
            l_buckets,
            r_buckets,
        ) in evaluated:
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
            if include:
                bounds_cache.update(zip(zip(rows_id, rows_b), bounds))
            else:
                vbounds_cache.update(
                    zip(
                        ((node_id, bucket, drive)
                         for node_id, bucket in zip(rows_id, rows_b)),
                        bounds,
                    )
                )

    def _side_buckets(self, ends, kinds, slews):
        """Bucket rows of one evaluated side's buffer ends.

        Returns ``(rows, end ids, k, frac, slews)`` — compacted to the
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
        return (
            rows,
            ends[rows].tolist(),
            ks.tolist(),
            frac.tolist(),
            picked.tolist(),
        )

    def _scan_wavefront(self, engine, wavefront, buckets):
        if buckets is None:
            return
        cache = engine._bounds_cache
        __, ids, ks, fracs, __s = buckets
        for end_id, k, frac in zip(ids, ks, fracs):
            if (end_id, k) not in cache:
                wavefront.setdefault(end_id, set()).add(k)
            if frac != 0.0 and (end_id, k + 1) not in cache:
                wavefront.setdefault(end_id, set()).add(k + 1)

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
            rows, ids, ks, fracs, slews = buckets
            cache = engine._bounds_cache
            base = self._base
            nodes = self.nodes
            mins: list[float] = []
            maxes: list[float] = []
            worsts: list[float] = []
            for end_id, k, frac, slew in zip(ids, ks, fracs, slews):
                lo = cache.get((end_id, k))
                if lo is None:
                    below = engine.buffer_subtree_bounds(
                        nodes[end_id - base], slew
                    )
                elif frac == 0.0:
                    below = lo
                else:
                    hi = cache.get((end_id, k + 1))
                    if hi is None:
                        below = engine.buffer_subtree_bounds(
                            nodes[end_id - base], slew
                        )
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
            cap = cap_cache.get(merge.id)
            if cap is None:
                cap = self._collapsed_cap(merge, engine)
                cap_cache[merge.id] = cap
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
        cached = seq.get(node.id)
        if cached is not None:
            return cached
        stack = [(node, False)]
        while stack:
            current, ready = stack.pop()
            if current.id in seq:
                continue
            if not ready:
                stack.append((current, True))
                for child in current.children:
                    if child.id not in seq:
                        stack.append((child, False))
            else:
                parts = []
                if current.kind is NodeKind.BUFFER:
                    parts.append(
                        bytes((self._buffer_code(current.buffer),))
                    )
                for child in reversed(current.children):
                    parts.append(seq[child.id])
                seq[current.id] = b"".join(parts)
        return seq[node.id]

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

    def load_cap(self, engine, node) -> float | None:
        """Collapsed load cap of a MERGE/STEINER root, or None.

        Fast twin of the ``LibraryTimingEngine._load_cap_of`` miss path
        used by the binary-search probe evaluators: the buffer input
        caps below ``node`` fold from the byte-cached code sequence in
        the exact object ``walk()`` order, so the float sum is
        bit-identical. Returns None for BUFFER/SINK roots, which the
        caller answers on the objects (trivial there; nothing to skip).
        """
        kind = node.kind
        if kind is NodeKind.BUFFER or kind is NodeKind.SINK:
            return None
        cached = engine._cap_cache.get(node.id)
        if cached is not None:
            return cached
        cap = self._collapsed_cap(node, engine)
        engine._cap_cache[node.id] = cap
        return cap

    # ------------------------------------------------------------------
    # Diagnostics (tests)
    # ------------------------------------------------------------------

    def assert_mirrors(self, root) -> None:
        """Walk ``root``'s subtree and verify the mirror agrees row by
        row (topology links and payload). Test helper."""
        base = self._base
        for node in root.walk():
            i = node.id - base
            assert 0 <= i < self._used and self.nodes[i] is node, node
            assert int(self.kind[i]) == _CODE_OF[node.kind], node
            assert self.x[i] == node.location.x, node
            assert self.y[i] == node.location.y, node
            assert self.cap[i] == node.cap, node
            assert self.wire[i] == node.wire_to_parent, node
            expected_parent = node.parent.id if node.parent is not None else -1
            assert int(self.parent[i]) == expected_parent, node
            assert int(self.n_children[i]) == len(node.children), node
            child_ids = []
            child = int(self.first_child[i])
            while child >= 0:
                child_ids.append(child)
                child = int(self.next_sib[child - base])
            assert child_ids == [c.id for c in node.children], node
            back_ids = []
            child = int(self.last_child[i])
            while child >= 0:
                back_ids.append(child)
                child = int(self.prev_sib[child - base])
            assert back_ids == [c.id for c in reversed(node.children)], node
