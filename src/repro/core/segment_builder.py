"""Slew-driven buffer insertion along a 1-D routing path (Fig. 4.4).

This is the logic shared by both routers: as maze expansion extends the
open wire segment cell by cell, the slew at the segment's downstream end
(monitored with the driver input slew assumed equal to the slew target) is
looked up from the characterized library; when no buffer type could keep
it within the target anymore, a buffer is inserted using *intelligent
sizing* — every (buffer type, recent cell) pair is evaluated and the one
whose resulting slew is closest to (but within) the target wins, maximizing
the usable segment length.

Because the routing medium is uniform, delay along a path depends only on
the number of grid steps, so the whole expansion is precomputed as a
*distance profile*: arrays of delay/state per step count, shared by every
cell at the same path distance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.charlib.library import DelaySlewLibrary


class SegmentTablesReference:
    """The seed's table builder: full-length evaluation, scalar lookups.

    Retained for the perf harness (the baseline the scaling bench times);
    :class:`SegmentTables` is the production implementation.
    """

    def __init__(
        self,
        library: DelaySlewLibrary,
        step: float,
        n_steps: int,
        input_slew: float,
    ):
        if step <= 0:
            raise ValueError("step must be positive")
        self.library = library
        self.step = step
        self.n_steps = n_steps
        self.input_slew = input_slew
        self._cache: dict[tuple[str, str, str], np.ndarray] = {}
        self._lengths = np.arange(n_steps + 1) * step

    def _table(self, drive: str, load: str, fn: str) -> np.ndarray:
        key = (drive, load, fn)
        table = self._cache.get(key)
        if table is None:
            fit = self.library.single[(drive, load)][fn]
            x = np.column_stack(
                [np.full(self._lengths.size, self.input_slew), self._lengths]
            )
            table = fit.predict_many(x)
            if fn == "wire_slew":
                beyond = self._lengths > float(fit.hi[1]) * 1.001
                table = np.where(beyond, np.inf, table)
            self._cache[key] = table
        return table

    def wire_slew(self, drive: str, load: str, k: int) -> float:
        return float(self._table(drive, load, "wire_slew")[k])

    def wire_delay(self, drive: str, load: str, k: int) -> float:
        return max(0.0, float(self._table(drive, load, "wire_delay")[k]))

    def buffer_delay(self, drive: str, load: str, k: int) -> float:
        return max(0.0, float(self._table(drive, load, "buffer_delay")[k]))


class SegmentTables:
    """Vectorized single-wire lookups at multiples of one grid pitch.

    For a given merge, every lookup is at a length ``k * step`` with the
    same assumed input slew, so each (drive, load, function) triple
    collapses into one array indexed by step count.
    """

    def __init__(
        self,
        library: DelaySlewLibrary,
        step: float,
        n_steps: int,
        input_slew: float,
    ):
        if step <= 0:
            raise ValueError("step must be positive")
        self.library = library
        self.step = step
        self.n_steps = n_steps
        self.input_slew = input_slew
        self._cache: dict[tuple[str, str, str], np.ndarray] = {}
        self._matrix_cache: dict[tuple[tuple[str, ...], str], np.ndarray] = {}
        self._feasible_cache: dict[tuple[tuple[str, ...], str, float], np.ndarray] = {}
        self._delay_cache: dict[tuple[str, str], np.ndarray] = {}
        self._lengths = np.arange(n_steps + 1) * step
        #: Memoization observability for the binding-level lookups
        #: (:meth:`any_feasible` / :meth:`clamped_wire_delays`): every
        #: re-bind to an already-seen load must be a cache hit, never a
        #: recomputation — asserted by the unit tests, relied on by the
        #: lockstep expansion scheduler (which pre-installs the entries
        #: and expects ``_bind_load`` to be pure dict lookups).
        self.binding_evals = 0
        self.binding_hits = 0

    def eval_count(self, drive: str, load: str, fn: str) -> int:
        """How many leading length points a table genuinely evaluates.

        Lengths past the fit's range all clamp to the range edge and
        evaluate to the same value, so only the in-range prefix (plus one
        clamped point) is evaluated; the tail is filled with it. Exposed
        so the level batcher can gather exactly this prefix
        from every pair into one vectorized curve round.
        """
        fit = self.library.single[(drive, load)][fn]
        return min(
            int(np.searchsorted(self._lengths, float(fit.hi[1]))) + 1,
            self._lengths.size,
        )

    def _assemble(
        self, drive: str, load: str, fn: str, values: np.ndarray
    ) -> np.ndarray:
        """Tail-fill the evaluated prefix and mask out-of-range slews."""
        fit = self.library.single[(drive, load)][fn]
        table = values
        if table.size < self._lengths.size:
            table = np.concatenate(
                [table, np.full(self._lengths.size - table.size, table[-1])]
            )
        if fn == "wire_slew":
            # Beyond the characterized length range the fit would
            # clamp (silently optimistic); mark those entries
            # infeasible so buffer insertion never relies on them.
            beyond = self._lengths > float(fit.hi[1]) * 1.001
            table = np.where(beyond, np.inf, table)
        return table

    def _table(self, drive: str, load: str, fn: str) -> np.ndarray:
        key = (drive, load, fn)
        table = self._cache.get(key)
        if table is None:
            fit = self.library.single[(drive, load)][fn]
            n_eval = self.eval_count(drive, load, fn)
            # One contracted-curve evaluation (the input slew is fixed for
            # the whole table, so the 2-var fit collapses to a Horner
            # polynomial in length, shared across every merge's tables).
            values = fit.partial_curve(self.input_slew)(self._lengths[:n_eval])
            table = self._assemble(drive, load, fn, values)
            self._cache[key] = table
        return table

    def wire_slew(self, drive: str, load: str, k: int) -> float:
        return float(self._table(drive, load, "wire_slew")[k])

    def wire_delay(self, drive: str, load: str, k: int) -> float:
        return max(0.0, float(self._table(drive, load, "wire_delay")[k]))

    def buffer_delay(self, drive: str, load: str, k: int) -> float:
        return max(0.0, float(self._table(drive, load, "buffer_delay")[k]))

    def slew_matrix(self, drives: list[str], load: str) -> np.ndarray:
        """Stacked wire-slew tables, shape ``(len(drives), n_steps + 1)``.

        Row ``i`` is exactly ``wire_slew(drives[i], load, k)`` over k, so
        whole candidate sets (every drive at every recent cell) resolve in
        one indexing operation instead of per-candidate scalar lookups.
        """
        key = (tuple(drives), load)
        matrix = self._matrix_cache.get(key)
        if matrix is None:
            matrix = np.vstack([self._table(d, load, "wire_slew") for d in drives])
            self._matrix_cache[key] = matrix
        return matrix

    def any_feasible(self, drives: list[str], load: str, target_slew: float) -> np.ndarray:
        """Boolean per-step feasibility frontier over ``drives``.

        Entry ``k`` answers "could *some* drive keep a k-step open segment
        into ``load`` within the slew target" — the question the expansion
        asks before every step — without re-querying the library per type.
        """
        key = (tuple(drives), load, target_slew)
        ok = self._feasible_cache.get(key)
        if ok is None:
            self.binding_evals += 1
            ok = (self.slew_matrix(drives, load) <= target_slew).any(axis=0)
            self._feasible_cache[key] = ok
        else:
            self.binding_hits += 1
        return ok

    def clamped_wire_delays(self, drive: str, load: str) -> np.ndarray:
        """Per-step ``max(0, wire_delay)`` array (one batch, not per-k)."""
        key = (drive, load)
        table = self._delay_cache.get(key)
        if table is None:
            self.binding_evals += 1
            table = np.maximum(self._table(drive, load, "wire_delay"), 0.0)
            self._delay_cache[key] = table
        else:
            self.binding_hits += 1
        return table

    def max_feasible_steps(self, drive: str, load: str, target_slew: float) -> int:
        """Largest k with wire_slew(k) <= target (0 if even k=1 violates)."""
        table = self._table(drive, load, "wire_slew")
        ok = np.nonzero(table > target_slew)[0]
        if ok.size == 0:
            return self.n_steps
        return max(0, int(ok[0]) - 1)


@dataclass(frozen=True)
class PlacedBuffer:
    """A buffer inserted ``steps`` grid steps from the path's start."""

    steps: int
    type_name: str


@dataclass(frozen=True)
class PathState:
    """Snapshot of the expansion frontier after ``k`` steps.

    ``delay`` is the estimated delay from the frontier to the sub-tree's
    sinks: sub-tree delay + completed buffered stages + the open segment's
    wire delay under a virtual frontier driver.
    """

    steps: int
    delay: float
    open_steps: int  # length of the open (driverless) segment, in steps
    load_name: str  # library load type of the open segment's far end
    buffers: tuple[PlacedBuffer, ...]
    n_stages: int


class PathBuilder:
    """Expand a path step by step, inserting buffers per the slew rule.

    The expansion is simulated run by run: between buffer insertions the
    open segment grows monotonically under one load, so whole stretches
    of steps resolve as a single slice of the precomputed feasibility
    frontier and open-segment delay tables. :class:`PathState` snapshots
    are materialized on demand from the run records, so nothing is built
    per step in Python.
    """

    def __init__(
        self,
        tables: SegmentTables,
        base_delay: float,
        initial_load: str,
        target_slew: float,
        buffer_names: list[str],
        virtual_drive: str,
        lookahead: int = 3,
    ):
        self.tables = tables
        self.target_slew = target_slew
        self.buffer_names = buffer_names  # ordered smallest -> largest
        self.virtual_drive = virtual_drive
        self.lookahead = lookahead
        self._initial_load = initial_load
        self._completed_delay = base_delay
        self._open = 0
        self._load = initial_load
        self._buffers: list[PlacedBuffer] = []
        self._bind_load()
        #: Frontier-delay profile, one float64 per step, in a growable
        #: buffer (``_n_delays`` entries are valid) so run extensions
        #: append numpy slices directly — no list/array round-trips.
        self._delays = np.empty(64)
        self._delays[0] = base_delay
        self._n_delays = 1
        #: Run records: (first_step, open_before_first_step, load, buffers).
        self._runs: list[tuple[int, int, str, tuple[PlacedBuffer, ...]]] = []
        self._built = 0  # highest step index whose delay is computed

    def _bind_load(self) -> None:
        """Refresh the per-load batched lookups (feasibility frontier and
        open-segment delay profile); called whenever ``_load`` changes."""
        self._ok_any = self.tables.any_feasible(
            self.buffer_names, self._load, self.target_slew
        )
        self._vd_delays = self.tables.clamped_wire_delays(
            self.virtual_drive, self._load
        )

    # ------------------------------------------------------------------

    def state(self, k: int) -> PathState:
        """Snapshot after k steps (extends the profile on demand)."""
        self._ensure(k)
        if k == 0:
            return PathState(0, float(self._delays[0]), 0, self._initial_load, (), 0)
        idx = bisect_right(self._runs, k, key=lambda r: r[0]) - 1
        first_step, open_before, load, buffers = self._runs[idx]
        return PathState(
            k,
            float(self._delays[k]),
            open_before + (k - first_step + 1),
            load,
            buffers,
            len(buffers),
        )

    def delays_up_to(self, k: int) -> np.ndarray:
        """Array of frontier delays for steps 0..k inclusive."""
        self._ensure(k)
        return self._delays[: k + 1].copy()

    def delays_view(self, k: int) -> np.ndarray:
        """No-copy view of the delays for steps 0..k (read-only).

        The level-batched route-finishing kernel gathers profile costs
        straight out of every pair's buffer; values are exactly
        :meth:`delays_up_to`'s. The view is returned non-writeable so
        the no-copy contract is enforced, not just documented — a
        caller that mutates it raises instead of corrupting the shared
        profile (the underlying buffer stays writeable for run
        extension).
        """
        self._ensure(k)
        view = self._delays[: k + 1]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------

    def _any_type_ok(self, open_steps: int) -> bool:
        return bool(self._ok_any[open_steps])

    def _ensure(self, k: int) -> None:
        """Extend the profile through step ``k`` (run-at-a-time)."""
        while self._built < k:
            o0 = self._open
            remaining = k - self._built
            window = self._ok_any[o0 + 1 : o0 + 1 + remaining]
            if window.size == 0:
                raise IndexError("path extended beyond the segment tables")
            bad = np.flatnonzero(~window)
            run_len = int(bad[0]) if bad.size else int(window.size)
            if run_len == 0:
                # The very next step violates every type: insert a buffer
                # at/behind the frontier (step ``_built``) and re-check.
                self._insert_buffer(self._built)
                # After insertion the load is a buffer very close by; a
                # single further step must be feasible for at least the
                # largest type.
                if not self._any_type_ok(self._open + 1):
                    raise RuntimeError(
                        "grid pitch too coarse for the slew target: one step"
                        " already violates slew after buffer insertion"
                    )
                continue
            seg = self._vd_delays[o0 + 1 : o0 + run_len + 1] + self._completed_delay
            self._append_delays(seg)
            self._runs.append(
                (self._built + 1, o0, self._load, tuple(self._buffers))
            )
            self._open = o0 + run_len
            self._built += run_len

    def _append_delays(self, seg: np.ndarray) -> None:
        """Append one run's delay slice to the profile buffer."""
        end = self._n_delays + seg.size
        if end > self._delays.size:
            grown = np.empty(max(end, 2 * self._delays.size))
            grown[: self._n_delays] = self._delays[: self._n_delays]
            self._delays = grown
        self._delays[self._n_delays : end] = seg
        self._n_delays = end

    def _insert_buffer(self, frontier_step: int) -> None:
        """Intelligent sizing: pick (cell, type) with slew closest to target.

        Candidate positions are the frontier cell and up to ``lookahead``
        cells behind it ("at and ahead of the maze expansion grid in
        question"); candidate types are the whole buffer library. The
        chosen buffer's completed segment becomes a stage; its input
        becomes the new open segment's load.

        Split into :meth:`_choose_buffer` (pure decision) and
        :meth:`_commit_buffer` (state mutation) so the lockstep level
        scheduler can resolve a whole level's insertions as one masked
        sub-round: choose for every lane, group-prime the chosen types'
        tables, then commit — the same two calls, the same arithmetic.
        """
        position, type_name = self._choose_buffer(frontier_step)
        self._commit_buffer(frontier_step, position, type_name)

    def _choose_buffer(self, frontier_step: int) -> tuple[int, str]:
        """The insertion decision: winning (position, type), no mutation."""
        n_back = min(self.lookahead, self._open) + 1
        seg_candidates = self._open - np.arange(n_back)
        # One gather per insertion: slews of every (recent cell, type) pair.
        cand = self.tables.slew_matrix(self.buffer_names, self._load)[
            :, seg_candidates
        ]
        feasible = cand <= self.target_slew
        if feasible.any():
            # The scalar scan replaced only on strictly-greater slew while
            # iterating (position, type) in order, so the winner is the
            # first occurrence of the maximum in (back-major, type-minor)
            # order — which is exactly argmax on the transposed gather.
            flat = np.where(feasible, cand, -np.inf).T.ravel()
            back, name_idx = divmod(int(np.argmax(flat)), len(self.buffer_names))
            position = frontier_step - back
            type_name = self.buffer_names[name_idx]
        else:
            # Even a zero-length segment violates — cannot happen with a
            # sane library, but guard with the largest buffer at distance 0.
            position = frontier_step - self._open
            type_name = self.buffer_names[-1]
        return position, type_name

    def _commit_buffer(
        self, frontier_step: int, position: int, type_name: str
    ) -> None:
        """Apply one chosen insertion: complete the stage, re-bind the load."""
        steps_from_start_of_open = position - (frontier_step - self._open)
        seg_steps = steps_from_start_of_open
        self._completed_delay += self.tables.buffer_delay(
            type_name, self._load, seg_steps
        ) + self.tables.wire_delay(type_name, self._load, seg_steps)
        self._buffers.append(PlacedBuffer(position, type_name))
        self._load = type_name
        self._open = frontier_step - position
        self._bind_load()


class PathBuilderReference:
    """The seed's per-step expansion with scalar library lookups.

    Retained for the perf harness as the timing baseline of the scaling
    bench; :class:`PathBuilder` is the production implementation and
    produces the same states (covered by the equivalence tests).
    """

    def __init__(
        self,
        tables,
        base_delay: float,
        initial_load: str,
        target_slew: float,
        buffer_names: list[str],
        virtual_drive: str,
        lookahead: int = 3,
    ):
        self.tables = tables
        self.target_slew = target_slew
        self.buffer_names = buffer_names
        self.virtual_drive = virtual_drive
        self.lookahead = lookahead
        self._states: list[PathState] = [
            PathState(0, base_delay, 0, initial_load, (), 0)
        ]
        self._completed_delay = base_delay
        self._open = 0
        self._load = initial_load
        self._buffers: list[PlacedBuffer] = []

    def state(self, k: int) -> PathState:
        while len(self._states) <= k:
            self._extend_one()
        return self._states[k]

    def delays_up_to(self, k: int) -> np.ndarray:
        self.state(k)
        return np.array([s.delay for s in self._states[: k + 1]])

    def _slew_ok(self, drive: str, open_steps: int) -> bool:
        return self.tables.wire_slew(drive, self._load, open_steps) <= self.target_slew

    def _any_type_ok(self, open_steps: int) -> bool:
        return any(self._slew_ok(name, open_steps) for name in self.buffer_names)

    def _open_wire_delay(self, open_steps: int) -> float:
        return self.tables.wire_delay(self.virtual_drive, self._load, open_steps)

    def _extend_one(self) -> None:
        k = len(self._states)
        tentative = self._open + 1
        if not self._any_type_ok(tentative):
            self._insert_buffer(k - 1)
            tentative = self._open + 1
            if not self._any_type_ok(tentative):
                raise RuntimeError(
                    "grid pitch too coarse for the slew target: one step"
                    " already violates slew after buffer insertion"
                )
        self._open = tentative
        delay = self._completed_delay + self._open_wire_delay(self._open)
        self._states.append(
            PathState(
                k,
                delay,
                self._open,
                self._load,
                tuple(self._buffers),
                len(self._buffers),
            )
        )

    def _insert_buffer(self, frontier_step: int) -> None:
        best: tuple[float, int, str] | None = None  # (slew, position, type)
        for back in range(0, min(self.lookahead, self._open) + 1):
            seg_steps = self._open - back
            if seg_steps < 0:
                break
            for name in self.buffer_names:
                slew = self.tables.wire_slew(name, self._load, seg_steps)
                if slew <= self.target_slew:
                    if best is None or slew > best[0]:
                        best = (slew, frontier_step - back, name)
        if best is None:
            best = (0.0, frontier_step - self._open, self.buffer_names[-1])
        __, position, type_name = best
        steps_from_start_of_open = position - (frontier_step - self._open)
        seg_steps = steps_from_start_of_open
        self._completed_delay += self.tables.buffer_delay(
            type_name, self._load, seg_steps
        ) + self.tables.wire_delay(type_name, self._load, seg_steps)
        self._buffers.append(PlacedBuffer(position, type_name))
        self._load = type_name
        self._open = frontier_step - position
