"""Lockstep batched profile expansion for one routed topology level.

The route-phase twin of :class:`repro.core.batch_commit.PairCommitState`:
after the window searches meet, every merge pair still has to
expand two delay profiles (:class:`~repro.core.segment_builder.PathBuilder`
run extension + buffer insertion) before the level can be finished. Done
pair by pair, each expansion lazily evaluates its own fit-curve tables —
thousands of small Horner evaluations and feasibility scans, the last
per-pair Python loop in the hot route flow.

:class:`LevelExpansionScheduler` advances all lanes (two per pair, a
structure of per-lane cursors over shared per-load arrays) in lockstep
rounds instead:

1. **table sub-round** — every lane's pending (drive, load, fn) curve
   requests are gathered level-wide, grouped by contracted curve (the
   ``predict_many_grouped`` pattern: one fit evaluation over the
   concatenation of all requesting pairs' length prefixes), and primed
   into each pair's :class:`SegmentTables`;
2. **run sub-round** — each lane extends its profile run-at-a-time
   against the precomputed next-infeasible index map of its current
   load binding (one array lookup per run, run records appended as
   numpy slices);
3. **insertion sub-round** — lanes whose next step violates every
   buffer type resolve their insertions as a masked sub-round: choose
   (``PathBuilder._choose_buffer``) for every such lane, group-prime
   the chosen types' stage tables and new load bindings, then commit
   (``PathBuilder._commit_buffer``) — the same two halves the scalar
   path runs back to back.

Bit-identity with the single-pair lazy expansion: a primed table is
byte-equal to a lazily built one (clip + Horner are element-wise, and
the tail fill and slew mask are :meth:`SegmentTables._assemble`'s), and
every decision/mutation runs through the *same* ``PathBuilder`` methods
over those tables — the scheduler
only regroups the evaluations, so profiles, buffer placements and run
records are identical, and results are invariant to how a level is
split into batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.options import CTSOptions
from repro.core.segment_builder import PathBuilder, SegmentTables


@dataclass
class _Binding:
    """Batched per-(tables, load) lookups shared by every lane bound to
    that load."""

    ok: np.ndarray  # bool per step: any buffer type keeps the slew target
    nf: np.ndarray  # nf[j] = first index >= j with ~ok[j] (ok.size if none)
    vd: np.ndarray  # clamped virtual-drive open-segment wire delays


@dataclass
class _Lane:
    """One pair side advancing through the lockstep rounds."""

    builder: PathBuilder
    binding: _Binding
    target: int  # expand the profile through this step index


class LevelExpansionScheduler:
    """Advance many ``PathBuilder`` expansions through shared rounds.

    One scheduler serves one slice of a ``route_level`` call. Lanes
    are registered via :meth:`expand`, which returns the fully expanded
    builders in request order.
    """

    def __init__(
        self,
        library: DelaySlewLibrary,
        options: CTSOptions,
        stats=None,
    ):
        self.library = library
        self.stats = stats
        self.buffer_names = library.buffer_names
        self.virtual = library.buffer_names[-1]
        self.target_slew = options.target_slew
        self._bindings: dict[tuple[int, str], _Binding] = {}

    # -- grouped table rounds ------------------------------------------

    @staticmethod
    def _counts_below(
        bound: float, steps: np.ndarray, sizes: np.ndarray, inclusive: bool
    ) -> np.ndarray:
        """Per table, how many of its lengths ``j * step`` (j < size)
        fall below ``bound`` — vectorized ``np.searchsorted(lengths,
        bound, side='left'|'right')``, without materializing any length
        array. ``j * step`` here is the same IEEE double product the
        length arrays hold, so the counts are exactly searchsorted's.
        """
        counts = np.clip((bound / steps).astype(np.int64), 0, sizes)
        # The float division can be a few ulps off the product scan;
        # nudge the counts until they satisfy the exact definition
        # (monotone in j, so each mask converges in at most a few steps).
        while True:
            low = (counts < sizes) & (
                (counts * steps <= bound)
                if inclusive
                else (counts * steps < bound)
            )
            if not low.any():
                break
            counts[low] += 1
        while True:
            high = (counts > 0) & (
                ((counts - 1) * steps > bound)
                if inclusive
                else ((counts - 1) * steps >= bound)
            )
            if not high.any():
                break
            counts[high] -= 1
        return counts

    def _prime_tables(
        self, fn_requests: list[tuple[SegmentTables, str, str, str]]
    ) -> None:
        """One vectorized curve round over the pending table requests.

        Groups by (triple, input slew) — every table in a group shares
        one contracted curve — and evaluates each group's curve once
        over the concatenation of all requesting pairs' length
        prefixes, exactly the slices :meth:`SegmentTables._table` would
        compute privately; prefix sizes (``eval_count``) and the
        out-of-range slew boundary are resolved for the whole group in
        a handful of array ops. Already-cached tables are skipped, so
        repeated bindings cost nothing.
        """
        requests: dict[
            tuple[tuple[str, str, str], float], list[SegmentTables]
        ] = {}
        seen: set[tuple[int, str, str, str]] = set()
        for tables, drive, load, fn in fn_requests:
            dedup = (id(tables), drive, load, fn)
            if dedup in seen or (drive, load, fn) in tables._cache:
                continue
            seen.add(dedup)
            requests.setdefault(((drive, load, fn), tables.input_slew), []).append(
                tables
            )
        if not requests:
            return
        if self.stats is not None:
            self.stats.curve_rounds += 1
        for ((drive, load, fn), input_slew), reqs in requests.items():
            fit = self.library.single[(drive, load)][fn]
            curve = fit.partial_curve(input_slew)
            steps = np.array([tables.step for tables in reqs])
            sizes = np.array(
                [tables._lengths.size for tables in reqs], dtype=np.int64
            )
            hi = float(fit.hi[1])
            # eval_count: in-range prefix plus one clamped point.
            n_eval = np.minimum(
                self._counts_below(hi, steps, sizes, inclusive=False) + 1,
                sizes,
            ).tolist()
            if fn == "wire_slew":
                # First index with length > hi * 1.001 — from there on
                # the fit would clamp (silently optimistic), so those
                # entries are masked infeasible, as in ``_assemble``.
                beyond = self._counts_below(
                    hi * 1.001, steps, sizes, inclusive=True
                ).tolist()
            else:
                beyond = sizes.tolist()
            prefixes = [
                tables._lengths[:n] for tables, n in zip(reqs, n_eval)
            ]
            values = curve(np.concatenate(prefixes))
            if self.stats is not None:
                self.stats.curves_evaluated += 1
                self.stats.curve_points += values.size
            offset = 0
            key = (drive, load, fn)
            for tables, n, b, size in zip(
                reqs, n_eval, beyond, sizes.tolist()
            ):
                # Equivalent to SegmentTables._assemble: tail-fill the
                # prefix with its last (clamped) value, mask the
                # out-of-range slews — by slice writes instead of
                # concatenate/where.
                table = np.empty(size)
                table[:n] = values[offset : offset + n]
                if n < size:
                    table[n:] = table[n - 1]
                if b < size:
                    table[b:] = np.inf
                tables._cache[key] = table
                offset += n

    def _prime_bindings(
        self, pairs: list[tuple[SegmentTables, str]]
    ) -> None:
        """Install the per-load batched lookups for new (tables, load)
        bindings: the feasibility frontier, its next-infeasible map, and
        the virtual-drive delay profile — everything ``_bind_load`` and
        the run sub-round read."""
        fresh: list[tuple[tuple[int, str], SegmentTables, str]] = []
        for tables, load in pairs:
            key = (id(tables), load)
            if key not in self._bindings:
                self._bindings[key] = None  # claim; filled below
                fresh.append((key, tables, load))
        if not fresh:
            return
        fn_requests: list[tuple[SegmentTables, str, str, str]] = []
        for _, tables, load in fresh:
            for drive in self.buffer_names:
                fn_requests.append((tables, drive, load, "wire_slew"))
            fn_requests.append((tables, self.virtual, load, "wire_delay"))
        self._prime_tables(fn_requests)
        # Install the binding-level caches directly from the primed
        # tables — the same vstack/compare/clamp any_feasible and
        # clamped_wire_delays would run lazily, here over the
        # concatenation of every fresh binding's tables, minus the
        # per-drive dispatch (their memoization then serves _bind_load).
        # Each binding's entries are its slices of the concatenation.
        drives = tuple(self.buffer_names)
        matrix = np.vstack(
            [
                np.concatenate(
                    [t._cache[(d, load, "wire_slew")] for _, t, load in fresh]
                )
                for d in drives
            ]
        )
        ok = (matrix <= self.target_slew).any(axis=0)
        vd = np.maximum(
            np.concatenate(
                [
                    tables._cache[(self.virtual, load, "wire_delay")]
                    for _, tables, load in fresh
                ]
            ),
            0.0,
        )
        sizes = np.array([tables._lengths.size for _, tables, _ in fresh])
        ends = np.cumsum(sizes)
        # nf[j] = first index >= j that is infeasible, else the binding's
        # end. Every entry of a later binding is >= this binding's end,
        # so one reversed running minimum over the concatenation never
        # crosses a boundary; subtracting the start localizes it.
        nf = np.minimum.accumulate(
            np.where(ok, np.repeat(ends, sizes), np.arange(ends[-1]))[::-1]
        )[::-1] - np.repeat(ends - sizes, sizes)
        for (key, tables, load), end, size in zip(
            fresh, ends.tolist(), sizes.tolist()
        ):
            rows = slice(end - size, end)
            tables._matrix_cache[(drives, load)] = matrix[:, rows]
            tables._feasible_cache[(drives, load, self.target_slew)] = ok[rows]
            tables._delay_cache[(self.virtual, load)] = vd[rows]
            tables.binding_evals += 2
            self._bindings[key] = _Binding(ok[rows], nf[rows], vd[rows])

    def _binding(self, tables: SegmentTables, load: str) -> _Binding:
        return self._bindings[(id(tables), load)]

    # -- lockstep advancement ------------------------------------------

    def _extend_lane(self, lane: _Lane) -> bool:
        """Run sub-round for one lane: extend runs until the target step
        or an insertion is needed (returns True for the latter).

        Replicates ``PathBuilder._ensure`` exactly — same slices of the
        same cached arrays, same run records — with the feasibility scan
        answered by the binding's precomputed next-infeasible map.
        """
        builder = lane.builder
        nf, vd = lane.binding.nf, lane.binding.vd
        target = lane.target
        runs = 0
        while builder._built < target:
            o0 = builder._open
            nxt = o0 + 1
            if nxt >= nf.size:
                raise IndexError("path extended beyond the segment tables")
            run_len = min(int(nf[nxt]) - nxt, target - builder._built)
            if run_len <= 0:
                break
            seg = vd[nxt : o0 + run_len + 1] + builder._completed_delay
            builder._append_delays(seg)
            builder._runs.append(
                (builder._built + 1, o0, builder._load, tuple(builder._buffers))
            )
            builder._open = o0 + run_len
            builder._built += run_len
            runs += 1
        if self.stats is not None:
            self.stats.expansion_runs += runs
        return builder._built < target

    def _insertion_subround(self, lanes: list[_Lane]) -> None:
        """Resolve every pending insertion: choose for all lanes, prime
        the chosen types' tables in one grouped round, then commit."""
        chosen: list[tuple[_Lane, int, str]] = []
        fn_requests: list[tuple[SegmentTables, str, str, str]] = []
        bindings: list[tuple[SegmentTables, str]] = []
        for lane in lanes:
            builder = lane.builder
            position, type_name = builder._choose_buffer(builder._built)
            chosen.append((lane, position, type_name))
            fn_requests.append((builder.tables, type_name, builder._load, "buffer_delay"))
            fn_requests.append((builder.tables, type_name, builder._load, "wire_delay"))
            bindings.append((builder.tables, type_name))
        self._prime_tables(fn_requests)
        self._prime_bindings(bindings)
        for lane, position, type_name in chosen:
            builder = lane.builder
            builder._commit_buffer(builder._built, position, type_name)
            lane.binding = self._binding(builder.tables, builder._load)
            if not builder._ok_any[builder._open + 1]:
                raise RuntimeError(
                    "grid pitch too coarse for the slew target: one step"
                    " already violates slew after buffer insertion"
                )
            if self.stats is not None:
                self.stats.expansion_insertions += 1

    def expand(
        self, requests: list[tuple[SegmentTables, float, str, int]]
    ) -> list[PathBuilder]:
        """Expand one lane per (tables, base_delay, load, target) request.

        Returns the builders in request order, each with its delay
        profile built through its target step — ready for
        ``delays_view``/``state`` snapshots without further expansion.
        """
        self._prime_bindings(
            [(tables, load) for tables, _, load, _ in requests]
        )
        lanes: list[_Lane] = []
        for tables, base_delay, load, target in requests:
            builder = PathBuilder(
                tables,
                base_delay,
                load,
                self.target_slew,
                self.buffer_names,
                self.virtual,
            )
            lanes.append(_Lane(builder, self._binding(tables, load), target))
        if self.stats is not None:
            self.stats.expansion_lanes += len(lanes)
        active = [lane for lane in lanes if lane.builder._built < lane.target]
        while active:
            if self.stats is not None:
                self.stats.expansion_rounds += 1
            pending = [lane for lane in active if self._extend_lane(lane)]
            if not pending:
                break
            self._insertion_subround(pending)
            active = pending
        return [lane.builder for lane in lanes]


def expand_level(primed, library, options, stats) -> list[list[PathBuilder]]:
    """Expand every pair's two delay profiles in lockstep.

    ``primed`` holds one ``(term1, term2, tables)`` entry per pair;
    returns one ``[builder1, builder2]`` per entry, expanded through the
    tables' top step — the profiles the single-pair routers
    (``finish_maze_route``, ``route_profile``) expand lazily for
    themselves.
    """
    requests: list[tuple[SegmentTables, float, str, int]] = []
    for term1, term2, tables in primed:
        target = tables.n_steps - 1
        for term in (term1, term2):
            requests.append((tables, term.base_delay, term.load_name, target))
    scheduler = LevelExpansionScheduler(library, options, stats)
    builders = scheduler.expand(requests)
    return [
        [builders[2 * i], builders[2 * i + 1]] for i in range(len(primed))
    ]
