"""Lockstep batched profile expansion: equivalence, splits, rails.

The contract of the level expansion scheduler
(:class:`repro.core.batch_expand.LevelExpansionScheduler`):

- every builder the scheduler returns is bit-identical to a scalar
  lazily-evaluated :class:`~repro.core.segment_builder.PathBuilder`
  expansion of the same lane — same delay profiles, same run records,
  same buffer placements, same :class:`PathState` snapshots — and
  structurally identical to the retained seed
  :class:`~repro.core.segment_builder.PathBuilderReference` (property-
  tested over random pitches spanning buffer-free, insertion-heavy,
  forced-buffer-at-step-0 and infeasible cases);
- infeasible lanes raise the identical RuntimeError through both paths;
- results are invariant to how lanes are grouped into ``expand`` calls,
  and the pair-level SharingStats counters (``expansion_lanes``/
  ``expansion_runs``/``expansion_insertions``) are split-invariant sums;
- synthesis through the scheduler is byte-identical to the single-pair
  lazy expansion in the same test run (that a scheduler exception
  propagates out of the synthesis is checked by
  ``tests/test_resilience.py::TestRouteFailuresAreLoud``);
- the binding-level memoization the scheduler pre-installs
  (:meth:`SegmentTables.any_feasible` / ``clamped_wire_delays``) is
  observable: re-binding to a seen load is a cache hit, never a
  recomputation;
- ``delays_view`` is a read-only no-copy view of the delay profile.
"""

import numpy as np
import pytest

from repro.core.batch_expand import LevelExpansionScheduler
from repro.core.grid_cache import SharingStats
from repro.core.options import CTSOptions
from repro.core.segment_builder import (
    PathBuilder,
    PathBuilderReference,
    SegmentTables,
    SegmentTablesReference,
)
from repro.evalx.perfstats import scaling_scenario
from tests.conftest import random_expansion_case, synthesize_signature

N_CASES = 48

#: Pair-level SharingStats counters that must be invariant to the batch
#: split (per-call ``expansion_rounds``/``curve_rounds`` are not).
PAIR_LEVEL_COUNTERS = ("expansion_lanes", "expansion_runs", "expansion_insertions")


def _cases(library, seed=4242, n=N_CASES):
    gen = np.random.default_rng(seed)
    return [random_expansion_case(gen, library) for _ in range(n)]


def _scalar_expand(library, options, case):
    """Per-pair lazy expansion of one case on fresh tables."""
    step, n_steps, load, base_delay, target_k = case
    tables = SegmentTables(library, step, n_steps, options.target_slew)
    builder = PathBuilder(
        tables,
        base_delay,
        load,
        options.target_slew,
        library.buffer_names,
        library.buffer_names[-1],
        options.sizing_lookahead,
    )
    builder.state(target_k)
    return builder


def _reference_expand(library, options, case):
    """The seed's per-step expansion of one case."""
    step, n_steps, load, base_delay, target_k = case
    tables = SegmentTablesReference(
        library, step, n_steps, options.target_slew
    )
    builder = PathBuilderReference(
        tables,
        base_delay,
        load,
        options.target_slew,
        library.buffer_names,
        library.buffer_names[-1],
        options.sizing_lookahead,
    )
    builder.state(target_k)
    return builder


def _scheduler_expand(library, options, cases, stats=None, chunks=1):
    """Expand ``cases`` through the lockstep scheduler, optionally split
    into ``chunks`` separate ``expand`` calls."""
    scheduler = LevelExpansionScheduler(library, options, stats)
    requests = []
    for step, n_steps, load, base_delay, target_k in cases:
        tables = SegmentTables(library, step, n_steps, options.target_slew)
        requests.append((tables, base_delay, load, target_k))
    builders = []
    for chunk in np.array_split(np.arange(len(requests)), chunks):
        builders.extend(
            scheduler.expand([requests[i] for i in chunk.tolist()])
        )
    return builders


def _partition_cases(library, options, cases):
    """Split cases by their scalar outcome: expanded builders vs the
    RuntimeError message the infeasible ones raise."""
    feasible, infeasible = [], []
    for case in cases:
        try:
            feasible.append((case, _scalar_expand(library, options, case)))
        except RuntimeError as exc:
            infeasible.append((case, str(exc)))
    return feasible, infeasible


class TestSchedulerEquivalence:
    """Property: lockstep expansion == scalar lazy expansion == seed."""

    def test_scheduler_matches_scalar_and_reference(self, library):
        options = CTSOptions()
        feasible, infeasible = _partition_cases(
            library, options, _cases(library)
        )
        # The generator must cover both regimes or the property is weak.
        assert len(feasible) >= N_CASES // 3
        assert infeasible, "generator never produced an infeasible pitch"
        stats = SharingStats()
        builders = _scheduler_expand(
            library, options, [case for case, _ in feasible], stats
        )
        assert stats.expansion_lanes == len(feasible)
        assert stats.expansion_runs > 0
        assert stats.expansion_insertions > 0, (
            "generator never forced an insertion"
        )
        for (case, scalar), batched in zip(feasible, builders):
            target_k = case[-1]
            # Bit-identical profile, run records and buffer placements.
            assert np.array_equal(
                batched.delays_up_to(target_k), scalar.delays_up_to(target_k)
            )
            assert batched._runs == scalar._runs
            assert batched._buffers == scalar._buffers
            for k in range(target_k + 1):
                assert batched.state(k) == scalar.state(k)
            # The seed builder agrees structurally; its delays match up
            # to summation order (reference tables use the uncontracted
            # fit evaluation).
            ref = _reference_expand(library, options, case)
            for k in (0, 1, target_k // 2, target_k):
                s, r = scalar.state(k), ref.state(k)
                assert (s.steps, s.open_steps, s.load_name) == (
                    r.steps,
                    r.open_steps,
                    r.load_name,
                )
                assert s.buffers == r.buffers
                assert s.delay == pytest.approx(r.delay, rel=1e-9, abs=1e-18)

    def test_infeasible_cases_raise_identically(self, library):
        options = CTSOptions()
        __, infeasible = _partition_cases(library, options, _cases(library))
        assert infeasible
        for case, message in infeasible:
            with pytest.raises(RuntimeError) as err:
                _scheduler_expand(library, options, [case])
            assert str(err.value) == message
            with pytest.raises(RuntimeError) as ref_err:
                _reference_expand(library, options, case)
            assert str(ref_err.value) == message

    def test_batch_split_invariance(self, library):
        """One expand call, three, or one per lane: same builders, same
        pair-level counters."""
        options = CTSOptions()
        feasible, __ = _partition_cases(library, options, _cases(library))
        cases = [case for case, _ in feasible]
        results, stats_list = [], []
        for chunks in (1, 3, len(cases)):
            stats = SharingStats()
            results.append(
                _scheduler_expand(library, options, cases, stats, chunks)
            )
            stats_list.append(stats)
        whole = results[0]
        for split in results[1:]:
            for a, b in zip(whole, split):
                assert np.array_equal(
                    a.delays_up_to(a._built), b.delays_up_to(b._built)
                )
                assert a._runs == b._runs
                assert a._buffers == b._buffers
        for stats in stats_list[1:]:
            for key in PAIR_LEVEL_COUNTERS:
                assert getattr(stats, key) == getattr(
                    stats_list[0], key
                ), key


class TestBindingMemoization:
    """Satellite contract: binding-level lookups memoize, observably."""

    def test_rebind_is_a_cache_hit(self, library):
        options = CTSOptions()
        tables = SegmentTables(library, 300.0, 60, options.target_slew)
        names = library.buffer_names
        tables.any_feasible(names, "BUF20X", options.target_slew)
        tables.clamped_wire_delays(names[-1], "BUF20X")
        assert (tables.binding_evals, tables.binding_hits) == (2, 0)
        # Same binding again: pure dict lookups, nothing recomputed.
        ok = tables.any_feasible(names, "BUF20X", options.target_slew)
        vd = tables.clamped_wire_delays(names[-1], "BUF20X")
        assert (tables.binding_evals, tables.binding_hits) == (2, 2)
        assert ok is tables.any_feasible(names, "BUF20X", options.target_slew)
        assert vd is tables.clamped_wire_delays(names[-1], "BUF20X")

    def test_scheduler_preinstall_feeds_bind_load(self, library):
        """After a scheduler round, constructing a fresh PathBuilder on
        the same (tables, load) binds entirely from cache."""
        options = CTSOptions()
        case = (300.0, 60, "BUF20X", 0.0, 40)
        scheduler = LevelExpansionScheduler(library, options)
        tables = SegmentTables(library, 300.0, 60, options.target_slew)
        [builder] = scheduler.expand([(tables, 0.0, "BUF20X", 40)])
        assert builder._built == 40
        evals = tables.binding_evals
        hits = tables.binding_hits
        assert evals > 0
        lazy = _scalar_expand(library, options, case)
        assert np.array_equal(
            lazy.delays_up_to(40), builder.delays_up_to(40)
        )
        # The fresh builder on the primed tables never re-evaluated.
        PathBuilder(
            tables,
            0.0,
            "BUF20X",
            options.target_slew,
            library.buffer_names,
            library.buffer_names[-1],
            options.sizing_lookahead,
        )
        assert tables.binding_evals == evals
        assert tables.binding_hits == hits + 2


class TestDelaysView:
    def test_view_is_read_only_and_no_copy(self, library):
        options = CTSOptions()
        case = (300.0, 60, "BUF20X", 0.0, 50)
        builder = _scalar_expand(library, options, case)
        view = builder.delays_view(50)
        assert view.shape == (51,)
        assert not view.flags.writeable
        assert view.base is builder._delays
        assert np.array_equal(view, builder.delays_up_to(50))
        with pytest.raises(ValueError):
            view[0] = 0.0
        # The underlying buffer stays writeable for run extension.
        builder.state(55)
        assert np.array_equal(builder.delays_view(55)[:51], view)


class TestEndToEnd:
    def test_blockage_scenario_serial(self):
        sinks, source, blockages = scaling_scenario(120, True)
        batched_sig, batched = synthesize_signature(sinks, source, blockages)
        per_pair_sig, per_pair = synthesize_signature(
            sinks, source, blockages, pair_by_pair=True
        )
        assert batched_sig == per_pair_sig
        assert batched.merge_stats == per_pair.merge_stats
        assert batched.levels == per_pair.levels
        # The scheduler actually engaged (and the comparison side did not).
        assert batched.route_sharing["expansion_lanes"] > 0
        assert batched.route_sharing["expansion_runs"] > 0
        assert batched.route_sharing["curve_points"] > 0
        assert per_pair.route_sharing["expansion_lanes"] == 0
        assert per_pair.route_sharing["curve_points"] == 0
        # Both sides routed through the same windows.
        assert (
            batched.route_sharing["windows_served"]
            == per_pair.route_sharing["windows_served"]
        )
