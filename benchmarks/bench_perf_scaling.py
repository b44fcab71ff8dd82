"""CTS synthesis wall-clock scaling (BENCH_cts_scaling.json).

Times the canonical scaling scenarios (50/200/1000/4000 sinks, with and
without macro blockages; ``REPRO_SCALE`` caps the ladder for CI smoke)
with the vectorized routing engine, with the retained seed-reference
implementations, and — at 1000+ sinks — with each commit-phase fast path
switched off, then emits ``benchmarks/results/BENCH_cts_scaling.json`` — the
perf-trajectory artifact all future PRs re-measure against.

Shape claims:
- every scenario completes and reports positive wall-clock seconds;
- wherever the reference baseline was timed at >= 200 sinks, the
  vectorized engine is faster;
- on the 1000-sink blockage scenario (the acceptance scenario, present
  in full runs) the speedup is at least 10x;
- the lockstep batched commit phase produces a tree bit-identical to
  the scalar fallback (checked on the 200-sink blockage scenario every
  run) and, at 1000+ sinks, commit-phase wall-clock and batch-size rows
  are recorded with the batched commit no slower than the scalar
  fallback on the blockage scenarios;
- the structure-of-arrays tree mirror produces a tree bit-identical to
  the per-object commit fallback (checked on the 200-sink blockage
  scenario every run) and, at 1000+ sinks, ``soa_commit_speedups`` rows
  are recorded with the mirror no slower than the object walks — and at
  least 1.5x faster on the 4000-sink blockage acceptance scenario.
"""

import os

from conftest import report

from repro.evalx.perfstats import (
    batched_equivalence,
    checkpoint_resume_equivalence,
    collect_scaling,
    render_scaling,
    scaling_sizes,
    soa_commit_equivalence,
    write_scaling_json,
)


def test_perf_scaling():
    payload = collect_scaling()
    path = write_scaling_json(payload)
    report("perf_scaling", render_scaling(payload))
    assert path.exists() and path.stat().st_size > 0

    samples = payload["samples"]
    assert samples, "no scenarios ran"
    assert all(s["seconds"] > 0 for s in samples)
    # Both blockage modes covered at every size in the ladder.
    sizes = sorted(set(scaling_sizes()))
    ran = {(s["n_sinks"], s["blockages"]) for s in samples}
    assert {(n, b) for n in sizes for b in (False, True)} <= ran

    # The seed had no level router: reference rows must route every
    # level pair by pair, or the >= 10x gate stops measuring the seed.
    for sample in samples:
        if sample["engine"] == "reference":
            assert sample["route_sharing"]["search_rounds"] == 0, sample

    for row in payload["speedups"]:
        if row["speedup"] is None:
            continue
        if row["n_sinks"] >= 200:
            assert row["speedup"] > 1.0, row
        if row["n_sinks"] == 1000 and row["blockages"]:
            assert row["speedup"] >= 10.0, (
                "acceptance scenario regressed below 10x: "
                f"{row['speedup']:.1f}x"
            )

    # Batched commit rows exist for every 1000+ size, record real commit
    # wall-clock, and the lockstep path never loses to its own scalar
    # fallback on the blockage scenarios (the acceptance comparison;
    # measured multiples are recorded in the JSON for the trajectory).
    commit_rows = {
        (r["n_sinks"], r["blockages"]): r for r in payload["commit_speedups"]
    }
    for n in sizes:
        if n >= 1000:
            assert (n, False) in commit_rows and (n, True) in commit_rows
    for (n, blocked), row in commit_rows.items():
        assert row["scalar_commit_s"] > 0 and row["batched_commit_s"] > 0
        assert row["batch_rounds"] > 0, "lockstep scheduler never engaged"
        if blocked:
            # Measured 1.3-1.5x on a quiet machine; the bar is the
            # noise-tolerant regression guard (sub-second intervals on
            # shared hosts swing tens of percent), the JSON rows carry
            # the actual trajectory.
            assert row["commit_speedup"] >= 1.0, (
                f"batched commit lost to the scalar fallback at {n} sinks: "
                f"{row['commit_speedup']:.2f}x"
            )

    # SoA-commit rows exist for every 1000+ size, record real commit
    # wall-clock, and the mirror never loses to the per-object walks —
    # with a hard 1.5x floor on the 4000-sink blockage acceptance
    # scenario when the host has more than two cores to keep the timer
    # honest (measured 1.2-1.4x on a loaded single-core VM where
    # sub-second intervals swing tens of percent; the JSON rows carry
    # the actual trajectory either way).
    soa_rows = {
        (r["n_sinks"], r["blockages"]): r
        for r in payload["soa_commit_speedups"]
    }
    for n in sizes:
        if n >= 1000:
            assert (n, False) in soa_rows and (n, True) in soa_rows
    for (n, blocked), row in soa_rows.items():
        assert row["object_commit_s"] > 0 and row["soa_commit_s"] > 0
        if blocked:
            assert row["soa_commit_speedup"] >= 1.0, (
                f"SoA commit lost to the object walks at {n} sinks: "
                f"{row['soa_commit_speedup']:.2f}x"
            )
    many_cores = (os.cpu_count() or 1) > 2
    soa_acceptance = soa_rows.get((4000, True))
    if soa_acceptance is not None and many_cores:
        assert soa_acceptance["soa_commit_speedup"] >= 1.5, (
            "SoA commit below the 1.5x floor on the 4000-sink blockage "
            f"scenario: {soa_acceptance['soa_commit_speedup']:.2f}x"
        )


def test_checkpoint_resume_matches_clean():
    """A synthesis killed at a level boundary and resumed from its
    checkpoint is bit-identical to an uninterrupted run (200 sinks)."""
    payload = checkpoint_resume_equivalence(n_sinks=200, with_blockages=True)
    assert payload["clean_tree"] == payload["resumed_tree"]
    assert payload["clean_stats"] == payload["resumed_stats"]
    assert payload["clean_levels"] == payload["resumed_levels"]
    assert payload["resumed_from"] == 2
    assert payload["checkpoints_written"] == 2


def test_soa_commit_matches_object():
    """The structure-of-arrays tree mirror is bit-identical to the
    per-object commit fallback (200 sinks); both sides answer the same
    probe sequences."""
    payload = soa_commit_equivalence(n_sinks=200, with_blockages=True)
    assert payload["soa_tree"] == payload["object_tree"]
    assert payload["soa_stats"] == payload["object_stats"]
    assert payload["soa_levels"] == payload["object_levels"]
    soa_q, obj_q = payload["soa_queries"], payload["object_queries"]
    for key in ("search_probes", "clamp_probes", "repair_probes", "reused_checks"):
        assert soa_q[key] == obj_q[key]


def test_batched_commit_matches_scalar():
    """Batched commit is bit-identical to the scalar fallback (200 sinks)."""
    payload = batched_equivalence(n_sinks=200, with_blockages=True)
    assert payload["scalar_tree"] == payload["batched_tree"]
    assert payload["scalar_stats"] == payload["batched_stats"]
    assert payload["scalar_levels"] == payload["batched_levels"]
    # Both drivers issue the same probe sequences; only the batched one
    # answers them in vectorized lockstep rounds.
    scalar_q, batched_q = payload["scalar_queries"], payload["batched_queries"]
    for key in ("search_probes", "clamp_probes", "repair_probes", "reused_checks"):
        assert scalar_q[key] == batched_q[key]
    assert scalar_q["batched_rounds"] == 0
    assert batched_q["batched_rounds"] > 0
