"""CTS synthesis wall-clock scaling (BENCH_cts_scaling.json).

Times the canonical scaling scenarios (50/200/1000/4000 sinks, with and
without macro blockages; ``REPRO_SCALE`` caps the ladder for CI smoke)
with the vectorized routing engine and with the retained seed-reference
implementations, then emits ``benchmarks/results/BENCH_cts_scaling.json``
— the perf-trajectory artifact all future PRs re-measure against.

Shape claims:
- every scenario completes and reports positive wall-clock seconds;
- reference rows route and commit every level pair by pair (no
  lockstep search or commit round), as the seed did;
- wherever the reference baseline was timed at >= 200 sinks, the
  vectorized engine is faster;
- on the 1000-sink blockage scenario (the acceptance scenario, present
  in full runs) the speedup is at least 10x;
- a synthesis halted at a level boundary and resumed from its
  checkpoint is bit-identical to an uninterrupted one.
"""

from conftest import report

from repro.evalx.perfstats import (
    checkpoint_resume_equivalence,
    collect_scaling,
    render_scaling,
    scaling_sizes,
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

    # The seed had no level router and no lockstep commit: reference
    # rows must route and commit every level pair by pair, or the
    # >= 10x gate stops measuring the seed.
    for sample in samples:
        if sample["engine"] == "reference":
            assert sample["route_sharing"]["search_rounds"] == 0, sample
            assert sample["commit_batch_rounds"] == 0, sample

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


def test_checkpoint_resume_matches_clean():
    """A synthesis killed at a level boundary and resumed from its
    checkpoint is bit-identical to an uninterrupted run (200 sinks)."""
    payload = checkpoint_resume_equivalence(n_sinks=200, with_blockages=True)
    assert payload["clean_tree"] == payload["resumed_tree"]
    assert payload["clean_stats"] == payload["resumed_stats"]
    assert payload["clean_levels"] == payload["resumed_levels"]
    assert payload["resumed_from"] == 2
    assert payload["checkpoints_written"] == 2
