"""Evaluation metrics, tables and experiment drivers."""

import pytest

from repro.evalx import (
    engine_metrics,
    evaluate_tree,
    fig_1_1_rows,
    fig_3_2_experiment,
    format_table,
    paper_data,
)
from repro.evalx.harness import run_aggressive, run_merge_buffer, scale_instance
from repro.evalx.perfstats import (
    SCALING_SIZES,
    artifact_suffix,
    write_scaling_json,
)
from repro.benchio import random_instance
from repro.geom import Point
from repro.tech import cts_buffer_library
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import make_buffer, make_merge, make_sink


@pytest.fixture()
def tiny_tree():
    buf = cts_buffer_library()["BUF20X"]
    s_a = make_sink(Point(0, 0), 8e-15, "sA")
    s_b = make_sink(Point(3000, 0), 8e-15, "sB")
    merge = make_merge(Point(1500, 0))
    merge.attach(s_a)
    merge.attach(s_b)
    root = make_buffer(Point(1500, 100), buf)
    root.attach(merge)
    return ClockTree.from_network(Point(1500, 120), root)


class TestSaturatingWaveformGuard:
    """A sink whose waveform never crosses the logic threshold is skipped
    and reported instead of aborting the evaluation (the ``bench --table
    5.1 --scale 30`` regression: a merge-buffer baseline tree saturates
    below threshold at that scale)."""

    @pytest.fixture()
    def flat_tree(self):
        s_a = make_sink(Point(0, 0), 8e-15, "sA")
        s_b = make_sink(Point(3000, 0), 8e-15, "sB")
        merge = make_merge(Point(1500, 0))
        merge.attach(s_a)
        merge.attach(s_b)
        return ClockTree.from_network(Point(1500, 120), merge)

    def _stub_sim(self, monkeypatch, tree, tech, saturating):
        """Replace the stage simulation with synthetic waveforms: sinks in
        ``saturating`` settle at 0.3 Vdd (never crossing the 0.5 Vdd
        threshold), the rest ramp cleanly to the rail."""
        import repro.evalx.metrics as metrics_mod
        from repro.timing.waveform import Waveform
        from repro.tree.stages_map import stage_spec_for

        __, id_map = stage_spec_for(tree.root, tech)
        vdd = tech.vdd
        times = [0.0, 100e-12, 200e-12]

        def wave_for(node_id):
            node = id_map[node_id]
            if node.name in saturating:
                return Waveform(times, [0.0, 0.3 * vdd, 0.3 * vdd])
            return Waveform(times, [0.0, vdd, vdd])

        class FakeSim:
            def waveform(self, node_id):
                return wave_for(node_id)

            def worst_slew(self):
                return 40e-12

        monkeypatch.setattr(
            metrics_mod, "simulate_stage", lambda *a, **k: FakeSim()
        )

    def test_saturating_sink_skipped_and_reported(
        self, flat_tree, tech, monkeypatch
    ):
        self._stub_sim(monkeypatch, flat_tree, tech, saturating={"sB"})
        with pytest.warns(RuntimeWarning, match="sB.*saturates"):
            metrics = evaluate_tree(flat_tree, tech)
        assert metrics.skipped_sinks == ["sB"]
        assert set(metrics.sink_arrivals) == {"sA"}
        assert metrics.row()["skipped_sinks"] == 1
        # skew/latency computed over the measured sink alone
        assert metrics.skew == 0.0
        assert metrics.latency == metrics.sink_arrivals["sA"]

    def test_all_sinks_saturating_raises(self, flat_tree, tech, monkeypatch):
        self._stub_sim(monkeypatch, flat_tree, tech, saturating={"sA", "sB"})
        with pytest.warns(RuntimeWarning):
            with pytest.raises(RuntimeError, match="electrically dead"):
                evaluate_tree(flat_tree, tech)


class TestEvaluateTree:
    def test_fields_consistent(self, tiny_tree, tech):
        metrics = evaluate_tree(tiny_tree, tech)
        assert metrics.n_sinks == 2
        assert set(metrics.sink_arrivals) == {"sA", "sB"}
        assert metrics.latency >= metrics.min_latency
        assert metrics.skew == pytest.approx(
            metrics.latency - metrics.min_latency, abs=1e-15
        )
        assert metrics.worst_slew > 0
        assert metrics.method == "spice"

    def test_row_scaling(self, tiny_tree, tech):
        metrics = evaluate_tree(tiny_tree, tech)
        row = metrics.row()
        assert row["worst_slew_ps"] == pytest.approx(metrics.worst_slew * 1e12)
        assert row["latency_ns"] == pytest.approx(metrics.latency * 1e9)

    def test_engine_and_spice_agree(self, tiny_tree, tech, engine):
        spice = evaluate_tree(tiny_tree, tech)
        est = engine_metrics(tiny_tree, engine)
        assert est.method == "engine"
        assert est.skew == pytest.approx(spice.skew, abs=2e-12)
        assert est.latency == pytest.approx(spice.latency, rel=0.08)

    def test_rejects_non_source_root(self, tech):
        node = make_sink(Point(0, 0), 1e-15)
        with pytest.raises(ValueError):
            evaluate_tree(node, tech)

    def test_source_slew_affects_latency(self, tiny_tree, tech):
        fast = evaluate_tree(tiny_tree, tech, source_slew=30e-12)
        slow = evaluate_tree(tiny_tree, tech, source_slew=140e-12)
        assert slow.latency > fast.latency


class TestHarness:
    def test_run_aggressive_row(self, tech):
        inst = random_instance(8, 15000.0, seed=31)
        run = run_aggressive(inst, tech=tech, eval_dt=2e-12)
        row = run.row()
        assert row["sinks"] == 8
        assert row["worst_slew_ps"] <= paper_data.SLEW_LIMIT_PS
        assert row["buffers"] > 0

    def test_run_merge_buffer(self, tech):
        inst = random_instance(6, 12000.0, seed=32)
        metrics = run_merge_buffer(inst, "rajaram-pan06", tech=tech)
        assert metrics.n_sinks == 6

    def test_scale_instance(self):
        inst = random_instance(100, 1000.0, seed=1)
        scaled = scale_instance(inst, full=False, scale=10)
        assert scaled.n_sinks == 10
        assert scale_instance(inst, full=True).n_sinks == 100


class TestExperimentDrivers:
    def test_fig_1_1_shape(self, tech):
        rows = fig_1_1_rows(lengths=(500.0, 2000.0, 6000.0), dt=2e-12)
        assert len(rows) == 3
        slews = [r["slew_buf20x_ps"] for r in rows]
        assert slews[0] < slews[1] < slews[2]
        # 30X is better but same order.
        assert rows[2]["slew_buf30x_ps"] < rows[2]["slew_buf20x_ps"]

    def test_fig_3_2_shift_order_of_paper(self, tech):
        result = fig_3_2_experiment(dt=1e-12)
        assert 10e-12 < result.output_shift < 90e-12
        assert result.input_slew == pytest.approx(150e-12, rel=0.05)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["a", 1.25], ["long-name", 100.0]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, separator, 2 rows
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_paper_data_complete(self):
        assert set(paper_data.TABLE_5_1) == {"r1", "r2", "r3", "r4", "r5"}
        assert len(paper_data.TABLE_5_2) == 7
        assert len(paper_data.TABLE_5_3) == 12
        # The quoted averages match the per-row data.
        import numpy as np

        mean_re = np.mean(
            [row["reestimate_ratio"] for row in paper_data.TABLE_5_3.values()]
        )
        assert mean_re == pytest.approx(
            paper_data.TABLE_5_3_AVERAGES["reestimate"], abs=0.05
        )


class TestScalingArtifacts:
    """Only the full scaling ladder replaces the tracked artifacts."""

    def test_partial_ladder_writes_smoke_name(self, tmp_path):
        payload = {"sizes": [40], "samples": [], "speedups": []}
        path = write_scaling_json(payload, tmp_path)
        assert path == tmp_path / "BENCH_cts_scaling_smoke.json"
        assert path.exists()
        assert not (tmp_path / "BENCH_cts_scaling.json").exists()
        assert artifact_suffix(payload) == "_smoke"

    def test_full_ladder_writes_tracked_name(self, tmp_path):
        payload = {"sizes": list(SCALING_SIZES), "samples": [], "speedups": []}
        path = write_scaling_json(payload, tmp_path)
        assert path == tmp_path / "BENCH_cts_scaling.json"
        assert artifact_suffix(payload) == ""
