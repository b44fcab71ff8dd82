"""Evaluation harness: simulated tree metrics, experiment drivers, tables.

Every number reported by the benches comes from
:func:`repro.evalx.metrics.evaluate_tree`, which simulates the synthesized
netlist with the mini-SPICE substrate (stage-decomposed, electrically
exact for CMOS stages) — mirroring how the paper obtains worst slew, skew
and max latency "from SPICE simulation of the clock tree netlist".
"""

from importlib import import_module

#: Public name -> the module that defines it. Names resolve on first
#: access (PEP 562), so importing one submodule — ``repro.evalx.faultinject``
#: for manifest validation, say — loads neither numpy nor the simulator.
_EXPORTS = {
    "PowerReport": "repro.evalx.power",
    "tree_power": "repro.evalx.power",
    "VariationModel": "repro.evalx.variation",
    "VariationResult": "repro.evalx.variation",
    "monte_carlo_skew": "repro.evalx.variation",
    "TreeMetrics": "repro.evalx.metrics",
    "evaluate_tree": "repro.evalx.metrics",
    "engine_metrics": "repro.evalx.metrics",
    "BenchmarkRun": "repro.evalx.harness",
    "run_aggressive": "repro.evalx.harness",
    "run_merge_buffer": "repro.evalx.harness",
    "table_5_1_rows": "repro.evalx.harness",
    "table_5_2_rows": "repro.evalx.harness",
    "table_5_3_rows": "repro.evalx.harness",
    "render_table_5_1": "repro.evalx.harness",
    "render_table_5_2": "repro.evalx.harness",
    "render_table_5_3": "repro.evalx.harness",
    "scale_instance": "repro.evalx.harness",
    "full_run_requested": "repro.evalx.harness",
    "fig_1_1_rows": "repro.evalx.experiments",
    "fig_3_2_experiment": "repro.evalx.experiments",
    "fig_3_4_rows": "repro.evalx.experiments",
    "fig_3_6_3_7_rows": "repro.evalx.experiments",
    "CurveVsRampResult": "repro.evalx.experiments",
    "format_table": "repro.evalx.tables",
    "paper_data": "repro.evalx.paper_data",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(module)
    value = loaded if module == f"{__name__}.{name}" else getattr(loaded, name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
