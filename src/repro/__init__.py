"""repro — Clock Tree Synthesis Under Aggressive Buffer Insertion.

A full reproduction of the DAC 2010 paper (Chen, Dong, Chen) / UIUC 2012
thesis (Y.-Y. Chen): maze-routing-based buffered clock tree synthesis with
buffer insertion anywhere along routing paths, slew-bounded by a
SPICE-characterized delay/slew library, plus the substrates the paper
depends on (a mini-SPICE transient simulator, DME baselines, benchmark
generators and the evaluation harness).

Quickstart::

    from repro import AggressiveBufferedCTS, evaluate_tree
    from repro.benchio import random_instance

    inst = random_instance(n_sinks=40, area=30000.0, seed=1)
    cts = AggressiveBufferedCTS()
    result = cts.synthesize(inst.sink_pairs())
    metrics = evaluate_tree(result.tree, cts.tech)
    print(result.report())
    print(f"worst slew {metrics.worst_slew * 1e12:.1f} ps,"
          f" skew {metrics.skew * 1e12:.1f} ps")
"""

from importlib import import_module

#: Public name -> the module that defines it. Names resolve on first
#: access (PEP 562), so ``import repro`` — which every ``python -m repro``
#: command pays, the ``run-batch`` supervisor included — loads neither
#: numpy nor the engine.
_EXPORTS = {
    "Technology": "repro.tech",
    "WireModel": "repro.tech",
    "BufferType": "repro.tech",
    "BufferLibrary": "repro.tech",
    "default_technology": "repro.tech",
    "default_buffer_library": "repro.tech",
    "cts_buffer_library": "repro.tech",
    "CTSOptions": "repro.core",
    "AggressiveBufferedCTS": "repro.core",
    "SynthesisResult": "repro.core",
    "synthesize_clock_tree": "repro.core",
    "DelaySlewLibrary": "repro.charlib",
    "load_default_library": "repro.charlib",
    "build_library": "repro.charlib",
    "TreeMetrics": "repro.evalx",
    "evaluate_tree": "repro.evalx",
    "engine_metrics": "repro.evalx",
    "LibraryTimingEngine": "repro.timing.analysis",
    "ClockTree": "repro.tree",
    "TreeNode": "repro.tree",
    "NodeKind": "repro.tree",
    "Point": "repro.geom",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
