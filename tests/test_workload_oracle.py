"""The benchmark workloads' trees, pinned by value.

Each workload of ``perfbench/workloads.py`` (loaded read-only from its
file, so the instances and flow options are the benchmark's own) is
synthesized and compared with the values committed below: the rebased
tree-signature digest and the five quality-of-results fields the
benchmark reports (model skew, latency and worst slew in ps, buffer
count, wirelength). The comparison is exact. Unlike the same-checkout
equivalence tests, an edit that moves every code path at once still
fails here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: workload -> (digest, skew_ps, latency_ps, max_slew_ps, buffers, wirelength)
EXPECTED = {
    "open-4000": (
        "b85c72b03aa36953babb50b7e4e285807ef463263caf541cdcce4e7d6ffca052",
        57.53025217898852,
        3009.9874096131225,
        79.99918482386958,
        4652,
        6405271.965022288,
    ),
    "macro-4000": (
        "aaf755b7dcb180714fbe325d8668e1f43f7d5bf4d89ece025dcb823e2bea9bc0",
        95.70304723865783,
        3915.209414469895,
        79.99874277055063,
        4542,
        5442690.592225888,
    ),
    "hstructure-1000": (
        "7a6515bc1275a36c7294fb5a7575f91805ca0cb246007311c001b04a50e53538",
        47.80855781358241,
        2242.1364563015845,
        79.98442284667803,
        1301,
        1992973.1269191115,
    ),
}


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        # Registered before it runs: its dataclass resolves its module.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_tree_and_qor(name, tmp_path):
    from repro.core.cts import AggressiveBufferedCTS
    from repro.evalx.metrics import engine_metrics
    from repro.tree.export import signature_digest, tree_signature
    from repro.tree.nodes import peek_node_id

    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]
    sinks, source, blockages = workloads.build_instance(workload)
    cts = AggressiveBufferedCTS(
        options=workloads.flow_options(workload, str(tmp_path / "ckpt")),
        blockages=blockages or None,
    )
    base = peek_node_id()
    result = cts.synthesize(sinks, source)
    metrics = engine_metrics(result.tree, cts.engine)
    got = (
        signature_digest(tree_signature(result.tree, base)),
        metrics.skew * 1e12,
        metrics.latency * 1e12,
        metrics.worst_slew * 1e12,
        metrics.n_buffers,
        metrics.wirelength,
    )
    assert got == EXPECTED[name]
