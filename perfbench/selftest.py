"""Self-test of the benchmark harness on a 200-sink instance.

Run from the repository root (takes a few seconds)::

    python3 perfbench/selftest.py

Checks that the layer self times plus the unattributed remainder equal
the traced synthesis time, that a missing hook or result field is
reported as absent rather than raising, and that the correctness gate
counts a corrupted or degraded tree as a failed operation. Exits 1 on
the first check that fails.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
# Measure the defaults, as run.py does for its processes.
for name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[name]

from child import read_counters  # noqa: E402
from gate import check_tree, tally  # noqa: E402
from tracer import HOOKS, SYNTH_LAYERS, Tracer  # noqa: E402
from workloads import Workload, build_instance, flow_options  # noqa: E402

#: Small enough to run in seconds, with macros, H-structure correction
#: and checkpoints so that every synthesis hook is called.
SELFTEST = Workload("selftest-200", 200, macros=True, hstructure="correct", checkpoint=True)
MISSING_HOOKS = (
    ("route", "repro.core.merge_routing", "MergeRouter.no_such_hook"),
    ("renumber", "repro.core.no_such_module", "renumber_subtrees"),
)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main() -> int:
    from repro.core.cts import AggressiveBufferedCTS
    from repro.core.merge_routing import MergeRouter
    from repro.core.resilience import Degradation
    from repro.tree.nodes import NodeKind, set_node_id

    original_prepare = MergeRouter.__dict__["prepare"]
    tracer = Tracer()
    tracer.install(HOOKS + MISSING_HOOKS)
    check(
        tracer.absent == [f"{m}:{p}" for __, m, p in MISSING_HOOKS],
        "missing hooks are reported as absent",
    )
    sinks, source, blockages = build_instance(SELFTEST)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    ckpt_dir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        cts = AggressiveBufferedCTS(
            options=flow_options(SELFTEST, ckpt_dir), blockages=blockages or None
        )
        set_node_id(0)
        t0 = time.perf_counter()
        result = tracer.synthesize(cts, sinks, source)
        synth_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        shutil.rmtree(ckpt_dir)
    check(MergeRouter.__dict__["prepare"] is original_prepare, "uninstall restores the hooks")

    layers = tracer.layer_totals()
    check(
        all(layers.get(layer, {}).get("calls", 0) > 0 for layer in SYNTH_LAYERS),
        "every synthesis layer is called: "
        + ", ".join(f"{k}={layers.get(k, {}).get('calls', 0)}" for k in SYNTH_LAYERS),
    )
    check(all(v["self_s"] >= 0 for v in layers.values()), "self times are non-negative")
    check(
        layers["level"]["calls"] == result.levels,
        f"one level frame per topology level ({result.levels})",
    )
    frame = next(s for s in tracer.spans if s[0] == "synthesize")
    frame_s = frame[4] - frame[3]
    attributed = sum(layers[k]["self_s"] for k in SYNTH_LAYERS)
    check(
        abs(attributed + tracer.unattributed_s() - frame_s) < 1e-9,
        f"layer self times {attributed:.4f} s + unattributed"
        f" {tracer.unattributed_s():.4f} s = traced synthesis {frame_s:.4f} s",
    )
    check(0 <= synth_s - frame_s < 1e-3, "the synthesize frame spans the timed call")

    stripped = SimpleNamespace(
        **{k: v for k, v in vars(result).items() if k != "route_sharing"}
    )
    counters, absent = read_counters(stripped, len(sinks))
    check(
        "route_sharing.pairs_routed" in absent and "route.pairs_routed" not in counters,
        "a missing result field is reported as absent",
    )

    qor, failures = check_tree(result.tree, cts.engine, len(sinks), result.degradations)
    check(not failures and qor["max_slew_ps"] > 0, "the synthesized tree passes the gate")
    degraded = [Degradation("batch_commit", "injected", 3)]
    __, failures = check_tree(result.tree, cts.engine, len(sinks), degraded)
    check(bool(failures), "a degraded run fails the gate")
    sink = next(n for n in result.tree.root.walk() if n.kind is NodeKind.SINK)
    sink.detach()
    __, failures = check_tree(result.tree, cts.engine, len(sinks), [])
    check(bool(failures), "a tree with a detached sink fails the gate: " + failures[0])
    ok, messages = tally([{"failures": []}, {"failures": failures}])
    check(len(ok) == 1 and messages == failures, "the failed tree counts as one failed operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
