"""One measured synthesis in a fresh process.

Usage (from the repository root, normally spawned by run.py)::

    PYTHONPATH=src python3 perfbench/child.py <workload> <trace 0|1> <out-dir>

Imports the engine, builds the workload's instance and the
``AggressiveBufferedCTS`` engine (set-up), runs one ``synthesize()``
(timed, serial), then gates and measures the tree outside the timed
region. Prints one JSON record as its last line of standard output;
``ready`` is the ``time.monotonic()`` reading at the end of set-up, which
the parent subtracts from its spawn time to get ``setup_s``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from gate import check_tree
from tracer import SYNTH_LAYERS, Tracer
from workloads import WORKLOADS, build_instance, flow_options

_MISSING = object()

#: Per-layer counters read from ``SynthesisResult`` after the call, by
#: attribute or key path. A path that no longer resolves is reported as
#: absent.
COUNTERS = {
    "prepare.snaked": "merge_stats.n_snaked",
    "route.pairs_routed": "route_sharing.pairs_routed",
    "route.windows_served": "route_sharing.windows_served",
    "route.tiles_reused": "route_sharing.tiles_reused",
    "route.cells_rasterized": "route_sharing.cells_rasterized",
    "route.curve_points": "route_sharing.curve_points",
    "route.expansion_lanes": "route_sharing.expansion_lanes",
    "route.cells_ranked": "route_sharing.cells_ranked",
    "commit.reused_checks": "commit_queries.reused_checks",
    "commit.batched_rounds": "commit_queries.batched_rounds",
    "commit.batched_rows": "commit_queries.batched_rows",
    "commit.binary_search_iters": "merge_stats.binary_search_iters",
    "commit.forced_stage_buffers": "merge_stats.n_forced_stage_buffers",
    "hstructure.flippings": "n_flippings",
    "levels": "levels",
}

#: Summed into ``commit.probes``.
PROBE_PATHS = (
    "commit_queries.search_probes",
    "commit_queries.clamp_probes",
    "commit_queries.repair_probes",
)


def lookup(obj, path: str):
    for part in path.split("."):
        if isinstance(obj, dict):
            obj = obj.get(part, _MISSING)
        else:
            obj = getattr(obj, part, _MISSING)
        if obj is _MISSING:
            return _MISSING
    return obj


def read_counters(result, n_sinks: int) -> tuple[dict, list[str]]:
    """``(counters, absent)`` read from a ``SynthesisResult`` by name."""
    counters, absent = {}, []

    def get(path):
        value = lookup(result, path)
        if value is _MISSING:
            absent.append(path)
            return None
        return value

    for name, path in COUNTERS.items():
        value = get(path)
        if value is not None:
            counters[name] = value
    probes = [get(p) for p in PROBE_PATHS]
    if any(p is not None for p in probes):
        counters["commit.probes"] = sum(p for p in probes if p is not None)
    built, reused = get("route_sharing.tiles_built"), counters.get("route.tiles_reused")
    if built is not None and reused is not None:
        counters["route.tile_reuse_ratio"] = reused / (built + reused) if built + reused else 0.0
    merges = get("merge_stats.n_merges")
    if merges:
        # Merges the final tree needs (n - 1) over merges actually run;
        # H-structure correction routes candidate pairings it discards.
        counters["hstructure.useful_merge_ratio"] = (n_sinks - 1) / merges
    degradations = get("degradations")
    counters["degradations"] = 0 if degradations is None else len(degradations)
    return counters, absent


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, __, files in os.walk(path) for f in files
    )


def measure(workload_name: str, traced: bool, out_dir: str) -> dict:
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.open("import")
    from repro.core.cts import AggressiveBufferedCTS
    from repro.tree.nodes import set_node_id

    if tracer:
        tracer.close()
        tracer.install()
    sinks, source, blockages = build_instance(workload)
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=out_dir) if workload.checkpoint else None
    cts = AggressiveBufferedCTS(
        options=flow_options(workload, ckpt_dir), blockages=blockages or None
    )
    record = {"ready": time.monotonic(), "traced": traced}

    gc.collect()
    set_node_id(0)
    t0 = time.perf_counter()
    if tracer:
        result = tracer.synthesize(cts, sinks, source)
    else:
        result = cts.synthesize(sinks, source)
    record["synth_s"] = time.perf_counter() - t0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    args = (result.tree, cts.engine, len(sinks), lookup(result, "degradations") or [])
    qor, failures = tracer.span("qor", check_tree, *args) if tracer else check_tree(*args)
    counters, absent = read_counters(result, len(sinks))
    if ckpt_dir is not None:
        counters["checkpoint.bytes"] = directory_bytes(ckpt_dir)
        shutil.rmtree(ckpt_dir)
    record.update(qor=qor, failures=failures, counters=counters, absent=absent)
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_totals()
        record.update(
            layers=layers,
            unattributed_s=tracer.unattributed_s(),
            attributed_s=sum(layers[k]["self_s"] for k in SYNTH_LAYERS if k in layers),
            absent=absent + tracer.absent,
        )
        path = os.path.join(out_dir, f"trace-{workload_name}.json")
        tracer.write_chrome_trace(path, {"workload": workload_name, **record})
        record["trace_file"] = path
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload_name, traced, out_dir = argv[0], argv[1] == "1", argv[2]
    try:
        record = measure(workload_name, traced, out_dir)
    except Exception:
        record = {"failures": ["raised: " + traceback.format_exc(limit=8)]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
