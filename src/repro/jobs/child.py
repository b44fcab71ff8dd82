"""The per-job child process: ``python -m repro.jobs.child spec.json``.

The runner serializes one attempt's fully resolved spec (instance
block, option overrides, checkpoint/heartbeat paths, this attempt's
fault plan) to a JSON file and spawns this module on it. The parent
stamps the heartbeat itself at spawn (so the stall clock starts with
defined content); the child re-stamps as soon as the interpreter hands
it control, then at each setup milestone (instance built, timing
engine built), then once per topology level from inside the synthesis
loop. Between milestones the longest silent stretch is the engine
build — library characterization when the on-disk cache is cold — so
``heartbeat_stall_s`` must exceed that; with warm caches every gap is
sub-second. On success the child writes a small result JSON (signature
digest, levels, resume level, degradation records, runtime) atomically
next to the spec; the parent treats a missing result file after a
clean exit as a failed attempt.

The child never retries and never supervises itself: every budget is
the parent's job, so a SIGKILL at any instant loses at most one level
of work past the last checkpoint.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.jobs.heartbeat import stamp_heartbeat


def run_job(spec: dict) -> dict:
    """Execute one synthesis attempt; returns the result record."""
    # Heavy imports happen here, after main() stamped the first
    # heartbeat — see the module docstring.
    from repro.core import AggressiveBufferedCTS, CTSOptions
    from repro.jobs.manifest import build_instance
    from repro.tree.export import signature_digest, tree_signature
    from repro.tree.nodes import peek_node_id

    t0 = time.perf_counter()
    inst = build_instance(spec["instance"])
    stamp_heartbeat(spec["heartbeat_file"], "instance-built")
    options = CTSOptions(
        # The fault plan is explicit: the child must not inherit the
        # *parent's* env (a CI leg's REPRO_FAULT_PLAN would leak into
        # every batch job).
        fault_plan=spec.get("fault_plan", ""),
        checkpoint_dir=spec["checkpoint_dir"],
        resume_from=spec.get("resume_from"),
        heartbeat_file=spec["heartbeat_file"],
        **spec["options"],
    )
    cts = AggressiveBufferedCTS(
        options=options, blockages=inst.blockages or None
    )
    stamp_heartbeat(spec["heartbeat_file"], "engine-built")
    base = peek_node_id()
    result = cts.synthesize(inst.sink_pairs(), inst.source)
    signature = tree_signature(result.tree, base)
    return {
        "job": spec["job"],
        "attempt": spec["attempt"],
        "signature": signature_digest(signature),
        "levels": result.levels,
        "resumed_from": result.resumed_from,
        "degradations": [d.as_record() for d in result.degradations],
        "runtime_s": time.perf_counter() - t0,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.jobs.child <spec.json>", file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    # First child-side stamp, before the synthesis-layer work begins;
    # the parent already stamped at spawn, so the stall timer is live.
    stamp_heartbeat(spec["heartbeat_file"], "start")
    result = run_job(spec)
    result_path = spec["result_file"]
    tmp = f"{result_path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
