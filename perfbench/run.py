"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload macro-4000 --seed 1 --seconds 45 --trace 0

Each measurement is one fresh, serial ``python3 perfbench/child.py``
process: set-up (imports, library load, instance generation, engine
construction), one timed ``synthesize()`` call, then the correctness gate
and the quality-of-results read-out outside the timed region. Processes
run one after another until ``--seconds`` would be exceeded (at least
``MIN_CHILDREN`` of them); timings are reported as medians across them.

With ``--trace 0`` the last line of standard output is the end-to-end
metrics; with ``--trace 1`` untraced and traced processes alternate and
the last line carries the per-layer metrics of the traced ones. Earlier
lines summarise each metric's median, quartiles and sample count.

The instance is fixed per workload (see ``workloads.INSTANCE_SEED``).
``--seed`` sets ``PYTHONHASHSEED`` of the measured processes: a user's
interpreter picks a random hash seed, so the seed is sampled across runs
and pinned within one, and the tree must not depend on it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import tally  # noqa: E402
from tracer import OUTER_LAYERS, SYNTH_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest measured processes per run: untraced ones in an end-to-end
#: run; untraced and traced ones each in a traced run.
MIN_CHILDREN = 3
MIN_EACH_TRACED = 2
#: A run ends within this many seconds however slow its processes are:
#: a process still running then is killed and counts as failed.
DEADLINE_S = 165.0

#: Lists the metrics, with their units, that the result line must report.
SPEC_PATH = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def child_env(seed: int, root: str) -> dict:
    """The measured processes' environment.

    Every ``REPRO_*`` variable is dropped so no fast-path knob, fault plan
    or strictness setting from the caller changes what is measured; BLAS
    pools are held to one thread, so each process is serial.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED=str(seed),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(
    workload: str, traced: bool, env: dict, root: str, out_dir: str, timeout: float
) -> tuple[dict, float]:
    """One measured process: ``(record, wall seconds)``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, "1" if traced else "0", out_dir]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"killed after {timeout:.0f} s"]}, timeout
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failures": [f"exit {proc.returncode}: {' | '.join(tail)}"]}, wall
    if "ready" in record:
        record["setup_s"] = record["ready"] - spawned
    return record, wall


def collect(args, env: dict, root: str, out_dir: str) -> list[dict]:
    """Measured processes until the run's time is spent."""
    records: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        timeout = start + DEADLINE_S - time.monotonic()
        record, wall = run_child(args.workload, traced, env, root, out_dir, timeout)
        record["traced"] = traced
        records.append(record)
        longest = max(longest, wall)
        elapsed = time.monotonic() - start
        n_plain = sum(not r["traced"] for r in records)
        n_traced = len(records) - n_plain
        if args.trace:
            enough = min(n_plain, n_traced) >= MIN_EACH_TRACED
        else:
            enough = n_plain >= MIN_CHILDREN
        if elapsed + longest > (DEADLINE_S if not enough else args.seconds):
            return records


def summary(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"{name}: median {q2:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}"


def consistency_failures(ok: list[dict]) -> list[str]:
    """Outputs that must repeat exactly across the processes of a run."""
    problems = []
    for key in ("qor", "counters"):
        if any(r[key] != ok[0][key] for r in ok[1:]):
            problems.append(f"{key} differ between processes of one run")
    traced = [r for r in ok if r["traced"]]
    calls = [{k: v["calls"] for k, v in r["layers"].items()} for r in traced]
    if any(c != calls[0] for c in calls[1:]):
        problems.append("layer call counts differ between traced processes")
    return problems


def report(values: dict, metrics: list[dict]) -> dict:
    """The result line's metrics: each of ``metrics`` (BENCHMARK.json entries)."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def metrics_end_to_end(ok: list[dict], lines: list[str], spec: dict) -> dict:
    plain = [r for r in ok if not r["traced"]]
    values = dict(ok[0]["qor"])
    for name, unit in (("synth_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")):
        samples = [r[name] for r in plain]
        lines.append(summary(name, samples, unit))
        values[name] = statistics.median(samples)
    lines.append("tree digest: " + values["digest"])
    return report(values, spec["end_to_end"])


def metrics_per_layer(ok: list[dict], lines: list[str], spec: dict) -> dict:
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    values = dict(ok[0]["counters"])
    for layer in (*OUTER_LAYERS, *SYNTH_LAYERS):
        samples = [r["layers"].get(layer, {}).get("self_s", 0.0) for r in traced]
        lines.append(summary(f"{layer}.self_s", samples, "s"))
        values[f"{layer}.self_s"] = statistics.median(samples)
        values[f"{layer}.calls"] = traced[0]["layers"].get(layer, {}).get("calls", 0)
    unattributed = [r["unattributed_s"] for r in traced]
    lines.append(summary("unattributed_s", unattributed, "s"))
    values["unattributed_s"] = statistics.median(unattributed)
    values["trace_overhead_ratio"] = statistics.median(
        r["synth_s"] for r in traced
    ) / statistics.median(r["synth_s"] for r in plain)
    shares = [r["unattributed_s"] / r["synth_s"] for r in traced]
    lines.append(f"unattributed share of traced synth_s: max {max(shares):.2%}")
    absent = sorted({a for r in ok for a in r.get("absent", [])})
    lines.append("absent hooks/fields: " + (", ".join(absent) if absent else "none"))
    lines.append("trace of the last traced process: " + os.path.relpath(traced[-1]["trace_file"]))
    # A counter whose result field is gone reads 0 (and is listed as absent).
    return report({**{m["name"]: 0 for m in spec["per_layer"]}, **values}, spec["per_layer"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "core", "cts.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(args.seed, root)
    # Byte-compile up front so no measured process pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", os.path.relpath(HERE, root)],
        cwd=root, env=env, check=True, stdout=subprocess.DEVNULL,
    )

    records = collect(args, env, root, out_dir)
    # A killed process leaves its checkpoint directory behind.
    for leftover in glob.glob(os.path.join(out_dir, "ckpt-*")):
        shutil.rmtree(leftover, ignore_errors=True)
    ok, failures = tally(records)
    lines = [f"workload {args.workload}, seed {args.seed}: {len(records)} processes, {len(ok)} ok"]
    lines += [f"FAILED: {f}" for f in failures]
    plain_ok = [r for r in ok if not r["traced"]]
    traced_ok = [r for r in ok if r["traced"]]
    if not plain_ok or (args.trace and not traced_ok):
        print("\n".join(lines), file=sys.stderr)
        return 1
    problems = consistency_failures(ok)
    lines += [f"INCONSISTENT: {p}" for p in problems]
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    if args.trace:
        metrics = metrics_per_layer(ok, lines, spec)
    else:
        metrics = metrics_end_to_end(ok, lines, spec)
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": len(records),
                "failed": len(records) - len(ok),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
