"""Rails: each CLI flag, fault site, CI gate and benchmark hook, the
env-free option defaults and the scipy-free synthesis path, checked on
the live objects the program runs with rather than on its source.

The checkpoint-digest partition of ``CTSOptions`` is tested with the
rest of the checkpoint code in ``tests/test_resilience.py``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import repro.core
import repro.jobs
from repro import cli
from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.evalx.faultinject import (
    SITES,
    FaultInjected,
    FaultPlan,
    active_plan,
    reset_plans,
)
from repro.jobs import JobPolicy

from tests.conftest import make_sink_pairs

REPO_ROOT = Path(__file__).resolve().parents[1]
CI_YML = REPO_ROOT / ".github" / "workflows" / "ci.yml"
TRACER_PY = REPO_ROOT / "perfbench" / "tracer.py"

#: Every flag-backed knob, per owner: ``{field: CLI flag}``.
FLAGS = {
    CTSOptions: {
        "fault_plan": "--fault-plan",
    },
    JobPolicy: {
        "deadline_s": "--job-deadline",
        "mem_mb": "--job-mem-mb",
        "max_retries": "--job-retries",
        "heartbeat_stall_s": "--heartbeat-stall",
    },
}

#: The ``repro`` subcommand whose flags feed each owner.
SUBCOMMAND = {CTSOptions: "synthesize", JobPolicy: "run-batch"}

FLAG_CASES = [
    pytest.param(owner, name, id=name)
    for owner, table in FLAGS.items()
    for name in table
]

#: The text every knob is set to by flag; it parses as each knob's type
#: and differs from each default.
VALUE = "7"


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    """Tests reuse plan texts; firing state must not leak between them."""
    reset_plans()
    yield
    reset_plans()


class _RecordingEnviron(dict):
    """A copy of the environment that records every name looked up."""

    def __init__(self, base):
        super().__init__(base)
        self.read: list[str] = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.append(key)
        return super().__contains__(key)


class TestEnvFreeDefaults:
    @pytest.mark.parametrize(
        "owner", list(FLAGS), ids=lambda owner: owner.__name__
    )
    def test_no_default_reads_environment(self, monkeypatch, owner):
        environ = _RecordingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        for f in fields(owner):
            if f.default_factory is not MISSING:
                f.default_factory()
        owner()
        assert environ.read == []


def subparser(command: str) -> argparse.ArgumentParser:
    (subparsers,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices[command]


class _Reached(Exception):
    """Stops a CLI command once it has built its options or policy."""


def parsed_knobs(monkeypatch, owner, flag: str):
    """The ``CTSOptions`` or ``JobPolicy`` that ``repro`` builds from
    ``flag VALUE``, caught before any synthesis or batch runs."""
    built = {}

    def capture(*args, **kwargs):
        built.update(kwargs)
        raise _Reached

    if owner is CTSOptions:
        monkeypatch.setattr(repro.core, "AggressiveBufferedCTS", capture)
        argv = ["synthesize", "--random", "4", flag, VALUE]
    else:
        monkeypatch.setattr(repro.jobs, "load_manifest", lambda path: None)
        monkeypatch.setattr(repro.jobs, "BatchRunner", capture)
        argv = ["run-batch", "batch.json", flag, VALUE]
    with pytest.raises(_Reached):
        cli.main(argv)
    if owner is CTSOptions:
        return built["options"]
    return built["policy"].with_overrides(built["final_overrides"])


class TestCLIFlags:
    @pytest.mark.parametrize("owner, name", FLAG_CASES)
    def test_flag_defined_with_help(self, owner, name):
        flag = FLAGS[owner][name]
        actions = subparser(SUBCOMMAND[owner])._option_string_actions
        assert flag in actions, f"{flag} missing from {SUBCOMMAND[owner]}"
        assert (actions[flag].help or "").strip(), f"{flag} has no help"

    @pytest.mark.parametrize("owner, name", FLAG_CASES)
    def test_flag_reaches_field(self, monkeypatch, owner, name):
        flag = FLAGS[owner][name]
        default = getattr(owner(), name)
        value = getattr(parsed_knobs(monkeypatch, owner, flag), name)
        assert value == type(default)(VALUE)
        assert value != default


def tiny_synthesis(checkpoint_dir, fault_plan: str):
    options = CTSOptions(
        checkpoint_dir=str(checkpoint_dir), fault_plan=fault_plan
    )
    return AggressiveBufferedCTS(options=options).synthesize(
        make_sink_pairs(6, 10000.0, seed=3)
    )


class TestFaultSites:
    @pytest.mark.parametrize("site", SITES)
    def test_site_fires(self, tmp_path, site):
        with pytest.raises(FaultInjected, match=f"fault {site}:0:"):
            tiny_synthesis(tmp_path, f"{site}:0:raise")

    def test_plan_run_consults_every_registered_site(self, tmp_path):
        # Indices past the run's levels: every site is consulted, none fires.
        plan = ",".join(f"{site}:999:raise" for site in SITES)
        tiny_synthesis(tmp_path, plan)
        assert set(active_plan(plan)._counts) == set(SITES)

    def test_plan_run_consults_only_registered_sites(self, tmp_path):
        # A plan naming one site still checks every site the run visits.
        plan = f"{SITES[0]}:999:raise"
        tiny_synthesis(tmp_path, plan)
        assert set(active_plan(plan)._counts) <= set(SITES)

    def test_consult_refuses_unregistered_site(self):
        plan = FaultPlan.parse("checkpoint:0:raise")
        with pytest.raises(ValueError, match="unknown fault site 'typo'"):
            plan.consult("typo")


#: Imports the package, synthesizes a 50-sink instance around macro
#: blockages (so blocked windows route), then simulates a linear RC
#: circuit; prints the sweep count and the scipy modules loaded so far.
SCIPY_PROBE = """
import json, sys
import repro, repro.core.cts, repro.cli
from repro.core.cts import AggressiveBufferedCTS
from repro.core.maze_router import BfsEngine
from repro.evalx.perfstats import scaling_scenario
from repro.spice.circuit import Circuit
from repro.spice.transient import TransientOptions, simulate
from repro.tech import default_technology
from repro.timing.waveform import ramp_waveform

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

sweeps = []
run_sweep = BfsEngine.run_sweep
def counted(self, grid, starts):
    sweeps.append(len(starts))
    return run_sweep(self, grid, starts)
BfsEngine.run_sweep = counted
sinks, source, blockages = scaling_scenario(50, True)
AggressiveBufferedCTS(blockages=blockages).synthesize(sinks, source)
after_synthesis = loaded()
circuit = Circuit(default_technology())
circuit.add_vsource("in", ramp_waveform(1.0, 20e-12, t_start=10e-12))
circuit.add_resistor("in", "out", 1000.0)
circuit.add_cap("out", 100e-15)
simulate(circuit, TransientOptions(dt=1e-12, t_stop=0.2e-9))
print(json.dumps({"sweeps": len(sweeps), "after_synthesis": after_synthesis,
                  "after_simulate": loaded()}))
"""


class TestScipyFree:
    def test_synthesis_loads_no_scipy(self):
        """Importing the package and a synthesis that routes blocked
        windows load no scipy module; a SPICE run of a linear circuit
        still takes the LU path and loads ``scipy.linalg``."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        record = json.loads(out.stdout.splitlines()[-1])
        assert record["sweeps"] > 0
        assert record["after_synthesis"] == []
        assert "scipy.linalg" in record["after_simulate"]


#: Imports what the ``run-batch`` supervisor imports, then reports which
#: heavy modules got loaded and which public names fail to resolve.
LAZY_PROBE = """
import json, sys
import repro, repro.cli, repro.jobs.runner
heavy = sorted(m for m in sys.modules if m == "numpy" or m.startswith("repro.core"))
unresolved = [name for name in repro.__all__ if getattr(repro, name, None) is None]
print(json.dumps({"heavy": heavy, "unresolved": unresolved}))
"""


#: Loads and validates a manifest the way ``run-batch`` does, then
#: reports which heavy modules got loaded.
MANIFEST_PROBE = """
import json, sys
from repro.jobs.manifest import load_manifest
manifest = load_manifest(sys.argv[1])
heavy = sorted(m for m in sys.modules if m in ("numpy", "repro.core.cts"))
print(json.dumps({"jobs": len(manifest.jobs), "heavy": heavy}))
"""


class TestLazyPackage:
    def test_import_repro_loads_no_engine(self):
        """``import repro`` — paid by every ``python -m repro`` command,
        the ``run-batch`` supervisor included — loads neither numpy nor
        ``repro.core``, and every ``repro.__all__`` name still resolves."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", LAZY_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        record = json.loads(out.stdout.splitlines()[-1])
        assert record == {"heavy": [], "unresolved": []}

    def test_manifest_validation_loads_no_engine(self):
        """Loading and validating a manifest checks its options against
        ``repro.core.options`` and its fault plans against
        ``repro.evalx.faultinject``; neither package's ``__init__``
        drags in numpy or the engine."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        manifest = REPO_ROOT / "examples" / "chaos_batch.json"
        out = subprocess.run(
            [sys.executable, "-c", MANIFEST_PROBE, str(manifest)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        record = json.loads(out.stdout.splitlines()[-1])
        assert record == {"jobs": 3, "heavy": []}


#: Imports the timing engine alone and reports the router-layer modules
#: that came with it.
TIMING_PROBE = """
import json, sys
import repro.timing.analysis
core = sorted(m for m in sys.modules if m == "repro.core" or m.startswith("repro.core."))
print(json.dumps({"core": core, "flat": "repro.timing.flat_stages" in sys.modules}))
"""


class TestLayering:
    def test_timing_engine_loads_no_router_layer(self):
        """The timing engine, its bounds table and the flat-stage prefill
        that fills it depend on no ``repro.core`` module: the router
        layer builds on the timing layer, never the other way round."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", TIMING_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        record = json.loads(out.stdout.splitlines()[-1])
        assert record == {"core": [], "flat": True}


def ci_jobs() -> dict[str, list[str]]:
    """``{job id: its stripped lines}`` from the workflow's ``jobs:`` map."""
    jobs: dict[str, list[str]] = {}
    current = None
    lines = CI_YML.read_text().splitlines()
    for line in lines[lines.index("jobs:") + 1 :]:
        match = re.match(r"^  ([\w-]+):\s*$", line)
        if match:
            current = jobs.setdefault(match.group(1), [])
        elif current is not None:
            current.append(line.strip())
    return jobs


#: The lines of the serial leg's Table 5.3 smoke step.
TABLE_SMOKE = (
    "cd benchmarks",
    "REPRO_SCALE=40 PYTHONPATH=../src python -m pytest -x -q bench_table_5_3.py",
)

#: The lines of the serial leg's perf scaling smoke step.
PERF_SMOKE = (
    "cd benchmarks",
    "REPRO_SCALE=40 PYTHONPATH=../src python -m pytest -x -q"
    " bench_perf_scaling.py -k test_perf_scaling",
)

#: The lines of the serial leg's CLI torn-frame resume smoke.
TORN_FRAME_SMOKE = (
    "PYTHONPATH=src python -m repro synthesize --random 300 --no-eval"
    " --checkpoint-dir /tmp/torn/D --json /tmp/torn/clean.json",
    "truncate -s 100 /tmp/torn/D/level_0003.ckpt",
    "PYTHONPATH=src python -m repro synthesize --random 300 --no-eval"
    " --resume-from /tmp/torn/D --json /tmp/torn/resumed.json"
    ' | grep -q "resumed from checkpoint after level 2"',
    "cmp /tmp/torn/clean.json /tmp/torn/resumed.json",
)


#: The lines of the serial leg's traced benchmark smoke.
BENCH_SMOKE = (
    "python3 perfbench/run.py --workload open-4000 --seed 1 --seconds 1"
    " --trace 1 | tail -n 1 > /tmp/perfbench_smoke.json",
    """python3 -c "import json, sys; r = json.load(open('/tmp/perfbench_smoke.json'));"""
    """ sys.exit(not (r['correct'] is True and r['failed'] == 0))\"""",
)

#: The lines of the serial leg's traced benchmark smoke on the maze
#: router's workload, with the same correctness check.
MACRO_BENCH_SMOKE = (
    "python3 perfbench/run.py --workload macro-4000 --seed 1 --seconds 1"
    " --trace 1 | tail -n 1 > /tmp/perfbench_macro_smoke.json",
    """python3 -c "import json, sys; r = json.load(open('/tmp/perfbench_macro_smoke.json'));"""
    """ sys.exit(not (r['correct'] is True and r['failed'] == 0))\"""",
)

#: The lines of the serial leg's traced benchmark smoke on the
#: H-structure workload, whose correction releases and reuses bounds
#: rows, with the same correctness check.
HSTRUCTURE_BENCH_SMOKE = (
    "python3 perfbench/run.py --workload hstructure-1000 --seed 1 --seconds 1"
    " --trace 1 | tail -n 1 > /tmp/perfbench_hstructure_smoke.json",
    """python3 -c "import json, sys; r = json.load(open('/tmp/perfbench_hstructure_smoke.json'));"""
    """ sys.exit(not (r['correct'] is True and r['failed'] == 0))\"""",
)

#: The result JSON each traced benchmark smoke writes.
SMOKE_JSONS = (
    "/tmp/perfbench_smoke.json",
    "/tmp/perfbench_macro_smoke.json",
    "/tmp/perfbench_hstructure_smoke.json",
)


class TestCI:
    def test_lint_job_gates_tier1(self):
        jobs = ci_jobs()
        for paths in ("src", "tests benchmarks examples"):
            assert (
                f"run: PYTHONPATH=src python -m repro.lintx {paths}"
                " --fail-on warning" in jobs["lint"]
            ), paths
        assert "needs: lint" in jobs["tier1"]

    def test_serial_leg_runs_the_hstructure_table(self):
        """Table 5.3 puts re-estimated and corrected trees under SPICE,
        an oracle that shares no code with the timing engine."""
        assert serial_step_index(*TABLE_SMOKE) is not None

    def test_serial_leg_resumes_past_a_torn_frame(self):
        """The CLI resumes a checkpoint directory whose middle frame is
        torn from the frame before it, and writes the clean run's tree."""
        assert serial_step_index(*TORN_FRAME_SMOKE) is not None

    def test_serial_leg_runs_the_traced_benchmark(self):
        """The benchmark's traced run, whose last line must report every
        measured process correct and none failed."""
        assert serial_step_index(*BENCH_SMOKE) is not None

    def test_serial_leg_runs_the_traced_maze_benchmark(self):
        """The same traced run and check on ``macro-4000``, the workload
        that routes through the level-batched maze router."""
        assert serial_step_index(*MACRO_BENCH_SMOKE) is not None

    def test_serial_leg_runs_the_traced_hstructure_benchmark(self):
        """The same traced run and check on ``hstructure-1000``, whose
        correction releases most bounds rows and reuses their cells."""
        assert serial_step_index(*HSTRUCTURE_BENCH_SMOKE) is not None

    def test_serial_leg_uploads_the_smoke_results(self):
        """The scaling smoke's JSON and the three traced smokes' result
        lines (``peak_rss_mb`` and every counter) are uploaded, after
        the steps that write them."""
        scaling = serial_step_index(
            "path: benchmarks/results/BENCH_cts_scaling_smoke.json"
        )
        smokes = serial_step_index(*SMOKE_JSONS)
        assert None not in (scaling, smokes)
        for writer in (BENCH_SMOKE, MACRO_BENCH_SMOKE, HSTRUCTURE_BENCH_SMOKE):
            assert serial_step_index(*writer) < smokes
        assert "uses: actions/upload-artifact@v4" in tier1_steps()[smokes]

    def test_serial_leg_checks_results_unchanged(self):
        """After every bench smoke, the tracked bench results must still
        read as committed (a partial bench session stitches no report,
        and a partial scaling ladder writes only ``*_smoke`` names)."""
        table = serial_step_index(*TABLE_SMOKE)
        perf = serial_step_index(*PERF_SMOKE)
        check = serial_step_index(
            "run: git diff --exit-code -- benchmarks/results"
        )
        assert None not in (table, perf, check)
        assert table < check and perf < check


def tier1_steps() -> list[list[str]]:
    """The lines of each step (and matrix entry) of the ``tier1`` job."""
    steps: list[list[str]] = []
    for line in ci_jobs()["tier1"]:
        if line.startswith("- "):
            steps.append([])
        if steps:
            steps[-1].append(line.removeprefix("- "))
    return steps


def serial_step_index(*lines: str) -> int | None:
    """Position of the first ``serial``-leg step of the ``tier1`` job
    that has every one of ``lines`` among its lines, or ``None``."""
    for index, step in enumerate(tier1_steps()):
        if all(line in step for line in ("if: matrix.name == 'serial'", *lines)):
            return index
    return None


def tracer_hooks() -> tuple:
    """The benchmark tracer's ``HOOKS`` table, read without running it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


#: Counter paths the benchmark still reads but the engine no longer
#: keeps: the retired level tile cache's counters. They leave
#: ``perfbench/child.py`` with ROADMAP item 1's benchmark update.
RETIRED_COUNTER_PATHS = (
    "route_sharing.tiles_built",
    "route_sharing.tiles_reused",
)


def perfbench_child():
    """The benchmark's ``perfbench/child.py``, loaded with its sibling
    modules importable and without running it."""
    bench_dir = str(REPO_ROOT / "perfbench")
    siblings = ("gate", "tracer", "workloads")
    loaded = {name: sys.modules.get(name) for name in siblings}
    sys.path.insert(0, bench_dir)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_child", REPO_ROOT / "perfbench" / "child.py"
        )
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
    finally:
        sys.path.remove(bench_dir)
        for name, module in loaded.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return child


class TestBenchmarkHooks:
    """The benchmark wraps these names from outside; its self-test fails
    on a hook that no longer resolves, so a rename or deletion in
    ``src`` must fail here first."""

    @pytest.mark.parametrize(
        "module_name, path",
        [pytest.param(m, p, id=f"{m}:{p}") for __, m, p in tracer_hooks()],
    )
    def test_hook_resolves(self, module_name, path):
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        # The tracer patches class attributes in the class's own dict.
        target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert callable(target)

    def test_counter_paths_resolve(self):
        """Every ``SynthesisResult`` path the benchmark reads a counter
        from resolves on a small blocked run, so deleting a counter in
        ``src`` fails here rather than turning a benchmark metric absent
        unnoticed."""
        from repro.evalx.perfstats import scaling_scenario

        child = perfbench_child()
        sinks, source, blockages = scaling_scenario(40, True)
        cts = AggressiveBufferedCTS(blockages=blockages)
        result = cts.synthesize(sinks, source)
        paths = [*child.COUNTERS.values(), *child.PROBE_PATHS]
        missing = {path for path in paths if child.lookup(result, path) is child._MISSING}
        assert missing <= set(RETIRED_COUNTER_PATHS)
        __, absent = child.read_counters(result, len(sinks))
        assert sorted(absent) == sorted(RETIRED_COUNTER_PATHS)

