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

    def test_serial_leg_checks_results_unchanged(self):
        """After the table smoke, the tracked bench results must still
        read as committed (a partial bench session stitches no report)."""
        table = serial_step_index(*TABLE_SMOKE)
        check = serial_step_index(
            "run: git diff --exit-code -- benchmarks/results"
        )
        assert table is not None and check is not None
        assert table < check


def serial_step_index(*lines: str) -> int | None:
    """Position of the first ``serial``-leg step of the ``tier1`` job
    that has every one of ``lines`` among its lines, or ``None``."""
    steps: list[list[str]] = []
    for line in ci_jobs()["tier1"]:
        if line.startswith("- "):
            steps.append([])
        if steps:
            steps[-1].append(line.removeprefix("- "))
    for index, step in enumerate(steps):
        if all(line in step for line in ("if: matrix.name == 'serial'", *lines)):
            return index
    return None


def tracer_hooks() -> tuple:
    """The benchmark tracer's ``HOOKS`` table, read without running it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


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
