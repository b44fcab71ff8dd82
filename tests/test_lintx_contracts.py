"""Contract cross-checker tests: self-check + mutation checks.

Two layers:

- **self-check** — the contract tables declared in
  ``repro.lintx.contracts`` must match the *shipped* tree: every
  env-backed ``CTSOptions`` knob declared, every degradation guard,
  fault site, CI leg, digest entry and CLI flag found where the table
  says it is, and ``repro lint src/`` clean at zero findings;
- **mutation checks** — a copy of the live tree with one safety rail
  removed (fault site, consult call, digest entry, CI leg, guard, CLI
  flag, or a reintroduced ``time.time()``) must produce a non-zero
  exit naming the expected rule at the expected file.

The mutated copies double as the "fixture trees with a knob missing
its rails" required by the analyzer's spec: each starts from a real,
passing tree, so a rule that fires does so for exactly the injected
reason.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lintx import contracts as C
from repro.lintx.core import SourceFile, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
CI_YML = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def copy_tree(target: Path) -> Path:
    """A minimal live-tree copy: every .py under src plus ci.yml."""
    for py in sorted(SRC.rglob("*.py")):
        dest = target / py.relative_to(REPO_ROOT)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(py, dest)
    ci = target / ".github" / "workflows" / "ci.yml"
    ci.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(CI_YML, ci)
    return target


@pytest.fixture()
def tree(tmp_path):
    return copy_tree(tmp_path / "tree")


def edit(tree: Path, rel: str, old: str, new: str, count: int = 0) -> None:
    path = tree / rel
    text = path.read_text()
    assert old in text, f"{rel}: fixture drifted, {old!r} not found"
    path.write_text(text.replace(old, new) if count == 0 else text.replace(old, new, count))


def lint(tree: Path):
    return run_lint([str(tree / "src")])


def findings_for(result, rule: str):
    return [f for f in result.findings if f.rule == rule]


# ---------------------------------------------------------------------
# Self-check: the declared tables match the shipped kernels
# ---------------------------------------------------------------------


class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        result = run_lint([str(SRC)])
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )
        assert result.exit_code("warning") == 0

    def test_every_env_knob_is_contracted(self):
        options = SourceFile.load(str(SRC / "repro" / "core" / "options.py"))
        knobs, fields, _ = C.extract_env_knobs(options)
        declared = {c.knob for c in C.KERNEL_CONTRACTS} | {
            c.knob for c in C.FLOW_CONTRACTS
        }
        assert set(knobs) == declared
        for contract in C.KERNEL_CONTRACTS:
            assert knobs[contract.knob].env == contract.env
        for contract in C.FLOW_CONTRACTS:
            assert knobs[contract.knob].env == contract.env
        # every contracted knob really is a CTSOptions field
        assert declared <= set(fields)

    def test_every_job_policy_knob_is_contracted(self):
        policy = SourceFile.load(str(SRC / "repro" / "jobs" / "policy.py"))
        knobs, fields, _ = C.extract_env_knobs(policy, class_name="JobPolicy")
        declared = {c.knob for c in C.JOB_CONTRACTS}
        assert set(knobs) == declared
        for contract in C.JOB_CONTRACTS:
            assert knobs[contract.knob].env == contract.env
        assert declared <= set(fields)

    def test_every_job_contract_flag_is_documented(self):
        cli = SourceFile.load(str(SRC / "repro" / "cli.py"))
        flags = C.cli_flags(cli)
        for contract in C.JOB_CONTRACTS:
            assert flags.get(contract.cli_flag), (
                f"{contract.cli_flag} missing or undocumented in cli.py"
            )

    def test_every_guard_component_is_in_its_module(self):
        for contract in C.KERNEL_CONTRACTS:
            module = SourceFile.load(str(SRC / "repro" / contract.module))
            assert contract.component in C.guarded_components(module), (
                f"{contract.module} lost the {contract.component!r} guard"
            )

    def test_fault_sites_registered_and_consulted(self):
        fault = SourceFile.load(
            str(SRC / "repro" / "evalx" / "faultinject.py")
        )
        sites, _ = C.extract_string_tuple(fault, "SITES")
        files = [
            SourceFile.load(str(p)) for p in sorted(SRC.rglob("*.py"))
        ]
        from repro.lintx.core import Project

        consulted = C.consulted_sites(Project(files=files, paths=[]))
        for contract in C.KERNEL_CONTRACTS:
            assert contract.fault_site in sites
            assert contract.fault_site in consulted
        # completeness the other way: no dead registry entries
        assert set(sites) == consulted

    def test_ci_matrix_covers_both_sides_of_every_kernel_knob(self):
        workflow = C.parse_ci_workflow(str(CI_YML), CI_YML.read_text())
        assert workflow.legs, "matrix include block not parsed"
        for contract in C.KERNEL_CONTRACTS:
            values = [
                C.leg_env_value(workflow, leg, contract.env)
                for leg in workflow.legs
            ]
            fast = [C.is_fast(v) for v in values]
            assert any(fast), f"{contract.knob}: fast path never on in CI"
            assert not all(fast), f"{contract.knob}: fallback never on in CI"

    def test_digest_partition_matches_live_options(self):
        from dataclasses import fields as dc_fields

        from repro.core.checkpoint import _EXECUTION_FIELDS, _RESULT_FIELDS
        from repro.core.options import CTSOptions

        names = {f.name for f in dc_fields(CTSOptions)}
        assert set(_RESULT_FIELDS) | set(_EXECUTION_FIELDS) == names
        assert not set(_RESULT_FIELDS) & set(_EXECUTION_FIELDS)

    def test_options_digest_refuses_incomplete_partition(self, monkeypatch):
        from repro.core import checkpoint
        from repro.core.options import CTSOptions

        monkeypatch.setattr(
            checkpoint, "_RESULT_FIELDS", checkpoint._RESULT_FIELDS[:-1]
        )
        with pytest.raises(ValueError, match="seed"):
            checkpoint.options_digest(CTSOptions())


# ---------------------------------------------------------------------
# Mutation checks: each removed rail fires its rule at the right spot
# ---------------------------------------------------------------------


class TestMutations:
    def test_clean_copy_passes(self, tree):
        result = lint(tree)
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_deleting_soa_commit_fault_site_fires_con303(self, tree):
        edit(
            tree,
            "src/repro/evalx/faultinject.py",
            '    "soa_commit",\n',
            "",
        )
        (finding,) = findings_for(lint(tree), "CON303")
        assert finding.path.endswith("faultinject.py")
        assert "fault site 'soa_commit'" in finding.message

    def test_deleting_the_consult_call_fires_con303(self, tree):
        edit(
            tree,
            "src/repro/core/soa_tree.py",
            'self._plan.consult("soa_commit")',
            "pass",
        )
        findings = findings_for(lint(tree), "CON303")
        assert findings and all(
            "soa_commit" in f.message for f in findings
        )

    def test_dropping_a_digest_field_fires_con305(self, tree):
        edit(
            tree,
            "src/repro/core/checkpoint.py",
            '    "seed",\n',
            "",
            count=1,
        )
        (finding,) = findings_for(lint(tree), "CON305")
        assert finding.path.endswith("checkpoint.py")
        assert "CTSOptions.seed" in finding.message

    def test_reintroducing_time_time_in_cts_fires_det101(self, tree):
        edit(
            tree,
            "src/repro/core/cts.py",
            "time.perf_counter()",
            "time.time()",
            count=1,
        )
        findings = findings_for(lint(tree), "DET101")
        assert findings and findings[0].path.endswith("cts.py")

    def test_deleting_a_fallback_ci_leg_fires_con304(self, tree):
        ci = tree / ".github" / "workflows" / "ci.yml"
        text = re.sub(
            r"          - name: scalar-commit\n(?:            .*\n)*",
            "",
            ci.read_text(),
        )
        ci.write_text(text)
        (finding,) = findings_for(lint(tree), "CON304")
        assert finding.path.endswith("ci.yml")
        assert "batch_commit" in finding.message

    def test_deleting_a_degradation_guard_fires_con302(self, tree):
        edit(
            tree,
            "src/repro/core/batch_commit.py",
            'self.router.resilience.note("batch_commit", exc)',
            "pass",
        )
        (finding,) = findings_for(lint(tree), "CON302")
        assert finding.path.endswith("batch_commit.py")
        assert "batch_commit" in finding.message

    def test_deleting_a_cli_flag_fires_con306(self, tree):
        edit(
            tree,
            "src/repro/cli.py",
            '"--no-batch-commit"',
            '"--no-batch-commit-x"',
        )
        findings = findings_for(lint(tree), "CON306")
        assert findings and findings[0].path.endswith("cli.py")
        assert any("batch_commit" in f.message for f in findings)

    def test_new_env_knob_without_contract_fires_con301(self, tree):
        edit(
            tree,
            "src/repro/core/options.py",
            "def _default_strict()",
            (
                'def _default_batch_profile() -> bool:\n'
                '    """Honor ``REPRO_BATCH_PROFILE``."""\n'
                '    return os.environ.get("REPRO_BATCH_PROFILE", "1") != "0"\n'
                "\n\n"
                "def _default_strict()"
            ),
        )
        edit(
            tree,
            "src/repro/core/options.py",
            "    strict: bool = field(default_factory=_default_strict)",
            "    batch_profile: bool = field(default_factory=_default_batch_profile)\n"
            "    strict: bool = field(default_factory=_default_strict)",
        )
        result = lint(tree)
        con301 = findings_for(result, "CON301")
        assert con301 and "batch_profile" in con301[0].message
        assert con301[0].path.endswith("options.py")
        # ... and the unclassified field also trips the digest rule
        con305 = findings_for(result, "CON305")
        assert con305 and "batch_profile" in con305[0].message

    def test_new_job_policy_knob_without_contract_fires_con308(self, tree):
        edit(
            tree,
            "src/repro/jobs/policy.py",
            "def _default_deadline_s()",
            (
                'def _default_cpu_budget() -> float:\n'
                '    """Honor ``REPRO_JOB_CPU``."""\n'
                '    return float(os.environ.get("REPRO_JOB_CPU", "0") or 0.0)\n'
                "\n\n"
                "def _default_deadline_s()"
            ),
        )
        edit(
            tree,
            "src/repro/jobs/policy.py",
            "    deadline_s: float = field(default_factory=_default_deadline_s)",
            "    cpu_budget_s: float = field(default_factory=_default_cpu_budget)\n"
            "    deadline_s: float = field(default_factory=_default_deadline_s)",
        )
        con308 = findings_for(lint(tree), "CON308")
        assert con308 and "cpu_budget_s" in con308[0].message
        assert con308[0].path.endswith("policy.py")

    def test_renaming_a_run_batch_flag_fires_con308(self, tree):
        edit(
            tree,
            "src/repro/cli.py",
            '"--job-deadline"',
            '"--job-deadline-x"',
        )
        findings = findings_for(lint(tree), "CON308")
        assert findings and findings[0].path.endswith("cli.py")
        assert any("--job-deadline" in f.message for f in findings)

    def test_removing_the_lint_step_fires_con307(self, tree):
        ci = tree / ".github" / "workflows" / "ci.yml"
        ci.write_text(
            ci.read_text()
            .replace("python -m repro.lintx src --fail-on warning", "true")
            .replace(
                "python -m repro.lintx tests benchmarks"
                " --no-contracts --fail-on never",
                "true",
            )
        )
        (finding,) = findings_for(lint(tree), "CON307")
        assert finding.path.endswith("ci.yml")


# ---------------------------------------------------------------------
# CLI entry points: exit codes on the real and mutated trees
# ---------------------------------------------------------------------


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.lintx", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


class TestCLI:
    def test_module_entry_clean_tree_exits_zero(self):
        proc = run_cli(["src"], cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 errors" in proc.stdout

    def test_module_entry_mutated_tree_exits_nonzero_naming_rule(
        self, tree
    ):
        edit(
            tree,
            "src/repro/core/cts.py",
            "time.perf_counter()",
            "time.time()",
            count=1,
        )
        proc = run_cli(["src"], cwd=tree)
        assert proc.returncode == 1
        assert "DET101" in proc.stdout
        assert "cts.py" in proc.stdout

    def test_repro_lint_subcommand_and_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "--json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        import json

        payload = json.loads(proc.stdout)
        assert payload["findings"] == []

    def test_fail_on_never_reports_without_failing(self, tree):
        edit(
            tree,
            "src/repro/core/cts.py",
            "time.perf_counter()",
            "time.time()",
            count=1,
        )
        proc = run_cli(["src", "--fail-on", "never"], cwd=tree)
        assert proc.returncode == 0
        assert "DET101" in proc.stdout

    def test_list_rules(self):
        proc = run_cli(["--list-rules"], cwd=REPO_ROOT)
        assert proc.returncode == 0
        for rule_id in ("DET101", "CON301", "CON305"):
            assert rule_id in proc.stdout
