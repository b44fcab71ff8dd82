"""The supervised batch runner: watchdog ladder, retry, quarantine.

The contract under test: every job of a batch runs in its own
subprocess under the parent watchdog; a crash, hang, OOM breach, or
torn checkpoint costs retries (which resume from the last valid
checkpoint, proven by resume-level counters), never the batch; jobs
that exhaust their attempts are quarantined with every attempt's
reason; and the stable projection of the JSONL event log is identical
across reruns of the same chaotic batch, with every surviving job's
tree signature bit-identical to a clean in-process run.

Budget values are chosen for CI speed: hang detection waits out the
stall threshold once per hanging attempt, so those thresholds stay in
the low seconds (far above a warm-cache level time, far below the
injected :data:`~repro.evalx.faultinject.HANG_SECONDS`).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.evalx.faultinject import reset_plans
from repro.jobs.events import (
    RunLog,
    read_events,
    stable_view,
    summarize,
)
from repro.jobs.heartbeat import read_heartbeat, stamp_heartbeat
from repro.jobs.manifest import (
    BatchManifest,
    JobSpec,
    build_instance,
    load_manifest,
)
from repro.jobs.policy import JobPolicy
from repro.jobs.runner import BatchRunner, proc_rss_mb
from repro.tree.export import signature_digest, tree_signature
from repro.tree.nodes import peek_node_id

INSTANCE = {"kind": "random", "n_sinks": 20, "area": 20000.0, "seed": 5}

#: CI-speed budgets; every test overrides what it exercises.
FAST_POLICY = JobPolicy(
    deadline_s=180.0,
    mem_mb=0.0,
    max_retries=1,
    heartbeat_stall_s=30.0,
)


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    reset_plans()
    yield
    reset_plans()


@pytest.fixture(scope="session", autouse=True)
def _warm_library_cache(library):
    """Children load the packaged library from disk; make sure the
    session builds/loads it once before any stall clock is running."""


def clean_signature(instance: dict, options: dict | None = None) -> str:
    """The in-process reference signature a batch job must reproduce."""
    inst = build_instance(instance)
    opts = CTSOptions(fault_plan="", **(options or {}))
    cts = AggressiveBufferedCTS(
        options=opts, blockages=inst.blockages or None
    )
    base = peek_node_id()
    result = cts.synthesize(inst.sink_pairs(), inst.source)
    return signature_digest(tree_signature(result.tree, base))


def run_batch(tmp_path, jobs, policy=None, subdir="run"):
    manifest = BatchManifest(name="test", jobs=tuple(jobs))
    runner = BatchRunner(
        manifest, str(tmp_path / subdir), policy=policy or FAST_POLICY
    )
    return runner.run()


class TestJobPolicy:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE", "42")
        monkeypatch.setenv("REPRO_JOB_MEM_MB", "512")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "5")
        monkeypatch.setenv("REPRO_HEARTBEAT_STALL", "9")
        policy = JobPolicy()
        assert policy.deadline_s == 42.0
        assert policy.mem_mb == 512.0
        assert policy.max_retries == 5
        assert policy.heartbeat_stall_s == 9.0
        assert policy.max_attempts == 6

    def test_backoff_schedule_is_deterministic(self):
        policy = JobPolicy(backoff_base_s=0.5, backoff_factor=2.0)
        assert policy.backoff_before(1) == 0.0
        assert policy.backoff_before(2) == 0.5
        assert policy.backoff_before(3) == 1.0
        assert policy.backoff_before(4) == 2.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown JobPolicy keys"):
            JobPolicy().with_overrides({"deadline": 5})

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            JobPolicy(deadline_s=-1)


class TestHeartbeat:
    def test_stamp_and_read(self, tmp_path):
        path = str(tmp_path / "hb")
        assert read_heartbeat(path) is None
        stamp_heartbeat(path, "level:3")
        beat = read_heartbeat(path)
        assert beat == f"{os.getpid()}:level:3\n".encode()
        stamp_heartbeat(path, "level:4")
        assert read_heartbeat(path) != beat
        assert not [n for n in os.listdir(tmp_path) if n != "hb"]


class TestManifest:
    def _write(self, tmp_path, data):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _base(self, **job_extra):
        return {
            "jobs": [{"id": "j1", "instance": dict(INSTANCE), **job_extra}]
        }

    def test_roundtrip(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "name": "demo",
                "policy": {"deadline_s": 9},
                "jobs": [
                    {
                        "id": "j1",
                        "instance": dict(INSTANCE),
                        "options": {"seed": 2},
                        "fault_plans": ["job_hang:0:hang", ""],
                    }
                ],
            },
        )
        manifest = load_manifest(path)
        assert manifest.name == "demo"
        assert manifest.policy == {"deadline_s": 9}
        (job,) = manifest.jobs
        assert job.options == {"seed": 2}
        assert job.fault_plan_for(1) == "job_hang:0:hang"
        assert job.fault_plan_for(2) == ""
        assert job.fault_plan_for(3) == ""  # past the list: clean

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["jobs"].append(dict(d["jobs"][0])), "duplicate job id"),
            (lambda d: d["jobs"][0].update(id="bad id"), "must match"),
            (
                lambda d: d["jobs"][0].update(options={"nope": 1}),
                "unknown CTSOptions field",
            ),
            (
                lambda d: d["jobs"][0].update(
                    options={"checkpoint_dir": "/x"}
                ),
                "reserved",
            ),
            (
                lambda d: d["jobs"][0].update(fault_plans=["warp:0:raise"]),
                "unknown site",
            ),
            (
                lambda d: d["jobs"][0].update(instance={"kind": "warp"}),
                "unknown instance kind",
            ),
            (lambda d: d.update(jobs=[]), "non-empty 'jobs'"),
            (lambda d: d.update(extra=1), "unknown keys"),
        ],
    )
    def test_invalid_manifests_rejected(self, tmp_path, mutate, message):
        data = self._base()
        mutate(data)
        with pytest.raises(ValueError, match=message):
            load_manifest(self._write(tmp_path, data))

    def test_build_instance_kinds(self):
        inst = build_instance(INSTANCE)
        assert inst.n_sinks == 20
        inline = build_instance(
            {
                "kind": "inline",
                "sinks": [["s0", 0.0, 0.0, 5e-15], ["s1", 900.0, 0.0, 5e-15]],
                "source": [450.0, 0.0],
            }
        )
        assert inline.n_sinks == 2
        assert inline.source is not None


class TestEvents:
    def test_seq_numbering_and_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = RunLog(path)
        log.emit("batch_start", n_jobs=2)
        log.emit("job_start", job="a")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "event": "tru')  # torn tail: dropped
        events = read_events(path)
        assert [e["seq"] for e in events] == [0, 1]

    def test_corrupt_mid_file_is_fatal(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"seq": 0, "event": "a"}\nnot json\n{"seq": 1}\n')
        with pytest.raises(ValueError, match="corrupt mid-file"):
            read_events(path)

    def test_stable_view_strips_volatile_keys(self):
        events = [
            {
                "seq": 0,
                "event": "job_done",
                "job": "a",
                "runtime_s": 1.23,
                "rss_peak_mb": 88.1,
                "detail": "x",
                "signature": "abc",
            }
        ]
        assert stable_view(events) == [
            {"seq": 0, "event": "job_done", "job": "a", "signature": "abc"}
        ]


class TestWatchdog:
    def test_clean_job_matches_in_process_signature(self, tmp_path):
        expected = clean_signature(INSTANCE)
        batch = run_batch(
            tmp_path, [JobSpec(job_id="clean", instance=dict(INSTANCE))]
        )
        (outcome,) = batch.outcomes
        assert outcome.ok
        assert [r.reason for r in outcome.attempts] == ["ok"]
        assert outcome.result["signature"] == expected
        assert outcome.result["resumed_from"] is None

    def test_crash_mid_level_resumes_from_checkpoint(self, tmp_path):
        """SIGKILL-equivalent death at a level boundary: the retry must
        resume (resume-level counter set), not re-run from scratch."""
        expected = clean_signature(INSTANCE)
        batch = run_batch(
            tmp_path,
            [
                JobSpec(
                    job_id="crash",
                    instance=dict(INSTANCE),
                    fault_plans=("checkpoint:1:halt",),
                )
            ],
        )
        (outcome,) = batch.outcomes
        assert outcome.ok
        assert [r.outcome for r in outcome.attempts] == ["crashed", "ok"]
        # Two checkpoints landed before the halt, so the retry resumed
        # from level 2 — the level-resume counter proves no full re-run.
        assert outcome.result["resumed_from"] == 2
        assert outcome.result["signature"] == expected

    def test_heartbeat_stall_kills_and_retry_recovers(self, tmp_path):
        expected = clean_signature(INSTANCE)
        policy = FAST_POLICY.with_overrides({"heartbeat_stall_s": 3.0})
        batch = run_batch(
            tmp_path,
            [
                JobSpec(
                    job_id="hang",
                    instance=dict(INSTANCE),
                    fault_plans=("job_hang:1:hang",),
                )
            ],
            policy=policy,
        )
        (outcome,) = batch.outcomes
        assert outcome.ok
        assert [r.reason for r in outcome.attempts] == [
            "heartbeat_stall",
            "ok",
        ]
        assert outcome.result["resumed_from"] == 2
        assert outcome.result["signature"] == expected

    def test_memory_breach_quarantines_after_max_attempts(self, tmp_path):
        policy = FAST_POLICY.with_overrides(
            {"mem_mb": 200.0, "max_retries": 1, "backoff_base_s": 0.05}
        )
        batch = run_batch(
            tmp_path,
            [
                JobSpec(
                    job_id="oom",
                    instance=dict(INSTANCE),
                    # Balloon on every attempt: a true poison instance.
                    fault_plans=("job_oom:1:balloon", "job_oom:1:balloon"),
                )
            ],
            policy=policy,
        )
        (outcome,) = batch.outcomes
        assert not outcome.ok
        assert [r.reason for r in outcome.attempts] == ["oom", "oom"]
        quarantine_path = tmp_path / "run" / "oom" / "quarantine.json"
        quarantine = json.loads(quarantine_path.read_text())
        assert quarantine["job"] == "oom"
        assert [a["reason"] for a in quarantine["attempts"]] == ["oom", "oom"]
        assert all(a["detail"] for a in quarantine["attempts"])

    def test_quarantine_does_not_abort_the_batch(self, tmp_path):
        policy = FAST_POLICY.with_overrides(
            {"max_retries": 0, "deadline_s": 180.0}
        )
        batch = run_batch(
            tmp_path,
            [
                JobSpec(
                    job_id="poison",
                    instance=dict(INSTANCE),
                    fault_plans=("checkpoint:0:halt",),
                ),
                JobSpec(job_id="healthy", instance=dict(INSTANCE)),
            ],
            policy=policy,
        )
        assert [o.job_id for o in batch.quarantined] == ["poison"]
        assert [o.job_id for o in batch.ok] == ["healthy"]
        assert batch.ok[0].result["signature"] == clean_signature(INSTANCE)

    def test_rss_probe_reads_self(self):
        rss = proc_rss_mb(os.getpid())
        assert rss is not None and rss > 1.0
        assert proc_rss_mb(2**22 + 1) is None


CHAOS_JOBS = (
    JobSpec(
        job_id="crash",
        instance=dict(INSTANCE),
        fault_plans=("checkpoint:1:halt",),
    ),
    JobSpec(
        job_id="hang",
        instance={**INSTANCE, "seed": 6},
        fault_plans=("job_hang:1:hang",),
    ),
    JobSpec(
        job_id="torn",
        instance={**INSTANCE, "seed": 7},
        fault_plans=("checkpoint_torn:1:torn,checkpoint:1:halt",),
    ),
)

CHAOS_POLICY = FAST_POLICY.with_overrides(
    {"heartbeat_stall_s": 3.0, "max_retries": 2, "backoff_base_s": 0.05}
)


class TestChaosBatchDeterminism:
    def test_chaotic_batch_is_deterministic_and_bit_identical(self, tmp_path):
        """The acceptance gate: crash + hang + torn checkpoint, twice.

        Every job must finish with the signature of a clean in-process
        run, resumes must be real (level counters), and the stable view
        of the JSONL log must not differ between reruns.
        """
        expected = {
            spec.job_id: clean_signature(spec.instance)
            for spec in CHAOS_JOBS
        }
        runs = []
        for subdir in ("run1", "run2"):
            batch = run_batch(
                tmp_path, CHAOS_JOBS, policy=CHAOS_POLICY, subdir=subdir
            )
            assert not batch.quarantined
            for outcome in batch.outcomes:
                assert outcome.result["signature"] == expected[outcome.job_id]
                # Retries resumed mid-tree, never from scratch.
                assert outcome.result["resumed_from"] >= 1
                assert len(outcome.attempts) == 2
            runs.append(
                stable_view(
                    read_events(str(tmp_path / subdir / "events.jsonl"))
                )
            )
        assert runs[0] == runs[1]
        kill_reasons = [
            e["reason"] for e in runs[0] if e["event"] == "kill"
        ]
        assert kill_reasons == ["heartbeat_stall"]
        report = summarize(
            read_events(str(tmp_path / "run1" / "events.jsonl"))
        )
        assert "resumed from level" in report
        assert "3 ok, 0 quarantined" in report

    def test_run_dir_must_be_fresh(self, tmp_path):
        run_batch(
            tmp_path,
            [JobSpec(job_id="clean", instance=dict(INSTANCE))],
            subdir="reused",
        )
        with pytest.raises(ValueError, match="not empty"):
            run_batch(
                tmp_path,
                [JobSpec(job_id="clean", instance=dict(INSTANCE))],
                subdir="reused",
            )
