"""The supervised batch runner: watchdog, retry ladder, quarantine.

One :class:`BatchRunner` executes a manifest's jobs sequentially (the
JSONL event log is part of the deterministic contract; parallel job
dispatch would reorder it), each attempt in its own subprocess
(``python -m repro.jobs.child``). While an attempt runs, the watchdog
polls every ``poll_interval_s`` and SIGKILLs the child on the first
budget violation:

- ``deadline``          — attempt exceeded ``deadline_s`` wall-clock
- ``heartbeat_stall``   — the heartbeat file's *content* (not mtime)
                          unchanged for ``heartbeat_stall_s``; the
                          parent runs its own monotonic timer, no
                          cross-process clock is ever compared
- ``oom``               — VmRSS from ``/proc/<pid>/status`` exceeded
                          ``mem_mb``

A failed attempt (killed, crashed, or exited without a result) retries
after a deterministic exponential backoff, resuming from the job's
checkpoint directory — the resume path replays the longest *valid*
prefix of the checkpoint frame chain, so a crash mid-write costs one
level and an injected torn frame the levels from it on, never the job. After ``max_attempts`` failures the job is
quarantined: ``quarantine.json`` names every attempt's reason and the
batch moves on. Kill reasons are split into a stable ``reason`` code
(asserted by the determinism tests) and a volatile ``detail`` string
(timings, RSS numbers — stripped by :func:`repro.jobs.events
.stable_view`).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.jobs.events import RunLog, read_events, summarize
from repro.jobs.heartbeat import read_heartbeat, stamp_heartbeat
from repro.jobs.manifest import BatchManifest, JobSpec
from repro.jobs.policy import JobPolicy


def proc_rss_mb(pid: int) -> float | None:
    """Current VmRSS of ``pid`` in MiB, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


@dataclass
class AttemptRecord:
    """One attempt's outcome, as recorded in logs and quarantine."""

    attempt: int
    outcome: str  # "ok" | "killed" | "crashed" | "no_result"
    reason: str  # stable code: "ok", "deadline", "heartbeat_stall",
    #   "oom", "exit:<code>", "signal:<num>", "no_result"
    detail: str = ""  # volatile human text (timings, RSS, paths)
    resumed_from: int | None = None

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "reason": self.reason,
            "detail": self.detail,
            "resumed_from": self.resumed_from,
        }


@dataclass
class JobOutcome:
    """Final state of one job after its attempts."""

    job_id: str
    ok: bool
    attempts: list[AttemptRecord] = field(default_factory=list)
    result: dict | None = None


@dataclass
class BatchResult:
    """What a whole batch run produced."""

    run_dir: str
    outcomes: list[JobOutcome]

    @property
    def ok(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def quarantined(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]


def _write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class BatchRunner:
    """Run one manifest under supervision; see the module docstring."""

    def __init__(
        self,
        manifest: BatchManifest,
        run_dir: str,
        policy: JobPolicy | None = None,
        manifest_path: str = "",
        final_overrides: dict | None = None,
    ):
        base = policy if policy is not None else JobPolicy()
        self.manifest = manifest
        self.policy = base.with_overrides(manifest.policy)
        #: Highest-precedence overrides (explicit CLI flags): applied
        #: again after each job's own policy block, so a manifest can
        #: never silently undo what the operator typed.
        self.final_overrides = dict(final_overrides or {})
        self.policy = self.policy.with_overrides(self.final_overrides)
        self.run_dir = run_dir
        self.manifest_path = manifest_path
        os.makedirs(run_dir, exist_ok=True)
        leftovers = sorted(
            n for n in os.listdir(run_dir) if not n.startswith(".")
        )
        if leftovers:
            raise ValueError(
                f"run dir {run_dir!r} is not empty ({leftovers[:3]}...);"
                " each batch run owns a fresh directory"
            )
        self.log = RunLog(os.path.join(run_dir, "events.jsonl"))

    # ------------------------------------------------------------------

    def run(self) -> BatchResult:
        """Execute every job; quarantine never aborts the batch."""
        self.log.emit(
            "batch_start",
            name=self.manifest.name,
            n_jobs=len(self.manifest.jobs),
            manifest=self.manifest_path,
        )
        outcomes = [self._run_job(spec) for spec in self.manifest.jobs]
        batch = BatchResult(self.run_dir, outcomes)
        total_attempts = sum(len(o.attempts) for o in outcomes)
        self.log.emit(
            "batch_end",
            ok=len(batch.ok),
            quarantined=len(batch.quarantined),
            attempts=total_attempts,
        )
        _write_json(
            os.path.join(self.run_dir, "batch.json"),
            {
                "name": self.manifest.name,
                "ok": [o.job_id for o in batch.ok],
                "quarantined": [o.job_id for o in batch.quarantined],
                "results": {
                    o.job_id: o.result for o in batch.ok if o.result
                },
            },
        )
        return batch

    # ------------------------------------------------------------------

    def _run_job(self, spec: JobSpec) -> JobOutcome:
        policy = self.policy.with_overrides(spec.policy).with_overrides(
            self.final_overrides
        )
        job_dir = os.path.join(self.run_dir, spec.job_id)
        ckpt_dir = os.path.join(job_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        self.log.emit(
            "job_start", job=spec.job_id, max_attempts=policy.max_attempts
        )
        outcome = JobOutcome(spec.job_id, ok=False)
        for attempt in range(1, policy.max_attempts + 1):
            backoff = policy.backoff_before(attempt)
            if backoff:
                self.log.emit(
                    "retry",
                    job=spec.job_id,
                    attempt=attempt,
                    backoff_s=backoff,
                )
                time.sleep(backoff)
            record, result = self._run_attempt(
                spec, policy, job_dir, ckpt_dir, attempt
            )
            outcome.attempts.append(record)
            self.log.emit(
                "attempt_end",
                job=spec.job_id,
                attempt=attempt,
                outcome=record.outcome,
                reason=record.reason,
                detail=record.detail,
                resumed_from=record.resumed_from,
            )
            if record.outcome == "ok":
                outcome.ok = True
                outcome.result = result
                self.log.emit(
                    "job_done",
                    job=spec.job_id,
                    attempts=attempt,
                    signature=result["signature"],
                    levels=result["levels"],
                    resumed_from=result["resumed_from"],
                    runtime_s=result["runtime_s"],
                )
                return outcome
        quarantine = {
            "job": spec.job_id,
            "instance": spec.instance,
            "options": spec.options,
            "attempts": [r.as_dict() for r in outcome.attempts],
        }
        _write_json(os.path.join(job_dir, "quarantine.json"), quarantine)
        self.log.emit(
            "quarantine",
            job=spec.job_id,
            attempts=len(outcome.attempts),
            reasons=[r.reason for r in outcome.attempts],
        )
        return outcome

    # ------------------------------------------------------------------

    def _run_attempt(
        self,
        spec: JobSpec,
        policy: JobPolicy,
        job_dir: str,
        ckpt_dir: str,
        attempt: int,
    ) -> tuple[AttemptRecord, dict | None]:
        heartbeat = os.path.join(job_dir, "heartbeat")
        result_file = os.path.join(job_dir, f"result_{attempt}.json")
        resume_from = ckpt_dir if self._has_checkpoints(ckpt_dir) else None
        child_spec = {
            "job": spec.job_id,
            "attempt": attempt,
            "instance": spec.instance,
            "options": spec.options,
            "checkpoint_dir": ckpt_dir,
            "resume_from": resume_from,
            "heartbeat_file": heartbeat,
            "result_file": result_file,
            "fault_plan": spec.fault_plan_for(attempt),
        }
        spec_path = os.path.join(job_dir, f"spec_{attempt}.json")
        _write_json(spec_path, child_spec)
        # Defined heartbeat content before spawn: the stall timer starts
        # now and any child-side stamp is a content change.
        stamp_heartbeat(heartbeat, f"spawn:attempt-{attempt}")
        env = dict(os.environ)
        pkg_parent = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = (
            pkg_parent + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else pkg_parent
        )
        stderr_path = os.path.join(job_dir, f"stderr_{attempt}.log")
        with open(stderr_path, "ab") as stderr_fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.jobs.child", spec_path],
                stdout=stderr_fh,
                stderr=stderr_fh,
                env=env,
            )
            kill_reason, kill_detail, rss_peak = self._watch(
                proc, policy, heartbeat
            )
        if kill_reason is not None:
            record = AttemptRecord(
                attempt,
                "killed",
                kill_reason,
                f"{kill_detail}; rss_peak={rss_peak:.0f}MiB",
            )
            self.log.emit(
                "kill",
                job=spec.job_id,
                attempt=attempt,
                reason=kill_reason,
                detail=kill_detail,
                rss_peak_mb=round(rss_peak, 1),
            )
            return record, None
        if proc.returncode != 0:
            code = proc.returncode
            reason = (
                f"signal:{-code}" if code < 0 else f"exit:{code}"
            )
            return (
                AttemptRecord(
                    attempt,
                    "crashed",
                    reason,
                    f"child exited {code}; stderr at {stderr_path}",
                ),
                None,
            )
        if not os.path.exists(result_file):
            return (
                AttemptRecord(
                    attempt,
                    "no_result",
                    "no_result",
                    "child exited 0 without writing its result file",
                ),
                None,
            )
        with open(result_file, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        record = AttemptRecord(
            attempt,
            "ok",
            "ok",
            f"rss_peak={rss_peak:.0f}MiB",
            resumed_from=result.get("resumed_from"),
        )
        return record, result

    # ------------------------------------------------------------------

    def _watch(
        self, proc: subprocess.Popen, policy: JobPolicy, heartbeat: str
    ) -> tuple[str | None, str, float]:
        """Poll the child until exit or the first budget violation.

        Returns ``(reason, detail, rss_peak_mb)``; reason None means the
        child exited on its own (its exit code tells the rest).
        """
        start = time.perf_counter()
        last_beat = read_heartbeat(heartbeat)
        beat_seen = time.perf_counter()
        rss_peak = 0.0
        while True:
            if proc.poll() is not None:
                return None, "", rss_peak
            now = time.perf_counter()
            rss = proc_rss_mb(proc.pid)
            if rss is not None:
                rss_peak = max(rss_peak, rss)
            beat = read_heartbeat(heartbeat)
            if beat != last_beat:
                last_beat = beat
                beat_seen = now
            if policy.deadline_s and now - start > policy.deadline_s:
                reason, detail = (
                    "deadline",
                    f"exceeded {policy.deadline_s}s wall-clock",
                )
            elif (
                policy.heartbeat_stall_s
                and now - beat_seen > policy.heartbeat_stall_s
            ):
                reason, detail = (
                    "heartbeat_stall",
                    f"no heartbeat change for {policy.heartbeat_stall_s}s",
                )
            elif policy.mem_mb and rss is not None and rss > policy.mem_mb:
                reason, detail = (
                    "oom",
                    f"VmRSS {rss:.0f}MiB over budget {policy.mem_mb:.0f}MiB",
                )
            else:
                time.sleep(policy.poll_interval_s)
                continue
            self._kill(proc)
            return reason, detail, rss_peak

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        """SIGKILL, not SIGTERM: a hung or ballooning child may not be
        able to run cleanup handlers anyway, and the checkpoint design
        makes abrupt death safe by construction."""
        try:
            proc.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    @staticmethod
    def _has_checkpoints(ckpt_dir: str) -> bool:
        names = sorted(
            n
            for n in os.listdir(ckpt_dir)
            if n.startswith("level_") and n.endswith(".ckpt")
        )
        return bool(names)

def run_batch_report(run_dir: str) -> str:
    """Render the ``--report`` summary for a finished (or live) run."""
    events_path = os.path.join(run_dir, "events.jsonl")
    if not os.path.exists(events_path):
        raise ValueError(f"no events.jsonl under {run_dir!r}")
    return summarize(read_events(events_path))
