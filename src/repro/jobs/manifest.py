"""Batch manifest: the JSON description of a job fleet.

A manifest names the jobs of one batch — each an (instance x options)
pair — plus optional batch-wide policy overrides::

    {
      "name": "nightly-sweep",
      "policy": {"deadline_s": 120, "max_retries": 2},
      "jobs": [
        {
          "id": "rand120-base",
          "instance": {"kind": "random", "n_sinks": 120, "area": 30000,
                       "seed": 7},
          "options": {"router": "maze", "grid_resolution": 50},
          "policy": {"mem_mb": 512},
          "fault_plans": ["job_hang:1:hang", ""]
        }
      ]
    }

``options`` takes any :class:`repro.core.options.CTSOptions` field
except the reserved plumbing the runner owns (checkpoint/resume paths,
heartbeat file, fault plan) — those are derived per attempt, and a
manifest that sets them is rejected loudly rather than silently
overridden. ``fault_plans`` is a *per-attempt* list (attempt 1 runs
under ``fault_plans[0]``, attempt 2 under ``fault_plans[1]``, attempts
past the end run clean): chaos tests inject a fault into the first
attempt and let the retry prove checkpoint resume, which a single plan
re-firing every attempt could never terminate.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Option fields the runner derives per attempt; a manifest may not set
#: them (it would fight the supervisor's checkpoint/retry machinery).
RESERVED_OPTIONS = (
    "checkpoint_dir",
    "resume_from",
    "heartbeat_file",
    "fault_plan",
)

_INSTANCE_KINDS = ("random", "gsrc", "ispd", "file", "inline")


@dataclass(frozen=True)
class JobSpec:
    """One job of a batch: an instance, option overrides, local policy."""

    job_id: str
    instance: dict
    options: dict = field(default_factory=dict)
    policy: dict = field(default_factory=dict)
    fault_plans: tuple[str, ...] = ()

    def fault_plan_for(self, attempt: int) -> str:
        """The fault plan of 1-based ``attempt`` ("" = run clean)."""
        if 1 <= attempt <= len(self.fault_plans):
            return self.fault_plans[attempt - 1]
        return ""


@dataclass(frozen=True)
class BatchManifest:
    """A parsed manifest: ordered jobs plus batch-wide policy overrides."""

    name: str
    jobs: tuple[JobSpec, ...]
    policy: dict = field(default_factory=dict)


def _check_options(job_id: str, options: dict) -> None:
    from repro.core.options import CTSOptions

    known = {f.name for f in fields(CTSOptions)}
    for key in options:
        if key in RESERVED_OPTIONS:
            raise ValueError(
                f"job {job_id!r}: option {key!r} is reserved — the batch"
                " runner derives it per attempt (use 'fault_plans' for"
                " fault injection)"
            )
        if key not in known:
            raise ValueError(
                f"job {job_id!r}: unknown CTSOptions field {key!r}"
            )


def _check_fault_plans(job_id: str, plans) -> tuple[str, ...]:
    from repro.evalx.faultinject import FaultPlan

    if not isinstance(plans, list) or not all(
        isinstance(p, str) for p in plans
    ):
        raise ValueError(
            f"job {job_id!r}: 'fault_plans' must be a list of strings"
            " (one per attempt)"
        )
    for plan in plans:
        if plan:
            # Parse for validation only; per-process firing state lives
            # in the child's own singleton.
            FaultPlan.parse(plan)
    return tuple(plans)


def _parse_job(data: dict, seen_ids: set[str]) -> JobSpec:
    if not isinstance(data, dict):
        raise ValueError(f"manifest job entries must be objects, got {data!r}")
    job_id = data.get("id")
    if not isinstance(job_id, str) or not _ID_RE.match(job_id):
        raise ValueError(
            f"manifest job id {job_id!r} must match {_ID_RE.pattern}"
            " (it names directories and log records)"
        )
    if job_id in seen_ids:
        raise ValueError(f"duplicate job id {job_id!r} in manifest")
    seen_ids.add(job_id)
    unknown = sorted(
        set(data) - {"id", "instance", "options", "policy", "fault_plans"}
    )
    if unknown:
        raise ValueError(f"job {job_id!r}: unknown manifest keys {unknown}")
    instance = data.get("instance")
    if not isinstance(instance, dict) or "kind" not in instance:
        raise ValueError(
            f"job {job_id!r}: 'instance' must be an object with a 'kind'"
        )
    if instance["kind"] not in _INSTANCE_KINDS:
        raise ValueError(
            f"job {job_id!r}: unknown instance kind {instance['kind']!r}"
            f" (one of {', '.join(_INSTANCE_KINDS)})"
        )
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValueError(f"job {job_id!r}: 'options' must be an object")
    _check_options(job_id, options)
    policy = data.get("policy", {})
    if not isinstance(policy, dict):
        raise ValueError(f"job {job_id!r}: 'policy' must be an object")
    fault_plans = _check_fault_plans(job_id, data.get("fault_plans", []))
    return JobSpec(
        job_id=job_id,
        instance=dict(instance),
        options=dict(options),
        policy=dict(policy),
        fault_plans=fault_plans,
    )


def load_manifest(path: str) -> BatchManifest:
    """Parse and validate a manifest file; every problem fails loudly."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifest {path!r} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path!r} must hold a JSON object")
    unknown = sorted(set(data) - {"name", "policy", "jobs"})
    if unknown:
        raise ValueError(f"manifest {path!r}: unknown keys {unknown}")
    jobs_data = data.get("jobs")
    if not isinstance(jobs_data, list) or not jobs_data:
        raise ValueError(f"manifest {path!r} needs a non-empty 'jobs' list")
    policy = data.get("policy", {})
    if not isinstance(policy, dict):
        raise ValueError(f"manifest {path!r}: 'policy' must be an object")
    seen_ids: set[str] = set()
    jobs = tuple(_parse_job(entry, seen_ids) for entry in jobs_data)
    name = data.get("name", "batch")
    if not isinstance(name, str) or not name:
        raise ValueError(f"manifest {path!r}: 'name' must be a non-empty string")
    return BatchManifest(name=name, jobs=jobs, policy=dict(policy))


def build_instance(spec: dict):
    """Materialize a manifest ``instance`` block as a BenchmarkInstance.

    Deterministic by construction: generated kinds are seeded, loaded
    kinds come from fixed files, and an optional ``scale_to`` count
    scales down with the instance seed.
    """
    from repro.benchio import gsrc_instance, ispd_instance, random_instance
    from repro.benchio.gsrc import parse_gsrc
    from repro.benchio.instance import BenchmarkInstance, Sink
    from repro.geom.bbox import BBox
    from repro.geom.point import Point

    kind = spec["kind"]
    if kind == "random":
        inst = random_instance(
            int(spec["n_sinks"]),
            float(spec.get("area", 30000.0)),
            seed=int(spec.get("seed", 0)),
            name=spec.get("name"),
        )
    elif kind == "gsrc":
        inst = gsrc_instance(spec["name"])
    elif kind == "ispd":
        inst = ispd_instance(spec["name"])
    elif kind == "file":
        inst = parse_gsrc(spec["path"], name=spec.get("name"))
    elif kind == "inline":
        inst = BenchmarkInstance(
            name=spec.get("name", "inline"),
            sinks=[
                Sink(str(name), Point(float(x), float(y)), float(cap))
                for name, x, y, cap in spec["sinks"]
            ],
            source=(
                Point(*map(float, spec["source"]))
                if spec.get("source") is not None
                else None
            ),
        )
    else:  # pragma: no cover - load_manifest validated the kind
        raise ValueError(f"unknown instance kind {kind!r}")
    if spec.get("scale_to"):
        inst = inst.scaled_down(
            int(spec["scale_to"]), seed=int(spec.get("seed", 0))
        )
    if spec.get("blockages"):
        inst.blockages.extend(
            BBox(*map(float, corners)) for corners in spec["blockages"]
        )
        inst._validate_blockages()
    return inst
