"""Per-level checkpoint/resume for the synthesis flow.

After each topology level the flow can snapshot everything the next
level depends on (``CTSOptions.checkpoint_dir``): the live subtree
roots, the node-id counter, the accumulated diagnostics and the loop
state. ``CTSOptions.resume_from`` rebuilds that state and re-enters the
level loop mid-tree; because node ids/names, stats and the engine's
memoized timing are all restored or recomputed deterministically, the
resumed tree is bit-identical to an uninterrupted run
(``tree_signature`` equality is asserted in the tests).

Format (version :data:`CHECKPOINT_VERSION`): one framed pickled dict
per completed level, ``level_0007.ckpt``. The frame is an 8-byte magic,
the SHA-256 of the body, then the pickled body; files are written to a
``.tmp`` sibling, fsynced, and atomically renamed, so a kill mid-write
never corrupts the latest good snapshot — and a *torn* file (truncated
rename on a crashing filesystem, bit rot, a stray partial copy) is
detected by its content digest before unpickling, not by whatever
exception a half-read pickle happens to throw. Resuming from a
directory selects the highest-numbered checkpoint that passes its
digest: corrupt candidates are skipped with a loud ``RuntimeWarning``
and the previous level is used instead
(:class:`CorruptCheckpointError` when *no* candidate survives, or when
an explicitly named file is corrupt). The payload holds only
primitives — node records, stat field dicts, digests — never live
objects, so checkpoints survive refactors of the in-memory classes
better than naive object pickles would.

Compatibility is enforced by two digests: ``options_digest`` covers the
**result-affecting** options only (execution plumbing like
``fault_plan``, ``checkpoint_dir`` or ``validate_every_merge`` is
excluded — it changes how a run is carried out, never its tree), and
``sinks_digest`` covers the sink instance. A mismatch of
either fails loudly with what differed.

Tree encoding walks each subtree in child-order-preserving preorder
(``TreeNode.walk`` reverses children — wrong here, attach order must
survive the round trip) and records ``(id, kind, name, x, y, wire,
cap, buffer, parent_id)`` rows; decoding re-creates nodes with their
explicit ids (the counter is untouched) and re-attaches them in row
order, which preserves child order because a parent's k-th child always
precedes its (k+1)-th in preorder.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import warnings
from dataclasses import dataclass, fields

from repro.core.batch_commit import CommitQueryStats
from repro.core.grid_cache import SharingStats
from repro.core.merge_routing import MergeStats
from repro.core.options import CTSOptions
from repro.core.resilience import Degradation
from repro.core.topology import SubTree
from repro.geom.point import Point
from repro.tech.buffers import BufferLibrary
from repro.timing.analysis import SubtreeBounds
from repro.tree.nodes import NodeKind, TreeNode

CHECKPOINT_VERSION = 2

#: Frame prefix of every checkpoint file: magic, then the SHA-256 of the
#: pickled body. A file that lacks the magic or fails the digest is torn
#: or foreign and is rejected *before* any unpickling.
_MAGIC = b"RPCKPT02"
_DIGEST_BYTES = hashlib.sha256().digest_size


class CorruptCheckpointError(ValueError):
    """A checkpoint file is torn, truncated, or not a checkpoint at all.

    Distinct from the plain ``ValueError`` of a *semantic* mismatch
    (wrong sinks, wrong options, wrong version): directory resume skips
    corrupt files and falls back to the previous level, but never skips
    a semantically incompatible one.
    """

#: The options that change the synthesized tree. Everything else —
#: fault injection, checkpoint/heartbeat paths, validation — only
#: changes how the same tree is computed, so it is deliberately outside
#: the digest.
_RESULT_FIELDS = (
    "slew_limit",
    "slew_margin",
    "cost_alpha",
    "cost_beta",
    "grid_resolution",
    "max_grid_cells",
    "target_cells_per_stage",
    "sizing_lookahead",
    "routing_margin_ratio",
    "router",
    "enable_balance",
    "balance_headroom",
    "snake_step",
    "enable_binary_search",
    "binary_search_iters",
    "binary_search_tol",
    "hstructure",
    "max_unbuffered_cap_ratio",
    "virtual_drive",
    "source_slew",
    "seed",
)

#: The options deliberately *excluded* from the digest: the resilience
#: and supervision plumbing plus the validation switch. The split is explicit (not "whatever
#: is left over") so that a new knob must be classified on day one —
#: repro-lint rule CON305 fails the build if a ``CTSOptions`` field is
#: in neither list, and :func:`options_digest` refuses to run on an
#: incomplete partition.
_EXECUTION_FIELDS = (
    "fault_plan",
    "checkpoint_dir",
    "resume_from",
    "heartbeat_file",
    "validate_every_merge",
)


def options_digest(options: CTSOptions) -> str:
    """Digest of the result-affecting options (see :data:`_RESULT_FIELDS`)."""
    unclassified = [
        f.name
        for f in fields(options)
        if f.name not in _RESULT_FIELDS and f.name not in _EXECUTION_FIELDS
    ]
    if unclassified:
        raise ValueError(
            "CTSOptions fields missing a digest classification "
            f"(_RESULT_FIELDS or _EXECUTION_FIELDS): {unclassified}"
        )
    payload = repr(
        [(name, getattr(options, name)) for name in _RESULT_FIELDS]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def sinks_digest(sinks: list[tuple[Point, float]]) -> str:
    """Digest of the sink instance (positions and caps, bit-exact)."""
    h = hashlib.sha256(struct.pack("<q", len(sinks)))
    for point, cap in sinks:
        h.update(struct.pack("<ddd", point.x, point.y, cap))
    return h.hexdigest()


@dataclass
class CheckpointState:
    """A decoded checkpoint, ready to re-enter the level loop."""

    levels_done: int
    n_flips: int
    next_node_id: int
    center: tuple[float, float]
    subtrees: list[SubTree]
    merge_stats: MergeStats
    commit_queries: CommitQueryStats
    route_sharing: SharingStats
    degradations: list[Degradation]


# ----------------------------------------------------------------------
# Tree encoding
# ----------------------------------------------------------------------


def _iter_preorder(root: TreeNode):
    """Preorder walk preserving child order (unlike ``TreeNode.walk``)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _encode_subtree(subtree: SubTree) -> dict:
    nodes = [
        (
            node.id,
            node.kind.value,
            node.name,
            node.location.x,
            node.location.y,
            node.wire_to_parent,
            node.cap,
            node.buffer.name if node.buffer is not None else None,
            node.parent.id if node.parent is not None else None,
        )
        for node in _iter_preorder(subtree.root)
    ]
    return {
        "root": subtree.root.id,
        "bounds": tuple(subtree.bounds),
        "parts": (
            None
            if subtree.parts is None
            else (subtree.parts[0].id, subtree.parts[1].id)
        ),
        "nodes": nodes,
    }


def _decode_subtree(data: dict, buffers: BufferLibrary) -> SubTree:
    by_id: dict[int, TreeNode] = {}
    for rec in data["nodes"]:
        node_id, kind, name, x, y, wire, cap, buffer_name, parent_id = rec
        node = TreeNode(
            kind=NodeKind(kind),
            location=Point(x, y),
            name=name,
            cap=cap,
            buffer=buffers[buffer_name] if buffer_name is not None else None,
            id=node_id,
        )
        by_id[node_id] = node
        if parent_id is not None:
            # Row order is preorder, so the parent exists and gets its
            # children back in the original attach order.
            by_id[parent_id].attach(node, wire)
    parts = data["parts"]
    return SubTree(
        by_id[data["root"]],
        SubtreeBounds(*data["bounds"]),
        None if parts is None else (by_id[parts[0]], by_id[parts[1]]),
    )


def _stats_dict(stats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


# ----------------------------------------------------------------------
# Write / load
# ----------------------------------------------------------------------


def checkpoint_filename(level: int) -> str:
    return f"level_{level:04d}.ckpt"


def write_checkpoint(
    dirpath: str,
    *,
    level: int,
    subtrees: list[SubTree],
    n_flips: int,
    next_node_id: int,
    center: Point,
    options: CTSOptions,
    sinks: list[tuple[Point, float]],
    merge_stats: MergeStats,
    commit_queries: CommitQueryStats,
    route_sharing: SharingStats,
    degradations: list[Degradation],
) -> str:
    """Atomically snapshot the flow state after topology ``level``."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "options_digest": options_digest(options),
        "sinks_digest": sinks_digest(sinks),
        "levels_done": level,
        "n_flips": n_flips,
        "next_node_id": next_node_id,
        "center": (center.x, center.y),
        "subtrees": [_encode_subtree(s) for s in subtrees],
        "merge_stats": _stats_dict(merge_stats),
        "commit_queries": _stats_dict(commit_queries),
        "route_sharing": _stats_dict(route_sharing),
        "degradations": [d.as_record() for d in degradations],
    }
    os.makedirs(dirpath, exist_ok=True)
    path = os.path.join(dirpath, checkpoint_filename(level))
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(hashlib.sha256(body).digest())
        fh.write(body)
        fh.flush()
        # A crash between rename and writeback must not leave a renamed
        # file with unwritten pages — that is exactly the torn state the
        # loader's digest guards against, so close the window too.
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    if options.fault_plan:
        from repro.evalx.faultinject import active_plan

        # ``checkpoint_torn:N:torn`` truncates the snapshot that just
        # landed, simulating a torn write; the run continues unaware —
        # only a later resume discovers (and must skip) the damage.
        plan = active_plan(options.fault_plan)
        if plan is not None and plan.consult("checkpoint_torn") == "torn":
            with open(path, "r+b") as fh:
                fh.truncate(len(_MAGIC) + _DIGEST_BYTES + len(body) // 2)
    return path


def _read_payload(path: str) -> dict:
    """Read one framed checkpoint, digest-verified before unpickling."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + _DIGEST_BYTES or not data.startswith(_MAGIC):
        raise CorruptCheckpointError(
            f"checkpoint {path!r} is truncated or not a framed checkpoint"
            " (bad magic)"
        )
    digest = data[len(_MAGIC) : len(_MAGIC) + _DIGEST_BYTES]
    body = data[len(_MAGIC) + _DIGEST_BYTES :]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpointError(
            f"checkpoint {path!r} fails its content digest (torn write"
            " or corruption)"
        )
    try:
        payload = pickle.loads(body)
    except MemoryError:
        raise
    except Exception as exc:
        raise CorruptCheckpointError(
            f"checkpoint {path!r} passed its digest but does not"
            f" unpickle ({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(payload, dict):
        raise CorruptCheckpointError(
            f"checkpoint {path!r} does not hold a payload dict"
        )
    return payload


def _resolve_payload(path: str) -> tuple[str, dict]:
    """The payload of ``path`` — or of a directory's newest *valid* file.

    Directory resume walks level files newest-first and skips any that
    fail :func:`_read_payload`, warning loudly per skipped file; an
    explicitly named file gets no such second chance.
    """
    if not os.path.isdir(path):
        if not os.path.exists(path):
            raise ValueError(f"checkpoint {path!r} does not exist")
        return path, _read_payload(path)
    names = sorted(
        (
            n
            for n in os.listdir(path)
            if n.startswith("level_") and n.endswith(".ckpt")
        ),
        reverse=True,
    )
    if not names:
        raise ValueError(f"no checkpoints (level_*.ckpt) in {path!r}")
    failures: list[str] = []
    for name in names:
        candidate = os.path.join(path, name)
        try:
            payload = _read_payload(candidate)
        except CorruptCheckpointError as exc:
            failures.append(f"{name}: {exc}")
            warnings.warn(
                f"skipping corrupt checkpoint {name!r} ({exc}); resuming"
                " from the previous level instead",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        return candidate, payload
    raise CorruptCheckpointError(
        f"no valid checkpoint in {path!r}: every candidate failed"
        f" ({'; '.join(failures)})"
    )


def load_checkpoint(
    path: str,
    sinks: list[tuple[Point, float]],
    options: CTSOptions,
    buffers: BufferLibrary,
) -> CheckpointState:
    """Load and verify a checkpoint file (or a directory's newest valid).

    Raises ``ValueError`` with what differed when the checkpoint was
    written for different sinks or different result-affecting options,
    and :class:`CorruptCheckpointError` when the file (or, for a
    directory, every file) is torn.
    """
    path, payload = _resolve_payload(path)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    if payload["sinks_digest"] != sinks_digest(sinks):
        raise ValueError(
            f"checkpoint {path!r} was written for a different sink "
            "instance (positions/caps differ)"
        )
    if payload["options_digest"] != options_digest(options):
        raise ValueError(
            f"checkpoint {path!r} was written with different "
            "result-affecting options (resilience and supervision knobs "
            "are exempt; topology/routing/timing knobs must match)"
        )
    route_sharing = SharingStats(**payload["route_sharing"])
    return CheckpointState(
        levels_done=payload["levels_done"],
        n_flips=payload["n_flips"],
        next_node_id=payload["next_node_id"],
        center=payload["center"],
        subtrees=[
            _decode_subtree(data, buffers) for data in payload["subtrees"]
        ],
        merge_stats=MergeStats(**payload["merge_stats"]),
        commit_queries=CommitQueryStats(**payload["commit_queries"]),
        route_sharing=route_sharing,
        degradations=[
            Degradation.from_record(item) for item in payload["degradations"]
        ],
    )
