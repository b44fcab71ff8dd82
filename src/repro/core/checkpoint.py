"""Per-level checkpoint/resume for the synthesis flow.

After each topology level the flow can snapshot what that level added
(``CTSOptions.checkpoint_dir``). ``CTSOptions.resume_from`` replays the
snapshots, rebuilds the live subtrees and re-enters the level loop
mid-tree. Node ids and names, stats and the engine's memoized timing are
all restored or recomputed deterministically, so the resumed tree is
bit-identical to an uninterrupted run (``tree_signature`` equality is
asserted in the tests).

Format (version :data:`CHECKPOINT_VERSION`): one framed pickled dict
per completed level, ``level_0007.ckpt``. The frame is an 8-byte magic,
the SHA-256 of the body, then the pickled body. Files are written to a
``.tmp`` sibling, fsynced, and atomically renamed, so a kill mid-write
never corrupts an earlier snapshot. A *torn* file (truncated rename on a
crashing filesystem, bit rot, a stray partial copy) is detected by its
content digest before unpickling, not by whatever exception a half-read
pickle happens to throw. The payload holds only primitives — node rows,
stat field dicts, digests — never live objects.

The frames form a chain. Frame *k* holds only the delta of level *k*:

- a full node row ``(id, kind, name, x, y, wire, cap, buffer,
  parent_id)`` for every node created at level *k*: the ids at or above
  frame *k−1*'s ``next_node_id`` (frame 1 also holds the sinks);
- a link row ``(id, parent_id, wire)`` wherever such a new node adopted
  an older one (every merge adopts its two sub-tree roots; balance
  snaking, corrective and forced stage buffers and H-structure
  re-plugging adopt older nodes too);
- the level's root ids, bounds and parts, the loop state and the stats
  rows;
- the SHA-256 of frame *k−1*'s body (``prev_digest``; ``None`` in
  frame 1).

Resume replays frames 1..*k* in order. Rows are in child-order-preserving
preorder per live subtree (``TreeNode.walk`` reverses children — wrong
here, attach order must survive the round trip) and the walk stops at
older nodes, so a parent's row always precedes its children's and a
parent gets its children back in the original attach order. A link row
detaches the older node from its previous parent first.

A frame is valid only if it passes its digest *and* links to the valid
frame before it. Resuming from a directory replays the longest valid
prefix of the chain: a torn, missing or foreign frame *j* makes *j−1*
the highest level, with a loud ``RuntimeWarning``, whatever frames
follow it (:class:`CorruptCheckpointError` when frame 1 itself is bad).
An explicitly named frame gets no such second chance: it and every frame
before it in its directory must be valid.

Compatibility is enforced by two digests, computed once per run and
stored in every frame: ``options_digest`` covers the
**result-affecting** options only (execution plumbing like
``fault_plan``, ``checkpoint_dir`` or ``heartbeat_file`` is excluded —
it changes how a run is carried out, never its tree), and
``sinks_digest`` covers the sink instance. A mismatch of either fails
loudly with what differed; so does a frame of another version.
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

CHECKPOINT_VERSION = 4

#: Frame prefix of every checkpoint file: magic, then the SHA-256 of the
#: pickled body. A file that lacks the magic or fails the digest is torn
#: or foreign and is rejected *before* any unpickling.
_MAGIC = b"RPCKPT02"
_DIGEST_BYTES = hashlib.sha256().digest_size


class CorruptCheckpointError(ValueError):
    """A checkpoint frame is torn, truncated, missing from its chain, or
    not a checkpoint at all.

    Distinct from the plain ``ValueError`` of a *semantic* mismatch
    (wrong sinks, wrong options, wrong version): directory resume stops
    its chain before a corrupt frame and resumes from the previous level,
    but never skips a semantically incompatible one.
    """

#: The options that change the synthesized tree. Everything else —
#: fault injection, checkpoint/heartbeat paths — only changes how the
#: same tree is computed, so it is deliberately outside the digest.
_RESULT_FIELDS = (
    "slew_limit",
    "slew_margin",
    "cost_alpha",
    "cost_beta",
    "grid_resolution",
    "router",
    "enable_balance",
    "enable_binary_search",
    "hstructure",
)

#: The options deliberately *excluded* from the digest: the resilience
#: and supervision plumbing. The split is explicit (not "whatever is
#: left over") so that a new knob must be classified on day one:
#: :func:`options_digest` refuses to run on an incomplete partition.
_EXECUTION_FIELDS = (
    "fault_plan",
    "checkpoint_dir",
    "resume_from",
    "heartbeat_file",
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
    """A replayed frame chain, ready to re-enter the level loop."""

    levels_done: int
    n_flips: int
    next_node_id: int
    center: tuple[float, float]
    subtrees: list[SubTree]
    merge_stats: MergeStats
    commit_queries: CommitQueryStats
    route_sharing: SharingStats
    degradations: list[Degradation]
    #: The replayed frame files, level 1 first, and the body digest of
    #: the last one (the link the next frame of a resumed run carries).
    frames: list[str]
    digest: bytes


class FrameChain:
    """The frame chain one run writes.

    Holds what each frame links to: the directory, the two compatibility
    digests (computed once per run), the first node id the next frame
    owns, and the body digest of the frame before it.
    """

    def __init__(
        self,
        options: CTSOptions,
        sinks: list[tuple[Point, float]],
        first_node_id: int,
        prev_digest: bytes | None = None,
    ):
        self.dirpath = options.checkpoint_dir
        self.fault_plan = options.fault_plan
        self.options_digest = options_digest(options)
        self.sinks_digest = sinks_digest(sinks)
        self.first_node_id = first_node_id
        self.prev_digest = prev_digest

    @classmethod
    def resumed(
        cls,
        options: CTSOptions,
        sinks: list[tuple[Point, float]],
        state: CheckpointState,
    ) -> "FrameChain":
        """Continue the chain ``state`` was replayed from.

        When ``options.checkpoint_dir`` is not the directory of the
        replayed frames, they are copied there first, so the new
        directory holds a whole chain of its own.
        """
        os.makedirs(options.checkpoint_dir, exist_ok=True)
        for src in state.frames:
            dst = os.path.join(options.checkpoint_dir, os.path.basename(src))
            if os.path.exists(dst) and os.path.samefile(src, dst):
                continue
            with open(src, "rb") as fh:
                _write_atomic(dst, fh.read())
        return cls(options, sinks, state.next_node_id, state.digest)


# ----------------------------------------------------------------------
# Tree encoding
# ----------------------------------------------------------------------


def _encode_rows(roots: list[TreeNode], first_id: int) -> list[tuple]:
    """The node and link rows of the nodes with ids at or above
    ``first_id``, in child-order-preserving preorder below each root.

    The walk stops at older nodes: one reached below a new node gets a
    link row, and what lies below it is already in an earlier frame.
    """
    rows: list[tuple] = []
    for root in roots:
        if root.id < first_id:
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            parent = node.parent
            if node.id < first_id:
                rows.append((node.id, parent.id, node.wire_to_parent))
                continue
            rows.append(
                (
                    node.id,
                    node.kind.value,
                    node.name,
                    node.location.x,
                    node.location.y,
                    node.wire_to_parent,
                    node.cap,
                    node.buffer.name if node.buffer is not None else None,
                    parent.id if parent is not None else None,
                )
            )
            stack.extend(reversed(node.children))
    return rows


def _replay_rows(
    rows: list[tuple], by_id: dict[int, TreeNode], buffers: BufferLibrary
) -> None:
    """Apply one frame's node and link rows to the nodes decoded so far."""
    for row in rows:
        if len(row) == 3:
            node_id, parent_id, wire = row
            node = by_id[node_id].detach()
            by_id[parent_id].attach(node, wire)
            continue
        node_id, kind, name, x, y, wire, cap, buffer_name, parent_id = row
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
            by_id[parent_id].attach(node, wire)


def _encode_root(subtree: SubTree) -> tuple:
    parts = subtree.parts
    return (
        subtree.root.id,
        tuple(subtree.bounds),
        None if parts is None else (parts[0].id, parts[1].id),
    )


def _decode_root(row: tuple, by_id: dict[int, TreeNode]) -> SubTree:
    root_id, bounds, parts = row
    return SubTree(
        by_id[root_id],
        SubtreeBounds(*bounds),
        None if parts is None else (by_id[parts[0]], by_id[parts[1]]),
    )


def _stats_dict(stats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


# ----------------------------------------------------------------------
# Write / load
# ----------------------------------------------------------------------


def checkpoint_filename(level: int) -> str:
    return f"level_{level:04d}.ckpt"


def _write_atomic(path: str, *chunks: bytes) -> None:
    """Write ``chunks`` to a ``.tmp`` sibling, fsync it, rename it over
    ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        # A crash between rename and writeback must not leave a renamed
        # file with unwritten pages — that is exactly the torn state the
        # loader's digest guards against, so close the window too.
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_checkpoint(
    chain: FrameChain,
    *,
    level: int,
    subtrees: list[SubTree],
    n_flips: int,
    next_node_id: int,
    center: Point,
    merge_stats: MergeStats,
    commit_queries: CommitQueryStats,
    route_sharing: SharingStats,
    degradations: list[Degradation],
) -> str:
    """Atomically write frame ``level`` of ``chain`` and advance it."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "options_digest": chain.options_digest,
        "sinks_digest": chain.sinks_digest,
        "prev_digest": chain.prev_digest,
        "levels_done": level,
        "n_flips": n_flips,
        "first_node_id": chain.first_node_id,
        "next_node_id": next_node_id,
        "center": (center.x, center.y),
        "nodes": _encode_rows([s.root for s in subtrees], chain.first_node_id),
        "roots": [_encode_root(s) for s in subtrees],
        "merge_stats": _stats_dict(merge_stats),
        "commit_queries": _stats_dict(commit_queries),
        "route_sharing": _stats_dict(route_sharing),
        "degradations": [d.as_record() for d in degradations],
    }
    os.makedirs(chain.dirpath, exist_ok=True)
    path = os.path.join(chain.dirpath, checkpoint_filename(level))
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    _write_atomic(path, _MAGIC, digest, body)
    chain.first_node_id = next_node_id
    chain.prev_digest = digest
    if chain.fault_plan:
        from repro.evalx.faultinject import active_plan

        # ``checkpoint_torn:N:torn`` truncates the snapshot that just
        # landed, simulating a torn write; the run continues unaware —
        # only a later resume discovers the damage and stops its chain
        # there.
        plan = active_plan(chain.fault_plan)
        if plan is not None and plan.consult("checkpoint_torn") == "torn":
            with open(path, "r+b") as fh:
                fh.truncate(len(_MAGIC) + _DIGEST_BYTES + len(body) // 2)
    return path


def _read_frame(path: str) -> tuple[dict, bytes]:
    """Read one framed checkpoint, digest-verified before unpickling.

    Returns the payload and the body digest. A payload of another
    version is refused here, before any of its fields is read.
    """
    if not os.path.exists(path):
        raise CorruptCheckpointError(f"checkpoint {path!r} is missing")
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
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    return payload, digest


def _check_link(
    path: str, payload: dict, level: int, prev_digest: bytes | None
) -> None:
    """Refuse a frame that is not level ``level`` of a chain whose
    previous frame has ``prev_digest``."""
    if payload["levels_done"] != level or payload["prev_digest"] != prev_digest:
        raise CorruptCheckpointError(
            f"checkpoint {path!r} does not link to level {level - 1} of its"
            " directory (a frame of another run)"
        )


def _read_link(path: str, level: int, prev_digest: bytes | None) -> tuple:
    """Frame ``level`` of a chain whose previous frame has ``prev_digest``."""
    payload, digest = _read_frame(path)
    _check_link(path, payload, level, prev_digest)
    return path, payload, digest


def _resolve_chain(path: str) -> list[tuple[str, dict, bytes]]:
    """The frames to replay: ``(path, payload, digest)``, level 1 first.

    For a directory, the longest valid prefix of its chain; the first
    bad frame is reported with a loud warning and ends the prefix. For
    an explicitly named frame, that frame and all of its predecessors in
    its directory, each of which must be valid.
    """
    if not os.path.isdir(path):
        if not os.path.exists(path):
            raise ValueError(f"checkpoint {path!r} does not exist")
        payload, digest = _read_frame(path)
        dirpath = os.path.dirname(path)
        frames: list[tuple[str, dict, bytes]] = []
        prev = None
        for level in range(1, payload["levels_done"]):
            frame = _read_link(
                os.path.join(dirpath, checkpoint_filename(level)), level, prev
            )
            frames.append(frame)
            prev = frame[2]
        _check_link(path, payload, payload["levels_done"], prev)
        return frames + [(path, payload, digest)]
    levels = [
        int(n[len("level_") : -len(".ckpt")])
        for n in sorted(os.listdir(path))
        if n.startswith("level_")
        and n.endswith(".ckpt")
        and n[len("level_") : -len(".ckpt")].isdigit()
    ]
    if not levels:
        raise ValueError(f"no checkpoints (level_*.ckpt) in {path!r}")
    frames = []
    prev = None
    for level in range(1, max(levels) + 1):
        name = checkpoint_filename(level)
        try:
            frame = _read_link(os.path.join(path, name), level, prev)
        except CorruptCheckpointError as exc:
            if not frames:
                warnings.warn(
                    f"skipping corrupt checkpoint {name!r} ({exc})",
                    RuntimeWarning,
                    stacklevel=3,
                )
                raise CorruptCheckpointError(
                    f"no valid checkpoint in {path!r}: the chain breaks at"
                    f" its first frame ({exc})"
                ) from exc
            warnings.warn(
                f"skipping corrupt checkpoint {name!r} ({exc}) and every"
                f" later frame; resuming from level {level - 1} instead",
                RuntimeWarning,
                stacklevel=3,
            )
            break
        frames.append(frame)
        prev = frame[2]
    return frames


def load_checkpoint(
    path: str,
    sinks: list[tuple[Point, float]],
    options: CTSOptions,
    buffers: BufferLibrary,
) -> CheckpointState:
    """Verify and replay a checkpoint chain (see :func:`_resolve_chain`).

    Raises ``ValueError`` with what differed when the chain was written
    for different sinks, different result-affecting options or another
    checkpoint version, and :class:`CorruptCheckpointError` when a named
    frame or its chain (or, for a directory, frame 1) is torn.
    """
    frames = _resolve_chain(path)
    last_path, payload, digest = frames[-1]
    if payload["sinks_digest"] != sinks_digest(sinks):
        raise ValueError(
            f"checkpoint {last_path!r} was written for a different sink "
            "instance (positions/caps differ)"
        )
    if payload["options_digest"] != options_digest(options):
        raise ValueError(
            f"checkpoint {last_path!r} was written with different "
            "result-affecting options (resilience and supervision knobs "
            "are exempt; topology/routing/timing knobs must match)"
        )
    by_id: dict[int, TreeNode] = {}
    for __, frame, __ in frames:
        _replay_rows(frame["nodes"], by_id, buffers)
    return CheckpointState(
        levels_done=payload["levels_done"],
        n_flips=payload["n_flips"],
        next_node_id=payload["next_node_id"],
        center=payload["center"],
        subtrees=[_decode_root(row, by_id) for row in payload["roots"]],
        merge_stats=MergeStats(**payload["merge_stats"]),
        commit_queries=CommitQueryStats(**payload["commit_queries"]),
        route_sharing=SharingStats(**payload["route_sharing"]),
        degradations=[
            Degradation.from_record(item) for item in payload["degradations"]
        ],
        frames=[frame_path for frame_path, __, __ in frames],
        digest=digest,
    )
