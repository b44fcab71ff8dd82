"""Balance stage: slew-safe progressive wire snaking (Sec. 4.2.1).

When the delay difference between two sub-trees exceeds what merge-routing
can absorb without detours, extra delay is added above the *faster*
sub-tree's root by alternately inserting a driving buffer and a wire whose
length is grown until the slew at its end would exceed the target (or the
remaining delay target is met) — the paper's "progressive approach that
inserts wires and buffers alternatively until the target delay is
achieved". The snaked wire is electrically real but geometrically folded:
the chain's nodes share the root's location while the wire lengths carry
the detour.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.charlib.library import DelaySlewLibrary
from repro.core.options import CTSOptions
from repro.tech.buffers import BufferLibrary
from repro.tree.nodes import NodeKind, TreeNode, make_buffer

#: Wire-length granularity of snaking (layout units).
SNAKE_STEP = 100.0

#: Memoized per-library snake-candidate tables. The slew-feasible length
#: scan and the per-type stage delays are pure functions of
#: (buffer set, load type, slews, step), and snaking re-derives them for
#: every inserted chain stage — dozens of scalar fit evaluations each.
_CANDIDATE_CACHE: "WeakKeyDictionary[DelaySlewLibrary, dict]" = WeakKeyDictionary()


@dataclass
class SnakeResult:
    """Outcome of the balance stage on one sub-tree."""

    new_root: TreeNode
    added_delay: float
    n_buffers: int


def _stage_delay(
    library: DelaySlewLibrary, drive: str, load: str, input_slew: float, length: float
) -> float:
    return library.single_wire_total_delay(drive, load, input_slew, length)


def _max_length_within_slew(
    library: DelaySlewLibrary,
    drive: str,
    load: str,
    input_slew: float,
    target_slew: float,
    step: float,
) -> float:
    """Grow the wire in ``step`` increments until the slew target binds."""
    fit_hi = library.max_single_length(drive, load)
    length = 0.0
    while length + step <= fit_hi:
        slew = library.single_wire_slew(drive, load, input_slew, length + step)
        if slew > target_slew:
            break
        length += step
    return length


def _length_for_delay(
    library: DelaySlewLibrary,
    drive: str,
    load: str,
    input_slew: float,
    delay_target: float,
    max_length: float,
) -> float:
    """Bisect the wire length so the stage delay matches ``delay_target``."""
    lo, hi = 0.0, max_length
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if _stage_delay(library, drive, load, input_slew, mid) < delay_target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _snake_candidates(
    library: DelaySlewLibrary,
    buffers: BufferLibrary,
    load: str,
    input_slew: float,
    target_slew: float,
    step: float,
) -> tuple[list, float]:
    """Memoized (candidates, min increment) for one snake chain stage.

    ``candidates`` rows are (buffer type, max slew-feasible length, its
    stage delay); identical to deriving them inline (the scan is a pure
    function of the key), just not re-derived per inserted stage.
    """
    cache = _CANDIDATE_CACHE.setdefault(library, {})
    names = tuple(b.name for b in buffers)
    key = (names, load, input_slew, target_slew, step)
    hit = cache.get(key)
    if hit is None:
        rows = []
        for buf in buffers:
            max_len = _max_length_within_slew(
                library, buf.name, load, input_slew, target_slew, step
            )
            rows.append(
                (
                    buf.name,
                    max_len,
                    _stage_delay(library, buf.name, load, input_slew, max_len),
                )
            )
        min_increment = min(
            _stage_delay(library, b.name, load, input_slew, 0.0) for b in buffers
        )
        hit = cache[key] = (rows, min_increment)
    rows, min_increment = hit
    # Hand back the *caller's* BufferType objects — the cached rows carry
    # only names and fit-derived numbers, so a different BufferLibrary
    # instance with the same type names shares them safely.
    return (
        [(buffers[name], max_len, delay) for name, max_len, delay in rows],
        min_increment,
    )


def _root_load_name(library: DelaySlewLibrary, root: TreeNode, root_cap: float) -> str:
    if root.kind is NodeKind.BUFFER:
        return root.buffer.name
    return library.load_name_for_cap(root_cap)


def snake_delay(
    root: TreeNode,
    delay_needed: float,
    library: DelaySlewLibrary,
    buffers: BufferLibrary,
    options: CTSOptions,
    root_cap: float,
) -> SnakeResult:
    """Add ~``delay_needed`` seconds of buffered snaked wire above ``root``.

    ``root_cap`` is the collapsed stage capacitance at the root (used to
    map an unbuffered root onto a library load type). Stops early when the
    remaining shortfall is smaller than the smallest insertable increment
    (a minimum-size buffer with zero wire).
    """
    if delay_needed <= 0:
        return SnakeResult(root, 0.0, 0)
    target_slew = options.target_slew
    input_slew = target_slew  # worst-case assumption, as during routing
    added = 0.0
    n_added = 0
    node = root
    while added < delay_needed:
        load = _root_load_name(library, node, root_cap)
        remaining = delay_needed - added
        # Candidate (type, max slew-feasible length, its delay).
        candidates, min_increment = _snake_candidates(
            library, buffers, load, input_slew, target_slew, SNAKE_STEP
        )
        if remaining < min_increment * 0.5:
            break  # closer to the target without another buffer
        full_chunks = [c for c in candidates if c[2] <= remaining]
        if full_chunks:
            # Take the biggest slew-feasible chunk.
            buf, length, delay = max(full_chunks, key=lambda c: c[2])
        else:
            # Final partial chunk: pick the type that lands nearest the
            # remaining target via bisection on the wire length.
            best = None
            for buf, max_len, __ in candidates:
                length = _length_for_delay(
                    library, buf.name, load, input_slew, remaining, max_len
                )
                delay = _stage_delay(library, buf.name, load, input_slew, length)
                err = abs(delay - remaining)
                if best is None or err < best[0]:
                    best = (err, buf, length, delay)
            __, buf, length, delay = best
        snake_buf = make_buffer(node.location, buf)
        snake_buf.attach(node, length)
        node = snake_buf
        added += delay
        n_added += 1
    return SnakeResult(node, added, n_added)
