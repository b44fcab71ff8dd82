"""Outside-in span tracing of the synthesis flow's layers.

The tracer wraps, from outside the program, the public functions and
methods that the level loop in ``repro.core.cts`` calls into. Each call
of a wrapped hook becomes one span ``(layer, level, parent, start, end)``
kept in memory; nothing is written until the run ends. Hooks are looked
up by name: a hook that no longer exists is reported as absent instead
of failing the run, so the benchmark survives refactors of the layers
it observes.

Two pseudo-spans frame the layer spans: ``synthesize`` around the whole
``synthesize()`` call and one ``level`` span per topology level (opened
when the level's matching starts, closed by the next level or the trunk
route). Their self time is the time no layer hook covers: the
unattributed remainder.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under ``synthesize`` sum to its
duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: ``(layer, module, attribute path)`` of every hook, in call-graph order.
#: ``repro.core.cts`` imports some callees by name, so those are wrapped
#: where the level loop looks them up.
HOOKS = (
    ("charlib", "repro.core.cts", "load_default_library"),
    ("topology", "repro.core.cts", "greedy_matching"),
    ("prepare", "repro.core.merge_routing", "MergeRouter.prepare"),
    ("route", "repro.core.merge_routing", "MergeRouter.route_level"),
    ("route", "repro.core.merge_routing", "MergeRouter.route_plan"),
    ("commit", "repro.core.merge_routing", "MergeRouter.commit"),
    ("commit", "repro.core.merge_routing", "MergeRouter.commit_prepare"),
    ("commit", "repro.core.merge_routing", "MergeRouter.commit_finish"),
    ("commit", "repro.core.batch_commit", "BatchCommitScheduler.run"),
    ("bounds", "repro.core.merge_routing", "MergeRouter.subtree_bounds"),
    ("renumber", "repro.core.parallel_merge", "serial_id_mapping"),
    ("renumber", "repro.core.parallel_merge", "renumber_subtrees"),
    ("hstructure", "repro.core.cts", "correct_pairing"),
    ("hstructure", "repro.core.cts", "reestimate_pairing"),
    ("checkpoint", "repro.core.checkpoint", "write_checkpoint"),
    ("trunk", "repro.core.merge_routing", "MergeRouter.route_trunk"),
)

#: Layers timed inside ``synthesize()``; their self times plus the
#: unattributed remainder make up ``synth_s``.
SYNTH_LAYERS = (
    "topology",
    "prepare",
    "route",
    "commit",
    "bounds",
    "renumber",
    "hstructure",
    "checkpoint",
    "trunk",
)

#: Layers timed outside ``synthesize()``: set-up and the benchmark's checks.
OUTER_LAYERS = ("import", "charlib", "qor")

#: Pseudo-spans whose self time is unattributed.
FRAMES = ("synthesize", "level")


class Tracer:
    """Span recorder with hook installation and self-time accounting."""

    def __init__(self):
        #: Closed spans: ``[layer, level, parent, start, end, self]``;
        #: ``parent`` is the index of the enclosing span or -1.
        self.spans: list[list] = []
        #: Open spans as ``[index, child_seconds]``.
        self._stack: list[list] = []
        self._level = 0
        self._restore: list[tuple[object, str, object]] = []
        #: ``module:attribute`` of hooks that could not be found.
        self.absent: list[str] = []

    # -- spans ---------------------------------------------------------

    def open(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([layer, self._level, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append([len(self.spans) - 1, 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        index, child_seconds = self._stack.pop()
        span = self.spans[index]
        span[4] = end
        duration = end - span[3]
        span[5] = duration - child_seconds
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span of ``layer``."""
        self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def _top(self) -> str | None:
        return self.spans[self._stack[-1][0]][0] if self._stack else None

    def _enter_level(self) -> None:
        """Start the next level frame, if called from the level loop itself."""
        if self._top() in FRAMES:
            self._exit_level()
            self._level += 1
            self.open("level")

    def _exit_level(self) -> None:
        if self._top() == "level":
            self.close()

    # -- hooks ---------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook that exists; record the missing ones as absent."""
        for layer, module_name, path in hooks:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}:{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, fn):
        # The matching starts every level and the trunk route ends the
        # last, so those two hooks also move the level frame.
        before = {"topology": self._enter_level, "trunk": self._exit_level}.get(layer)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before()
            self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapped

    def synthesize(self, cts, sinks, source):
        """Run ``cts.synthesize`` inside the ``synthesize`` frame."""
        self._level = 0
        self.open("synthesize")
        try:
            return cts.synthesize(sinks, source)
        finally:
            self._exit_level()
            self.close()

    # -- accounting ----------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: summed self seconds and calls.

        A call is a span whose parent belongs to another layer, so a
        layer re-entering itself (``commit`` driving ``commit_prepare``)
        counts once.
        """
        totals: dict[str, dict] = {}
        for layer, __, parent, __, __, self_s in self.spans:
            entry = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            if parent < 0 or self.spans[parent][0] != layer:
                entry["calls"] += 1
        return totals

    def unattributed_s(self) -> float:
        """Self time of the frames: time inside synthesis no hook covers."""
        return sum(s[5] for s in self.spans if s[0] in FRAMES)

    def level_table(self) -> list[dict]:
        """Per level: wall seconds and each layer's self seconds.

        Level 0 is the work inside ``synthesize()`` before the first
        matching (the sinks' bounds); the trunk route joins the last level.
        """
        levels: dict[int, dict] = {}
        for layer, level, __, start, end, self_s in self.spans:
            if layer in FRAMES and layer != "level":
                continue
            row = levels.setdefault(level, {"level": level, "wall_s": 0.0, "self_s": {}})
            if layer == "level":
                row["wall_s"] = end - start
            row["self_s"][layer] = row["self_s"].get(layer, 0.0) + self_s
        return [levels[k] for k in sorted(levels)]

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        if not self.spans:
            return
        t0 = min(s[3] for s in self.spans)
        events = [
            {
                "name": layer,
                "cat": "level" if layer == "level" else "layer",
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"level": level, "self_us": round(self_s * 1e6, 3)},
            }
            for layer, level, __, start, end, self_s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": meta,
                    "levels": self.level_table(),
                },
                fh,
            )
