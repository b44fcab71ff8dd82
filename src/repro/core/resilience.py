"""Structured degradation events for the fault-tolerant synthesis flow.

Two commit-phase fast paths (the lockstep batched commit and the
structure-of-arrays tree mirror) retain a bit-identical scalar
fallback. The guards around those paths call :meth:`ResilienceLog.note`
when the fast path fails: in strict mode the triggering exception is
re-raised (CI equivalence legs must never pass on a silently degraded
run); otherwise a :class:`Degradation` is recorded and the caller
replays the failed work through its fallback — the synthesized tree is
the same either way, only slower.

The route phase has one path and no guard: a routing exception
propagates out of the synthesis and is never recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Degradation:
    """One recovery: ``component`` fell back during topology ``level``.

    Components match the knobs they degrade: ``batch_commit``
    (vectorized commit rounds to scalar probes) and ``soa_commit`` (the
    structure-of-arrays tree mirror's kernels to per-node object walks).
    """

    component: str
    reason: str
    level: int  # 1-based topology level; 0 = outside the level loop

    def as_record(self) -> tuple[str, str, int]:
        """Primitive row for checkpoints and cross-process job results."""
        return (self.component, self.reason, self.level)

    @classmethod
    def from_record(cls, record) -> "Degradation":
        component, reason, level = record
        return cls(str(component), str(reason), int(level))


class ResilienceLog:
    """Degradation events of one synthesis run.

    The flow updates :attr:`level` at the top of each topology level so
    guards deeper in the stack need no level plumbing of their own.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.level = 0
        self.events: list[Degradation] = []

    def note(self, component: str, exc: BaseException | str) -> Degradation:
        """Record one degradation — or re-raise it in strict mode."""
        if isinstance(exc, BaseException):
            if self.strict:
                raise exc
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if self.strict:
                raise RuntimeError(
                    f"{component} degraded in strict mode: {exc}"
                )
            reason = str(exc)
        event = Degradation(component, reason, self.level)
        self.events.append(event)
        return event
