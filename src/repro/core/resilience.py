"""The degradation record kept for result and checkpoint compatibility.

Synthesis has one path per layer and no kernel guard: an exception in a
route or commit kernel propagates out of the synthesis, so nothing
produces a :class:`Degradation` any more. The record type, the
``SynthesisResult.degradations`` field and the checkpoint's
``degradations`` row stay only because the benchmark's correctness gate
still reads them; a resumed run carries an older checkpoint's records
forward unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Degradation:
    """One recovery: ``component`` fell back during topology ``level``."""

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
