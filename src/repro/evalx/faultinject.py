"""Deterministic fault injection for the resilience layer.

A fault plan is a comma list of ``site:index:mode`` specs
(``CTSOptions.fault_plan``, or ``repro synthesize --fault-plan``), e.g.::

    checkpoint_torn:1:torn,checkpoint:1:halt

Sites are the level-loop and checkpoint points a resumed run or a job
supervisor must survive. Synthesis kernels have no site: they have no
fallback, so an exception there propagates and fails the run.

==================  ====================================================
``checkpoint``      one per-level checkpoint write (``halt`` here
                    simulates a kill at a level boundary)
``job_hang``        the level-loop heartbeat pulse; ``hang`` here stops
                    the heartbeat mid-run so a job supervisor's
                    staleness watchdog must notice and kill the process
``job_oom``         the level-loop heartbeat pulse; ``balloon`` here
                    pins hundreds of MB of RSS so a supervisor's memory
                    budget must trip
``checkpoint_torn``  one per-level checkpoint write; ``torn`` makes the
                    writer truncate the file it just finished —
                    simulating a torn write the resume path must detect
                    (the frame chain ends before it)
==================  ====================================================

Modes: ``raise`` throws :class:`FaultInjected`; ``crash`` kills the
process with ``os._exit`` (a job supervisor sees the child die);
``halt`` throws :class:`SynthesisHalted`;
``hang`` parks the process in a very long sleep (only an external
watchdog ends it); ``balloon`` allocates :data:`BALLOON_BYTES` of
touched memory and then hangs holding it; ``torn`` raises nothing —
:meth:`FaultPlan.consult` returns the mode string and the *call site*
implements the corruption (only the checkpoint writer does);
``oom`` raises :class:`MemoryError`.

Each site numbers its visits per process, and each spec fires at most
once. Plans are per-process singletons keyed by their text
(:func:`active_plan`).

This module deliberately imports nothing from the rest of the package:
the sites import it lazily (and only when a plan is set), so the clean
path pays nothing and no import cycle can form.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

SITES = (
    "checkpoint",
    "job_hang",
    "job_oom",
    "checkpoint_torn",
)
MODES = ("crash", "raise", "halt", "hang", "balloon", "torn", "oom")

#: ``hang``/``balloon`` park the process this long; supervised runs are
#: SIGKILLed by their watchdog long before the sleep ends, and SIGKILL
#: cannot be masked, so the sleep never actually completes.
HANG_SECONDS = 3600.0

#: Touched RSS a ``balloon`` fault pins (zero-filled, so every page is
#: resident). Sized to dwarf a worker's baseline footprint while staying
#: harmless on CI runners.
BALLOON_BYTES = 384 * 1024 * 1024

#: The balloon allocation, kept alive so the RSS stays pinned until the
#: supervisor kills the process.
_ballast: bytearray | None = None


class FaultInjected(RuntimeError):
    """The exception an injected ``raise`` fault throws."""


class SynthesisHalted(BaseException):
    """Raised by a ``halt`` fault to simulate a kill at a level boundary.

    A ``BaseException`` on purpose: no ``except Exception`` handler may
    swallow it — it must unwind the whole synthesis the way SIGKILL
    would end the process, leaving the checkpoint directory as the only
    survivor.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``site:index:mode`` entry."""

    site: str
    index: int
    mode: str


class FaultPlan:
    """A parsed fault plan plus its per-process firing state."""

    def __init__(self, specs: tuple[FaultSpec, ...]):
        self.specs = specs
        self._counts: dict[str, int] = {}
        self._fired: set[FaultSpec] = set()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) != 3:
                raise ValueError(
                    f"bad fault spec {part!r}: expected site:index:mode"
                )
            site, index_text, mode = pieces
            if site not in SITES:
                raise ValueError(
                    f"bad fault spec {part!r}: unknown site {site!r}"
                    f" (one of {', '.join(SITES)})"
                )
            if mode not in MODES:
                raise ValueError(
                    f"bad fault spec {part!r}: unknown mode {mode!r}"
                    f" (one of {', '.join(MODES)})"
                )
            try:
                index = int(index_text)
            except ValueError:
                raise ValueError(
                    f"bad fault spec {part!r}: index must be an integer"
                ) from None
            if index < 0:
                raise ValueError(f"bad fault spec {part!r}: index must be >= 0")
            specs.append(FaultSpec(site, index, mode))
        return cls(tuple(specs))

    def consult(self, site: str) -> str | None:
        """Fire any spec matching this visit of ``site``.

        Sites number their visits per process and fire each spec at most
        once. Returns the mode of a fired *effect* spec
        (``hang``/``balloon`` after their sleep, ``torn`` immediately) so
        the call site can implement corruption modes itself;
        raising/exiting modes never return. An unregistered ``site`` is
        a programming error: no plan could ever name it.
        """
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r} (one of {', '.join(SITES)})"
            )
        n = self._counts.get(site, 0)
        self._counts[site] = n + 1
        fired: str | None = None
        for spec in self.specs:
            if spec.site != site or spec.index != n or spec in self._fired:
                continue
            self._fired.add(spec)
            fired = self._trigger(spec) or fired
        return fired

    @staticmethod
    def _trigger(spec: FaultSpec) -> str | None:
        global _ballast
        if spec.mode == "crash":
            os._exit(17)
        if spec.mode == "hang":
            # Stop making progress (and stamping heartbeats) without
            # exiting: only a supervisor's kill ends this.
            time.sleep(HANG_SECONDS)
            return "hang"
        if spec.mode == "balloon":
            # bytearray zero-fills, so the whole allocation is resident
            # RSS; the module-level reference keeps it pinned while the
            # process hangs waiting for the memory watchdog.
            _ballast = bytearray(BALLOON_BYTES)
            time.sleep(HANG_SECONDS)
            return "balloon"
        if spec.mode == "torn":
            return "torn"
        if spec.mode == "halt":
            raise SynthesisHalted(
                f"injected halt at {spec.site}:{spec.index}"
            )
        if spec.mode == "oom":
            # A real allocation failure: it unwinds the synthesis the
            # way a genuine out-of-memory would.
            raise MemoryError(
                f"injected oom at {spec.site}:{spec.index}"
            )
        raise FaultInjected(
            f"injected fault {spec.site}:{spec.index}:{spec.mode}"
        )


_PLANS: dict[str, FaultPlan] = {}


def active_plan(text: str) -> FaultPlan | None:
    """The per-process :class:`FaultPlan` singleton for ``text``.

    One plan object per distinct text, so every consult site of a run
    shares the same counters and fired set; empty text means no plan.
    """
    if not text:
        return None
    plan = _PLANS.get(text)
    if plan is None:
        plan = _PLANS[text] = FaultPlan.parse(text)
    return plan


def reset_plans() -> None:
    """Drop all per-process plan state (tests reuse plan texts)."""
    _PLANS.clear()
