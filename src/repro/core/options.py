"""Synthesis options for the aggressive-buffered CTS flow."""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def _default_fault_plan() -> str:
    """Honor ``REPRO_FAULT_PLAN`` (``site:index:mode,...`` — see
    :mod:`repro.evalx.faultinject`) so CI can run a chaos leg."""
    return os.environ.get("REPRO_FAULT_PLAN", "")


@dataclass
class CTSOptions:
    """Knobs of the paper's flow, with the paper's defaults.

    Slew: the hard limit is 100 ps, but synthesis targets ``slew_limit *
    slew_margin`` = 80 ps "in order to leave a margin" (Sec. 5.1).
    """

    # --- slew control -------------------------------------------------
    slew_limit: float = 100.0e-12  # hard constraint checked by simulation
    slew_margin: float = 0.8  # synthesis-time target fraction
    # --- topology generation (Sec. 4.1.1) ------------------------------
    cost_alpha: float = 1.0  # weight of distance in the edge cost
    cost_beta: float = 1.0  # weight of |delay difference| in the edge cost
    # --- routing stage (Sec. 4.2.2) ------------------------------------
    grid_resolution: int = 45  # default R per dimension
    max_grid_cells: int = 200  # dynamic-growth cap per dimension
    target_cells_per_stage: int = 6  # dynamic growth: >= this many candidate
    #   buffer locations per slew-limited stage length
    sizing_lookahead: int = 3  # cells "at and ahead" evaluated when inserting
    routing_margin_ratio: float = 0.12  # grid bbox expansion around terminals
    router: str = "profile"  # "profile" (obstacle-free) or "maze" (general)
    # --- balance stage (Sec. 4.2.1) -------------------------------------
    enable_balance: bool = True
    balance_headroom: float = 0.9  # snake only the shortfall beyond what
    #   routing can absorb, scaled by this factor
    snake_step: float = 100.0  # wire-length granularity during snaking (units)
    # --- binary search stage (Sec. 4.2.3) --------------------------------
    enable_binary_search: bool = True
    binary_search_iters: int = 24
    binary_search_tol: float = 0.05e-12  # stop when |delay diff| below (s)
    # --- H-structure correction (Sec. 4.1.2) ------------------------------
    hstructure: str | None = None  # None | "reestimate" | "correct"
    # --- stage-size control ----------------------------------------------
    max_unbuffered_cap_ratio: float = 2.0  # force a buffer at a merge whose
    #   collapsed stage cap exceeds ratio * (largest buffer input cap), so
    #   every stage load stays within the library's characterized range
    # --- resilience (fault-tolerant synthesis) ---------------------------
    fault_plan: str = field(default_factory=_default_fault_plan)
    #   deterministic fault-injection plan consulted at the level-loop and
    #   checkpoint sites ("site:index:mode,..." — repro.evalx.faultinject);
    #   empty = no injected faults (env REPRO_FAULT_PLAN)
    checkpoint_dir: str | None = None  # write a resumable snapshot after
    #   each topology level (repro.core.checkpoint); None disables
    resume_from: str | None = None  # checkpoint file — or directory, the
    #   highest completed *valid* level wins — to restart synthesis mid-tree
    heartbeat_file: str | None = None  # stamp this file atomically at each
    #   topology level so an external supervisor (repro.jobs) can tell a
    #   slow job from a hung one; None disables
    # --- misc ------------------------------------------------------------
    virtual_drive: str | None = None  # assumed driver type (default largest)
    source_slew: float = 60.0e-12  # slew of the ideal ramp at the clock source
    validate_every_merge: bool = False  # run tree invariants during synthesis
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.slew_margin <= 1:
            raise ValueError("slew_margin must be in (0, 1]")
        if self.router not in ("profile", "maze"):
            raise ValueError(f"unknown router {self.router!r}")
        if self.hstructure not in (None, "reestimate", "correct"):
            raise ValueError(f"unknown hstructure mode {self.hstructure!r}")
        if self.grid_resolution < 4:
            raise ValueError("grid_resolution must be >= 4")
        if self.checkpoint_dir is not None and not self.checkpoint_dir:
            raise ValueError("checkpoint_dir must be a path or None")
        if self.resume_from is not None and not self.resume_from:
            raise ValueError("resume_from must be a path or None")
        if self.heartbeat_file is not None and not self.heartbeat_file:
            raise ValueError("heartbeat_file must be a path or None")

    @property
    def target_slew(self) -> float:
        """The synthesis-time slew target (limit x margin)."""
        return self.slew_limit * self.slew_margin
