"""Synthesis options for the aggressive-buffered CTS flow.

Only what a caller varies is an option: the paper's ablations vary the
grid resolution R, the slew limit, balance and binary search on/off,
the H-structure mode and the router. The routing and search constants
the paper fixes live as named constants next to the code that reads
them. No default reads the environment.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    router: str = "profile"  # "profile" (obstacle-free) or "maze" (general)
    # --- balance stage (Sec. 4.2.1) -------------------------------------
    enable_balance: bool = True
    # --- binary search stage (Sec. 4.2.3) --------------------------------
    enable_binary_search: bool = True
    # --- H-structure correction (Sec. 4.1.2) ------------------------------
    hstructure: str | None = None  # None | "reestimate" | "correct"
    # --- resilience (fault-tolerant synthesis) ---------------------------
    fault_plan: str = ""  # deterministic fault-injection plan consulted
    #   at the level-loop and checkpoint sites ("site:index:mode,..." —
    #   repro.evalx.faultinject); empty = no injected faults
    checkpoint_dir: str | None = None  # write a resumable snapshot after
    #   each topology level (repro.core.checkpoint); None disables
    resume_from: str | None = None  # checkpoint file — or directory, the
    #   highest completed *valid* level wins — to restart synthesis mid-tree
    heartbeat_file: str | None = None  # stamp this file atomically at each
    #   topology level so an external supervisor (repro.jobs) can tell a
    #   slow job from a hung one; None disables

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
