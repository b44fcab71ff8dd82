"""Shared bench fixtures and reporting helpers.

Default runs use scaled-down instances (CI speed); set ``REPRO_FULL=1``
to run the published benchmark sizes with fine simulation timesteps.
Rendered tables are printed and archived under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.charlib import load_default_library
from repro.evalx.harness import full_run_requested
from repro.tech import default_technology

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

#: Per-benchmark sink budget for the default (fast) runs.
DEFAULT_SCALE = int(os.environ.get("REPRO_SCALE", "40"))

#: Simulation timestep: 1 ps for full runs, 2 ps otherwise (validated to
#: change slew/skew by well under 2 ps).
EVAL_DT = 1.0e-12 if full_run_requested() else 2.0e-12


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session", autouse=True)
def warm_library(tech):
    """Load (or build once) the characterization library up front so it
    never lands inside a timed region."""
    return load_default_library(tech)


def report(name: str, text: str) -> None:
    """Print a rendered table and archive it for EXPERIMENTS.md."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_sessionfinish(session, exitstatus):
    """Stitch all archived tables into benchmarks/results/REPORT.md.

    Only a session that collected every ``bench_*.py`` module rewrites the
    tracked report; a partial run (one table, a CI smoke) leaves it as
    committed.
    """
    collected = {item.path.name for item in session.items}
    every = {path.name for path in sorted(BENCH_DIR.glob("bench_*.py"))}
    if RESULTS_DIR.exists() and every <= collected:
        from repro.evalx.report import write_report

        write_report(results_dir=RESULTS_DIR)
