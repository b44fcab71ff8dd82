#!/usr/bin/env python
"""Build the delay/slew library from scratch and inspect the fits.

Runs the Chapter-3 characterization on the mini-SPICE substrate with a
reduced sweep (so it finishes in ~15 s), prints the fit-quality report,
and spot-checks one fitted surface against fresh simulations — the
reproduction of "matches SPICE simulation results closely".

Usage::

    python examples/library_characterization.py
"""

import time

from repro.charlib import CharConfig, build_library
from repro.charlib.sweep import InputShaper
from repro.evalx import format_table
from repro.spice.stages import simulate_stage, single_wire_spec
from repro.tech import cts_buffer_library, default_technology


def main() -> None:
    tech = default_technology()
    buffers = cts_buffer_library()
    config = CharConfig(
        linput_values=(0.0, 1200.0, 3000.0),
        length_values=(100.0, 800.0, 1800.0, 2800.0, 4000.0, 5000.0),
        branch_samples=60,
        single_degree=3,
    )
    print("characterizing (reduced sweep) ...")
    t0 = time.perf_counter()
    library = build_library(tech, buffers, config, verbose=True)
    print(f"built in {time.perf_counter() - t0:.1f} s")

    rows = [
        [
            r["component"], r["drive"], r["load"], r["function"],
            r["rms_error"] * 1e12, r["max_error"] * 1e12, round(r["r_squared"], 5),
        ]
        for r in library.fit_report()
    ]
    print()
    print(
        format_table(
            ["component", "drive", "load", "function", "rms [ps]", "max [ps]", "R^2"],
            rows,
            title="fit quality (training residuals)",
        )
    )

    # Spot check: fitted surface vs fresh simulation, off the sweep grid.
    print("\nspot check: 20X->20X wire slew, off-grid points")
    shaper = InputShaper(tech, buffers["BUF20X"], config)
    check_rows = []
    for linput, length in ((600.0, 1500.0), (2100.0, 3300.0)):
        wave, slew_in = shaper.shaped_input(linput, buffers["BUF20X"].input_cap(tech))
        spec = single_wire_spec(buffers["BUF20X"], length, buffers["BUF20X"].input_cap(tech))
        sim = simulate_stage(tech, spec, wave, dt=config.dt)
        fit = library.single_wire("BUF20X", "BUF20X", slew_in, length)
        check_rows.append(
            [
                round(slew_in * 1e12, 1), length,
                sim.slew_at(1) * 1e12, fit.wire_slew * 1e12,
                abs(sim.slew_at(1) - fit.wire_slew) * 1e12,
            ]
        )
    print(
        format_table(
            ["slew_in [ps]", "L", "simulated [ps]", "fitted [ps]", "error [ps]"],
            check_rows,
        )
    )


if __name__ == "__main__":
    main()
