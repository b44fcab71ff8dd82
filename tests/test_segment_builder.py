"""Slew-driven buffer insertion along 1-D paths (Fig. 4.4 logic)."""

import numpy as np
import pytest

from repro.core.options import CTSOptions
from repro.core.routing_common import slew_limited_length
from repro.core.segment_builder import PathBuilder, SegmentTables


@pytest.fixture(scope="module")
def options():
    return CTSOptions()


@pytest.fixture(scope="module")
def tables(library, options):
    return SegmentTables(library, step=300.0, n_steps=120, input_slew=options.target_slew)


def make_builder(tables, library, options, load="BUF20X", base_delay=0.0):
    return PathBuilder(
        tables,
        base_delay,
        load,
        options.target_slew,
        library.buffer_names,
        library.buffer_names[-1],
    )


class TestSegmentTables:
    def test_tables_match_scalar_lookups(self, tables, library, options):
        for k in (1, 5, 10):
            direct = library.single_wire(
                "BUF20X", "BUF10X", options.target_slew, k * 300.0
            )
            assert tables.wire_slew("BUF20X", "BUF10X", k) == pytest.approx(
                direct.wire_slew, abs=1e-15
            )
            assert tables.wire_delay("BUF20X", "BUF10X", k) == pytest.approx(
                direct.wire_delay, abs=1e-15
            )

    def test_max_feasible_steps_consistent(self, tables, options):
        k_max = tables.max_feasible_steps("BUF30X", "BUF20X", options.target_slew)
        assert tables.wire_slew("BUF30X", "BUF20X", k_max) <= options.target_slew
        if k_max < tables.n_steps:
            assert (
                tables.wire_slew("BUF30X", "BUF20X", k_max + 1) > options.target_slew
            )

    def test_invalid_step_rejected(self, library, options):
        with pytest.raises(ValueError):
            SegmentTables(library, 0.0, 10, options.target_slew)


class TestPathBuilder:
    def test_no_open_segment_violates_target(self, tables, library, options):
        """The core slew guarantee: every open segment, at every step,
        admits at least one buffer type within the target."""
        builder = make_builder(tables, library, options)
        for k in range(1, 100):
            state = builder.state(k)
            feasible = any(
                tables.wire_slew(name, state.load_name, state.open_steps)
                <= options.target_slew
                for name in library.buffer_names
            )
            assert feasible, f"step {k}: open segment violates slew target"

    def test_completed_segments_within_target(self, tables, library, options):
        builder = make_builder(tables, library, options)
        state = builder.state(100)
        positions = [0] + [b.steps for b in state.buffers]
        loads = ["BUF20X"] + [b.type_name for b in state.buffers]
        for i in range(1, len(positions)):
            seg = positions[i] - positions[i - 1]
            drive = state.buffers[i - 1].type_name
            load = loads[i - 1]
            slew = tables.wire_slew(drive, load, seg)
            assert slew <= options.target_slew * 1.0001

    def test_buffers_inserted_on_long_paths(self, tables, library, options):
        builder = make_builder(tables, library, options)
        state = builder.state(100)  # 30000 units >> one stage
        assert state.n_stages >= 5

    def test_buffer_positions_increasing(self, tables, library, options):
        builder = make_builder(tables, library, options)
        state = builder.state(90)
        positions = [b.steps for b in state.buffers]
        assert positions == sorted(positions)
        assert all(0 <= p <= 90 for p in positions)

    def test_delay_monotone_in_distance(self, tables, library, options):
        builder = make_builder(tables, library, options)
        delays = builder.delays_up_to(100)
        # Small local dips can occur when the open-segment estimate is
        # replaced by a committed stage, but the cumulative trend must hold.
        assert delays[-1] > delays[0]
        assert np.all(np.diff(delays) > -2e-12)

    def test_base_delay_offsets_profile(self, tables, library, options):
        b0 = make_builder(tables, library, options, base_delay=0.0)
        b1 = make_builder(tables, library, options, base_delay=100e-12)
        assert b1.state(20).delay == pytest.approx(
            b0.state(20).delay + 100e-12, abs=1e-15
        )

    def test_states_are_stable_snapshots(self, tables, library, options):
        builder = make_builder(tables, library, options)
        s10_first = builder.state(10)
        builder.state(80)  # extend far beyond
        s10_again = builder.state(10)
        assert s10_first.delay == s10_again.delay
        assert s10_first.buffers == s10_again.buffers

    def test_intelligent_sizing_prefers_fuller_segments(self, tables, library, options):
        """The chosen insertion should push segment slew close to the
        target — within the coarsest candidate spacing of it."""
        builder = make_builder(tables, library, options)
        state = builder.state(110)
        assert state.n_stages >= 6
        positions = [0] + [b.steps for b in state.buffers]
        loads = ["BUF20X"] + [b.type_name for b in state.buffers]
        utilizations = []
        for i in range(1, len(state.buffers) + 1):
            seg = positions[i] - positions[i - 1]
            slew = tables.wire_slew(
                state.buffers[i - 1].type_name, loads[i - 1], seg
            )
            utilizations.append(slew / options.target_slew)
        # Average utilization should be high (slews near the target).
        assert np.mean(utilizations) > 0.7


class TestSlewLimitedLength:
    def test_positive_and_plausible(self, library, options):
        length = slew_limited_length(library, options.target_slew)
        assert 1000.0 < length < 6000.0

    def test_tighter_target_shortens_stages(self, library):
        loose = slew_limited_length(library, 90e-12)
        tight = slew_limited_length(library, 50e-12)
        assert tight < loose

    def test_impossible_target_raises(self, library):
        with pytest.raises(ValueError):
            slew_limited_length(library, 1e-15)
