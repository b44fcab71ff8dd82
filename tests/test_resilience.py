"""Fault-tolerant synthesis: loud kernel failures, checkpoint/resume,
fault plans.

The contract under test: a route or commit kernel failure is never
absorbed — it propagates out of ``synthesize()`` and records no
``Degradation``; and a synthesis killed at a level boundary resumes
from its checkpoint bit-identically.

Deterministic faults come from :mod:`repro.evalx.faultinject`
(``site:index:mode`` plans); every test compares against a clean run's
``tree_signature``.
"""

from __future__ import annotations

import os

import pytest

import repro.core.batch_commit as batch_commit
import repro.core.grid_cache as grid_cache
import repro.core.merge_routing as merge_routing
from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.core.checkpoint import (
    CorruptCheckpointError,
    load_checkpoint,
    options_digest,
    sinks_digest,
)
from repro.evalx.faultinject import (
    FaultInjected,
    FaultPlan,
    SynthesisHalted,
    reset_plans,
)
from repro.core.soa_tree import SoaTree
from repro.geom.bbox import BBox
from repro.tree.export import tree_signature
from repro.tree.nodes import peek_node_id

from tests.conftest import make_sink_pairs

BLOCKAGES = [BBox(8000.0, 8000.0, 16000.0, 16000.0)]


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    """Tests reuse plan texts; firing state must not leak between them."""
    reset_plans()
    yield
    reset_plans()


def synth(sinks, blockages=None, **option_overrides):
    """One synthesis run plus the rebased signature of its tree.

    A chaos CI leg may export ``REPRO_FAULT_PLAN``; pin it so this
    module's reference runs stay clean under it.
    """
    option_overrides.setdefault("fault_plan", "")
    options = CTSOptions(**option_overrides)
    cts = AggressiveBufferedCTS(options=options, blockages=blockages)
    base = peek_node_id()
    result = cts.synthesize(sinks)
    return tree_signature(result.tree, base), result, cts


def blocked_sinks(n, seed):
    """Sinks clear of the blockage (terminals inside a macro are invalid)."""
    clear = [bbox.expanded(1200.0) for bbox in BLOCKAGES]
    sinks = [
        (p, c)
        for p, c in make_sink_pairs(n, 30000.0, seed=seed)
        if not any(region.contains(p) for region in clear)
    ]
    assert len(sinks) >= 10
    return sinks


class TestFaultPlanGrammar:
    def test_parse(self):
        plan = FaultPlan.parse("checkpoint:2:crash, job_hang:1:raise")
        assert [(s.site, s.index, s.mode) for s in plan.specs] == [
            ("checkpoint", 2, "crash"),
            ("job_hang", 1, "raise"),
        ]

    def test_empty_plan(self):
        assert FaultPlan.parse("").specs == ()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("worker_batch:2", "expected site:index:mode"),
            ("warp_core:0:raise", "unknown site"),
            ("checkpoint:0:explode", "unknown mode"),
            ("checkpoint:x:raise", "index must be an integer"),
            ("checkpoint:-1:raise", "index must be >= 0"),
        ],
    )
    def test_bad_specs_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan.parse(text)

    def test_counter_site_fires_once(self):
        plan = FaultPlan.parse("job_hang:1:raise")
        plan.consult("job_hang")  # visit 0
        with pytest.raises(FaultInjected):
            plan.consult("job_hang")  # visit 1 fires
        plan.consult("job_hang")  # never re-fires


class TestRouteFailuresAreLoud:
    """The route phase has one path and no fallback: a kernel exception
    propagates out of ``synthesize()`` and is never recorded as a
    ``Degradation``."""

    @pytest.mark.parametrize(
        "module, kernel",
        [
            (grid_cache, "_search_rounds"),
            (grid_cache, "expand_level"),
            (grid_cache, "_finish_level"),
            (merge_routing, "route_maze"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_kernel_exception_propagates(self, monkeypatch, module, kernel):
        def broken(*args, **kwargs):
            raise RuntimeError("route kernel bug")

        monkeypatch.setattr(module, kernel, broken)
        # Every level sweeps through the level router, so only
        # H-structure pairs reach the single-pair ``route_maze``.
        hstructure = "correct" if kernel == "route_maze" else None
        cts = AggressiveBufferedCTS(
            options=CTSOptions(fault_plan="", hstructure=hstructure),
            blockages=BLOCKAGES,
        )
        with pytest.raises(RuntimeError, match="route kernel bug"):
            cts.synthesize(blocked_sinks(18, seed=22))


class TestCommitFailuresAreLoud:
    """The commit phase has one path and no fallback: an exception in
    the lockstep scheduler or the SoA mirror's kernels propagates out of
    ``synthesize()`` instead of being recorded as a ``Degradation``."""

    @pytest.mark.parametrize(
        "owner, kernel",
        [
            (batch_commit.BatchCommitScheduler, "_answer_diff_rows"),
            (SoaTree, "prefill_bounds"),
            (SoaTree, "stage_drivers"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_kernel_exception_propagates(self, monkeypatch, owner, kernel):
        def broken(*args, **kwargs):
            raise RuntimeError("commit kernel bug")

        # Small instances answer every round scalar; force the
        # vectorized rounds so the scheduler's kernel actually runs.
        monkeypatch.setattr(batch_commit, "SCALAR_ROUND_ROWS", 1)
        monkeypatch.setattr(owner, kernel, broken)
        cts = AggressiveBufferedCTS(
            options=CTSOptions(fault_plan=""), blockages=BLOCKAGES
        )
        with pytest.raises(RuntimeError, match="commit kernel bug"):
            cts.synthesize(blocked_sinks(18, seed=22))


class TestCheckpointResume:
    def _sinks(self):
        return blocked_sinks(20, seed=23)

    def test_halt_then_resume_bit_identical(self, tmp_path):
        sinks = self._sinks()
        clean_sig, clean, __ = synth(sinks, blockages=BLOCKAGES)
        reset_plans()
        ckpt_dir = str(tmp_path / "ckpt")
        # Capture the base BEFORE the interrupted run: nodes created
        # before the halt keep their original ids through the resume.
        base = peek_node_id()
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        written = sorted(os.listdir(ckpt_dir))
        assert written == ["level_0001.ckpt", "level_0002.ckpt"]
        reset_plans()
        options = CTSOptions(resume_from=ckpt_dir, fault_plan="")
        cts = AggressiveBufferedCTS(options=options, blockages=BLOCKAGES)
        resumed = cts.synthesize(sinks)
        assert resumed.resumed_from == 2
        assert resumed.levels == clean.levels
        assert tree_signature(resumed.tree, base) == clean_sig
        assert resumed.merge_stats == clean.merge_stats

    def test_resume_rejects_different_sinks(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        other = blocked_sinks(20, seed=99)
        with pytest.raises(ValueError, match="different sink instance"):
            synth(other, blockages=BLOCKAGES, resume_from=ckpt_dir)

    def test_resume_rejects_different_result_options(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        with pytest.raises(ValueError, match="different\n?.*options"):
            synth(
                sinks,
                blockages=BLOCKAGES,
                resume_from=ckpt_dir,
                grid_resolution=50,
            )

    def test_resume_missing_path_rejected(self, tmp_path):
        sinks = self._sinks()
        with pytest.raises(ValueError, match="does not exist"):
            synth(sinks, resume_from=str(tmp_path / "nope.ckpt"))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no checkpoints"):
            synth(sinks, resume_from=str(empty))

    def test_truncated_latest_is_bypassed_on_resume(self, tmp_path):
        """A torn newest checkpoint costs one level, never the resume."""
        sinks = self._sinks()
        clean_sig, clean, __ = synth(sinks, blockages=BLOCKAGES)
        reset_plans()
        ckpt_dir = str(tmp_path / "ckpt")
        base = peek_node_id()
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        top = os.path.join(ckpt_dir, "level_0002.ckpt")
        with open(top, "r+b") as fh:
            fh.truncate(os.path.getsize(top) // 2)
        reset_plans()
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            sig, resumed, __ = synth(
                sinks, blockages=BLOCKAGES, resume_from=ckpt_dir
            )
        assert resumed.resumed_from == 1
        assert resumed.levels == clean.levels
        assert tree_signature(resumed.tree, base) == clean_sig

    def test_injected_torn_write_is_bypassed_on_resume(self, tmp_path):
        """The checkpoint_torn fault site produces a skippable file."""
        sinks = self._sinks()
        clean_sig, __, __ = synth(sinks, blockages=BLOCKAGES)
        reset_plans()
        ckpt_dir = str(tmp_path / "ckpt")
        base = peek_node_id()
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                # Tear the second snapshot, then die holding it as the
                # newest file — resume must fall back to level 1.
                fault_plan="checkpoint_torn:1:torn,checkpoint:1:halt",
            )
        reset_plans()
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            sig, resumed, __ = synth(
                sinks, blockages=BLOCKAGES, resume_from=ckpt_dir
            )
        assert resumed.resumed_from == 1
        assert tree_signature(resumed.tree, base) == clean_sig

    def test_corrupt_explicit_file_gets_no_second_chance(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        top = os.path.join(ckpt_dir, "level_0002.ckpt")
        with open(top, "r+b") as fh:
            fh.truncate(os.path.getsize(top) // 2)
        with pytest.raises(CorruptCheckpointError, match="digest"):
            synth(sinks, blockages=BLOCKAGES, resume_from=top)

    def test_all_corrupt_dir_rejected_loudly(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        for name in sorted(os.listdir(ckpt_dir)):
            with open(os.path.join(ckpt_dir, name), "r+b") as fh:
                fh.truncate(4)
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            with pytest.raises(
                CorruptCheckpointError, match="no valid checkpoint"
            ):
                synth(sinks, blockages=BLOCKAGES, resume_from=ckpt_dir)

    def test_digests_are_mode_independent(self):
        sinks = self._sinks()
        a = CTSOptions(fault_plan="", validate_every_merge=False)
        b = CTSOptions(fault_plan="checkpoint:0:halt", validate_every_merge=True)
        assert options_digest(a) == options_digest(b)
        assert options_digest(a) != options_digest(
            CTSOptions(grid_resolution=50)
        )
        assert sinks_digest(sinks) == sinks_digest(list(sinks))

    def test_loaded_state_roundtrips(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        options = CTSOptions(fault_plan="")
        cts = AggressiveBufferedCTS(options=options, blockages=BLOCKAGES)
        state = load_checkpoint(ckpt_dir, sinks, options, cts.buffers)
        assert state.levels_done == 2
        assert state.next_node_id <= peek_node_id()
        for subtree in state.subtrees:
            # Child order survived the round trip (walk() reverses it,
            # which is exactly why the encoder must not use walk()).
            for node in subtree.root.walk():
                for child in node.children:
                    assert child.parent is node
