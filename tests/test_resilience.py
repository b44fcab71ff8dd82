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

import copy
import hashlib
import os
import pickle
import shutil
from dataclasses import fields

import pytest

import repro.core.batch_commit as batch_commit
import repro.core.checkpoint as checkpoint
import repro.core.grid_cache as grid_cache
import repro.core.merge_routing as merge_routing
from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CorruptCheckpointError,
    checkpoint_filename,
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
from repro.geom.bbox import BBox
from repro.timing.flat_stages import FlatStages
from repro.tree.export import tree_signature
from repro.tree.nodes import NodeKind, peek_node_id

from tests.conftest import make_sink_pairs

BLOCKAGES = [BBox(8000.0, 8000.0, 16000.0, 16000.0)]


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    """Tests reuse plan texts; firing state must not leak between them."""
    reset_plans()
    yield
    reset_plans()


def synth(sinks, blockages=None, **option_overrides):
    """One synthesis run plus the rebased signature of its tree."""
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
            (grid_cache, "search_maze_pair"),
            (grid_cache, "expand_level"),
            (grid_cache, "_finish_level"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_kernel_exception_propagates(self, monkeypatch, module, kernel):
        def broken(*args, **kwargs):
            raise RuntimeError("route kernel bug")

        monkeypatch.setattr(module, kernel, broken)
        cts = AggressiveBufferedCTS(options=CTSOptions(), blockages=BLOCKAGES)
        with pytest.raises(RuntimeError, match="route kernel bug"):
            cts.synthesize(blocked_sinks(18, seed=22))

    def test_profile_kernel_exception_propagates(self, monkeypatch):
        """Obstacle-free levels go through the profile level kernel,
        with no fallback either."""

        def broken(*args, **kwargs):
            raise RuntimeError("route kernel bug")

        monkeypatch.setattr(grid_cache, "route_profile_level", broken)
        cts = AggressiveBufferedCTS(options=CTSOptions())
        with pytest.raises(RuntimeError, match="route kernel bug"):
            cts.synthesize(make_sink_pairs(18, 30000.0, seed=22))

    def test_hstructure_takes_the_level_pipeline(self, monkeypatch):
        """H-structure correction merges through the same level batches
        as plain pairs, so the kernels above cover it too: synthesis
        never calls the single-pair route or the scalar commit."""
        calls = {"route_plan": 0, "commit": 0}
        for name in calls:
            original = getattr(merge_routing.MergeRouter, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(merge_routing.MergeRouter, name, counted)
        sinks = blocked_sinks(18, seed=22)
        __, result, __ = synth(sinks, BLOCKAGES, hstructure="correct")
        # Candidate sweeps ran: more merges than the tree's n - 1.
        assert result.merge_stats.n_merges > len(sinks) - 1
        assert calls == {"route_plan": 0, "commit": 0}


class TestCommitFailuresAreLoud:
    """The commit phase has one path and no fallback: an exception in
    the lockstep scheduler, the engine's flat-stage prefill or the
    router's batched stage decisions propagates out of ``synthesize()``
    instead of being recorded as a ``Degradation``."""

    @pytest.mark.parametrize(
        "owner, kernel",
        [
            (batch_commit.BatchCommitScheduler, "_answer_diff_rows"),
            (FlatStages, "prefill_bounds"),
            (merge_routing.MergeRouter, "stage_drivers"),
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
            options=CTSOptions(), blockages=BLOCKAGES
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
        options = CTSOptions(resume_from=ckpt_dir)
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
        a = CTSOptions()
        b = CTSOptions(fault_plan="checkpoint:0:halt", heartbeat_file="hb")
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
        options = CTSOptions()
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

    def test_version_2_frame_refused_by_version(self, tmp_path):
        """A version-2 frame carries the retired tile-cache counters in
        its ``route_sharing`` row; it is refused by its version before
        that row reaches ``SharingStats``."""
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        path = os.path.join(ckpt_dir, "level_0001.ckpt")
        payload, __ = checkpoint._read_frame(path)
        payload["version"] = 2
        payload["route_sharing"].update(
            tiles_built=1, tiles_reused=0, cells_reused=0, levels=1,
            pitch_buckets={"0": 1},
        )
        body = pickle.dumps(payload)
        with open(path, "wb") as fh:
            fh.write(checkpoint._MAGIC + hashlib.sha256(body).digest() + body)
        options = CTSOptions()
        buffers = AggressiveBufferedCTS(options=options).buffers
        with pytest.raises(ValueError, match="has version 2; this build"):
            load_checkpoint(path, sinks, options, buffers)


class TestFrameChain:
    """Delta frames: frame k holds the nodes level k created plus the
    links to older nodes they adopted, carries the digest of frame k-1,
    and resume replays frames 1..k."""

    CASES = {
        "open-200": (make_sink_pairs(200, 30000.0, seed=6), None, {}),
        "blocked": (blocked_sinks(40, seed=23), BLOCKAGES, {}),
        "correct": (
            blocked_sinks(40, seed=23),
            BLOCKAGES,
            {"hstructure": "correct"},
        ),
        "reestimate": (
            blocked_sinks(40, seed=23),
            BLOCKAGES,
            {"hstructure": "reestimate"},
        ),
    }

    @staticmethod
    def _frame(ckpt_dir, level):
        return os.path.join(ckpt_dir, checkpoint_filename(level))

    def _checkpointed(self, tmp_path, sinks, blockages=BLOCKAGES, **overrides):
        """A clean run that writes every frame: signature, result, dir."""
        ckpt_dir = str(tmp_path / "ckpt")
        sig, result, __ = synth(
            sinks, blockages, checkpoint_dir=ckpt_dir, **overrides
        )
        assert len(os.listdir(ckpt_dir)) == result.levels
        return sig, result, ckpt_dir

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_resume_from_every_level_bit_identical(self, tmp_path, case):
        sinks, blockages, overrides = self.CASES[case]
        base = peek_node_id()
        clean_sig, clean, ckpt_dir = self._checkpointed(
            tmp_path, sinks, blockages, **overrides
        )
        if overrides:
            # The H-structure cases re-plug older grandchildren.
            assert clean.n_flippings > 0
        for level in range(1, clean.levels + 1):
            __, resumed, __ = synth(
                sinks,
                blockages,
                resume_from=self._frame(ckpt_dir, level),
                **overrides,
            )
            assert resumed.resumed_from == level
            assert tree_signature(resumed.tree, base) == clean_sig, level
            assert resumed.merge_stats == clean.merge_stats, level
            assert resumed.n_flippings == clean.n_flippings, level

    def test_frames_hold_only_their_levels_nodes(self, tmp_path):
        """Frame k's full rows are the nodes level k created (frame 1 also
        the sinks) and each tree node is in exactly one frame, so the
        frames together are the tree below its trunk, once. A commit
        re-balance discards its merge node, so a level may have used a
        few ids that no frame holds."""
        sinks = make_sink_pairs(200, 30000.0, seed=6)
        base = peek_node_id()
        __, result, ckpt_dir = self._checkpointed(tmp_path, sinks, None)
        first = base
        stored: list[int] = []
        for level in range(1, result.levels + 1):
            payload, __ = checkpoint._read_frame(self._frame(ckpt_dir, level))
            created = [row[0] for row in payload["nodes"] if len(row) == 9]
            links = [row for row in payload["nodes"] if len(row) == 3]
            assert payload["first_node_id"] == first
            assert all(first <= i < payload["next_node_id"] for i in created)
            assert all(row[0] < first for row in links)
            if level > 1:
                # Each merge adopts its two sub-tree roots by link row.
                assert len(links) >= 2 * (len(payload["roots"]) - 1)
            stored += created
            first = payload["next_node_id"]
        tree_ids = [
            node.id
            for node in result.tree.root.walk()
            if node.id < first and node.kind is not NodeKind.SOURCE
        ]
        assert len(stored) == len(set(stored))
        assert sorted(stored) == sorted(tree_ids)

    def test_torn_middle_frame_resumes_before_it(self, tmp_path):
        sinks = blocked_sinks(40, seed=23)
        base = peek_node_id()
        clean_sig, clean, ckpt_dir = self._checkpointed(tmp_path, sinks)
        assert clean.levels >= 4
        torn = self._frame(ckpt_dir, 2)
        with open(torn, "r+b") as fh:
            fh.truncate(os.path.getsize(torn) // 2)
        with pytest.warns(
            RuntimeWarning, match="skipping corrupt checkpoint 'level_0002.ckpt'"
        ):
            __, resumed, __ = synth(sinks, BLOCKAGES, resume_from=ckpt_dir)
        # Frames 3.. are intact but chain through the torn frame.
        assert resumed.resumed_from == 1
        assert tree_signature(resumed.tree, base) == clean_sig
        assert resumed.merge_stats == clean.merge_stats
        with pytest.raises(CorruptCheckpointError, match="digest"):
            synth(sinks, BLOCKAGES, resume_from=self._frame(ckpt_dir, 3))

    def test_missing_middle_frame_resumes_before_it(self, tmp_path):
        sinks = blocked_sinks(40, seed=23)
        clean_sig, clean, ckpt_dir = self._checkpointed(tmp_path, sinks)
        os.remove(self._frame(ckpt_dir, 3))
        with pytest.warns(RuntimeWarning, match="missing"):
            __, resumed, __ = synth(sinks, BLOCKAGES, resume_from=ckpt_dir)
        assert resumed.resumed_from == 2
        with pytest.raises(CorruptCheckpointError, match="missing"):
            synth(sinks, BLOCKAGES, resume_from=self._frame(ckpt_dir, 4))

    def test_spliced_foreign_frame_refused_by_chain_digest(self, tmp_path):
        sinks = blocked_sinks(40, seed=23)
        base = peek_node_id()
        clean_sig, clean, ckpt_dir = self._checkpointed(tmp_path, sinks)
        other_dir = str(tmp_path / "other")
        synth(blocked_sinks(40, seed=99), BLOCKAGES, checkpoint_dir=other_dir)
        shutil.copyfile(self._frame(other_dir, 2), self._frame(ckpt_dir, 2))
        # The spliced frame passes its own digest: only the chain refuses it.
        checkpoint._read_frame(self._frame(ckpt_dir, 2))
        with pytest.warns(RuntimeWarning, match="does not link to level 1"):
            __, resumed, __ = synth(sinks, BLOCKAGES, resume_from=ckpt_dir)
        assert resumed.resumed_from == 1
        assert tree_signature(resumed.tree, base) == clean_sig
        for level in (2, 3):
            with pytest.raises(CorruptCheckpointError, match="does not link"):
                synth(
                    sinks, BLOCKAGES, resume_from=self._frame(ckpt_dir, level)
                )

    def test_version_3_frame_refused_by_version(self, tmp_path):
        """A version-3 frame holds whole subtrees and no chain link; it is
        refused by its version, from a directory as from its file."""
        sinks = blocked_sinks(40, seed=23)
        __, __, ckpt_dir = self._checkpointed(tmp_path, sinks)
        path = self._frame(ckpt_dir, 1)
        payload, __ = checkpoint._read_frame(path)
        for key in ("prev_digest", "first_node_id", "nodes", "roots"):
            del payload[key]
        payload.update(version=3, subtrees=[])
        body = pickle.dumps(payload)
        with open(path, "wb") as fh:
            fh.write(checkpoint._MAGIC + hashlib.sha256(body).digest() + body)
        for resume_from in (path, ckpt_dir):
            with pytest.raises(
                ValueError,
                match=f"has version 3; this build reads version {CHECKPOINT_VERSION}",
            ):
                synth(sinks, BLOCKAGES, resume_from=resume_from)

    def test_resumed_run_writes_a_whole_chain_elsewhere(self, tmp_path):
        """A resumed run checkpointing into another directory copies the
        replayed frames there first, so that directory resumes alone."""
        sinks = blocked_sinks(40, seed=23)
        base = peek_node_id()
        clean_sig, clean, ckpt_dir = self._checkpointed(tmp_path, sinks)
        elsewhere = str(tmp_path / "elsewhere")
        synth(
            sinks,
            BLOCKAGES,
            resume_from=self._frame(ckpt_dir, 2),
            checkpoint_dir=elsewhere,
        )
        assert sorted(os.listdir(elsewhere)) == sorted(os.listdir(ckpt_dir))
        __, resumed, __ = synth(
            sinks,
            BLOCKAGES,
            resume_from=self._frame(elsewhere, clean.levels - 1),
        )
        assert tree_signature(resumed.tree, base) == clean_sig


class TestDigestPartition:
    """Every ``CTSOptions`` field changes the tree (in the digest) or only
    how it is computed (excluded), never both and never neither."""

    def test_digest_partition_matches_live_options(self):
        names = {f.name for f in fields(CTSOptions)}
        assert set(checkpoint._RESULT_FIELDS) | set(
            checkpoint._EXECUTION_FIELDS
        ) == names
        assert not set(checkpoint._RESULT_FIELDS) & set(
            checkpoint._EXECUTION_FIELDS
        )

    def test_only_result_fields_move_the_digest(self):
        base = CTSOptions()
        digest = options_digest(base)
        for f in fields(CTSOptions):
            other = copy.copy(base)
            setattr(other, f.name, object())
            moved = options_digest(other) != digest
            assert moved == (f.name in checkpoint._RESULT_FIELDS), f.name

    def test_options_digest_refuses_incomplete_partition(self, monkeypatch):
        dropped = checkpoint._RESULT_FIELDS[-1]
        monkeypatch.setattr(
            checkpoint, "_RESULT_FIELDS", checkpoint._RESULT_FIELDS[:-1]
        )
        with pytest.raises(ValueError, match=dropped):
            options_digest(CTSOptions())
