from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from avcmd.audio import Hypothesis, NBest, default_grammar
from avcmd.errors import FormatError, InvalidParameterError, NoInputError, SessionDesyncError
from avcmd.frames import Clip, GrayFrame, Modality
from avcmd.mfcc import FEATURE_DIM, MfccSeq
from avcmd.session import (
    BACK_SCRIPT,
    LEGS_SCRIPT,
    AudioEvent,
    FusionDecision,
    FusionSource,
    LogEntry,
    SessionLog,
    SessionModels,
    SessionStep,
    fuse,
    read_script,
    read_session_log,
    run_session,
    write_script,
    write_session_log,
)
from avcmd.vocabulary import Command
from conftest import malformed_rows


def nb(*pairs) -> NBest:
    return NBest(hypotheses=tuple(Hypothesis(command=c, score=s) for c, s in pairs))


class TestFuseTruthTable:
    """All eight (modality presence x membership) cases."""

    def test_both_present_speech_matches_first_gesture(self):
        d = fuse(nb((3, 0.1), (5, 0.4)), [(3, 2.0), (5, 1.0)])
        assert d.command == 3
        assert d.source == FusionSource.AGREED

    def test_both_present_speech_matches_second_gesture(self):
        d = fuse(nb((5, 0.1), (3, 0.4)), [(3, 2.0), (5, 1.0)])
        assert d.command == 5
        assert d.source == FusionSource.AGREED

    def test_both_present_disagreement_speech_priority(self):
        d = fuse(nb((3, 0.1), (4, 0.4)), [(4, 2.0), (5, 1.0)])
        assert d.command == 3
        assert d.source == FusionSource.SPEECH_ONLY

    def test_both_present_disagreement_fallback_disabled(self):
        assert fuse(nb((3, 0.1)), [(4, 2.0), (5, 1.0)], speech_fallback=False) is None

    def test_speech_only(self):
        d = fuse(nb((3, 0.1), (4, 0.4)), None)
        assert (d.command, d.source) == (3, FusionSource.SPEECH_ONLY)

    def test_speech_only_empty_gesture_list(self):
        d = fuse(nb((2, 0.2)), [])
        assert (d.command, d.source) == (2, FusionSource.SPEECH_ONLY)

    def test_gesture_only(self):
        d = fuse(None, [(5, 2.0), (3, 1.0)])
        assert (d.command, d.source) == (5, FusionSource.GESTURE_ONLY)

    def test_gesture_only_empty_speech(self):
        d = fuse(NBest.empty(), [(5, 2.0), (3, 1.0)])
        assert (d.command, d.source) == (5, FusionSource.GESTURE_ONLY)

    def test_neither_modality_raises(self):
        with pytest.raises(NoInputError):
            fuse(None, None)
        with pytest.raises(NoInputError):
            fuse(NBest.empty(), [])

    def test_decision_validates_vocabulary(self):
        with pytest.raises(InvalidParameterError):
            FusionDecision(command=77, source=FusionSource.AGREED)


class TestScriptAndLogIO:
    def test_script_round_trip(self, tmp_path):
        path = tmp_path / "script.jsonl"
        write_script(path, LEGS_SCRIPT)
        assert read_script(path) == LEGS_SCRIPT

    def test_back_script_round_trip(self, tmp_path):
        path = tmp_path / "script.jsonl"
        write_script(path, BACK_SCRIPT)
        assert read_script(path) == BACK_SCRIPT

    def test_log_round_trip(self, tmp_path):
        log = SessionLog(
            entries=[
                LogEntry(1, True, int(Command.WASH_LEGS), FusionSource.AGREED, 12, "washing_legs"),
                LogEntry(2, False, None, None, None, "washing_legs"),
                LogEntry(3, True, int(Command.HALT), FusionSource.SPEECH_ONLY, 4, "halted"),
            ],
            final_state="halted",
        )
        path = tmp_path / "log.jsonl"
        write_session_log(path, log)
        back = read_session_log(path)
        assert back.entries == log.entries
        assert back.final_state == "halted"


_GOOD_SCRIPT_ROW = {"step_id": 1, "command": "halt", "modality": "A"}
_GOOD_LOG_ROW = {
    "step_id": 1,
    "performed_ok": True,
    "recognized": "halt",
    "source": "agreed",
    "latency_frames": 4,
    "state_after": "halted",
}


class TestMalformedRows:
    """Every malformed row raises FormatError naming its line, never a TypeError."""

    @pytest.mark.parametrize("row", malformed_rows(_GOOD_SCRIPT_ROW))
    def test_script_row(self, tmp_path, row):
        path = tmp_path / "script.jsonl"
        path.write_text(json.dumps(_GOOD_SCRIPT_ROW) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(FormatError, match="line 2"):
            read_script(path)

    @pytest.mark.parametrize(
        "row", malformed_rows(_GOOD_LOG_ROW, nullable=("recognized", "source", "latency_frames"))
        + [{**_GOOD_LOG_ROW, "recognized": "mop_floor"}, {**_GOOD_LOG_ROW, "source": "telepathy"}]
    )
    def test_log_row(self, tmp_path, row):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(_GOOD_LOG_ROW) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(FormatError, match="line 2"):
            read_session_log(path)

    def test_final_state_is_the_last_entry(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rows = [_GOOD_LOG_ROW, {**_GOOD_LOG_ROW, "step_id": 2, "state_after": "idle"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows) + "\n")
        back = read_session_log(path)
        assert [e.step_id for e in back.entries] == [1, 2] and back.final_state == "idle"
        path.write_text("\n")
        assert read_session_log(path).final_state == "idle"


class _NoGesture:
    def classify_clip(self, clip):
        return None

    def command_2best(self, pred):
        return None


def _speech_models(rng):
    grammar = default_grammar()
    templates = {
        int(c): [MfccSeq(frames=rng.normal(size=(12, FEATURE_DIM)) * 4.0)]
        for c in Command
    }
    return SessionModels(
        gesture=_NoGesture(), templates=templates, grammar=grammar, transform=None
    )


def _static_video(n_frames=140, size=32):
    frame = GrayFrame.from_array(np.full((size, size), 80, dtype=np.uint8))
    return Clip(frames=(frame,) * n_frames, fps=15.0, modality=Modality.RGB)


def _steps_with_windows(script, window_len=20):
    return [
        SessionStep(step_id=sid, command=cmd, modality=mod, window=(i * window_len, (i + 1) * window_len))
        for i, (sid, cmd, mod) in enumerate(script)
    ]


class TestRunSession:
    def test_empty_streams_empty_log(self, rng):
        models = _speech_models(rng)
        log = run_session(None, [], _steps_with_windows(LEGS_SCRIPT), models)
        assert log.entries == []
        assert log.final_state == "idle"

    def test_desync_rejected(self, rng):
        models = _speech_models(rng)
        video = _static_video(n_frames=30)
        bad = AudioEvent(
            start_frame=80,
            end_frame=90,
            features=models.templates[0][0],
            keyword_score=1.0,
        )
        with pytest.raises(SessionDesyncError):
            run_session(video, [bad], _steps_with_windows(LEGS_SCRIPT), models)

    def test_speech_only_scripted_session(self, rng):
        models = _speech_models(rng)
        steps = _steps_with_windows(LEGS_SCRIPT)
        events = [
            AudioEvent(
                start_frame=steps[i].window[0] + 2,
                end_frame=steps[i].window[0] + 10,
                features=models.templates[steps[i].command][0],
                keyword_score=1.0,
            )
            for i in range(len(steps))
        ]
        log = run_session(_static_video(), events, steps, models)
        assert len(log.entries) == 7
        for entry, step in zip(log.entries, steps):
            assert entry.recognized == step.command
            assert entry.source == FusionSource.SPEECH_ONLY
            assert entry.latency_frames == 10
        assert log.final_state == "halted"

    def test_audio_only_session_equals_a_static_video(self, rng):
        # without video, events used to be checked against a 0-frame stream at
        # a made-up 15 fps, so every event ending after frame 15 was refused
        models = _speech_models(rng)
        steps = _steps_with_windows(LEGS_SCRIPT)
        events = [
            AudioEvent(
                start_frame=step.window[0] + 2,
                end_frame=step.window[0] + 10,
                features=models.templates[step.command][0],
            )
            for step in steps
        ]
        log = run_session(None, events, steps, models)
        assert log == run_session(_static_video(), events, steps, models)
        assert [e.recognized for e in log.entries] == [step.command for step in steps]
        with pytest.raises(SessionDesyncError, match="before frame 0"):
            run_session(None, [replace(events[0], start_frame=-1)], steps, models)

    def test_keyword_gate_blocks_recognition(self, rng):
        models = _speech_models(rng)
        steps = _steps_with_windows(LEGS_SCRIPT[:1])
        events = [
            AudioEvent(
                start_frame=2,
                end_frame=10,
                features=models.templates[steps[0].command][0],
                keyword_score=0.1,
            )
        ]
        log = run_session(_static_video(n_frames=20), events, steps, models)
        assert log.entries[0].recognized is None
        assert log.entries[0].source is None
        assert log.final_state == "idle"

    def test_missing_modalities_logged_as_unrecognized(self, rng):
        models = _speech_models(rng)
        steps = _steps_with_windows(LEGS_SCRIPT[:2])
        events = [
            AudioEvent(
                start_frame=2,
                end_frame=10,
                features=models.templates[steps[0].command][0],
            )
        ]
        log = run_session(_static_video(n_frames=40), events, steps, models)
        assert log.entries[0].recognized == steps[0].command
        assert log.entries[1].recognized is None
        assert log.entries[1].state_after == log.entries[0].state_after

    def test_deterministic_given_fixed_inputs(self, rng):
        models = _speech_models(rng)
        steps = _steps_with_windows(LEGS_SCRIPT)
        events = [
            AudioEvent(
                start_frame=steps[i].window[0] + 2,
                end_frame=steps[i].window[0] + 10,
                features=models.templates[steps[i].command][0],
            )
            for i in range(len(steps))
        ]
        log1 = run_session(_static_video(), events, steps, models)
        log2 = run_session(_static_video(), events, steps, models)
        assert log1.entries == log2.entries

    def test_equal_audio_overlaps_take_the_first_event(self, rng):
        models = _speech_models(rng)
        step = SessionStep(step_id=1, command=int(Command.WASH_LEGS), modality="A", window=(0, 20))
        legs, back = int(Command.WASH_LEGS), int(Command.WASH_BACK)
        for first, second in ((legs, back), (back, legs)):
            # both events overlap the step window by 5 frames
            events = [
                AudioEvent(start_frame=0, end_frame=5, features=models.templates[first][0]),
                AudioEvent(start_frame=15, end_frame=25, features=models.templates[second][0]),
            ]
            entry = run_session(_static_video(n_frames=40), events, [step], models).entries[0]
            assert (entry.recognized, entry.latency_frames) == (first, 5)
            events.reverse()
            entry = run_session(_static_video(n_frames=40), events, [step], models).entries[0]
            assert (entry.recognized, entry.latency_frames) == (second, 25)

    def test_equal_segment_overlaps_take_the_first_segment(self, rng, monkeypatch):
        class _FirstFrameGesture:
            """Names each segment by its first frame's intensity, which is its start frame."""

            def classify_clip(self, clip):
                return int(clip.frames[0, 0, 0])

            def command_2best(self, start):
                return [({10: int(Command.WASH_LEGS), 40: int(Command.WASH_BACK)}[start], 1.0)]

        models = SessionModels(gesture=_FirstFrameGesture(), templates={}, grammar=default_grammar())
        video = Clip(frames=np.repeat(np.arange(80, dtype=np.uint8), 4).reshape(80, 2, 2), fps=15.0,
                     modality=Modality.RGB)
        step = SessionStep(step_id=1, command=int(Command.WASH_LEGS), modality="A-G", window=(20, 50))
        for segments, want in (([(10, 30), (40, 60)], Command.WASH_LEGS), ([(40, 60), (10, 30)], Command.WASH_BACK)):
            # both segments overlap the step window by 10 frames
            monkeypatch.setattr("avcmd.session.activity_segments", lambda *args, s=segments: s)
            entry = run_session(video, [], [step], models).entries[0]
            assert (entry.recognized, entry.source) == (int(want), FusionSource.GESTURE_ONLY)
