from __future__ import annotations

import numpy as np
import pytest

import reference_encoding as ref
from avcmd import detector
from avcmd.detector import (
    ActivityDetector,
    EventKind,
    activity_score,
    activity_scores,
    detect_segments,
    segments_from_events,
)
from avcmd.errors import ConfigError, InvalidParameterError
from avcmd.frames import GrayFrame
from avcmd.session import BACK_SCRIPT, LEGS_SCRIPT, SessionParams, activity_segments
from avcmd.synth import build_session_streams


class TestActivityScore:
    def test_identical_frames(self):
        f = np.full((20, 30), 90, dtype=np.uint8)
        assert activity_score(f, f, tau_noise=12) == 0.0

    def test_full_inversion(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        a[::2] = 96
        a[1::2] = 255
        b = 255 - a  # rows flip 96<->159 and 255<->0: every pixel moves > tau
        assert activity_score(a, b, tau_noise=12) == 1.0

    def test_ten_percent_changed(self):
        w, h = 40, 25  # 1000 pixels
        a = np.full((h, w), 100, dtype=np.uint8)
        b = a.copy()
        flat = b.reshape(-1)
        flat[:100] += 24  # 2 * tau
        score = activity_score(a, b, tau_noise=12)
        assert abs(score - 0.10) <= 1.0 / (w * h)

    def test_boundary_is_exclusive(self):
        a = np.full((4, 4), 100, dtype=np.uint8)
        b = a + 12  # exactly tau: not counted
        assert activity_score(a, b, tau_noise=12) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(InvalidParameterError):
            activity_score(np.zeros((3, 3)), np.zeros((3, 4)), 12)

    def test_scores_lead_with_zero_then_score_each_pair(self, rng):
        frames = rng.integers(0, 256, size=(6, 9, 9), dtype=np.uint8)
        scores = activity_scores(frames, 12.0)
        assert scores == [0.0] + [activity_score(a, b, 12.0) for a, b in zip(frames, frames[1:])]
        assert activity_scores(frames[:1], 12.0) == [0.0]


class TestDetectSegments:
    def test_hysteresis_config_validated(self):
        with pytest.raises(ConfigError):
            ActivityDetector(theta_on=0.01, theta_off=0.02, min_dur=2, max_gap=2)

    def test_all_zero_scores(self):
        assert detect_segments([0.0] * 50, 0.02, 0.01, 4, 5) == []

    def test_rectangular_pulse_edges(self):
        scores = [0.0] * 10 + [0.5] * 8 + [0.0] * 10
        events = detect_segments(scores, 0.02, 0.01, min_dur=4, max_gap=5)
        assert [e.kind for e in events] == [EventKind.START, EventKind.END]
        assert events[0].frame == 10
        assert events[1].frame == 18

    def test_end_emitted_max_gap_frames_late(self):
        det = ActivityDetector(0.02, 0.01, min_dur=3, max_gap=4)
        emitted_at = {}
        scores = [0.0] * 5 + [0.5] * 6 + [0.0] * 10
        for t, s in enumerate(scores):
            for ev in det.push(s):
                emitted_at[ev.kind] = t
        det.flush()
        # start becomes official after min_dur frames, end after max_gap
        assert emitted_at[EventKind.START] == 5 + 3 - 1
        assert emitted_at[EventKind.END] == 11 + 4 - 1

    def test_short_pulse_suppressed(self):
        scores = [0.0] * 5 + [0.5] * 2 + [0.0] * 10
        assert detect_segments(scores, 0.02, 0.01, min_dur=4, max_gap=3) == []

    def test_nearby_pulses_merged(self):
        scores = [0.0] * 5 + [0.5] * 5 + [0.0] * 2 + [0.5] * 5 + [0.0] * 8
        events = detect_segments(scores, 0.02, 0.01, min_dur=3, max_gap=4)
        assert segments_from_events(events) == [(5, 17)]

    def test_distant_pulses_stay_separate(self):
        scores = [0.0] * 5 + [0.5] * 5 + [0.0] * 6 + [0.5] * 5 + [0.0] * 8
        events = detect_segments(scores, 0.02, 0.01, min_dur=3, max_gap=4)
        assert segments_from_events(events) == [(5, 10), (16, 21)]

    def test_hand_traced_automaton(self):
        # scores cross on/off bands: stays active in the [off, on) band
        on, off = 0.30, 0.10
        scores = [0.0, 0.4, 0.2, 0.2, 0.4, 0.05, 0.2, 0.05, 0.05, 0.05, 0.0]
        # active from frame 1; dip at 5 bridged by 6; below-run from 7
        # closes after max_gap=3 below frames -> end = 7
        events = detect_segments(scores, on, off, min_dur=3, max_gap=3)
        assert [(e.kind, e.frame) for e in events] == [
            (EventKind.START, 1),
            (EventKind.END, 7),
        ]

    def test_trailing_segment_closed_at_flush(self):
        scores = [0.0] * 4 + [0.5] * 6
        events = detect_segments(scores, 0.02, 0.01, min_dur=3, max_gap=4)
        assert segments_from_events(events) == [(4, 10)]

    def test_events_strictly_alternate(self, rng):
        scores = np.clip(rng.normal(0.02, 0.03, size=400), 0, 1)
        events = detect_segments(scores, 0.04, 0.02, min_dur=3, max_gap=4)
        kinds = [e.kind for e in events]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b
        for s, e in segments_from_events(events):
            assert e > s


def _pulse_frames(rng, n, size=12, bursts=((5, 14), (20, 23), (30, 45))):
    """Static noise frames with bursts of changed pixels."""
    base = rng.integers(0, 256, size=size * size, dtype=np.uint8)
    frames = []
    for t in range(n):
        data = base.copy()
        if any(lo <= t < hi for lo, hi in bursts):
            idx = rng.choice(data.size, size=int(rng.integers(1, data.size)), replace=False)
            data[idx] = rng.integers(0, 256, size=idx.size, dtype=np.uint8)
        frames.append(GrayFrame(width=size, height=size, data=data))
    return tuple(frames)


class TestActivitySegments:
    """`activity_segments` equals the session runner's old inline loop."""

    @pytest.mark.parametrize("script", [LEGS_SCRIPT, BACK_SCRIPT])
    def test_session_streams(self, script):
        video = build_session_streams(script, seed=41).video
        p = SessionParams()
        got = activity_segments(video.frames, p)
        assert got and got == ref.session_segments(video.frames, p)

    @pytest.mark.parametrize(
        "params",
        [
            SessionParams(),
            SessionParams(theta_on=0.0, theta_off=0.0, min_dur_frames=1, max_gap_frames=1),
            SessionParams(tau_noise=0.0, theta_on=0.5, theta_off=0.1, min_dur_frames=3, max_gap_frames=2),
            SessionParams(theta_on=0.3, theta_off=0.3, min_dur_frames=20, max_gap_frames=9),
        ],
    )
    def test_pulse_streams_and_edge_lengths(self, rng, params):
        frames = _pulse_frames(rng, 60)
        for n in (1, 2, 3, 10, 25, 60):
            assert activity_segments(frames[:n], params) == ref.session_segments(frames[:n], params)

    def test_one_score_and_one_push_per_frame(self, rng, monkeypatch):
        calls = {"score": 0, "push": 0}
        score, push = detector.activity_score, ActivityDetector.push

        def counted_score(*args):
            calls["score"] += 1
            return score(*args)

        def counted_push(self, s):
            calls["push"] += 1
            return push(self, s)

        monkeypatch.setattr(detector, "activity_score", counted_score)
        monkeypatch.setattr(ActivityDetector, "push", counted_push)
        frames = _pulse_frames(rng, 40)
        activity_segments(frames, SessionParams())
        assert calls == {"score": 39, "push": 40}
