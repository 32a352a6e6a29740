from __future__ import annotations

import hashlib

import numpy as np
import pytest

import reference_encoding as ref
from avcmd.audio import dtw_distance
from avcmd.detector import activity_score
from avcmd.errors import InvalidParameterError
from avcmd.flow import dense_flow
from avcmd.frames import Modality, log_depth
from avcmd.mfcc import mfcc
from avcmd.synth import (
    D_MAX,
    GESTURE_CLASSES,
    SESSION_GAP_FRAMES,
    SESSION_WINDOW_FRAMES,
    GestureSpec,
    _World,
    build_session_streams,
    default_spec,
    generate_command_audio,
    generate_corpus,
    generate_gesture_clip,
    _smooth_field,
)
from avcmd.vocabulary import BACKGROUND_LABEL, Command, MotionPattern

from dataclasses import replace


def clip_digest(clip):
    return hashlib.sha256(clip.frames.tobytes()).hexdigest()


class TestGestureClips:
    def test_deterministic_bytes(self):
        spec = default_spec(MotionPattern.SWIPE_LEFT)
        a = generate_gesture_clip(spec, seed=11, frames=20)
        b = generate_gesture_clip(spec, seed=11, frames=20)
        assert clip_digest(a.rgb) == clip_digest(b.rgb)
        assert clip_digest(a.depth) == clip_digest(b.depth)

    def test_different_seeds_differ(self):
        spec = default_spec(MotionPattern.SWIPE_LEFT)
        a = generate_gesture_clip(spec, seed=11, frames=20)
        b = generate_gesture_clip(spec, seed=12, frames=20)
        assert clip_digest(a.rgb) != clip_digest(b.rgb)

    def test_modalities_and_labels(self):
        spec = default_spec(MotionPattern.SCRUB_OSCILLATE)
        s = generate_gesture_clip(spec, seed=3, frames=18)
        assert s.rgb.modality == Modality.RGB
        assert s.depth.modality == Modality.LOG_DEPTH
        assert s.label == int(Command.SCRUB_BACK)

    def test_too_few_frames_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_gesture_clip(default_spec(MotionPattern.SWIPE_UP), seed=1, frames=10)

    def test_background_amplitude_rule(self):
        with pytest.raises(InvalidParameterError):
            GestureSpec(pattern=MotionPattern.SWIPE_UP, amplitude=0.0, period=10)
        GestureSpec(pattern=MotionPattern.BACKGROUND, amplitude=1.0, period=10)

    def test_pattern_must_fit_frame(self):
        spec = replace(default_spec(MotionPattern.SWIPE_RIGHT), amplitude=300.0)
        with pytest.raises(InvalidParameterError):
            generate_gesture_clip(spec, seed=1, frames=18, size=96)

    @pytest.mark.parametrize("size", [0, -4])
    def test_empty_and_negative_sizes_fail_the_extent_check(self, size):
        # numpy used to fail first, building a texture of no or negative size
        with pytest.raises(InvalidParameterError, match="does not fit"):
            generate_gesture_clip(default_spec(MotionPattern.SWIPE_UP), seed=1, frames=18, size=size)

    def test_background_stays_below_activity_trigger(self):
        s = generate_gesture_clip(default_spec(MotionPattern.BACKGROUND), seed=5, frames=24)
        scores = [
            activity_score(s.rgb.frames[t - 1], s.rgb.frames[t], 12.0)
            for t in range(1, len(s.rgb.frames))
        ]
        assert max(scores) < 0.02

    def test_noise_free_swipe_flow_matches_kinematics(self):
        # generator ground truth: the limb moves amplitude/period px per frame
        spec = replace(default_spec(MotionPattern.SWIPE_RIGHT), noise_sigma=0.0)
        s = generate_gesture_clip(spec, seed=9, frames=20)
        speed = spec.amplitude / spec.period
        size = s.rgb.width
        field = dense_flow(s.rgb.frames[4], s.rgb.frames[5])
        cx = size / 2.0 + (4.5 / spec.period - 0.5) * spec.amplitude
        hw, hl = spec.limb_w // 2 - 2, spec.limb_len // 2 - 2
        u = field[0][size // 2 - hl : size // 2 + hl, int(cx - hw) : int(cx + hw)]
        v = field[1][size // 2 - hl : size // 2 + hl, int(cx - hw) : int(cx + hw)]
        assert abs(float(np.median(u)) - speed) <= 0.25
        assert abs(float(np.median(v))) <= 0.25

    def test_corpus_covers_all_classes(self):
        samples = generate_corpus(clips_per_class=2, seed=1, frames=18, size=96)
        labels = sorted({s.label for s in samples})
        assert labels == sorted({int(c) for c in Command} | {BACKGROUND_LABEL})
        assert len(samples) == 2 * len(GESTURE_CLASSES)

    def test_sixty_frame_clip_survives_container_byte_exact(self, tmp_path):
        from avcmd.container import read_clip, write_clip

        spec = default_spec(MotionPattern.CIRCLE_CW)
        sample = generate_gesture_clip(spec, seed=8, frames=60, size=64)
        p1, p2 = tmp_path / "a.igsc", tmp_path / "b.igsc"
        write_clip(p1, sample.rgb)
        write_clip(p2, read_clip(p1))
        assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()


class TestCommandAudio:
    def test_deterministic(self):
        a = generate_command_audio(2, speaker_seed=7, snr_db=20.0)
        b = generate_command_audio(2, speaker_seed=7, snr_db=20.0)
        assert np.array_equal(a, b)

    def test_clean_self_dtw_zero(self):
        wave = generate_command_audio(3, speaker_seed=1, snr_db=40.0)
        f = mfcc(wave, 16000)
        assert dtw_distance(f, f) == 0.0

    def test_unknown_command_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_command_audio(42, speaker_seed=0, snr_db=20.0)

    @pytest.mark.parametrize("snr_db", [300.001, -300.001, 1e308, -1e308, -3100.0, float("nan")])
    def test_snr_past_its_bound_rejected(self, snr_db):
        # 1e308 overflowed, -1e308 divided by zero and -3100 made a NaN wave
        with pytest.raises(InvalidParameterError, match="snr_db must be in"):
            generate_command_audio(0, speaker_seed=1, snr_db=snr_db)

    def test_snr_changes_wave(self):
        a = generate_command_audio(0, speaker_seed=1, snr_db=20.0)
        b = generate_command_audio(0, speaker_seed=1, snr_db=40.0)
        assert not np.array_equal(a, b)

    def test_pattern_separation_at_least_five_times_spread(self):
        canon = {c: mfcc(generate_command_audio(c, 0, 120.0), 16000) for c in range(6)}
        inter = min(
            dtw_distance(canon[a], canon[b]) for a in range(6) for b in range(a + 1, 6)
        )
        intra = []
        for c in range(6):
            feats = [mfcc(generate_command_audio(c, 1000 * c + i, 20.0), 16000) for i in range(4)]
            intra += [dtw_distance(feats[i], feats[j]) for i in range(4) for j in range(i + 1, 4)]
        assert inter / np.mean(intra) >= 5.0


class TestSessionStreams:
    def test_steps_align_with_script(self):
        from avcmd.session import LEGS_SCRIPT

        streams = build_session_streams(LEGS_SCRIPT, seed=3)
        gap, window = SESSION_GAP_FRAMES, SESSION_WINDOW_FRAMES
        assert (gap, window) == (18, 30)
        assert [s.step_id for s in streams.steps] == [sid for sid, _, _ in LEGS_SCRIPT]
        assert len(streams.audio_events) == len(LEGS_SCRIPT)
        for i, (step, ev) in enumerate(zip(streams.steps, streams.audio_events)):
            assert step.window == (gap + i * (window + gap), (i + 1) * (window + gap))
            assert step.window[0] <= ev.start_frame < ev.end_frame <= step.window[1]
        assert len(streams.video.frames) == gap + len(LEGS_SCRIPT) * (window + gap)

    def test_deterministic(self):
        from avcmd.session import BACK_SCRIPT

        a = build_session_streams(BACK_SCRIPT, seed=5)
        b = build_session_streams(BACK_SCRIPT, seed=5)
        assert clip_digest(a.video) == clip_digest(b.video)
        for ea, eb in zip(a.audio_events, b.audio_events):
            assert np.array_equal(ea.features.frames, eb.features.frames)


@pytest.mark.parametrize(
    "h,w,passes", [(96, 96, 3), (120, 120, 3), (34, 14, 2), (3, 2, 2), (1, 5, 1), (7, 7, 0)]
)
def test_smooth_field_equals_wrap_blur_oracle(h, w, passes):
    for seed in (0, 1, 99):
        got = _smooth_field(np.random.default_rng(seed), h, w, passes)
        assert np.array_equal(got, ref.smooth_field(np.random.default_rng(seed), h, w, passes))


@pytest.mark.parametrize("noise_sigma", [0.0, 3.0])
def test_split_renders_equal_the_combined_oracle(noise_sigma):
    """Corpus clips draw gray then depth noise; session streams drew no depth noise."""
    world = _World(np.random.default_rng(4), 96, default_spec(MotionPattern.CIRCLE_CW))
    for cx, cy in ((48.0, 48.0), (30.3, 61.7), (-40.0, 5.0)):
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        gray, depth = np.empty((96, 96), dtype=np.uint8), np.empty((96, 96), dtype=np.uint16)
        world.render_gray(gray, cx, cy, rng, noise_sigma)
        world.render_depth(depth, cx, cy, rng)
        want_gray, want_depth = ref.render(world, cx, cy, oracle_rng, noise_sigma)
        assert np.array_equal(gray, want_gray) and np.array_equal(log_depth(depth, D_MAX), want_depth)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

        world.render_gray(gray, cx, cy, rng, noise_sigma)
        want_gray, _ = ref.render(world, cx, cy, oracle_rng, noise_sigma, depth_noise=0.0)
        assert np.array_equal(gray, want_gray)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
