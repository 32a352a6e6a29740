from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcmd.container import (
    Annotation,
    read_annotations,
    read_clip,
    write_annotations,
    write_clip,
)
from avcmd.errors import (
    AvcmdError,
    BadMagicError,
    FormatError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from avcmd.cli import main
from avcmd.frames import Clip, Modality, Sensor
from conftest import malformed_rows


def make_clip(rng, n_frames=3, w=4, h=3, modality=Modality.RGB, sensor=Sensor.S2, fps=15.0):
    frames = rng.integers(0, 256, size=(n_frames, h, w), dtype=np.uint8)
    return Clip(frames=frames, fps=fps, modality=modality, sensor_id=sensor)


def test_round_trip_identity(tmp_path, rng):
    clip = make_clip(rng)
    path = tmp_path / "c.igsc"
    write_clip(path, clip)
    back = read_clip(path)
    assert back.fps == clip.fps
    assert back.modality == clip.modality
    assert back.sensor_id == clip.sensor_id
    assert len(back) == len(clip)
    assert back.frames.shape == clip.frames.shape
    assert np.array_equal(back.frames, clip.frames)


def test_round_trip_byte_identical(tmp_path, rng):
    clip = make_clip(rng, n_frames=60, w=8, h=8)
    p1 = tmp_path / "a.igsc"
    p2 = tmp_path / "b.igsc"
    write_clip(p1, clip)
    write_clip(p2, read_clip(p1))
    h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
    assert h1 == h2


@settings(max_examples=25, deadline=None)
@given(
    n_frames=st.integers(min_value=1, max_value=4),
    w=st.integers(min_value=1, max_value=9),
    h=st.integers(min_value=1, max_value=9),
    modality=st.sampled_from(list(Modality)),
    sensor=st.sampled_from(list(Sensor)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_arbitrary_clips(tmp_path_factory, n_frames, w, h, modality, sensor, seed):
    rng = np.random.default_rng(seed)
    clip = make_clip(rng, n_frames=n_frames, w=w, h=h, modality=modality, sensor=sensor)
    path = tmp_path_factory.mktemp("clips") / "c.igsc"
    write_clip(path, clip)
    back = read_clip(path)
    assert (back.fps, back.modality, back.sensor_id) == (clip.fps, clip.modality, clip.sensor_id)
    assert back.frames.shape == clip.frames.shape
    assert np.array_equal(back.frames, clip.frames)


def test_bad_magic(tmp_path, rng):
    path = tmp_path / "c.igsc"
    write_clip(path, make_clip(rng))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_clip(path)


def test_unsupported_version(tmp_path, rng):
    path = tmp_path / "c.igsc"
    write_clip(path, make_clip(rng))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        read_clip(path)


def test_truncated_payload(tmp_path, rng):
    path = tmp_path / "c.igsc"
    write_clip(path, make_clip(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedPayloadError):
        read_clip(path)


def test_cut_at_every_byte_and_trailing_byte_raise(tmp_path, rng):
    path = tmp_path / "c.igsc"
    write_clip(path, make_clip(rng))
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(AvcmdError):
            read_clip(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(FormatError):
        read_clip(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_byte_flips_read_or_raise(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("igsc") / "c.igsc"
    write_clip(path, make_clip(np.random.default_rng(1)))
    flipped = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(flipped) - 1))
        flipped[pos] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(flipped))
    try:
        back = read_clip(path)
    except AvcmdError:
        return
    assert len(back) * back.width * back.height + 20 == len(flipped)
    write_clip(path, back)
    assert path.read_bytes() == flipped  # what a read accepts is written back as it was


@pytest.mark.parametrize("code", [2, 255])
def test_unknown_modality_code_refused(tmp_path, capsys, code):
    # A hand-built header: code 2 was the linear-depth modality, which has
    # no producer and is no longer a modality.
    path = tmp_path / "c.igsc"
    header = struct.pack("<4sHBBHHIf", b"IGSC", 1, code, 1, 2, 2, 1, 15.0)
    path.write_bytes(header + bytes(4))
    with pytest.raises(FormatError, match="Modality"):
        read_clip(path)
    assert main(["detect", "--clip", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_truncated_header(tmp_path):
    path = tmp_path / "c.igsc"
    path.write_bytes(b"IGSC\x01")
    with pytest.raises(TruncatedPayloadError):
        read_clip(path)


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_fps_rejected(tmp_path, rng, fps):
    path = tmp_path / "c.igsc"
    write_clip(path, make_clip(rng))
    raw = bytearray(path.read_bytes())
    raw[16:20] = struct.pack("<f", fps)  # the fps field ends the 20-byte header
    path.write_bytes(bytes(raw))
    with pytest.raises(AvcmdError):
        read_clip(path)
    with pytest.raises(AvcmdError):
        make_clip(rng, fps=fps)


def test_label_round_trips_via_sidecar(tmp_path, rng):
    clip_path = tmp_path / "g01.igsc"
    write_clip(clip_path, make_clip(rng))
    write_annotations(
        tmp_path / "annotations.jsonl",
        [Annotation(clip="g01.igsc", label=5, subject="u1", task="legs", start_frame=0, end_frame=3)],
    )
    # The container does not store the label; the sidecar row for its name does.
    anns = read_annotations(tmp_path / "annotations.jsonl")
    assert [a.label for a in anns if a.clip == clip_path.name] == [5]


def test_annotation_round_trip(tmp_path):
    anns = [
        Annotation(clip="a.igsc", label=1, subject="u1", task="legs", start_frame=0, end_frame=9),
        Annotation(clip="b.igsc", label=None, subject="u2", task="back", start_frame=3, end_frame=20),
    ]
    path = tmp_path / "ann.jsonl"
    write_annotations(path, anns)
    assert read_annotations(path) == anns


_GOOD_ANNOTATION = {"clip": "a.igsc", "label": 1, "subject": "u1", "task": "legs", "start_frame": 0, "end_frame": 9}


@pytest.mark.parametrize("row", malformed_rows(_GOOD_ANNOTATION, nullable=("label",)))
def test_malformed_annotation_row_names_its_line(tmp_path, row):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(_GOOD_ANNOTATION) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(FormatError, match="line 2"):
        read_annotations(path)


def test_bad_annotation_line(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text('{"clip": "a.igsc"}\n')
    with pytest.raises(FormatError):
        read_annotations(path)
