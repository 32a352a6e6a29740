"""Binary clip container and the JSON-lines annotation sidecar.

Container layout (little-endian):

    magic   4 bytes  "IGSC"
    version u16      1
    modality u8      0 = RGB converted to gray, 1 = log-depth; any other code is refused
    sensor  u8       1..3
    width   u16
    height  u16
    frames  u32
    fps     f32
    payload frames * width * height bytes, row-major per frame

The clip label is not part of the container; it travels in the annotation
sidecar, one JSON object per line with fields
{clip, label, subject, task, start_frame, end_frame}.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionOverflowError, FormatError, check_payload, json_field, read_json_rows, unpack_header, write_json_rows,
)
from .frames import Clip, Modality, Sensor

CLIP_MAGIC = b"IGSC"
CLIP_VERSION = 1
_HEADER = struct.Struct("<4sHBBHHIf")


@dataclass(frozen=True)
class Annotation:
    clip: str
    label: int | None
    subject: str
    task: str
    start_frame: int
    end_frame: int


def write_clip(path: str | Path, clip: Clip) -> None:
    if clip.width > 0xFFFF or clip.height > 0xFFFF:
        raise DimensionOverflowError("frame dimensions exceed u16")
    if len(clip.frames) > 0xFFFFFFFF:
        raise DimensionOverflowError("frame count exceeds u32")
    header = _HEADER.pack(
        CLIP_MAGIC,
        CLIP_VERSION,
        int(clip.modality),
        int(clip.sensor_id),
        clip.width,
        clip.height,
        len(clip.frames),
        float(clip.fps),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(clip.frames.tobytes())


def read_clip(path: str | Path) -> Clip:
    raw = Path(path).read_bytes()
    modality, sensor, width, height, n_frames, fps = unpack_header(raw, _HEADER, CLIP_MAGIC, CLIP_VERSION, "container")
    if width == 0 or height == 0 or n_frames == 0:
        raise FormatError("container declares an empty clip")
    check_payload(len(raw), _HEADER.size + n_frames * width * height, "container")
    try:
        modality = Modality(modality)
        sensor = Sensor(sensor)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    frames = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size).reshape(n_frames, height, width)
    return Clip(frames=frames, fps=fps, modality=modality, sensor_id=sensor)


def write_annotations(path: str | Path, annotations: list[Annotation]) -> None:
    write_json_rows(path, map(asdict, annotations))


def _annotation(row: dict) -> Annotation:
    return Annotation(
        clip=json_field(row, "clip", str),
        label=json_field(row, "label", int, nullable=True),
        subject=json_field(row, "subject", str),
        task=json_field(row, "task", str),
        start_frame=json_field(row, "start_frame", int),
        end_frame=json_field(row, "end_frame", int),
    )


def read_annotations(path: str | Path) -> list[Annotation]:
    return read_json_rows(path, "annotation", _annotation)
