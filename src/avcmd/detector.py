"""Frame-differencing activity score and causal hysteresis segmentation.

The score is the fraction of pixels whose intensity changed by more than a
noise floor. Segmentation is a two-threshold automaton: a segment opens when
the score reaches theta_on and closes once the score has stayed below
theta_off for max_gap consecutive frames, which also merges pulses separated
by shorter lulls. Because it runs causally, a Start is announced only after
the segment has survived min_dur frames and an End trails the actual
boundary by max_gap frames. An event is its kind and the true boundary
frame, which is all that segment pairing and the session runner read.

`detect_segments` is the one detection loop and `activity_scores` the one
scoring loop; `session.activity_segments` runs the first over the second
with the settings of a `SessionParams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, InvalidParameterError


class EventKind(Enum):
    START = "start"
    END = "end"


@dataclass(frozen=True)
class SegmentEvent:
    kind: EventKind
    frame: int  # the segment's first frame, or the frame after its last


def activity_score(prev, curr, tau_noise: float) -> float:
    """Fraction of pixels with |curr - prev| > tau_noise."""
    a, b = np.asarray(prev), np.asarray(curr)
    if a.shape != b.shape:
        raise InvalidParameterError("frames must share dimensions")
    diff = np.abs(a.astype(np.int32) - b.astype(np.int32))
    return float(np.count_nonzero(diff > tau_noise) / a.size)


class ActivityDetector:
    """Streaming segmenter; push scores one frame at a time."""

    def __init__(self, theta_on: float, theta_off: float, min_dur: int, max_gap: int):
        if theta_on < theta_off:
            raise ConfigError("theta_on must be >= theta_off (hysteresis)")
        if min_dur < 1 or max_gap < 1:
            raise ConfigError("min_dur and max_gap must be at least 1 frame")
        self.theta_on = theta_on
        self.theta_off = theta_off
        self.min_dur = min_dur
        self.max_gap = max_gap
        self._frame = 0
        self._active = False
        self._start = 0
        self._provisional_end = 0
        self._below = 0
        self._announced = False

    def push(self, score: float) -> list[SegmentEvent]:
        t = self._frame
        self._frame += 1
        out: list[SegmentEvent] = []
        if not self._active:
            if score >= self.theta_on:
                self._active = True
                self._start = t
                self._provisional_end = t + 1
                self._below = 0
                self._announced = False
            else:
                return out
        else:
            if score >= self.theta_off:
                self._provisional_end = t + 1
                self._below = 0
            else:
                self._below += 1
                if self._below >= self.max_gap:
                    if self._announced:
                        out.append(SegmentEvent(EventKind.END, self._provisional_end))
                    self._active = False
                    return out
        if not self._announced and self._provisional_end - self._start >= self.min_dur:
            self._announced = True
            out.append(SegmentEvent(EventKind.START, self._start))
        return out

    def flush(self) -> list[SegmentEvent]:
        """Close a trailing segment at end of stream."""
        out: list[SegmentEvent] = []
        if self._active and self._announced:
            out.append(SegmentEvent(EventKind.END, self._provisional_end))
        self._active = False
        return out


def detect_segments(
    scores, theta_on: float, theta_off: float, min_dur: int, max_gap: int
) -> list[SegmentEvent]:
    """Run the streaming detector over a whole score sequence."""
    det = ActivityDetector(theta_on, theta_off, min_dur, max_gap)
    events: list[SegmentEvent] = []
    for s in scores:
        events.extend(det.push(float(s)))
    events.extend(det.flush())
    return events


def activity_scores(frames, tau_noise: float) -> list[float]:
    """0.0 for frame 0, which has no predecessor, then one score per frame pair."""
    return [0.0] + [activity_score(frames[t - 1], frames[t], tau_noise) for t in range(1, len(frames))]


def segments_from_events(events: list[SegmentEvent]) -> list[tuple[int, int]]:
    """Pair alternating Start/End events into (start, end) frame ranges."""
    out = []
    start = None
    for ev in events:
        if ev.kind == EventKind.START:
            if start is not None:
                raise InvalidParameterError("events do not alternate")
            start = ev.frame
        else:
            if start is None:
                raise InvalidParameterError("events do not alternate")
            out.append((start, ev.frame))
            start = None
    if start is not None:
        raise InvalidParameterError("unterminated segment")
    return out
