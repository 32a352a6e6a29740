"""Online session layer: late fusion and the scripted session runner.

The runner consumes a video frame stream and pre-segmented audio events on a
shared frame clock, localizes visual activity, classifies both modalities,
fuses their ranked hypotheses, and drives the dialogue FSM. It produces one
log entry per scripted step: what the user did (from the script annotation),
what the system recognized, through which modality, and how late.

Fusion rule, in priority order: announce the top speech hypothesis when it
appears among the two best gesture hypotheses (agreement); otherwise a lone
modality announces its own top; on a disagreement with both present the top
speech hypothesis wins (speech priority, configurable off).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .audio import CommandGrammar, MfccSeq, NBest, SpeakerTransform, classify_command, keyword_gate
from .detector import activity_segments
from .errors import InvalidParameterError, NoInputError, SessionDesyncError, json_field, read_json_rows
from .fsm import FsmState, fsm_step
from .frames import Clip
from .gesture import GesturePipeline
from .vocabulary import Command, command_from_name, command_name


class FusionSource(Enum):
    SPEECH_ONLY = "speech_only"
    GESTURE_ONLY = "gesture_only"
    AGREED = "agreed"


@dataclass(frozen=True)
class FusionDecision:
    command: int
    source: FusionSource
    speech: NBest | None
    gesture: tuple[tuple[int, float], ...] | None

    def __post_init__(self):
        try:
            Command(self.command)
        except ValueError:
            raise InvalidParameterError(f"decision carries unknown command {self.command}") from None


def fuse(
    speech: NBest | None,
    gesture_2best=None,
    speech_fallback: bool = True,
) -> FusionDecision | None:
    """Combine modality hypotheses; None means nothing is announced.

    Raises when both modalities are absent: the caller should not have asked.
    """
    speech_in = speech if speech is not None and not speech.is_empty else None
    gesture_in = tuple(gesture_2best) if gesture_2best else None
    if speech_in is None and gesture_in is None:
        raise NoInputError("fusion needs at least one modality")
    if speech_in is not None and gesture_in is not None:
        top = speech_in.top.command
        if top in {g[0] for g in gesture_in[:2]}:
            return FusionDecision(
                command=top, source=FusionSource.AGREED, speech=speech_in, gesture=gesture_in
            )
        if speech_fallback:
            return FusionDecision(
                command=top, source=FusionSource.SPEECH_ONLY, speech=speech_in, gesture=gesture_in
            )
        return None
    if speech_in is not None:
        return FusionDecision(
            command=speech_in.top.command,
            source=FusionSource.SPEECH_ONLY,
            speech=speech_in,
            gesture=None,
        )
    return FusionDecision(
        command=gesture_in[0][0],
        source=FusionSource.GESTURE_ONLY,
        speech=None,
        gesture=gesture_in,
    )


# ---------------------------------------------------------------------------
# session inputs and log

@dataclass(frozen=True)
class AudioEvent:
    """A pre-endpointed utterance on the shared frame clock."""

    start_frame: int
    end_frame: int
    features: MfccSeq
    keyword_score: float = 1.0


@dataclass(frozen=True)
class SessionStep:
    step_id: int
    command: int
    modality: str  # "A" or "A-G"
    window: tuple[int, int]
    performed_ok: bool = True

    def __post_init__(self):
        if self.modality not in ("A", "A-G"):
            raise InvalidParameterError(f"modality must be A or A-G, not {self.modality!r}")


@dataclass(frozen=True)
class LogEntry:
    step_id: int
    performed_ok: bool
    recognized: int | None
    source: FusionSource | None
    latency_frames: int | None
    state_after: str


@dataclass
class SessionLog:
    entries: list[LogEntry] = field(default_factory=list)
    final_state: str = "idle"


@dataclass(frozen=True)
class SessionModels:
    gesture: GesturePipeline
    templates: dict[int, list[MfccSeq]]
    grammar: CommandGrammar
    transform: SpeakerTransform | None = None


@dataclass(frozen=True)
class SessionParams:
    tau_noise: float = 12.0
    theta_on: float = 0.02
    theta_off: float = 0.01
    min_dur_frames: int = 6
    max_gap_frames: int = 8
    keyword_threshold: float = 0.5
    speech_fallback: bool = True
    lang: str = "en"


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


def run_session(
    video: Clip | None,
    audio_events: list[AudioEvent],
    steps: list[SessionStep],
    models: SessionModels,
    params: SessionParams = SessionParams(),
) -> SessionLog:
    """Drive detector, classifiers, fusion, and FSM over scripted streams."""
    if video is None and not audio_events:
        return SessionLog(entries=[], final_state=FsmState.idle().describe())

    n_frames = len(video.frames) if video is not None else 0
    fps = video.fps if video is not None else 15.0
    for ev in audio_events:
        if ev.start_frame < 0 or ev.end_frame > n_frames + fps:
            raise SessionDesyncError(
                f"audio event [{ev.start_frame}, {ev.end_frame}) is more than 1 s "
                f"outside the {n_frames}-frame video stream"
            )

    # temporal localization of visual activity
    segments: list[tuple[int, int]] = []
    if video is not None and n_frames >= 2:
        segments = activity_segments(
            video.frames,
            params.tau_noise,
            params.theta_on,
            params.theta_off,
            params.min_dur_frames,
            params.max_gap_frames,
        )

    # classify each activity segment once
    seg_hyps: list[tuple[tuple[int, int], list[tuple[int, float]] | None]] = []
    for start, end in segments:
        two = None
        if end - start >= models.gesture.tracker.traj_len + 1:
            pred = models.gesture.classify_clip(video.subclip(start, end))
            if pred is not None:
                two = models.gesture.command_2best(pred)
        seg_hyps.append(((start, end), two))

    state = FsmState.idle()
    log = SessionLog()
    for step in steps:
        speech_nbest = None
        speech_avail = None
        best_ev, best_ov = None, 0
        for ev in audio_events:
            ov = _overlap(step.window, (ev.start_frame, ev.end_frame))
            if ov > best_ov:
                best_ev, best_ov = ev, ov
        if best_ev is not None:
            raw = classify_command(
                best_ev.features, models.templates, models.grammar, models.transform
            )
            gated = keyword_gate(raw, best_ev.keyword_score, params.keyword_threshold)
            if not gated.is_empty:
                speech_nbest = gated
                speech_avail = best_ev.end_frame

        gesture_two = None
        gesture_avail = None
        best_seg, best_ov = None, 0
        for (seg, two) in seg_hyps:
            ov = _overlap(step.window, seg)
            if ov > best_ov:
                best_seg, best_ov = (seg, two), ov
        if best_seg is not None and best_seg[1]:
            gesture_two = best_seg[1]
            gesture_avail = best_seg[0][1] + params.max_gap_frames

        decision = None
        if speech_nbest is not None or gesture_two is not None:
            decision = fuse(speech_nbest, gesture_two, params.speech_fallback)

        if decision is None:
            log.entries.append(
                LogEntry(
                    step_id=step.step_id,
                    performed_ok=step.performed_ok,
                    recognized=None,
                    source=None,
                    latency_frames=None,
                    state_after=state.describe(),
                )
            )
            continue

        state, _actions, _feedback = fsm_step(state, decision, params.lang)
        avail = max(v for v in (speech_avail, gesture_avail) if v is not None)
        log.entries.append(
            LogEntry(
                step_id=step.step_id,
                performed_ok=step.performed_ok,
                recognized=decision.command,
                source=decision.source,
                latency_frames=max(0, int(avail - step.window[0])),
                state_after=state.describe(),
            )
        )

    log.final_state = state.describe()
    return log


# ---------------------------------------------------------------------------
# wire formats: script rows {step_id, command, modality}; log rows
# {step_id, performed_ok, recognized, source, latency_frames, state_after}

def write_script(path: str | Path, steps: list[tuple[int, int, str]]) -> None:
    """Rows are (step_id, command, modality)."""
    with open(path, "w", encoding="utf-8") as fh:
        for step_id, command, modality in steps:
            fh.write(
                json.dumps(
                    {"step_id": step_id, "command": command_name(command), "modality": modality},
                    sort_keys=True,
                )
                + "\n"
            )


def _script_step(row: dict) -> tuple[int, int, str]:
    command = command_from_name(json_field(row, "command", str))
    return json_field(row, "step_id", int), int(command), json_field(row, "modality", str)


def read_script(path: str | Path) -> list[tuple[int, int, str]]:
    return read_json_rows(path, "script row", _script_step)


def write_session_log(path: str | Path, log: SessionLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in log.entries:
            fh.write(
                json.dumps(
                    {
                        "step_id": e.step_id,
                        "performed_ok": e.performed_ok,
                        "recognized": None if e.recognized is None else command_name(e.recognized),
                        "source": None if e.source is None else e.source.value,
                        "latency_frames": e.latency_frames,
                        "state_after": e.state_after,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def _log_entry(row: dict) -> LogEntry:
    recognized = json_field(row, "recognized", str, nullable=True)
    source = json_field(row, "source", str, nullable=True)
    return LogEntry(
        step_id=json_field(row, "step_id", int),
        performed_ok=json_field(row, "performed_ok", bool),
        recognized=None if recognized is None else int(command_from_name(recognized)),
        source=None if source is None else FusionSource(source),
        latency_frames=json_field(row, "latency_frames", int, nullable=True),
        state_after=json_field(row, "state_after", str),
    )


def read_session_log(path: str | Path) -> SessionLog:
    entries = read_json_rows(path, "log row", _log_entry)
    final_state = entries[-1].state_after if entries else FsmState.idle().describe()
    return SessionLog(entries=entries, final_state=final_state)


# The two built-in validation scripts: one per washing task, seven steps each,
# mixing audio-only and audio-gestural steps.
LEGS_SCRIPT: list[tuple[int, int, str]] = [
    (1, int(Command.WASH_LEGS), "A"),
    (2, int(Command.STOP), "A"),
    (3, int(Command.REPEAT), "A"),
    (4, int(Command.HALT), "A"),
    (5, int(Command.WASH_LEGS), "A-G"),
    (6, int(Command.HALT), "A-G"),
    (7, int(Command.HALT), "A-G"),
]

BACK_SCRIPT: list[tuple[int, int, str]] = [
    (1, int(Command.WASH_BACK), "A-G"),
    (2, int(Command.HALT), "A-G"),
    (3, int(Command.SCRUB_BACK), "A-G"),
    (4, int(Command.STOP), "A-G"),
    (5, int(Command.REPEAT), "A-G"),
    (6, int(Command.HALT), "A-G"),
    (7, int(Command.HALT), "A-G"),
]
