"""Online session layer: late fusion and the scripted session runner.

The runner consumes a video frame stream and pre-segmented audio events on a
shared frame clock, localizes visual activity segments with
`activity_segments` (the detector, set by a `SessionParams`) and classifies
them, and gives each scripted step the audio event and the segment that
overlap its window most (the first on a tie). A segment the gesture pipeline
declines, one too short to track among them, offers no gesture hypothesis.
The runner fuses the ranked hypotheses, drives the dialogue FSM, and logs per
step what the user did (from the script annotation), what the system
recognized, through which modality, and how late.

Fusion rule, in priority order: announce the top speech hypothesis when it
appears among the two best gesture hypotheses (agreement); otherwise a lone
modality announces its own top; on a disagreement with both present the top
speech hypothesis wins (speech priority, configurable off). A decision is
the announced command and the source it came through.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

from .audio import CommandGrammar, MfccSeq, NBest, SpeakerTransform, classify_command, keyword_gate
from .detector import activity_scores, detect_segments, segments_from_events
from .errors import (
    FormatError, InvalidParameterError, NoInputError, SessionDesyncError, json_field, read_json_rows, write_json_rows,
)
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
            return FusionDecision(top, FusionSource.AGREED)
        if speech_fallback:
            return FusionDecision(top, FusionSource.SPEECH_ONLY)
        return None
    if speech_in is not None:
        return FusionDecision(speech_in.top.command, FusionSource.SPEECH_ONLY)
    return FusionDecision(gesture_in[0][0], FusionSource.GESTURE_ONLY)


# ---------------------------------------------------------------------------
# session inputs and log

@dataclass(frozen=True)
class AudioEvent:
    """A pre-endpointed utterance on the shared frame clock."""

    start_frame: int
    end_frame: int
    features: MfccSeq
    keyword_score: float = 1.0


def _check_modality(modality: str) -> str:
    """The rule of a step's modality, on a `SessionStep` and on a script row: A or A-G."""
    if modality not in ("A", "A-G"):
        raise InvalidParameterError(f"modality must be A or A-G, not {modality!r}")
    return modality


@dataclass(frozen=True)
class SessionStep:
    step_id: int
    command: int
    modality: str  # "A" or "A-G"
    window: tuple[int, int]
    performed_ok: bool = True

    def __post_init__(self):
        _check_modality(self.modality)


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
    lang: str = "en"  # the language of `fsm_step`'s feedback, which no log holds; not a config key


def activity_segments(frames, params: SessionParams) -> list[tuple[int, int]]:
    """(start, end) activity segments of a frame sequence: every frame's score, pushed in order."""
    scores = activity_scores(frames, params.tau_noise)
    events = detect_segments(scores, params.theta_on, params.theta_off, params.min_dur_frames, params.max_gap_frames)
    return segments_from_events(events)


def _best_overlap(window: tuple[int, int], items, span):
    """The item whose span(item) overlaps `window` most, the first on a tie; None if none overlaps."""
    best, best_ov = None, 0
    for item in items:
        start, end = span(item)
        ov = max(0, min(window[1], end) - max(window[0], start))
        if ov > best_ov:
            best, best_ov = item, ov
    return best


def run_session(
    video: Clip,
    audio_events: list[AudioEvent],
    steps: list[SessionStep],
    models: SessionModels,
    params: SessionParams = SessionParams(),
) -> SessionLog:
    """Drive detector, classifiers, fusion, and FSM over scripted streams."""
    n_frames = len(video.frames)
    for ev in audio_events:
        if ev.start_frame < 0 or ev.end_frame > n_frames + video.fps:
            raise SessionDesyncError(
                f"audio event [{ev.start_frame}, {ev.end_frame}) starts before frame 0 or ends "
                f"more than 1 s after the {n_frames}-frame video stream"
            )

    # temporal localization of visual activity; each segment is classified once
    segments: list[tuple[tuple[int, int], list[tuple[int, float]] | None]] = []
    for start, end in activity_segments(video.frames, params):
        pred = models.gesture.classify_clip(video.subclip(start, end))
        two = None if pred is None else models.gesture.command_2best(pred)
        segments.append(((start, end), two))

    state = FsmState.idle()
    log = SessionLog()
    for step in steps:
        speech_nbest = gesture_two = None
        avail = []  # the frame each present modality's hypothesis is ready at
        ev = _best_overlap(step.window, audio_events, lambda e: (e.start_frame, e.end_frame))
        if ev is not None:
            raw = classify_command(ev.features, models.templates, models.grammar, models.transform)
            gated = keyword_gate(raw, ev.keyword_score, params.keyword_threshold)
            if not gated.is_empty:
                speech_nbest = gated
                avail.append(ev.end_frame)
        seg = _best_overlap(step.window, segments, lambda s: s[0])
        if seg is not None and seg[1]:
            gesture_two = seg[1]
            avail.append(seg[0][1] + params.max_gap_frames)

        decision = fuse(speech_nbest, gesture_two, params.speech_fallback) if avail else None
        if decision is not None:
            state, _actions, _feedback = fsm_step(state, decision, params.lang)
        log.entries.append(
            LogEntry(
                step_id=step.step_id,
                performed_ok=step.performed_ok,
                recognized=None if decision is None else decision.command,
                source=None if decision is None else decision.source,
                latency_frames=None if decision is None else max(0, int(max(avail) - step.window[0])),
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
    rows = ({"step_id": sid, "command": command_name(cmd), "modality": mod} for sid, cmd, mod in steps)
    write_json_rows(path, rows)


def _script_step(row: dict) -> tuple[int, int, str]:
    command = command_from_name(json_field(row, "command", str))
    return json_field(row, "step_id", int), int(command), _check_modality(json_field(row, "modality", str))


def read_script(path: str | Path) -> list[tuple[int, int, str]]:
    steps = read_json_rows(path, "script row", _script_step)
    ids = [step[0] for step in steps]
    if len(set(ids)) < len(ids):
        raise FormatError(f"script {path} lists step {next(i for i in ids if ids.count(i) > 1)} more than once")
    return steps


def write_session_log(path: str | Path, log: SessionLog) -> None:
    rows = (
        {**asdict(e), "recognized": None if e.recognized is None else command_name(e.recognized),
         "source": None if e.source is None else e.source.value}
        for e in log.entries
    )
    write_json_rows(path, rows)


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
