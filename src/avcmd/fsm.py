"""Dialogue controller for the two washing tasks.

A small explicit transition table: starting a task from Idle, escalating
washing to scrubbing on the back, pause/resume, and an absorbing emergency
halt reachable from everywhere. Invalid (state, command) pairs leave the
state untouched and answer with a refusal. Every step emits exactly one
feedback message, chosen from a string table keyed by transition and
language.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError, ProtocolError
from .vocabulary import Command


class StateKind(Enum):
    IDLE = "idle"
    WASHING_LEGS = "washing_legs"
    WASHING_BACK = "washing_back"
    SCRUBBING_BACK = "scrubbing_back"
    PAUSED = "paused"
    HALTED = "halted"


ACTIVE_STATES = frozenset(
    {StateKind.WASHING_LEGS, StateKind.WASHING_BACK, StateKind.SCRUBBING_BACK}
)


@dataclass(frozen=True)
class FsmState:
    kind: StateKind
    resume: StateKind | None = None  # set only while paused

    def __post_init__(self):
        if self.kind == StateKind.PAUSED:
            if self.resume not in ACTIVE_STATES:
                raise InvalidParameterError("paused state must store a valid resume target")
        elif self.resume is not None:
            raise InvalidParameterError("only the paused state stores a resume target")

    @classmethod
    def idle(cls) -> "FsmState":
        return cls(kind=StateKind.IDLE)

    def describe(self) -> str:
        if self.kind == StateKind.PAUSED:
            return f"paused:{self.resume.value}"
        return self.kind.value


_START_ACTIONS = {
    StateKind.WASHING_LEGS: "start_wash_legs",
    StateKind.WASHING_BACK: "start_wash_back",
    StateKind.SCRUBBING_BACK: "start_scrub_back",
}

_RESUME_ACTIONS = {
    StateKind.WASHING_LEGS: "resume_wash_legs",
    StateKind.WASHING_BACK: "resume_wash_back",
    StateKind.SCRUBBING_BACK: "resume_scrub_back",
}

FEEDBACK: dict[tuple[str, str], str] = {
    ("ack_wash_legs", "en"): "Starting to wash your legs.",
    ("ack_wash_back", "en"): "Starting to wash your back.",
    ("ack_scrub_back", "en"): "Scrubbing your back now.",
    ("ack_pause", "en"): "Pausing. Say repeat to continue.",
    ("ack_resume", "en"): "Continuing where we stopped.",
    ("ack_halt", "en"): "Stopping everything now.",
    ("already_halted", "en"): "The session is halted; please restart me first.",
    ("cannot_comply", "en"): "Sorry, I cannot do that right now.",
    ("ack_wash_legs", "de"): "Ich wasche jetzt deine Beine.",
    ("ack_wash_back", "de"): "Ich wasche jetzt deinen Ruecken.",
    ("ack_scrub_back", "de"): "Ich schrubbe jetzt deinen Ruecken.",
    ("ack_pause", "de"): "Pause. Sag noch einmal, um fortzufahren.",
    ("ack_resume", "de"): "Ich mache weiter.",
    ("ack_halt", "de"): "Ich stoppe jetzt alles.",
    ("already_halted", "de"): "Die Sitzung ist beendet; bitte starte mich neu.",
    ("cannot_comply", "de"): "Das kann ich gerade nicht tun.",
    ("ack_wash_legs", "it"): "Comincio a lavare le gambe.",
    ("ack_wash_back", "it"): "Comincio a lavare la schiena.",
    ("ack_scrub_back", "it"): "Strofino la schiena adesso.",
    ("ack_pause", "it"): "Pausa. Di' ripeti per continuare.",
    ("ack_resume", "it"): "Continuo da dove eravamo.",
    ("ack_halt", "it"): "Fermo tutto adesso.",
    ("already_halted", "it"): "La sessione e' terminata; riavviami prima.",
    ("cannot_comply", "it"): "Non posso farlo in questo momento.",
}


def feedback_message(key: str, lang: str = "en") -> str:
    msg = FEEDBACK.get((key, lang))
    if msg is None:
        msg = FEEDBACK.get((key, "en"))
    if msg is None:
        raise InvalidParameterError(f"no feedback entry for {key!r}")
    return msg


def fsm_step(state: FsmState, command, lang: str = "en") -> tuple[FsmState, tuple[str, ...], str]:
    """Apply one recognized command; returns (state, actions, feedback).

    `command` is a vocabulary command id or anything carrying one in a
    `.command` attribute (a fusion decision). Unknown ids raise, they are a
    protocol violation rather than a user mistake.
    """
    if hasattr(command, "command"):
        command = command.command
    try:
        cmd = Command(command)
    except ValueError:
        raise ProtocolError(f"unknown command id {command!r}") from None

    def stay(key: str) -> tuple[FsmState, tuple[str, ...], str]:
        return state, (), feedback_message(key, lang)

    if state.kind == StateKind.HALTED:
        return stay("already_halted")

    if cmd == Command.HALT:
        return FsmState(kind=StateKind.HALTED), ("halt_all",), feedback_message("ack_halt", lang)

    if state.kind == StateKind.IDLE:
        if cmd == Command.WASH_LEGS:
            return _start(StateKind.WASHING_LEGS, "ack_wash_legs", lang)
        if cmd == Command.WASH_BACK:
            return _start(StateKind.WASHING_BACK, "ack_wash_back", lang)
        return stay("cannot_comply")

    if state.kind in ACTIVE_STATES:
        if cmd == Command.STOP:
            new = FsmState(kind=StateKind.PAUSED, resume=state.kind)
            return new, ("pause_task",), feedback_message("ack_pause", lang)
        if state.kind == StateKind.WASHING_BACK and cmd == Command.SCRUB_BACK:
            return _start(StateKind.SCRUBBING_BACK, "ack_scrub_back", lang)
        return stay("cannot_comply")

    if state.kind == StateKind.PAUSED:
        if cmd == Command.REPEAT:
            action = _RESUME_ACTIONS[state.resume]
            return FsmState(kind=state.resume), (action,), feedback_message("ack_resume", lang)
        return stay("cannot_comply")

    raise ProtocolError(f"unhandled state {state.kind}")  # pragma: no cover


def _start(kind: StateKind, key: str, lang: str) -> tuple[FsmState, tuple[str, ...], str]:
    action = _START_ACTIONS[kind]
    return FsmState(kind=kind), (action,), feedback_message(key, lang)
