"""Dialogue controller for the two washing tasks.

A small explicit transition table, `_STARTS`, starts a task from Idle or
escalates washing to scrubbing on the back; one rule chain in `fsm_step`
adds pause/resume and an absorbing emergency halt reachable from
everywhere. Invalid (state, command) pairs leave the state untouched and
answer with a refusal. Every step emits exactly one feedback message,
chosen from a string table keyed by transition and language.
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


# Each task state and the task it runs: actions are `start_<task>` and
# `resume_<task>`, and starting one is acknowledged by `ack_<task>`.
_TASKS = {
    StateKind.WASHING_LEGS: "wash_legs",
    StateKind.WASHING_BACK: "wash_back",
    StateKind.SCRUBBING_BACK: "scrub_back",
}
ACTIVE_STATES = frozenset(_TASKS)

# (state, command) -> the task state the command starts from that state
_STARTS = {
    (StateKind.IDLE, Command.WASH_LEGS): StateKind.WASHING_LEGS,
    (StateKind.IDLE, Command.WASH_BACK): StateKind.WASHING_BACK,
    (StateKind.WASHING_BACK, Command.SCRUB_BACK): StateKind.SCRUBBING_BACK,
}


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
    msg = FEEDBACK.get((key, lang)) or FEEDBACK.get((key, "en"))
    if msg is None:
        raise InvalidParameterError(f"no feedback entry for {key!r}")
    return msg


def fsm_step(state: FsmState, command, lang: str = "en") -> tuple[FsmState, tuple[str, ...], str]:
    """Apply one recognized command; returns (state, actions, feedback).

    `command` is a vocabulary command id or anything carrying one in a
    `.command` attribute (a fusion decision). Unknown ids raise, they are a
    protocol violation rather than a user mistake.
    """
    command = getattr(command, "command", command)
    try:
        cmd = Command(command)
    except ValueError:
        raise ProtocolError(f"unknown command id {command!r}") from None

    kind = state.kind
    started = _STARTS.get((kind, cmd))
    if kind == StateKind.HALTED:
        actions, key = (), "already_halted"
    elif cmd == Command.HALT:
        state, actions, key = FsmState(kind=StateKind.HALTED), ("halt_all",), "ack_halt"
    elif started is not None:
        state, actions, key = FsmState(kind=started), (f"start_{_TASKS[started]}",), f"ack_{_TASKS[started]}"
    elif kind in ACTIVE_STATES and cmd == Command.STOP:
        state, actions, key = FsmState(kind=StateKind.PAUSED, resume=kind), ("pause_task",), "ack_pause"
    elif kind == StateKind.PAUSED and cmd == Command.REPEAT:
        state, actions, key = FsmState(kind=state.resume), (f"resume_{_TASKS[state.resume]}",), "ack_resume"
    else:
        actions, key = (), "cannot_comply"
    return state, actions, feedback_message(key, lang)
