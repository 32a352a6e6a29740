from __future__ import annotations

import pytest

from avcmd.errors import InvalidParameterError, ProtocolError
from avcmd.fsm import ACTIVE_STATES, FEEDBACK, FsmState, StateKind, feedback_message, fsm_step
from avcmd.session import BACK_SCRIPT, LEGS_SCRIPT
from avcmd.vocabulary import Command


def run_steps(commands, state=None):
    state = state or FsmState.idle()
    trace = []
    for cmd in commands:
        state, actions, feedback = fsm_step(state, cmd)
        trace.append((state, actions, feedback))
    return state, trace


class TestTransitions:
    def test_start_tasks_from_idle(self):
        s, _, _ = fsm_step(FsmState.idle(), Command.WASH_LEGS)
        assert s.kind == StateKind.WASHING_LEGS
        s, _, _ = fsm_step(FsmState.idle(), Command.WASH_BACK)
        assert s.kind == StateKind.WASHING_BACK

    def test_scrub_only_from_washing_back(self):
        s, _, _ = fsm_step(FsmState(kind=StateKind.WASHING_BACK), Command.SCRUB_BACK)
        assert s.kind == StateKind.SCRUBBING_BACK
        s, _, fb = fsm_step(FsmState.idle(), Command.SCRUB_BACK)
        assert s.kind == StateKind.IDLE
        assert fb == feedback_message("cannot_comply")

    def test_stop_pauses_any_active_state(self):
        for active in ACTIVE_STATES:
            s, actions, _ = fsm_step(FsmState(kind=active), Command.STOP)
            assert s.kind == StateKind.PAUSED
            assert s.resume == active
            assert actions == ("pause_task",)

    def test_repeat_resumes_stored_target(self):
        paused = FsmState(kind=StateKind.PAUSED, resume=StateKind.WASHING_LEGS)
        s, actions, _ = fsm_step(paused, Command.REPEAT)
        assert s.kind == StateKind.WASHING_LEGS
        assert actions == ("resume_wash_legs",)

    def test_halt_reaches_halted_in_one_step_from_every_state(self):
        states = [
            FsmState.idle(),
            FsmState(kind=StateKind.WASHING_LEGS),
            FsmState(kind=StateKind.WASHING_BACK),
            FsmState(kind=StateKind.SCRUBBING_BACK),
            FsmState(kind=StateKind.PAUSED, resume=StateKind.SCRUBBING_BACK),
        ]
        for st in states:
            s, actions, _ = fsm_step(st, Command.HALT)
            assert s.kind == StateKind.HALTED
            assert actions == ("halt_all",)

    def test_halted_is_absorbing_with_refusal(self):
        halted = FsmState(kind=StateKind.HALTED)
        for cmd in Command:
            s, actions, fb = fsm_step(halted, cmd)
            assert s.kind == StateKind.HALTED
            assert actions == ()
            assert fb == feedback_message("already_halted")

    def test_invalid_pairs_leave_state_and_refuse(self):
        cases = [
            (FsmState.idle(), Command.REPEAT),
            (FsmState.idle(), Command.STOP),
            (FsmState(kind=StateKind.WASHING_LEGS), Command.WASH_BACK),
            (FsmState(kind=StateKind.WASHING_LEGS), Command.WASH_LEGS),
            (FsmState(kind=StateKind.WASHING_LEGS), Command.SCRUB_BACK),
            (FsmState(kind=StateKind.PAUSED, resume=StateKind.WASHING_BACK), Command.STOP),
            (FsmState(kind=StateKind.PAUSED, resume=StateKind.WASHING_BACK), Command.WASH_BACK),
        ]
        for state, cmd in cases:
            s, actions, fb = fsm_step(state, cmd)
            assert s == state
            assert actions == ()
            assert fb == feedback_message("cannot_comply")

    def test_unknown_command_id_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            fsm_step(FsmState.idle(), 42)

    def test_paused_state_requires_resume_target(self):
        with pytest.raises(InvalidParameterError):
            FsmState(kind=StateKind.PAUSED)
        with pytest.raises(InvalidParameterError):
            FsmState(kind=StateKind.IDLE, resume=StateKind.WASHING_LEGS)

    def test_decision_like_objects_accepted(self):
        class Decision:
            command = int(Command.WASH_LEGS)

        s, _, _ = fsm_step(FsmState.idle(), Decision())
        assert s.kind == StateKind.WASHING_LEGS


# Per state, the expected (next state, actions, feedback key) for each command
# in `Command` order: wash legs, wash back, scrub back, stop, repeat, halt.
# Written out by hand, not derived from the controller's tables.
_REFUSE = (None, (), "cannot_comply")  # None: the state stays
_HALT = ("halted", ("halt_all",), "ack_halt")
_ABSORB = (None, (), "already_halted")
EVERY_TRANSITION = {
    "idle": [
        ("washing_legs", ("start_wash_legs",), "ack_wash_legs"),
        ("washing_back", ("start_wash_back",), "ack_wash_back"),
        _REFUSE, _REFUSE, _REFUSE, _HALT,
    ],
    "washing_legs": [
        _REFUSE, _REFUSE, _REFUSE,
        ("paused:washing_legs", ("pause_task",), "ack_pause"),
        _REFUSE, _HALT,
    ],
    "washing_back": [
        _REFUSE, _REFUSE,
        ("scrubbing_back", ("start_scrub_back",), "ack_scrub_back"),
        ("paused:washing_back", ("pause_task",), "ack_pause"),
        _REFUSE, _HALT,
    ],
    "scrubbing_back": [
        _REFUSE, _REFUSE, _REFUSE,
        ("paused:scrubbing_back", ("pause_task",), "ack_pause"),
        _REFUSE, _HALT,
    ],
    "paused:washing_legs": [
        _REFUSE, _REFUSE, _REFUSE, _REFUSE,
        ("washing_legs", ("resume_wash_legs",), "ack_resume"),
        _HALT,
    ],
    "paused:washing_back": [
        _REFUSE, _REFUSE, _REFUSE, _REFUSE,
        ("washing_back", ("resume_wash_back",), "ack_resume"),
        _HALT,
    ],
    "paused:scrubbing_back": [
        _REFUSE, _REFUSE, _REFUSE, _REFUSE,
        ("scrubbing_back", ("resume_scrub_back",), "ack_resume"),
        _HALT,
    ],
    "halted": [_ABSORB] * 6,
}


def _state(text: str) -> FsmState:
    kind, _, resume = text.partition(":")
    return FsmState(kind=StateKind(kind), resume=StateKind(resume) if resume else None)


@pytest.mark.parametrize("lang", ["en", "de", "it", "fr"])
def test_every_transition(lang):
    assert len(EVERY_TRANSITION) == len(StateKind) - 1 + len(ACTIVE_STATES)
    for text, row in EVERY_TRANSITION.items():
        assert len(row) == len(Command)
        for cmd, (want, want_actions, key) in zip(Command, row):
            state = _state(text)
            got, actions, feedback = fsm_step(state, cmd, lang)
            assert got == (state if want is None else _state(want)), (text, cmd)
            assert actions == want_actions, (text, cmd)
            assert feedback == feedback_message(key, lang), (text, cmd)


class TestScriptReplay:
    def test_legs_sequence_states(self):
        state = FsmState.idle()
        expected = [
            StateKind.WASHING_LEGS,  # wash legs
            StateKind.PAUSED,        # stop
            StateKind.WASHING_LEGS,  # repeat
            StateKind.HALTED,        # halt
            StateKind.HALTED,        # wash legs refused
            StateKind.HALTED,        # halt refused (absorbing)
            StateKind.HALTED,
        ]
        for (step_id, cmd, _), want in zip(LEGS_SCRIPT, expected):
            state, actions, feedback = fsm_step(state, cmd)
            assert state.kind == want, f"step {step_id}"
            assert isinstance(feedback, str) and feedback
        assert state.kind == StateKind.HALTED

    def test_back_sequence_states(self):
        state = FsmState.idle()
        expected = [
            StateKind.WASHING_BACK,
            StateKind.HALTED,
            StateKind.HALTED,
            StateKind.HALTED,
            StateKind.HALTED,
            StateKind.HALTED,
            StateKind.HALTED,
        ]
        for (step_id, cmd, _), want in zip(BACK_SCRIPT, expected):
            state, _, feedback = fsm_step(state, cmd)
            assert state.kind == want, f"step {step_id}"
            assert isinstance(feedback, str) and feedback
        assert state.kind == StateKind.HALTED

    def test_exactly_one_feedback_per_step(self):
        for script in (LEGS_SCRIPT, BACK_SCRIPT):
            state = FsmState.idle()
            for _, cmd, _ in script:
                state, _, feedback = fsm_step(state, cmd)
                assert isinstance(feedback, str)
                assert feedback.strip()


class TestFeedbackTable:
    def test_all_keys_present_in_three_languages(self):
        keys = {k for k, _ in FEEDBACK}
        for key in keys:
            for lang in ("en", "de", "it"):
                assert (key, lang) in FEEDBACK

    def test_unknown_language_falls_back_to_english(self):
        assert feedback_message("ack_halt", "fr") == feedback_message("ack_halt", "en")

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            feedback_message("nope")
