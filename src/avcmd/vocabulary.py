"""The online command vocabulary shared by audio, gesture, and session layers.

Six commands drive the two washing tasks. Each is spoken and has one
gestural motion pattern, so a single class id flows through both
recognizers and the fusion rule.
"""

from __future__ import annotations

from enum import IntEnum


class Command(IntEnum):
    WASH_LEGS = 0
    WASH_BACK = 1
    SCRUB_BACK = 2
    STOP = 3      # pause the running task
    REPEAT = 4    # continue / resume from pause
    HALT = 5      # emergency stop, absorbing


class MotionPattern(IntEnum):
    SWIPE_UP = 0
    SWIPE_DOWN = 1
    SWIPE_LEFT = 2
    SWIPE_RIGHT = 3
    CIRCLE_CW = 4
    SCRUB_OSCILLATE = 5
    BACKGROUND = 6


#: Out-of-vocabulary motion; clips with this label belong to no command.
BACKGROUND_LABEL = int(MotionPattern.BACKGROUND)

#: Gesture performed together with each spoken command in the A-G modality.
COMMAND_GESTURES: dict[Command, MotionPattern] = {
    Command.WASH_LEGS: MotionPattern.SWIPE_DOWN,
    Command.WASH_BACK: MotionPattern.SWIPE_UP,
    Command.SCRUB_BACK: MotionPattern.SCRUB_OSCILLATE,
    Command.STOP: MotionPattern.SWIPE_LEFT,
    Command.REPEAT: MotionPattern.CIRCLE_CW,
    Command.HALT: MotionPattern.SWIPE_RIGHT,
}


def command_name(value: int) -> str:
    return Command(value).name.lower()


def command_from_name(name: str) -> Command:
    try:
        return Command[name.upper()]
    except KeyError:
        raise ValueError(f"unknown command {name!r}") from None
