"""Session metrics, learning curves, and the leave-one-subject-out protocol.

Every rate is reported with its numerator and denominator so any number in a
report can be recomputed from raw logs. Recognition is judged against the
scripted command for the step; user performance is the fraction of attempts
the user executed correctly per the script annotation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError, LeakageError, UndefinedMetricError
from .session import SessionLog
from .vocabulary import command_name


@dataclass(frozen=True)
class Rate:
    num: int
    den: int

    def __post_init__(self):
        if self.den < 0 or self.num < 0 or self.num > self.den:
            raise InvalidParameterError("rate numerator/denominator out of range")

    @property
    def pct(self) -> float:
        if self.den == 0:
            raise UndefinedMetricError("rate with zero denominator")
        return 100.0 * self.num / self.den

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.den, "pct": None if self.den == 0 else self.pct}


def _joined_entries(logs: list[SessionLog], script):
    """(entry, scripted command, step modality) per logged step; raises on a step the script lacks."""
    index = {step_id: (command, modality) for step_id, command, modality in script}
    for log in logs:
        for entry in log.entries:
            if entry.step_id not in index:
                raise InvalidParameterError(f"log step {entry.step_id} is not in the script")
            command, modality = index[entry.step_id]
            yield entry, command, modality


def _count(logs: list[SessionLog], script, judge, empty: str) -> Rate:
    """Hits among counted steps; judge(entry, command, modality) says (counted, hit) per logged step."""
    num = den = 0
    for row in _joined_entries(logs, script):
        counted, hit = judge(*row)
        if counted:
            den += 1
            num += int(hit)
    if den == 0:
        raise UndefinedMetricError(empty)
    return Rate(num=num, den=den)


def mcrr(logs: list[SessionLog], script) -> Rate:
    """Correctly recognized / correctly performed commands.

    Counts a command in the numerator only when the user performed it
    correctly and the system recognized the scripted command. Raises when no
    command was correctly performed: the ratio is undefined, not zero.
    """
    return _count(
        logs, script, lambda e, command, _: (e.performed_ok, e.recognized == command),
        "no correctly performed commands in the denominator",
    )


def accuracy(logs: list[SessionLog], script) -> Rate:
    """Correctly recognized / all attempted commands."""
    return _count(logs, script, lambda e, command, _: (True, e.recognized == command), "no attempted commands")


def user_performance(logs: list[SessionLog], script, modality: str | None = None) -> Rate:
    """Correctly performed / attempted, optionally split by step modality."""
    return _count(
        logs, script, lambda e, _, step_modality: (modality is None or step_modality == modality, e.performed_ok),
        "no attempts for the requested modality",
    )


@dataclass(frozen=True)
class CurvePoint:
    step_id: int
    command: int
    modality: str
    rate: Rate  # den == 0 flags a step absent from every log


def first_attempt_curve(logs: list[SessionLog], script) -> list[CurvePoint]:
    """Per script step, the fraction of users succeeding on their first try."""
    list(_joined_entries(logs, script))  # only for its check of every logged step
    points = []
    for step_id, command, modality in script:
        num = den = 0
        for log in logs:
            first = next((e for e in log.entries if e.step_id == step_id), None)
            if first is None:
                continue
            den += 1
            if first.performed_ok:
                num += 1
        points.append(CurvePoint(step_id=step_id, command=command, modality=modality, rate=Rate(num, den)))
    return points


def export_curve_csv(path: str | Path, points: list[CurvePoint]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step_id", "command", "modality", "rate", "n"])
        for p in points:
            rate = "" if p.rate.den == 0 else f"{p.rate.pct:.6f}"
            writer.writerow([p.step_id, command_name(p.command), p.modality, rate, p.rate.den])


# ---------------------------------------------------------------------------
# leave-one-subject-out protocol

@dataclass(frozen=True)
class LooSample:
    uid: str
    subject: str
    label: int


def loo_cv(samples: list[LooSample], trainer, classifier) -> dict[str, Rate]:
    """Leave one subject out; train on the rest, test on the held-out one.

    `trainer(train_indices)` builds a model from scratch (codebooks,
    normalizers, adaptation included); `classifier(model, test_index)`
    returns a label. Returns each subject's rate, in first-seen order. A uid
    listed under two subjects would train on its own test fold, so it is
    refused before any training.
    """
    owner: dict[str, str] = {}
    for s in samples:
        if owner.setdefault(s.uid, s.subject) != s.subject:
            raise LeakageError(
                f"sample {s.uid!r} is listed under subjects {owner[s.uid]!r} and {s.subject!r}; "
                "it would train on its own test fold"
            )
    subjects = np.array([s.subject for s in samples])
    order = list(dict.fromkeys(s.subject for s in samples))
    if len(order) < 2:
        raise DegenerateInputError("leave-one-out needs at least two subjects")

    per_subject: dict[str, Rate] = {}
    for subj in order:
        held_out = subjects == subj
        model = trainer(np.flatnonzero(~held_out))
        test_idx = np.flatnonzero(held_out)
        correct = sum(1 for i in test_idx if classifier(model, int(i)) == samples[i].label)
        per_subject[subj] = Rate(num=correct, den=int(test_idx.size))
    return per_subject


# ---------------------------------------------------------------------------
# report assembly

def task_report(logs: list[SessionLog], script) -> dict:
    """All session metrics for one task, JSON-ready."""
    out = {
        "mcrr": mcrr(logs, script).to_json(),
        "accuracy": accuracy(logs, script).to_json(),
        "user_performance": {
            "speech": user_performance(logs, script).to_json(),
            "gesture": _gesture_performance(logs, script),
        },
        "n_sessions": len(logs),
    }
    # Two averaging conventions: pooled counts vs mean of per-session rates.
    per_session = []
    for log in logs:
        try:
            per_session.append(accuracy([log], script).pct)
        except UndefinedMetricError:
            continue
    out["accuracy_avg_per_session"] = float(np.mean(per_session)) if per_session else None
    return out


def _gesture_performance(logs, script):
    try:
        return user_performance(logs, script, modality="A-G").to_json()
    except UndefinedMetricError:
        return Rate(0, 0).to_json()


def render_report_text(report: dict) -> str:
    """Plain-text table mirroring the per-task system/user performance layout."""
    lines = []
    header = f"{'task':<10} {'MCRR %':>8} {'Acc %':>8} {'Speech %':>9} {'Gesture %':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for task, stats in sorted(report.items()):
        m = stats["mcrr"]["pct"]
        a = stats["accuracy"]["pct"]
        s = stats["user_performance"]["speech"]["pct"]
        g = stats["user_performance"]["gesture"]["pct"]

        def fmt(v):
            return "  n/a" if v is None else f"{v:8.2f}"

        lines.append(f"{task:<10} {fmt(m):>8} {fmt(a):>8} {fmt(s):>9} {fmt(g):>10}")
    return "\n".join(lines) + "\n"


def write_report_json(path: str | Path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
