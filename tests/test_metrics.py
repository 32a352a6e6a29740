from __future__ import annotations

import csv

import pytest

from avcmd.errors import (
    DegenerateInputError,
    InvalidParameterError,
    LeakageError,
    UndefinedMetricError,
)
from avcmd.metrics import (
    CurvePoint,
    LooSample,
    Rate,
    accuracy,
    export_curve_csv,
    first_attempt_curve,
    loo_cv,
    mcrr,
    task_report,
    render_report_text,
    user_performance,
)
from avcmd.session import FusionSource, LogEntry, SessionLog
from avcmd.vocabulary import Command

W, S, R, H = (int(Command.WASH_LEGS), int(Command.STOP), int(Command.REPEAT), int(Command.HALT))

SCRIPT = [
    (1, W, "A"),
    (2, S, "A"),
    (3, R, "A-G"),
    (4, H, "A-G"),
]


def entry(step_id, performed_ok, recognized, source=FusionSource.SPEECH_ONLY):
    return LogEntry(
        step_id=step_id,
        performed_ok=performed_ok,
        recognized=recognized,
        source=None if recognized is None else source,
        latency_frames=None if recognized is None else 5,
        state_after="idle",
    )


def log(*entries):
    return SessionLog(entries=list(entries), final_state="halted")


class TestMcrr:
    def test_eight_of_ten(self):
        # 10 correctly performed, 8 recognized correctly
        entries = [entry(1, True, W if i < 8 else S) for i in range(10)]
        rate = mcrr([log(*entries)], [(1, W, "A")])
        assert rate.num == 8 and rate.den == 10
        assert rate.pct == 80.0

    def test_all_recognized(self):
        entries = [entry(1, True, W) for _ in range(5)]
        assert mcrr([log(*entries)], [(1, W, "A")]).pct == 100.0

    def test_zero_denominator_raises(self):
        entries = [entry(1, False, W)]
        with pytest.raises(UndefinedMetricError):
            mcrr([log(*entries)], [(1, W, "A")])

    def test_badly_performed_commands_excluded_from_both_sides(self):
        entries = [
            entry(1, True, W),    # counted, correct
            entry(1, False, W),   # performed wrong: excluded entirely
            entry(1, True, None), # performed right, not recognized
        ]
        rate = mcrr([log(*entries)], [(1, W, "A")])
        assert (rate.num, rate.den) == (1, 2)


class TestAccuracy:
    def test_all_correct(self):
        entries = [entry(1, True, W), entry(2, True, S)]
        assert accuracy([log(*entries)], SCRIPT).pct == 100.0

    def test_half_correct(self):
        entries = [entry(1, True, W), entry(2, True, W)]
        assert accuracy([log(*entries)], SCRIPT).pct == 50.0

    def test_empty_log_raises(self):
        with pytest.raises(UndefinedMetricError):
            accuracy([log()], SCRIPT)

    def test_mcrr_at_least_accuracy_when_only_user_errs(self):
        # user errors exist, system recognizes every correctly performed step
        entries = [
            entry(1, True, W),
            entry(2, False, None),
            entry(3, True, R),
            entry(4, False, H),
        ]
        logs = [log(*entries)]
        assert mcrr(logs, SCRIPT).pct == 100.0
        # steps 1, 3 recognized and performed; step 4 recognized though
        # performed wrong; step 2 unrecognized -> 3 of 4 attempts correct
        assert accuracy(logs, SCRIPT).pct == 75.0
        assert mcrr(logs, SCRIPT).pct >= accuracy(logs, SCRIPT).pct

    def test_mcrr_equals_accuracy_when_user_is_perfect(self):
        entries = [entry(1, True, W), entry(2, True, None), entry(3, True, R), entry(4, True, H)]
        logs = [log(*entries)]
        assert mcrr(logs, SCRIPT).pct == accuracy(logs, SCRIPT).pct

    def test_unknown_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            accuracy([log(entry(99, True, W))], SCRIPT)


class TestUserPerformance:
    def test_all_correct(self):
        entries = [entry(1, True, W), entry(3, True, R)]
        assert user_performance([log(*entries)], SCRIPT).pct == 100.0

    def test_none_correct(self):
        entries = [entry(1, False, None)]
        assert user_performance([log(*entries)], SCRIPT).pct == 0.0

    def test_modality_split_hand_tally(self):
        entries = [
            entry(1, True, W),    # A
            entry(2, False, None),  # A
            entry(3, True, R),    # A-G
            entry(4, True, H),    # A-G
        ]
        logs = [log(*entries)]
        a = user_performance(logs, SCRIPT, modality="A")
        ag = user_performance(logs, SCRIPT, modality="A-G")
        assert (a.num, a.den) == (1, 2)
        assert (ag.num, ag.den) == (2, 2)

    def test_empty_raises(self):
        with pytest.raises(UndefinedMetricError):
            user_performance([log()], SCRIPT)


class TestFirstAttemptCurve:
    def test_single_user_all_success(self):
        entries = [entry(i, True, W) for i, _, _ in SCRIPT]
        points = first_attempt_curve([log(*entries)], SCRIPT)
        assert all(p.rate.pct == 100.0 for p in points)

    def test_absent_step_flagged_with_zero_denominator(self):
        entries = [entry(1, True, W)]
        points = first_attempt_curve([log(*entries)], SCRIPT)
        assert points[0].rate.den == 1
        assert all(p.rate.den == 0 for p in points[1:])

    def test_four_user_fixture_hand_computed(self):
        logs = [
            log(entry(1, True, W), entry(2, True, S)),
            log(entry(1, True, W), entry(2, False, None)),
            log(entry(1, False, None), entry(2, True, S)),
            log(entry(1, True, W)),
        ]
        points = first_attempt_curve(logs, SCRIPT)
        assert (points[0].rate.num, points[0].rate.den) == (3, 4)
        assert (points[1].rate.num, points[1].rate.den) == (2, 3)

    def test_only_first_attempt_counts(self):
        logs = [log(entry(1, False, None), entry(1, True, W))]
        points = first_attempt_curve(logs, SCRIPT)
        assert (points[0].rate.num, points[0].rate.den) == (0, 1)

    def test_csv_export(self, tmp_path):
        points = [
            CurvePoint(step_id=1, command=W, modality="A", rate=Rate(3, 4)),
            CurvePoint(step_id=2, command=S, modality="A-G", rate=Rate(0, 0)),
        ]
        path = tmp_path / "curve.csv"
        export_curve_csv(path, points)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["step_id", "command", "modality", "rate", "n"]
        assert rows[1][0] == "1" and rows[1][1] == "wash_legs" and rows[1][4] == "4"
        assert rows[2][3] == "" and rows[2][4] == "0"


class TestLooCv:
    def _samples(self):
        return [
            LooSample(uid="a1", subject="alice", label=0),
            LooSample(uid="a2", subject="alice", label=1),
            LooSample(uid="b1", subject="bob", label=0),
            LooSample(uid="b2", subject="bob", label=1),
        ]

    def test_majority_trainer_hand_checkable(self):
        samples = [
            LooSample(uid="a1", subject="alice", label=0),
            LooSample(uid="a2", subject="alice", label=0),
            LooSample(uid="b1", subject="bob", label=1),
        ]

        def trainer(train_idx):
            labels = [samples[i].label for i in train_idx]
            return max(set(labels), key=labels.count)

        def classifier(model, test_idx):
            return model

        result = loo_cv(samples, trainer, classifier)
        # alice fold trains on bob (majority 1) -> both alice samples wrong;
        # bob fold trains on alice (majority 0) -> bob sample wrong
        assert result == {"alice": Rate(0, 2), "bob": Rate(0, 1)}

    def test_identical_data_perfect_classifier_is_100(self):
        samples = self._samples()

        def trainer(train_idx):
            return {samples[i].uid[-1]: samples[i].label for i in train_idx}

        def classifier(model, test_idx):
            return model[samples[test_idx].uid[-1]]

        result = loo_cv(samples, trainer, classifier)
        assert result == {"alice": Rate(2, 2), "bob": Rate(2, 2)}

    def test_leakage_injection_detected(self):
        samples = self._samples()
        samples.append(LooSample(uid="a1", subject="bob", label=0))  # duplicated clip
        calls = []
        with pytest.raises(LeakageError, match="'a1'"):
            loo_cv(samples, calls.append, lambda m, i: 0)
        assert calls == []

    def test_rates_per_subject_in_first_seen_order(self):
        samples = [
            LooSample(uid="c1", subject="carol", label=1),
            LooSample(uid="a1", subject="alice", label=0),
            LooSample(uid="c2", subject="carol", label=0),
            LooSample(uid="b1", subject="bob", label=1),
            LooSample(uid="a2", subject="alice", label=1),
        ]
        folds = []

        def trainer(train_idx):
            folds.append(train_idx.tolist())
            return None

        result = loo_cv(samples, trainer, lambda model, i: 1)
        assert list(result) == ["carol", "alice", "bob"]
        assert result == {"carol": Rate(1, 2), "alice": Rate(1, 2), "bob": Rate(1, 1)}
        assert folds == [[1, 3, 4], [0, 2, 3], [0, 1, 2, 4]]

    def test_needs_two_subjects(self):
        samples = [LooSample(uid="a1", subject="alice", label=0)]
        with pytest.raises(DegenerateInputError):
            loo_cv(samples, lambda idx: None, lambda m, i: 0)

    def test_trainer_never_sees_test_subject(self):
        samples = self._samples()
        seen = {}

        def trainer(train_idx):
            subjects = {samples[i].subject for i in train_idx}
            seen[frozenset(subjects)] = True
            return subjects

        def classifier(model, test_idx):
            assert samples[test_idx].subject not in model
            return samples[test_idx].label

        loo_cv(samples, trainer, classifier)
        assert frozenset({"bob"}) in seen and frozenset({"alice"}) in seen


class TestReport:
    def test_task_report_round_numbers(self):
        entries = [entry(1, True, W), entry(2, True, S), entry(3, True, R), entry(4, True, H)]
        report = {"legs": task_report([log(*entries)], SCRIPT)}
        assert report["legs"]["mcrr"]["pct"] == 100.0
        assert report["legs"]["accuracy"]["num"] == 4
        text = render_report_text(report)
        assert "legs" in text and "MCRR" in text

    def test_rates_recomputable_from_counts(self):
        entries = [entry(1, True, W), entry(2, False, None), entry(3, True, R)]
        report = task_report([log(*entries)], SCRIPT)
        for key in ("mcrr", "accuracy"):
            blob = report[key]
            assert blob["pct"] == pytest.approx(100.0 * blob["num"] / blob["den"])
