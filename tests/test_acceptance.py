"""Acceptance suite: every release criterion at its stated tolerance.

Heavy artifacts (the 7-class x 20-clip corpus with both visual streams) are
built once per session and shared. Each test delegates to the corresponding
selftest criterion and prints its pass/fail line, so this module and the CLI
`selftest` command verify exactly the same things.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from avcmd.selftest import (
    build_gesture_artifacts,
    criterion_audio,
    criterion_determinism,
    criterion_flow_oracle,
    criterion_fsm_replay,
    criterion_fusion_table,
    criterion_gesture_loo,
    criterion_kernel_gram,
    criterion_metrics_fixture,
    criterion_modalities,
    criterion_session,
    generator_calibration,
    report_bytes,
)

SEED = 42


@pytest.fixture(scope="session")
def artifacts():
    return build_gesture_artifacts(clips_per_class=20, seed=SEED, frames=24, size=96, k=64)


@pytest.fixture(scope="session")
def gesture_loo(artifacts):
    # 6 command classes + background, 20 clips each, leave-one-clip-out,
    # combined channels >= 90% and never beaten by a single channel by more
    # than 2 points; the whole thing within the 5-minute budget.
    return criterion_gesture_loo(artifacts, min_comb=0.90, max_deficit=0.02, budget_s=300.0)


def _check(result):
    print()
    print(result.line())
    assert result.passed, json.dumps(result.details, indent=2, default=str)


def test_generator_calibration():
    _check(generator_calibration(SEED))


def test_criterion_01_gesture_pipeline_loo(gesture_loo):
    _check(gesture_loo)


def test_criterion_02_rgb_vs_log_depth(artifacts, gesture_loo):
    # criterion 1's combined-channel LOO is the RGB figure
    _check(criterion_modalities(artifacts, gesture_loo.details["combined_accuracy"], floor=0.85))


def test_criterion_03_kernel_gram(artifacts):
    _check(criterion_kernel_gram(artifacts))


def test_criterion_04_flow_oracle():
    _check(criterion_flow_oracle())


def test_criterion_05_fusion_truth_table():
    _check(criterion_fusion_table())


def test_criterion_06_fsm_replay():
    _check(criterion_fsm_replay())


def test_criterion_07_metrics_fixture():
    _check(criterion_metrics_fixture())


def test_criterion_08_audio(artifacts):
    _check(criterion_audio(SEED, tests_per_command=20, min_top1=0.95))


def test_criterion_09_selftest_determinism():
    _check(criterion_determinism(SEED))


def test_criterion_10_end_to_end_session(artifacts):
    _check(criterion_session(artifacts.pipeline, SEED))


def _py(obj):
    """The coercion `report_bytes` replaced: numpy scalars and arrays to Python values, recursively."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    return obj


def test_report_bytes_equal_the_coerce_then_dump_oracle():
    details = {
        "f32": np.float32(0.1),
        "f64": np.float64(1 / 3),
        "i64": np.int64(-7),
        "flag": np.bool_(True),
        "matrix": np.array([[1.5, np.float32(3.25)], [-0.0, 4.0]], dtype=np.float32),
        "ints": np.arange(3),
        "mask": np.array([True, False]),
        "nested": ({"pair": (np.int64(2), np.float32(2.5))}, [np.bool_(False)]),
        "plain": [1, 2.5, None, "x", True],
    }
    report = {"profile": "smoke", "passed": True, "criteria": [{"number": 5, "details": details}]}
    want = (json.dumps(_py(report), indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert report_bytes(report) == want
