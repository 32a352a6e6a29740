"""Self-tests of the benchmark: `python3 -m pytest bench`.

A reduced-size (`--scale tiny`) pass of every workload, traced and
untraced, must finish and print every metric that BENCHMARK.json names, with
its unit. Installing and removing the tracer's wrappers must leave every
patched attribute `is`-identical to the original.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import avcmd  # noqa: E402
import numpy as np  # noqa: E402
import tracer  # noqa: E402
from avcmd import audio, detector, frames, gesture, svm, trajectories  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_pass_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = json.loads(report_line)
    assert report["environment"]["nproc"] >= 1
    if trace == "1":
        assert report["checks"]["traced_equals_untraced"] and report["checks"]["wrappers_restored"]
        assert 0.0 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    else:
        assert all({"value", "unit", "n"} <= set(m) for m in report["named"].values())


def test_missing_program_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "speech_commands", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _attribute_snapshot():
    modules = [m for name, m in sys.modules.items() if name == "avcmd" or name.startswith("avcmd.")]
    classes = [svm.KernelSvmModel, gesture.GesturePipeline, detector.ActivityDetector]
    return {(owner, attr): value for owner in modules + classes for attr, value in list(vars(owner).items())}


def test_install_then_restore_leaves_attributes_identical():
    for mod in tracer.TARGETS:
        importlib.import_module(f"avcmd.{mod}")  # install imports them; load first
    before = _attribute_snapshot()
    patched = tracer.install(tracer.Tracer())
    try:
        # the name callers resolve is wrapped, not only the defining module's
        assert trajectories.dense_flow is not before[(trajectories, "dense_flow")]
        assert avcmd.mfcc is not before[(avcmd, "mfcc")]
        assert {f"{mod}.{fn}" for mod, fns in tracer.TARGETS.items() for fn in fns} == set(tracer.span_names())
    finally:
        assert tracer.restore(patched)
    after = _attribute_snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_spans_counts_and_self_time_at_caller_names():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 255, (56, 56)).astype(np.uint8)
    clip = frames.Clip(
        frames=tuple(frames.GrayFrame.from_array(np.roll(base, t, axis=1)) for t in range(16)),
        fps=15.0, modality=frames.Modality.RGB,
    )
    tr = tracer.Tracer()
    patched = tracer.install(tr)
    try:
        result = trajectories.track(clip)
        a, b = rng.normal(size=(4, 39)), rng.normal(size=(6, 39))
        audio.dtw_align(a, b)
    finally:
        assert tracer.restore(patched)
    layer = tr.layer_metrics(wall_s=1.0, untraced_wall_s=1.0)
    value = {name: v for name, (v, _) in layer.items()}
    assert value["trajectories.track.calls"] == 1
    assert value["flow.dense_flow.calls"] == 15  # reached through trajectories.dense_flow
    assert value["flow.median_filter_3x3.calls"] == 30
    assert value["trajectories.kept"] == len(result.trajectories)
    assert value["trajectories.spawned"] >= value["trajectories.kept"]
    assert value["audio.dtw_cells"] == 24
    track_span = next(s for s in tr.spans if s[0] == "trajectories.track")
    children = sum(s[3] - s[2] for s in tr.spans if s[1] == tr.spans.index(track_span))
    assert track_span[4] == pytest.approx((track_span[3] - track_span[2]) - children)
    assert 0.0 <= value["trajectories.track.self_s"] <= track_span[3] - track_span[2]
