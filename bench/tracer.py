"""Layer-boundary tracing from outside the program.

Timing wrappers are installed at every module attribute through which a
caller can reach a public function: `avcmd.trajectories.dense_flow` as well
as `avcmd.flow.dense_flow`, because `from .flow import dense_flow` copies the
reference into the importing module. Methods are wrapped on their class.
Spans are kept in memory; a span's self time is its duration minus the time
covered by its direct child spans. Counters are derived from the arguments
and return values seen at the same boundaries.

Nothing under `src/` is modified: `install` records every attribute it
replaces and `restore` puts back the original objects, so after tracing each
patched attribute `is` the object it was before.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

# Public functions wrapped per module; "Class.method" wraps a method.
TARGETS: dict[str, tuple[str, ...]] = {
    "container": ("read_clip",),
    "trajectories": ("track", "sample_points", "write_features", "read_features"),
    "flow": ("dense_flow", "median_filter_3x3"),
    "encoding": (
        "train_codebook",
        "bovw_encode",
        "chi2_distance_matrix",
        "chi2_cross_matrix",
        "multichannel_gram",
        "cross_gram",
        "write_encoded",
        "read_encoded",
    ),
    "svm": ("train_kernel_svm", "KernelSvmModel.predict", "write_model", "read_model"),
    "gesture": (
        "extract_channel_descriptors",
        "encode_corpus",
        "evaluate_loo_bovw",
        "GesturePipeline.classify_clip",
    ),
    "mfcc": ("mfcc",),
    "audio": ("classify_command", "dtw_distance", "dtw_align", "adapt_speaker"),
    "detector": ("activity_score", "ActivityDetector.push"),
    "fsm": ("fsm_step",),
    "session": ("run_session", "fuse"),
}

# Functions whose per-call latency is a layer number in its own right.
HOT = frozenset(
    {
        "container.read_clip",
        "trajectories.track",
        "trajectories.sample_points",
        "flow.dense_flow",
        "flow.median_filter_3x3",
        "encoding.train_codebook",
        "encoding.bovw_encode",
        "encoding.chi2_distance_matrix",
        "svm.train_kernel_svm",
        "gesture.GesturePipeline.classify_clip",
        "mfcc.mfcc",
        "audio.classify_command",
        "audio.dtw_distance",
        "audio.dtw_align",
        "audio.adapt_speaker",
        "detector.activity_score",
    }
)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _path_size(args, kwargs, out) -> int:
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _dtw_cells(args, kwargs, out) -> int:
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return len(getattr(a, "frames", a)) * len(getattr(b, "frames", b))


# Counters taken at a boundary: span name -> [(counter, f(args, kwargs, result))].
_COUNT_HOOKS = {
    "trajectories.sample_points": [("trajectories.spawned", lambda a, k, out: len(out))],
    "trajectories.track": [("trajectories.kept", lambda a, k, out: len(out.trajectories))],
    "encoding.train_codebook": [("encoding.pool_rows", lambda a, k, out: len(_arg(a, k, 0, "descriptors")))],
    "svm.train_kernel_svm": [
        ("svm.smo_iterations", lambda a, k, out: sum(s.iterations for s in out.solutions)),
        ("svm.support_vectors", lambda a, k, out: sum(int(s.support.size) for s in out.solutions)),
    ],
    "audio.dtw_distance": [("audio.dtw_cells", _dtw_cells)],
    "audio.dtw_align": [("audio.dtw_cells", _dtw_cells)],
    "mfcc.mfcc": [("mfcc.frames", lambda a, k, out: len(out))],
    "detector.activity_score": [("detector.frames_scored", lambda a, k, out: 1)],
    "detector.ActivityDetector.push": [("detector.events", lambda a, k, out: len(out))],
    "container.read_clip": [("io.bytes_read", _path_size)],
    "trajectories.read_features": [("io.bytes_read", _path_size)],
    "encoding.read_encoded": [("io.bytes_read", _path_size)],
    "svm.read_model": [("io.bytes_read", _path_size)],
    "trajectories.write_features": [("io.bytes_written", _path_size)],
    "encoding.write_encoded": [("io.bytes_written", _path_size)],
    "svm.write_model": [("io.bytes_written", _path_size)],
}
COUNTERS = tuple(dict.fromkeys(c for hooks in _COUNT_HOOKS.values() for c, _ in hooks))


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        # (name, parent index or -1, start, end, self seconds)
        self.spans: list[tuple[str, int, float, float, float]] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def wrap(self, name: str, fn):
        hooks = _COUNT_HOOKS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append((name, parent, 0.0, 0.0, 0.0))  # placeholder keeps start order
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.spans[frame[0]] = (name, parent, t0, t1, (t1 - t0) - frame[1])
            for counter, count in hooks:
                self.counts[counter] += count(args, kwargs, out)
            return out

        return wrapper

    def covered_seconds(self) -> float:
        """Wall time inside top-level spans."""
        return sum(t1 - t0 for _, parent, t0, t1, _ in self.spans if parent < 0)

    def layer_metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); unused layers read 0."""
        calls = {name: 0 for name in span_names()}
        self_s = {name: 0.0 for name in span_names()}
        durations: dict[str, list[float]] = {name: [] for name in HOT}
        for name, _, t0, t1, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            if name in durations:
                durations[name].append(t1 - t0)
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            if name in HOT:
                d = durations[name]
                out[f"{name}.ms_p50"] = (1e3 * statistics.median(d) if d else 0.0, "ms")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        spawned = self.counts["trajectories.spawned"]
        out["trajectories.kept_per_spawned"] = (
            self.counts["trajectories.kept"] / spawned if spawned else 0.0,
            "ratio",
        )
        out["trace.coverage"] = (self.covered_seconds() / wall_s, "ratio")
        out["trace.overhead"] = (wall_s / untraced_wall_s - 1.0, "ratio")
        return out


def _loaded_modules():
    return [m for name, m in list(sys.modules.items()) if name == "avcmd" or name.startswith("avcmd.")]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns (owner, attribute, original) for `restore`."""
    patched: list[tuple[object, str, object]] = []
    for mod_name, fns in TARGETS.items():
        module = importlib.import_module(f"avcmd.{mod_name}")
        for fn in fns:
            name = f"{mod_name}.{fn}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(name, original))
                patched.append((cls, meth, original))
                continue
            original = getattr(module, fn)
            wrapper = tracer.wrap(name, original)
            for owner in _loaded_modules():
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        patched.append((owner, attr, original))
    return patched


def restore(patched: list[tuple[object, str, object]]) -> bool:
    """Undo `install`; True when every attribute is the original object again."""
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    return all(vars(owner)[attr] is original for owner, attr, original in patched)
