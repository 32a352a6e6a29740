"""Benchmark entry point.

    python3 bench/run.py --workload offline_build --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed (several times, reporting the
median as `setup_s`), then runs timed passes until `--seconds` have passed
(at least one) and checks every output. With `--trace 0` the last line of
standard output is the end-to-end result; with `--trace 1` one untraced and
one traced pass run, and the last line carries the per-layer metrics, the
tracing coverage and overhead. The line before it is a report with the
machine, the environment, every sample count, and the named figures of the
workload. The program is imported from `src/` next to this directory; the
run exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    """No more BLAS threads than usable cores; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= _nproc():
            os.environ[var] = str(_nproc())


def _blas_threads_in_use() -> int | None:
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(loadavg: tuple[float, float, float]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads_in_use(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_at_start": list(loadavg),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple[dict, dict]:
    """Returns (report, result); result is the contract's last-line object."""
    import tracer
    from workloads import SCALES, WORKLOADS

    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
              "environment": environment(os.getloadavg())}
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[workload](seed, workdir, SCALES[scale][workload])
        setup_s = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)

        passes = []
        t_begin = time.perf_counter()
        while not passes or (not trace and time.perf_counter() - t_begin < seconds):
            passes.append(wl.run_pass())
            wl.check(passes[-1])
        checks = {"passes_repeat_exactly": len({p.fingerprint for p in passes}) == 1}

        if trace:
            tr = tracer.Tracer()
            patched = tracer.install(tr)
            try:
                traced = wl.run_pass()
            finally:
                restored = tracer.restore(patched)
            wl.check(traced)
            checks["traced_equals_untraced"] = traced.fingerprint == passes[0].fingerprint
            checks["wrappers_restored"] = restored
            report["attributes_patched"] = len(patched)
            layer = tr.layer_metrics(traced.wall_s, passes[0].wall_s)
            passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    failed_checks = [k for k, ok in checks.items() if not ok]
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + len(failed_checks)
    report["checks"] = checks
    report["failures"] = [f for p in passes for f in p.failures] + failed_checks
    report["setup_s_samples"] = setup_s
    report["pass_wall_s"] = [p.wall_s for p in passes]

    if trace:
        values = layer
    else:
        end_to_end, report["named"] = wl.figures(passes)
        values = {"setup_s": (statistics.median(setup_s), "s"), **end_to_end, "peak_rss_mb": (_peak_rss_mb(), "MB")}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("offline_build", "session_stream", "speech_commands"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="input size; `tiny` is the self-tests' reduced pass")
    args = parser.parse_args(argv)

    if not (SRC / "avcmd" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'avcmd'})", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
