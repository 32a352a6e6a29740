"""Self-contained verification suite over generated ground-truth corpora.

Each criterion function returns a result record with a pass flag and the
measured numbers, so the same checks back both the CLI `selftest` command
and the automated test suite. The `full` profile runs everything at
reference scale; `smoke` runs the same stages on a reduced corpus, mainly to
exercise every code path quickly and to serve as the determinism probe.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .audio import Hypothesis, adapt_speaker, classify_command, default_grammar, dtw_distance
from .detector import activity_scores
from .encoding import CHANNEL_ORDER, channel_mean_distance, multichannel_gram
from .errors import NoInputError, UndefinedMetricError
from .flow import binomial_blur, dense_flow
from .fsm import FsmState, StateKind, fsm_step
from .gesture import (
    GesturePipeline,
    chi2_distances,
    encode_corpus,
    evaluate_loo_bovw,
    extract_channel_descriptors,
    train_bovw_model,
)
from .mfcc import FEATURE_DIM, MfccSeq, mfcc
from .metrics import accuracy, first_attempt_curve, mcrr, user_performance
from .session import (
    BACK_SCRIPT,
    LEGS_SCRIPT,
    FusionSource,
    LogEntry,
    NBest,
    SessionLog,
    SessionModels,
    SessionParams,
    fuse,
    run_session,
)
from .svm import DEFAULT_C
from .synth import (
    MotionPattern,
    build_session_streams,
    default_spec,
    generate_command_audio,
    generate_gesture_clip,
    iter_corpus,
)
from .vocabulary import Command


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name}"


# ---------------------------------------------------------------------------
# shared corpus artifacts

# Descriptors each selftest codebook is learned on at most.
SELFTEST_SUBSAMPLE = 20_000
# Every speech template's SNR in dB, the clips criterion 3's Gram covers at
# most, and criterion 4's texture side in pixels and seed.
TEMPLATE_SNR_DB = 30.0
GRAM_CHECK_CLIPS = 50
FLOW_CHECK_SIZE, FLOW_CHECK_SEED = 64, 7


@dataclass
class GestureArtifacts:
    labels: np.ndarray
    dists_rgb: dict
    dists_depth: dict
    hists_rgb: dict
    codebooks_rgb: dict
    extract_seconds: float


def build_gesture_artifacts(
    clips_per_class: int,
    seed: int,
    frames: int = 24,
    size: int = 96,
    k: int = 64,
) -> GestureArtifacts:
    """The selftest corpus, tracked and encoded with the default tracker; each
    sample is rendered, tracked and dropped before the next is rendered."""
    t0 = time.monotonic()
    labels, per_rgb, per_depth = [], [], []
    for sample in iter_corpus(clips_per_class, seed, frames, size):
        labels.append(sample.label)
        per_rgb.append(extract_channel_descriptors(sample.rgb))
        per_depth.append(extract_channel_descriptors(sample.depth))
    hists_rgb, codebooks_rgb = encode_corpus(per_rgb, k=k, seed=seed + 1, subsample=SELFTEST_SUBSAMPLE)
    hists_depth, _ = encode_corpus(per_depth, k=k, seed=seed + 1, subsample=SELFTEST_SUBSAMPLE)
    return GestureArtifacts(
        labels=np.asarray(labels),
        dists_rgb=chi2_distances(hists_rgb),
        dists_depth=chi2_distances(hists_depth),
        hists_rgb=hists_rgb,
        codebooks_rgb=codebooks_rgb,
        extract_seconds=time.monotonic() - t0,
    )


def pipeline_from_artifacts(art: GestureArtifacts) -> GesturePipeline:
    model = train_bovw_model(art.hists_rgb, art.dists_rgb, art.labels, DEFAULT_C, art.codebooks_rgb)
    return GesturePipeline(codebooks=art.codebooks_rgb, model=model)


def build_audio_templates(seed: int, per_command: int = 3):
    templates: dict[int, list[MfccSeq]] = {}
    for cmd in Command:
        for i in range(per_command):
            wave = generate_command_audio(int(cmd), seed + 17 * int(cmd) + i, TEMPLATE_SNR_DB)
            templates.setdefault(int(cmd), []).append(mfcc(wave, 16000))
    return templates


# ---------------------------------------------------------------------------
# criteria

def criterion_gesture_loo(art: GestureArtifacts, min_comb: float, max_deficit: float,
                          budget_s: float) -> CriterionResult:
    """Leave-one-clip-out on the RGB corpus: combined vs single channels."""
    t0 = time.monotonic()
    comb = evaluate_loo_bovw(art.dists_rgb, art.labels)
    singles = {ch.name: evaluate_loo_bovw(art.dists_rgb, art.labels, channels=(ch,)) for ch in CHANNEL_ORDER}
    elapsed = art.extract_seconds + (time.monotonic() - t0)
    deficit = max(acc - comb for acc in singles.values())
    passed = comb >= min_comb and deficit <= max_deficit and elapsed <= budget_s
    return CriterionResult(
        1,
        "combined BoVW chi-square pipeline beats the accuracy floor and every single channel",
        passed,
        {
            "combined_accuracy": comb,
            "single_channel_accuracy": singles,
            "worst_single_minus_comb": deficit,
            "threshold": min_comb,
            # wall-clock goes into the volatile key so canonical reports stay
            # byte-identical across runs; the budget verdict is what is kept
            "runtime_seconds": round(elapsed, 2),
            "within_runtime_budget": bool(elapsed <= budget_s),
            "runtime_budget_seconds": budget_s,
        },
    )


def criterion_modalities(art: GestureArtifacts, rgb: float, floor: float) -> CriterionResult:
    """The identical pipeline on the RGB stream and the log-depth stream.

    `rgb` is criterion 1's combined-channel accuracy, the same LOO on the
    same distances, so only the log-depth LOO runs here.
    """
    depth = evaluate_loo_bovw(art.dists_depth, art.labels)
    passed = rgb >= floor and depth >= floor
    return CriterionResult(
        2,
        "pipeline reaches the floor on both RGB and log-depth streams unmodified",
        passed,
        {"rgb_accuracy": rgb, "log_depth_accuracy": depth, "floor": floor},
    )


def criterion_kernel_gram(art: GestureArtifacts) -> CriterionResult:
    """Symmetry, unit diagonal, and near-PSD of a multichannel Gram."""
    take = min(GRAM_CHECK_CLIPS, art.labels.shape[0])
    dists = {ch: d[:take, :take] for ch, d in art.dists_rgb.items()}
    means = {ch: channel_mean_distance(d) for ch, d in dists.items()}
    gram = multichannel_gram(dists, means)
    symmetric = bool(np.array_equal(gram, gram.T))
    unit_diag = bool(np.all(np.diag(gram) == 1.0))
    min_eig = float(np.min(np.linalg.eigvalsh(gram)))
    passed = symmetric and unit_diag and min_eig >= -1e-8
    return CriterionResult(
        3,
        "multichannel kernel Gram is symmetric, unit-diagonal, and near-PSD",
        passed,
        {"n": take, "symmetric": symmetric, "unit_diagonal": unit_diag, "min_eigenvalue": min_eig},
    )


def criterion_flow_oracle() -> CriterionResult:
    """Integer translations recovered by the interior flow median."""
    rng = np.random.default_rng(FLOW_CHECK_SEED)
    size, margin = FLOW_CHECK_SIZE, 8
    tex = binomial_blur(rng.standard_normal((size + 2 * margin, size + 2 * margin)), "wrap")
    tex = ((tex - tex.min()) / (tex.max() - tex.min()) * 215 + 20).astype(np.uint8)

    worst = 0.0
    cases = []
    for d in (-4, -3, -2, -1, 1, 2, 3, 4):
        for dx, dy in ((d, 0), (0, d)):
            prev = tex[margin : margin + size, margin : margin + size]
            nxt = tex[margin - dy : margin - dy + size, margin - dx : margin - dx + size]
            f = dense_flow(prev, nxt)
            mu, mv = (float(np.median(c)) for c in f[:, 12:-12, 12:-12])
            err = max(abs(mu - dx), abs(mv - dy))
            worst = max(worst, err)
            cases.append({"dx": dx, "dy": dy, "median_u": mu, "median_v": mv})
    passed = worst <= 0.25
    return CriterionResult(
        4,
        "dense flow recovers +/-1..4 px translations within 0.25 px",
        passed,
        {"worst_error_px": worst, "cases": cases},
    )


def criterion_fusion_table() -> CriterionResult:
    """All eight presence-by-membership cases of the late-fusion rule."""
    sp = lambda *cmds: NBest(hypotheses=tuple(Hypothesis(command=c, score=i * 0.1) for i, c in enumerate(cmds)))
    stop, halt, rep = int(Command.STOP), int(Command.HALT), int(Command.REPEAT)
    g = [(stop, 2.0), (halt, 1.0)]
    rows = (
        # the published ranking-rule case: best speech is among the 2-best gestures
        ("agree_first", sp(stop, rep), g, (stop, FusionSource.AGREED)),
        ("agree_second", sp(halt, stop), g, (halt, FusionSource.AGREED)),
        ("disagree_speech_priority", sp(rep), g, (rep, FusionSource.SPEECH_ONLY)),
        ("speech_only_none", sp(stop, rep), None, (stop, FusionSource.SPEECH_ONLY)),
        ("speech_only_empty_list", sp(rep), [], (rep, FusionSource.SPEECH_ONLY)),
        ("gesture_only_none", None, g, (stop, FusionSource.GESTURE_ONLY)),
        ("gesture_only_empty_nbest", NBest.empty(), g, (stop, FusionSource.GESTURE_ONLY)),
        ("neither_raises", NBest.empty(), [], "no-input error"),
    )
    checks = []
    for case, speech, gesture, want in rows:
        try:
            d = fuse(speech, gesture)
            got = (d.command, d.source)
        except NoInputError:
            got = "no-input error"
        checks.append({"case": case, "ok": got == want, "got": str(got), "want": str(want)})
    passed = all(c["ok"] for c in checks)
    return CriterionResult(5, "late-fusion truth table is exact on all 8 cases", passed, {"cases": checks})


_LEGS_EXPECTED = ["washing_legs", "paused:washing_legs", "washing_legs", "halted", "halted", "halted", "halted"]
_BACK_EXPECTED = ["washing_back", "halted", "halted", "halted", "halted", "halted", "halted"]


def criterion_fsm_replay() -> CriterionResult:
    """Both built-in seven-step scripts replayed from idle."""
    results = []
    for name, script, expected in (("legs", LEGS_SCRIPT, _LEGS_EXPECTED), ("back", BACK_SCRIPT, _BACK_EXPECTED)):
        state = FsmState.idle()
        trace = []
        feedback_ok = True
        for _, cmd, _ in script:
            state, _, feedback = fsm_step(state, cmd)
            trace.append(state.describe())
            feedback_ok = feedback_ok and isinstance(feedback, str) and bool(feedback.strip())
        results.append(
            {
                "script": name,
                "trace": trace,
                "expected": expected,
                "ok": trace == expected and feedback_ok and state.kind == StateKind.HALTED,
            }
        )
    passed = all(r["ok"] for r in results)
    return CriterionResult(
        6, "dialogue FSM replays both validation scripts to a halted end state", passed, {"scripts": results}
    )


def criterion_metrics_fixture() -> CriterionResult:
    """Hand-tallied three-user fixture; zero denominator must raise."""
    w, s, h = int(Command.WASH_LEGS), int(Command.STOP), int(Command.HALT)
    script = [(1, w, "A"), (2, s, "A"), (3, h, "A-G")]

    def entry(sid, ok, rec):
        return LogEntry(sid, ok, rec, FusionSource.SPEECH_ONLY if rec is not None else None,
                        3 if rec is not None else None, "idle")

    logs = [
        SessionLog(entries=[entry(1, True, w), entry(2, True, s), entry(3, True, h)]),
        SessionLog(entries=[entry(1, True, w), entry(2, False, None), entry(3, True, None)]),
        SessionLog(entries=[entry(1, False, w), entry(2, True, s), entry(3, False, None)]),
    ]
    # hand tally: 6 of 9 attempts performed correctly; of those 6, five were
    # also recognized (user 2 missed step 3); recognized-correct overall is
    # 6 of 9 (user 3's step 1 was recognized despite being performed wrong);
    # the single A-G step was performed correctly by 2 of 3 users
    m = mcrr(logs, script)
    a = accuracy(logs, script)
    up_all = user_performance(logs, script)
    up_ag = user_performance(logs, script, modality="A-G")
    curve = first_attempt_curve(logs, script)
    zero_denominator_raises = False
    try:
        mcrr([SessionLog(entries=[entry(1, False, None)])], script)
    except UndefinedMetricError:
        zero_denominator_raises = True
    checks = {
        "mcrr": (m.num, m.den) == (5, 6),
        "accuracy": (a.num, a.den) == (6, 9),
        "user_performance": (up_all.num, up_all.den) == (6, 9),
        "user_performance_ag": (up_ag.num, up_ag.den) == (2, 3),
        "curve_step1": (curve[0].rate.num, curve[0].rate.den) == (2, 3),
        "zero_denominator_raises": zero_denominator_raises,
    }
    passed = all(checks.values())
    return CriterionResult(
        7,
        "session metrics equal the hand-computed fixture values exactly",
        passed,
        {"checks": checks, "mcrr_pct": m.pct, "accuracy_pct": a.pct},
    )


def criterion_audio(seed: int, tests_per_command: int, min_top1: float) -> CriterionResult:
    grammar = default_grammar()
    templates = build_audio_templates(seed)

    correct = 0
    for cmd in Command:
        for i in range(tests_per_command):
            wave = generate_command_audio(int(cmd), seed + 9000 + 131 * int(cmd) + i, 20.0)
            correct += int(classify_command(mfcc(wave, 16000), templates, grammar).top.command == int(cmd))
    top1 = correct / (len(Command) * tests_per_command)

    # recover an injected affine distortion from enrollment data
    rng = np.random.default_rng(seed + 5)
    a_true = np.eye(FEATURE_DIM) + 0.05 * rng.standard_normal((FEATURE_DIM, FEATURE_DIM))
    b_true = 0.3 * rng.standard_normal(FEATURE_DIM)
    enrollment = [(cmd, MfccSeq(frames=temps[0].frames @ a_true.T + b_true)) for cmd, temps in templates.items()]
    fitted = adapt_speaker(templates, enrollment)
    a_inv = np.linalg.inv(a_true)
    b_inv = -a_inv @ b_true
    a_err = float(np.linalg.norm(fitted.a - a_inv) / np.linalg.norm(a_inv))
    b_err = float(np.linalg.norm(fitted.b - b_inv) / max(np.linalg.norm(b_inv), 1e-12))

    # dynamic programming vs exhaustive path enumeration on 3x3-frame cases
    def brute(a, b):
        best = np.inf
        stack = [((0, 0), float(np.linalg.norm(a[0] - b[0])))]
        while stack:
            (i, j), cost = stack.pop()
            if (i, j) == (2, 2):
                best = min(best, cost)
                continue
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                ni, nj = i + di, j + dj
                if ni < 3 and nj < 3:
                    stack.append(((ni, nj), cost + float(np.linalg.norm(a[ni] - b[nj]))))
        return best / 6.0

    dtw_ok = True
    dtw_worst = 0.0
    for case in range(10):
        crng = np.random.default_rng(seed + 100 + case)
        fa = crng.normal(size=(3, 5))
        fb = crng.normal(size=(3, 5))
        got = dtw_distance(fa, fb)
        want = brute(fa, fb)
        dtw_worst = max(dtw_worst, abs(got - want))
        dtw_ok = dtw_ok and abs(got - want) <= 1e-10

    passed = top1 >= min_top1 and a_err <= 1e-3 and b_err <= 1e-3 and dtw_ok
    return CriterionResult(
        8,
        "spoken-command matching, speaker adaptation recovery, and DTW-vs-enumeration",
        passed,
        {
            "top1": top1,
            "top1_floor": min_top1,
            "adaptation_relative_error_a": a_err,
            "adaptation_relative_error_b": b_err,
            "dtw_worst_abs_difference": dtw_worst,
        },
    )


def criterion_determinism(seed: int) -> CriterionResult:
    """Two smoke selftests from the same seed must serialize identically."""
    b1 = report_bytes(run_selftest(profile="smoke", seed=seed))
    b2 = report_bytes(run_selftest(profile="smoke", seed=seed))
    passed = b1 == b2
    return CriterionResult(
        9,
        "selftest reports are byte-identical across runs with the same seed",
        passed,
        {"bytes": len(b1), "identical": passed},
    )


def criterion_session(pipeline: GesturePipeline, seed: int) -> CriterionResult:
    templates = build_audio_templates(seed + 40)
    models = SessionModels(gesture=pipeline, templates=templates, grammar=default_grammar())
    params = SessionParams()

    clean = build_session_streams(LEGS_SCRIPT, seed=seed + 41)
    clean_log = run_session(clean.video, clean.audio_events, clean.steps, models, params)
    clean_mcrr = mcrr([clean_log], LEGS_SCRIPT).pct

    noisy = build_session_streams(LEGS_SCRIPT, seed=seed + 41, gesture_noise=True)
    noisy_log = run_session(noisy.video, noisy.audio_events, noisy.steps, models, params)
    noisy_mcrr = mcrr([noisy_log], LEGS_SCRIPT).pct
    ag_sources = [
        e.source for e, (_, _, modality) in zip(noisy_log.entries, LEGS_SCRIPT) if modality == "A-G"
    ]
    all_speech_only = all(s == FusionSource.SPEECH_ONLY for s in ag_sources)

    passed = (
        clean_mcrr == 100.0
        and noisy_mcrr == 100.0
        and all_speech_only
        and clean_log.final_state == "halted"
    )
    return CriterionResult(
        10,
        "scripted session: clean streams at 100% MCRR; gesture ablation falls back to speech",
        passed,
        {
            "clean_mcrr": clean_mcrr,
            "clean_final_state": clean_log.final_state,
            "clean_sources": [e.source.value if e.source else None for e in clean_log.entries],
            "ablated_mcrr": noisy_mcrr,
            "ablated_ag_sources": [s.value if s else None for s in ag_sources],
        },
    )


def generator_calibration(seed: int) -> CriterionResult:
    """Generator-level properties the other criteria rely on."""
    # clean command patterns vs the spread among noisy speaker renditions
    canon = {int(c): mfcc(generate_command_audio(int(c), 0, 120.0), 16000) for c in Command}
    inter = min(
        dtw_distance(canon[a], canon[b])
        for a in canon
        for b in canon
        if a < b
    )
    intra = []
    for c in canon:
        feats = [mfcc(generate_command_audio(c, seed + 1000 * c + i, 20.0), 16000) for i in range(4)]
        intra.extend(
            dtw_distance(feats[i], feats[j]) for i in range(4) for j in range(i + 1, 4)
        )
    separation = inter / float(np.mean(intra))

    # background drift never reaches the activity trigger
    bg = generate_gesture_clip(default_spec(MotionPattern.BACKGROUND), seed + 3, frames=24)
    bg_max = max(activity_scores(bg.rgb.frames, SessionParams.tau_noise))

    # noise-free swipe: flow on the limb equals amplitude/period per frame
    spec = replace(default_spec(MotionPattern.SWIPE_RIGHT), noise_sigma=0.0)
    clean = generate_gesture_clip(spec, seed + 4, frames=20)
    speed = spec.amplitude / spec.period
    field = dense_flow(clean.rgb.frames[5], clean.rgb.frames[6])
    size = clean.rgb.width
    cx = size / 2.0 + (5.5 / spec.period - 0.5) * spec.amplitude
    half_w, half_l = spec.limb_w // 2 - 2, spec.limb_len // 2 - 2
    region = field[:, int(size / 2 - half_l) : int(size / 2 + half_l), int(cx - half_w) : int(cx + half_w)]
    flow_err = max(abs(float(np.median(region[0])) - speed), abs(float(np.median(region[1]))))

    passed = separation >= 5.0 and bg_max < SessionParams.theta_on and flow_err <= 0.25
    return CriterionResult(
        0,
        "generator calibration: audio separation, background activity bound, flow ground truth",
        passed,
        {
            "audio_pattern_separation": separation,
            "background_max_activity": bg_max,
            "activity_trigger": SessionParams.theta_on,
            "swipe_flow_error_px": flow_err,
        },
    )


# ---------------------------------------------------------------------------
# profiles

#: wall-clock measurements; never serialized into the canonical report
_VOLATILE_KEYS = frozenset({"runtime_seconds"})

_PROFILES = {
    "full": {
        "clips_per_class": 20,
        "frames": 24,
        "size": 96,
        "k": 64,
        "audio_tests": 20,
        "loo_floor": 0.90,
        "modality_floor": 0.85,
        "runtime_budget_s": 300.0,
    },
    "smoke": {
        "clips_per_class": 4,
        "frames": 20,
        "size": 96,
        "k": 24,
        "audio_tests": 4,
        "loo_floor": 0.60,
        "modality_floor": 0.60,
        "runtime_budget_s": 600.0,
    },
}


def run_selftest(profile: str = "full", seed: int = 42) -> dict:
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    p = _PROFILES[profile]
    art = build_gesture_artifacts(
        clips_per_class=p["clips_per_class"],
        seed=seed,
        frames=p["frames"],
        size=p["size"],
        k=p["k"],
    )
    pipeline = pipeline_from_artifacts(art)
    loo = criterion_gesture_loo(art, p["loo_floor"], 0.02, p["runtime_budget_s"])

    results = [
        generator_calibration(seed),
        loo,
        criterion_modalities(art, loo.details["combined_accuracy"], p["modality_floor"]),
        criterion_kernel_gram(art),
        criterion_flow_oracle(),
        criterion_fusion_table(),
        criterion_fsm_replay(),
        criterion_metrics_fixture(),
        criterion_audio(seed, p["audio_tests"], 0.95),
        criterion_session(pipeline, seed),
    ]
    if profile == "full":
        results.insert(9, criterion_determinism(seed))

    report = {
        "profile": profile,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": {k: v for k, v in r.details.items() if k not in _VOLATILE_KEYS},
            }
            for r in sorted(results, key=lambda r: r.number)
        ],
    }
    return report


def report_bytes(report: dict) -> bytes:
    """The canonical serialization; numpy scalars and arrays are written as Python numbers and lists."""
    return (json.dumps(report, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n").encode("utf-8")
