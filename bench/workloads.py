"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returns. Inputs are derived from the run's seed
alone and are built in `setup`; the program receives only those inputs.
Every call into the program goes through its module attribute (for example
`trajectories.track(...)`) so that the tracer's wrappers see it.

Why these three: `offline_build` is batch training of the gesture layers
(flow, trajectories, encoding, svm) and file I/O; `session_stream` is
single-clip inference of the same layers at a larger frame size plus the
detector, fusion and FSM layers; `speech_commands` exercises only the MFCC
and DTW layers, so a gesture-layer change should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

(audio, container, detector, encoding, fsm, gesture, metrics, mfcc, selftest, session, svm,
 synth, trajectories, vocabulary) = (
    importlib.import_module(f"avcmd.{name}")
    for name in (
        "audio", "container", "detector", "encoding", "fsm", "gesture", "metrics", "mfcc",
        "selftest", "session", "svm", "synth", "trajectories", "vocabulary",
    )
)

STREAMS = ("rgb", "depth")
SVM_C = 100.0
SUBSAMPLE = 20_000
RATE = 16_000
KEYWORD_SCORE = 1.0  # utterances are pre-endpointed after the wake word

# Acceptance-criteria floors for combined-channel LOO, by clips per class:
# the selftest `full` profile (7 x 20) and `smoke` profile (7 x 4).
LOO_FLOORS = {20: {"rgb": 0.90, "depth": 0.85}, 4: {"rgb": 0.60, "depth": 0.60}}
SPEECH_TOP1_FLOOR = 0.95


def _seeds(seed: int, salt: int, n: int) -> list[int]:
    """Independent sub-seeds for one workload's inputs."""
    return [int(s) for s in np.random.SeedSequence([seed, salt]).generate_state(n)]


def _ms(t0: float) -> float:
    return 1e3 * (time.perf_counter() - t0)


def _named(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _f32(a) -> np.ndarray:
    """The float64 value a float32 field of the binary formats stores."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


@dataclass
class Pass:
    """One timed pass: wall time, its figures, and the outcome of its checks.

    `outputs` holds what the workload's `check` needs; `check` drops it so
    that repeated passes do not accumulate memory.
    """

    wall_s: float
    data: dict
    outputs: dict
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprint: str = ""  # digest of every output; equal across equal passes

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# offline_build: extract -> codebook -> encode -> train, plus LOO

@dataclass(frozen=True)
class OfflineSize:
    clips_per_class: int
    frames: int
    size: int
    k: int


def _channel_matrices(trajs) -> dict:
    """Per-channel descriptor matrices from IGTF records, as the CLI stacks them."""
    dims = {"traj": trajectories.TRAJ_DIM, "hog": trajectories.HOG_DIM,
            "hof": trajectories.HOF_DIM, "mbh": trajectories.MBH_DIM}
    out = {}
    for ch, attr in zip(encoding.CHANNEL_ORDER, dims):
        out[ch] = np.stack([getattr(t, attr) for t in trajs]) if trajs else np.empty((0, dims[attr]))
    return out


def _igtf_exact(written, read) -> bool:
    return len(written) == len(read) and all(
        w.start_frame == r.start_frame
        and np.array_equal(_f32(w.points), r.points)
        and all(np.array_equal(_f32(getattr(w, a)), getattr(r, a)) for a in ("traj", "hog", "hof", "mbh"))
        for w, r in zip(written, read)
    )


def _igsv_exact(model, back) -> bool:
    return (
        np.array_equal(model.classes, back.classes)
        and model.n_train == back.n_train
        and model.c == back.c
        and model.codebook_hashes == back.codebook_hashes
        and model.channel_means == back.channel_means
        and all(np.array_equal(_f32(model.train_hists[ch]), back.train_hists[ch]) for ch in model.train_hists)
        and all(
            np.array_equal(a.support, b.support) and np.array_equal(a.coef, b.coef) and a.bias == b.bias
            for a, b in zip(model.solutions, back.solutions)
        )
    )


class OfflineBuild:
    name = "offline_build"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, size: OfflineSize):
        self.size = size
        self.workdir = workdir
        self.corpus_seed, self.codebook_seed = _seeds(seed, 1, 2)
        self.tracker = trajectories.TrackerParams()

    def setup(self) -> None:
        """Synthesize the clip corpus and store it as IGSC files."""
        s = self.size
        samples = synth.generate_corpus(s.clips_per_class, seed=self.corpus_seed, frames=s.frames, size=s.size)
        clip_dir = self.workdir / "clips"
        clip_dir.mkdir(parents=True, exist_ok=True)
        self.labels = np.asarray([x.label for x in samples])
        self.paths = {stream: [] for stream in STREAMS}
        for i, sample in enumerate(samples):
            for stream in STREAMS:
                path = clip_dir / f"g{i:04d}_{stream}.igsc"
                container.write_clip(path, getattr(sample, stream))
                self.paths[stream].append(path)

    def run_pass(self) -> Pass:
        feat_dir = self.workdir / "features"
        feat_dir.mkdir(exist_ok=True)
        extract_ms, written, stages = [], {}, {}
        t_pass = time.perf_counter()
        for stream in STREAMS:
            for path in self.paths[stream]:
                t0 = time.perf_counter()
                clip = container.read_clip(path)
                result = trajectories.track(clip, self.tracker)
                out = feat_dir / (path.stem + ".igtf")
                trajectories.write_features(out, result.trajectories)
                extract_ms.append(_ms(t0))
                written[out] = result.trajectories
        for stream in STREAMS:
            read = {p: trajectories.read_features(p) for p in (feat_dir / (c.stem + ".igtf") for c in self.paths[stream])}
            per_clip = [_channel_matrices(trajs) for trajs in read.values()]
            hists, books = gesture.encode_corpus(per_clip, k=self.size.k, seed=self.codebook_seed, subsample=SUBSAMPLE)
            igev = self.workdir / f"{stream}.igev"
            encoding.write_encoded(
                igev,
                [{ch: encoding.BovwHist(counts=hists[ch][i], channel=ch) for ch in encoding.CHANNEL_ORDER}
                 for i in range(len(per_clip))],
            )
            encoded = encoding.read_encoded(igev)
            hists_rt = {ch: np.stack([e[ch].counts for e in encoded]) for ch in encoding.CHANNEL_ORDER}
            dists = {ch: encoding.chi2_distance_matrix(gesture._l1_rows(h)) for ch, h in hists_rt.items()}
            means = {ch: encoding.channel_mean_distance(d) for ch, d in dists.items()}
            gram = encoding.multichannel_gram(dists, means)
            model = svm.train_kernel_svm(
                gram, self.labels, c=SVM_C, train_hists=hists_rt, channel_means=means,
                codebook_hashes={ch: cb.content_hash() for ch, cb in books.items()},
            )
            igsv = self.workdir / f"{stream}.igsv"
            svm.write_model(igsv, model)
            model_rt = svm.read_model(igsv)
            accuracy = gesture.evaluate_loo_bovw(dists, self.labels, c=SVM_C)
            stages[stream] = dict(read=read, hists=hists, hists_rt=hists_rt, model=model,
                                  model_rt=model_rt, dists=dists, accuracy=accuracy, igsv=igsv)
        return Pass(
            wall_s=time.perf_counter() - t_pass,
            data={"extract_ms": extract_ms, "accuracy": {s: stages[s]["accuracy"] for s in STREAMS},
                  "kept": sum(len(t) for t in written.values()), "clips": len(written)},
            outputs={"written": written, "stages": stages},
        )

    def check(self, p: Pass) -> None:
        written, stages = p.outputs.pop("written"), p.outputs.pop("stages")
        floors = LOO_FLOORS.get(self.size.clips_per_class)
        for stream in STREAMS:
            st = stages[stream]
            for path, trajs in st["read"].items():
                p.op(_igtf_exact(written[path], trajs), f"IGTF round trip of {path.name}")
            p.op(
                all(np.array_equal(_f32(h), st["hists_rt"][ch])
                    for ch, h in st["hists"].items()),
                f"IGEV round trip ({stream})",
            )
            p.op(_igsv_exact(st["model"], st["model_rt"]), f"IGSV round trip ({stream})")
            again = gesture.evaluate_loo_bovw(st["dists"], self.labels, c=SVM_C)
            floor = floors[stream] if floors else 0.0
            p.op(again == st["accuracy"] and st["accuracy"] >= floor,
                 f"LOO {stream}: {st['accuracy']:.4f}, repeat {again:.4f}, floor {floor}")
        p.fingerprint = _digest(
            *(stages[s]["accuracy"] for s in STREAMS),
            *(stages[s]["hists"][ch] for s in STREAMS for ch in encoding.CHANNEL_ORDER),
            *(stages[s]["igsv"].read_bytes() for s in STREAMS),
        )

    @staticmethod
    def figures(passes: list[Pass]) -> tuple[dict, dict]:
        """(end-to-end metrics, named figures) over all passes."""
        build_s = statistics.median(p.wall_s for p in passes)
        extract = [ms for p in passes for ms in p.data["extract_ms"]]
        acc, clips = passes[0].data["accuracy"], passes[0].data["clips"] // 2
        return (
            {
                "pass_s": (build_s, "s"),
                "decision_ms_p50": (statistics.median(extract), "ms"),
                "accuracy_pct": (100.0 * statistics.mean(acc.values()), "%"),
            },
            {
                "build_s": _named(build_s, "s", len(passes)),
                "extract_ms_p50": _named(statistics.median(extract), "ms", len(extract)),
                "loo_accuracy_rgb": _named(acc["rgb"], "fraction", clips),
                "loo_accuracy_depth": _named(acc["depth"], "fraction", clips),
                "trajectories_kept": _named(passes[0].data["kept"], "count", 1),
            },
        )


# ---------------------------------------------------------------------------
# session_stream: run_session on the clean scripts, replayed step by step

@dataclass(frozen=True)
class SessionSize:
    train_clips_per_class: int
    train_frames: int
    train_size: int
    k: int
    scripts: tuple[str, ...]


SCRIPTS = {"legs": session.LEGS_SCRIPT, "back": session.BACK_SCRIPT}
SESSION_PARAMS = session.SessionParams()


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


def replay(streams, models, params) -> tuple[session.SessionLog, list[float]]:
    """Recompute `run_session`'s decisions through the public calls.

    Returns the log and each step's compute time in ms: speech ranking,
    gating, fusion and the FSM step, plus the gesture classification of the
    activity segment the step is the first to use.
    """
    frames = streams.video.frames
    scores = [0.0] + [
        detector.activity_score(frames[t - 1], frames[t], params.tau_noise) for t in range(1, len(frames))
    ]
    events = detector.detect_segments(
        scores, params.theta_on, params.theta_off, params.min_dur_frames, params.max_gap_frames
    )
    segments = detector.segments_from_events(events)
    two_best: dict[tuple[int, int], list | None] = {}
    pipeline = models.gesture

    state = fsm.FsmState.idle()
    log = session.SessionLog()
    step_ms = []
    for step in streams.steps:
        t0 = time.perf_counter()
        speech, speech_avail = None, None
        best_ev, best_ov = None, 0
        for ev in streams.audio_events:
            ov = _overlap(step.window, (ev.start_frame, ev.end_frame))
            if ov > best_ov:
                best_ev, best_ov = ev, ov
        if best_ev is not None:
            raw = audio.classify_command(best_ev.features, models.templates, models.grammar, models.transform)
            gated = audio.keyword_gate(raw, best_ev.keyword_score, params.keyword_threshold)
            if not gated.is_empty:
                speech, speech_avail = gated, best_ev.end_frame

        gesture_two, gesture_avail = None, None
        best_seg, best_ov = None, 0
        for seg in segments:
            ov = _overlap(step.window, seg)
            if ov > best_ov:
                best_seg, best_ov = seg, ov
        if best_seg is not None:
            if best_seg not in two_best:
                two = None
                start, end = best_seg
                if end - start >= pipeline.tracker.traj_len + 1:
                    pred = pipeline.classify_clip(streams.video.subclip(start, end))
                    if pred is not None:
                        two = pipeline.command_2best(pred)
                two_best[best_seg] = two
            if two_best[best_seg]:
                gesture_two, gesture_avail = two_best[best_seg], best_seg[1] + params.max_gap_frames

        decision = None
        if speech is not None or gesture_two is not None:
            decision = session.fuse(speech, gesture_two, params.speech_fallback)
        if decision is None:
            entry = session.LogEntry(step.step_id, step.performed_ok, None, None, None, state.describe())
        else:
            state, _, _ = fsm.fsm_step(state, decision, params.lang)
            avail = max(v for v in (speech_avail, gesture_avail) if v is not None)
            entry = session.LogEntry(
                step.step_id, step.performed_ok, decision.command, decision.source,
                max(0, int(avail - step.window[0])), state.describe(),
            )
        step_ms.append(_ms(t0))
        log.entries.append(entry)
    log.final_state = state.describe()
    return log, step_ms


class SessionStream:
    name = "session_stream"
    setup_repeats = 2

    def __init__(self, seed: int, workdir: Path, size: SessionSize):
        self.size = size
        self.seeds = _seeds(seed, 2, 3 + len(size.scripts))

    def setup(self) -> None:
        """Train the gesture model, build the speech templates and the scripted streams."""
        s = self.size
        corpus = synth.generate_corpus(s.train_clips_per_class, seed=self.seeds[0], frames=s.train_frames, size=s.train_size)
        pipeline = gesture.train_gesture_pipeline(
            [x.rgb for x in corpus], [x.label for x in corpus], k=s.k, seed=self.seeds[1], c=SVM_C, subsample=SUBSAMPLE
        )
        self.models = session.SessionModels(
            gesture=pipeline, templates=selftest.build_audio_templates(self.seeds[2]), grammar=audio.default_grammar()
        )
        self.runs = [
            (name, synth.build_session_streams(SCRIPTS[name], seed=self.seeds[3 + i]))
            for i, name in enumerate(s.scripts)
        ]

    def run_pass(self) -> Pass:
        run_s, frames, fused_ms, results = [], 0, [], []
        t_pass = time.perf_counter()
        for name, st in self.runs:
            t0 = time.perf_counter()
            log = session.run_session(st.video, st.audio_events, st.steps, self.models, SESSION_PARAMS)
            run_s.append(time.perf_counter() - t0)
            frames += len(st.video.frames)
            replayed, step_ms = replay(st, self.models, SESSION_PARAMS)
            fused_ms += [ms for step, ms in zip(st.steps, step_ms) if step.modality == "A-G"]
            results.append((name, st, log, replayed))
        return Pass(
            wall_s=time.perf_counter() - t_pass,
            data={"run_s": run_s, "frames": frames, "fused_ms": fused_ms},
            outputs={"results": results},
        )

    def check(self, p: Pass) -> None:
        results = p.outputs.pop("results")
        rates = []
        for name, st, log, replayed in results:
            rate = metrics.mcrr([log], SCRIPTS[name])
            p.op(rate.pct == 100.0 and log.final_state == "halted" == replayed.final_state,
                 f"{name}: MCRR {rate.pct:.1f}%, final state {log.final_state}/{replayed.final_state}")
            for i, step in enumerate(st.steps):
                same = i < len(log.entries) and i < len(replayed.entries) and log.entries[i] == replayed.entries[i]
                p.op(same and len(log.entries) == len(replayed.entries), f"{name} step {step.step_id} replay")
            rates.append((rate.num, rate.den))
        p.data["mcrr"] = rates
        p.fingerprint = _digest([(r[2].entries, r[2].final_state) for r in results])

    @staticmethod
    def figures(passes: list[Pass]) -> tuple[dict, dict]:
        """(end-to-end metrics, named figures) over all passes."""
        fused = [ms for p in passes for ms in p.data["fused_ms"]]
        frames = sum(p.data["frames"] for p in passes)
        num = sum(n for p in passes for n, _ in p.data["mcrr"])
        den = sum(d for p in passes for _, d in p.data["mcrr"])
        return (
            {
                "pass_s": (statistics.median(sum(p.data["run_s"]) for p in passes), "s"),
                "decision_ms_p50": (statistics.median(fused), "ms"),
                "accuracy_pct": (100.0 * num / den, "%"),
            },
            {
                "session_fps": _named(frames / sum(sum(p.data["run_s"]) for p in passes), "1/s", frames),
                "fused_decision_ms_p50": _named(statistics.median(fused), "ms", len(fused)),
                "session_mcrr": _named(100.0 * num / den, "%", den),
            },
        )


# ---------------------------------------------------------------------------
# speech_commands: enroll speakers, then classify utterances from waveforms

@dataclass(frozen=True)
class SpeechSize:
    speakers: int
    utterances_per_speaker: int
    templates_per_command: int


class SpeechCommands:
    name = "speech_commands"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, size: SpeechSize):
        self.size = size
        self.seeds = _seeds(seed, 3, 1 + size.speakers)

    def setup(self) -> None:
        """Build the templates and synthesize every speaker's waveforms at 20 dB SNR."""
        s = self.size
        self.templates = selftest.build_audio_templates(self.seeds[0], per_command=s.templates_per_command)
        self.grammar = audio.default_grammar()
        commands = [int(c) for c in vocabulary.Command]
        self.speakers = []
        for sp_seed in self.seeds[1:]:
            enroll = [(c, synth.generate_command_audio(c, sp_seed + 1000 * c, 20.0)) for c in commands]
            tests = [
                (commands[j % len(commands)],
                 synth.generate_command_audio(commands[j % len(commands)], sp_seed + 100_000 + j, 20.0))
                for j in range(s.utterances_per_speaker)
            ]
            self.speakers.append((enroll, tests))

    def run_pass(self) -> Pass:
        enroll_ms, decision_ms, transforms, decisions = [], [], [], []
        t_pass = time.perf_counter()
        for enroll, tests in self.speakers:
            t0 = time.perf_counter()
            transform = audio.adapt_speaker(self.templates, [(c, mfcc.mfcc(w, RATE)) for c, w in enroll])
            enroll_ms.append(_ms(t0))
            transforms.append(transform)
            for command, wave in tests:
                t0 = time.perf_counter()
                nbest = audio.classify_command(mfcc.mfcc(wave, RATE), self.templates, self.grammar, transform)
                nbest = audio.keyword_gate(nbest, KEYWORD_SCORE, SESSION_PARAMS.keyword_threshold)
                decision_ms.append(_ms(t0))
                decisions.append((command, tuple((h.command, h.score) for h in nbest.hypotheses)))
        return Pass(
            wall_s=time.perf_counter() - t_pass,
            data={"enroll_ms": enroll_ms, "decision_ms": decision_ms},
            outputs={"transforms": transforms, "decisions": decisions},
        )

    def check(self, p: Pass) -> None:
        transforms, decisions = p.outputs.pop("transforms"), p.outputs.pop("decisions")
        for t in transforms:
            p.op(bool(np.all(np.isfinite(t.a))), "speaker transform is finite")
        for command, hyps in decisions:
            p.op(bool(hyps), f"utterance of command {command} passed the keyword gate")
        correct = sum(1 for command, hyps in decisions if hyps and hyps[0][0] == command)
        top1 = correct / len(decisions)
        p.op(top1 >= SPEECH_TOP1_FLOOR, f"speech top-1 {top1:.4f} >= {SPEECH_TOP1_FLOOR}")
        p.data["top1"] = top1
        p.fingerprint = _digest(decisions, *(t.a for t in transforms), *(t.b for t in transforms))

    @staticmethod
    def figures(passes: list[Pass]) -> tuple[dict, dict]:
        """(end-to-end metrics, named figures) over all passes."""
        decision = [ms for p in passes for ms in p.data["decision_ms"]]
        enroll = [ms for p in passes for ms in p.data["enroll_ms"]]
        top1 = passes[0].data["top1"]
        named = {
            "speech_decision_ms_p50": _named(statistics.median(decision), "ms", len(decision)),
            "enroll_ms_p50": _named(statistics.median(enroll), "ms", len(enroll)),
            "speech_top1": _named(top1, "fraction", len(decision)),
        }
        if len(decision) >= 100:  # p90 needs ten samples beyond it
            p90 = statistics.quantiles(decision, n=10, method="inclusive")[8]
            named["speech_decision_ms_p90"] = _named(p90, "ms", len(decision))
        return (
            {
                "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
                "decision_ms_p50": (statistics.median(decision), "ms"),
                "accuracy_pct": (100.0 * top1, "%"),
            },
            named,
        )


WORKLOADS = {w.name: w for w in (OfflineBuild, SessionStream, SpeechCommands)}

# `bench` is what the benchmark measures; `tiny` is the self-tests' reduced pass.
SCALES = {
    "bench": {
        "offline_build": OfflineSize(clips_per_class=4, frames=24, size=96, k=24),
        "session_stream": SessionSize(train_clips_per_class=2, train_frames=20, train_size=96, k=32,
                                      scripts=("legs", "back")),
        "speech_commands": SpeechSize(speakers=8, utterances_per_speaker=26, templates_per_command=5),
    },
    "tiny": {
        "offline_build": OfflineSize(clips_per_class=2, frames=16, size=96, k=8),
        "session_stream": SessionSize(train_clips_per_class=2, train_frames=16, train_size=96, k=8,
                                      scripts=("legs",)),
        "speech_commands": SpeechSize(speakers=2, utterances_per_speaker=6, templates_per_command=2),
    },
}
