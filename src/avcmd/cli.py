"""Command-line surface for the toolkit.

Sub-commands mirror the pipeline stages: synthesize corpora, extract
trajectory features, learn codebooks, encode, train and run classifiers,
detect activity segments, simulate scripted sessions, evaluate logs, and run
the self-verification suite. Exit status: 0 on success, 1 when validation or
a check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .audio import classify_command, default_grammar, keyword_gate, load_template_store, save_template_manifest
from .container import Annotation, read_annotations, read_clip, write_annotations, write_clip
from .encoding import (
    CHANNEL_ORDER,
    Channel,
    bovw_encode,
    read_codebook,
    read_encoded,
    write_codebook,
    write_encoded,
)
from .errors import AvcmdError
from .gesture import (
    GesturePipeline,
    channel_matrices,
    chi2_distances,
    train_bovw_model,
    train_codebooks,
    train_gesture_pipeline,
)
from .metrics import export_curve_csv, first_attempt_curve, render_report_text, task_report, write_report_json
from .mfcc import mfcc, wav_read, wav_write
from .selftest import CriterionResult, build_audio_templates, report_bytes, run_selftest
from .session import (
    BACK_SCRIPT,
    LEGS_SCRIPT,
    SessionModels,
    activity_segments,
    read_script,
    read_session_log,
    run_session,
    write_script,
    write_session_log,
)
from .svm import read_model, write_model
from .synth import SAMPLE_RATE, build_session_streams, generate_audio_corpus, generate_corpus
from .trajectories import read_features, write_features, track
from .vocabulary import command_name


def _codebook_file(ch: Channel) -> str:
    return f"cb_{ch.name.lower()}.igcb"


def _count(text: str) -> int:
    """argparse type of the count options: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_cfg(args) -> config_mod.PipelineConfig:
    if getattr(args, "config", None):
        return config_mod.load_config(args.config)
    return config_mod.PipelineConfig().validate()


def _cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    # each corpus is generated before any directory is made, so a refused run leaves nothing
    if args.kind == "gestures":
        samples = generate_corpus(args.clips_per_class, seed=cfg.seed, frames=args.frames, size=args.size)
        clips_dir = out / "clips"
        clips_dir.mkdir(parents=True, exist_ok=True)
        annotations = []
        for i, sample in enumerate(samples):
            for stream, clip in (("rgb", sample.rgb), ("logdepth", sample.depth)):
                name = f"g{i:04d}_{stream}.igsc"
                write_clip(clips_dir / name, clip)
                annotations.append(
                    Annotation(
                        clip=name,
                        label=sample.label,
                        subject=f"u{i % args.subjects}",
                        task="legs",
                        start_frame=0,
                        end_frame=len(clip.frames),
                    )
                )
        write_annotations(out / "annotations.jsonl", annotations)
        print(f"wrote {len(samples)} clip pairs to {clips_dir}")
    elif args.kind == "audio":
        corpus = generate_audio_corpus(args.per_command, seed=cfg.seed, snr_db=cfg.snr_db)
        audio_dir = out / "audio"
        audio_dir.mkdir(parents=True, exist_ok=True)
        rows = []
        for cmd, i, wave in corpus:
            name = f"{command_name(cmd)}_{i:02d}.wav"
            wav_write(audio_dir / name, wave, SAMPLE_RATE)
            rows.append({"command_id": cmd, "language": "en", "speaker": f"s{i}", "path": name})
        save_template_manifest(audio_dir / "manifest.json", rows)
        print(f"wrote {len(rows)} utterances to {audio_dir}")
    else:  # scripts
        out.mkdir(parents=True, exist_ok=True)
        write_script(out / "script_legs.jsonl", LEGS_SCRIPT)
        write_script(out / "script_back.jsonl", BACK_SCRIPT)
        print(f"wrote validation scripts to {out}")
    return 0


def _cmd_extract(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = cfg.tracker_params()
    clips = sorted(Path(args.clips).glob("*.igsc"))
    if not clips:
        raise AvcmdError(f"no .igsc clips under {args.clips}")
    for path in clips:
        clip = read_clip(path)
        result = track(clip, params)
        write_features(out / (path.stem + ".igtf"), result.trajectories)
    print(f"extracted features for {len(clips)} clips into {out}")
    return 0


def _load_feature_dir(features_dir: str, annotations_path: str | None):
    feature_dir = Path(features_dir)
    if annotations_path:
        annotations = read_annotations(annotations_path)
        names = [a.clip for a in annotations]
        labels = [a.label for a in annotations]
        paths = [feature_dir / (Path(n).stem + ".igtf") for n in names]
    else:
        paths = sorted(feature_dir.glob("*.igtf"))
        labels = [None] * len(paths)
    if not paths:
        raise AvcmdError(f"no .igtf features under {features_dir}")
    return [channel_matrices(read_features(p)) for p in paths], labels


def _cmd_codebook(args) -> int:
    cfg = _load_cfg(args)
    per_clip, _ = _load_feature_dir(args.features, args.annotations)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    k = cfg.codebook_k if args.k is None else args.k
    books = train_codebooks(per_clip, k=k, seed=cfg.codebook_seed, subsample=cfg.descriptor_subsample)
    for ch, cb in books.items():
        write_codebook(out / _codebook_file(ch), cb)
    print(f"wrote 4 channel codebooks to {out}")
    return 0


def _read_codebooks(codebooks_dir: str) -> dict[Channel, object]:
    root = Path(codebooks_dir)
    books = {}
    for ch in CHANNEL_ORDER:
        path = root / _codebook_file(ch)
        if not path.exists():
            raise AvcmdError(f"missing codebook {path}")
        books[ch] = read_codebook(path)
    return books


def _cmd_encode(args) -> int:
    per_clip, _ = _load_feature_dir(args.features, args.annotations)
    books = _read_codebooks(args.codebooks)
    encoded = [{ch: bovw_encode(d[ch], books[ch]) for ch in CHANNEL_ORDER} for d in per_clip]
    write_encoded(args.out, encoded)
    print(f"encoded {len(per_clip)} clips -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    annotations = read_annotations(args.annotations)
    for a in annotations:
        if a.label is None:
            raise AvcmdError(f"clip {a.clip} has no label to train on")
    labels = np.asarray([a.label for a in annotations])
    books = _read_codebooks(args.codebooks)
    encoded = read_encoded(args.encoded)
    if len(encoded) != labels.shape[0]:
        raise AvcmdError("encoded clip count does not match the annotation sidecar")
    hists = {ch: np.stack([e[ch].counts for e in encoded]) for ch in CHANNEL_ORDER}
    c = cfg.svm_c if args.c is None else args.c
    model = train_bovw_model(hists, chi2_distances(hists), labels, c, books)
    write_model(args.out, model)
    print(f"trained kernel model on {labels.shape[0]} clips -> {args.out}")
    return 0


def _cmd_classify(args) -> int:
    cfg = _load_cfg(args)
    if args.wav:
        templates = load_template_store(args.templates)
        samples, rate = wav_read(args.wav)
        nbest = classify_command(mfcc(samples, rate), templates, default_grammar())
        nbest = keyword_gate(nbest, args.keyword_score, cfg.keyword_threshold)
        if nbest.is_empty:
            print("no command (keyword below threshold)")
        else:
            for h in nbest.hypotheses:
                print(f"{command_name(h.command):12s} {h.score:.4f}")
        return 0

    model = read_model(args.model)
    books = _read_codebooks(args.codebooks)
    pipeline = GesturePipeline(codebooks=books, model=model, tracker=cfg.tracker_params())
    clip = read_clip(args.clip)
    if len(clip.frames) < pipeline.tracker.traj_len + 1:
        raise AvcmdError("clip is too short to track")
    pred = pipeline.classify_clip(clip)
    if pred is None:
        print("no gesture (no trajectory survived)")
        return 0
    print(f"label: {pred.label}")
    for cls, score in zip(model.classes, pred.scores):
        print(f"  class {int(cls)}: {score:.4f}")
    return 0


def _cmd_detect(args) -> int:
    cfg = _load_cfg(args)
    clip = read_clip(args.clip)
    for start, end in activity_segments(clip.frames, cfg.session_params(clip.fps)):
        print(json.dumps({"start_frame": start, "end_frame": end}))
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    script = {"legs": LEGS_SCRIPT, "back": BACK_SCRIPT}.get(args.script) or read_script(args.script)
    samples = generate_corpus(args.train_clips_per_class, seed=cfg.seed, frames=20)
    pipeline = train_gesture_pipeline(
        [s.rgb for s in samples], [s.label for s in samples], k=32, seed=cfg.seed + 1, c=cfg.svm_c,
        tracker=cfg.tracker_params(), subsample=20_000,
    )
    templates = build_audio_templates(cfg.seed + 40)
    models = SessionModels(gesture=pipeline, templates=templates, grammar=default_grammar())
    streams = build_session_streams(script, seed=cfg.seed + 41, gesture_noise=args.gesture_noise)
    log = run_session(
        streams.video, streams.audio_events, streams.steps, models, cfg.session_params(streams.video.fps)
    )
    write_session_log(args.out, log)
    recognized = sum(1 for e in log.entries if e.recognized is not None)
    print(f"simulated {len(log.entries)} steps ({recognized} recognized), final state {log.final_state}")
    print(f"log -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    script = {"legs": LEGS_SCRIPT, "back": BACK_SCRIPT}.get(args.script) or read_script(args.script)
    logs = [read_session_log(p) for p in args.logs]
    report = {args.task: task_report(logs, script)}
    print(render_report_text(report), end="")
    if args.report:
        write_report_json(args.report, report)
        print(f"report -> {args.report}")
    if args.curve:
        export_curve_csv(args.curve, first_attempt_curve(logs, script))
        print(f"curve -> {args.curve}")
    return 0


def _cmd_selftest(args) -> int:
    cfg = _load_cfg(args)
    report = run_selftest(profile=args.profile, seed=cfg.seed)
    for c in report["criteria"]:
        print(CriterionResult(**c).line())
    if args.report:
        Path(args.report).write_bytes(report_bytes(report))
        print(f"report -> {args.report}")
    if report["passed"]:
        print("selftest: all criteria passed")
        return 0
    print("selftest: FAILURES present", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avcmd",
        description="Audio-gestural command recognition toolkit on synthetic ground-truth corpora.",
    )
    parser.add_argument("--config", help="pipeline configuration file (key = value lines)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic corpora")
    p.add_argument("--kind", choices=("gestures", "audio", "scripts"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clips-per-class", type=_count, default=20)
    p.add_argument("--per-command", type=_count, default=5)
    p.add_argument("--frames", type=int, default=24)
    p.add_argument("--size", type=int, default=96)
    p.add_argument("--subjects", type=_count, default=4)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="clips -> trajectory features")
    p.add_argument("--clips", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("codebook", help="learn per-channel visual vocabularies")
    p.add_argument("--features", required=True)
    p.add_argument("--annotations")
    p.add_argument("--out", required=True)
    p.add_argument("-k", type=_count, default=None, help="override codebook size")
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("encode", help="features -> BoVW histograms")
    p.add_argument("--features", required=True)
    p.add_argument("--annotations")
    p.add_argument("--codebooks", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train a gesture classifier")
    p.add_argument("--encoded", required=True, help="BoVW .igev file")
    p.add_argument("--annotations", required=True)
    p.add_argument("--codebooks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-c", type=float, default=None, help="override soft-margin C")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="classify one clip or one utterance")
    p.add_argument("--model")
    p.add_argument("--codebooks")
    p.add_argument("--clip")
    p.add_argument("--wav")
    p.add_argument("--templates", help="audio template manifest")
    p.add_argument("--keyword-score", type=float, default=1.0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("detect", help="activity segments of a clip")
    p.add_argument("--clip", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", help="run a scripted audio-gestural session")
    p.add_argument("--script", default="legs", help="legs, back, or a script file")
    p.add_argument("--out", required=True, help="session log output (jsonl)")
    p.add_argument("--gesture-noise", action="store_true")
    p.add_argument("--train-clips-per-class", type=_count, default=4)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="metrics over session logs")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--script", default="legs")
    p.add_argument("--task", default="legs")
    p.add_argument("--report")
    p.add_argument("--curve")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("selftest", help="run the verification suite")
    p.add_argument("--profile", choices=("full", "smoke"), default="full")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "classify":
        need = ("--templates",) if args.wav else ("--model", "--codebooks", "--clip")
        missing = [opt for opt in need if getattr(args, opt[2:]) is None]
        if missing:
            parser.error(f"classify {'--wav' if args.wav else 'without --wav'} needs {', '.join(missing)}")
    try:
        return args.func(args)
    except (AvcmdError, OSError) as exc:  # OSError: a missing or unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
