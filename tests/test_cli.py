from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from avcmd.audio import save_template_manifest
from avcmd.cli import _codebook_file, main
from avcmd.container import Annotation, read_clip, write_annotations, write_clip
from avcmd.encoding import CHANNEL_ORDER, BovwHist, Channel, Codebook, write_codebook, write_encoded
from avcmd.frames import Clip, GrayFrame, Modality
from avcmd.gesture import channel_matrices, train_codebooks
from avcmd.mfcc import wav_write
from avcmd.session import read_session_log
from avcmd.trajectories import DESC_DIM, TrackerParams, TrajectorySet, read_features, track, write_features
from avcmd.vocabulary import Command


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end workspace driven through the CLI."""
    root = tmp_path_factory.mktemp("ws")
    cfg = root / "cfg.txt"
    cfg.write_text("codebook_k = 12\nseed = 11\ndescriptor_subsample = 5000\n")
    assert main([
        "synth", "--kind", "gestures", "--out", str(root),
        "--clips-per-class", "2", "--frames", "20",
    ]) == 0
    assert main(["extract", "--clips", str(root / "clips"), "--out", str(root / "features")]) == 0
    assert main([
        "--config", str(cfg), "codebook",
        "--features", str(root / "features"),
        "--annotations", str(root / "annotations.jsonl"),
        "--out", str(root / "codebooks"),
    ]) == 0
    assert main([
        "encode",
        "--features", str(root / "features"),
        "--annotations", str(root / "annotations.jsonl"),
        "--codebooks", str(root / "codebooks"),
        "--out", str(root / "encoded.igev"),
    ]) == 0
    assert main([
        "train",
        "--encoded", str(root / "encoded.igev"),
        "--annotations", str(root / "annotations.jsonl"),
        "--codebooks", str(root / "codebooks"),
        "--out", str(root / "model.igsv"),
    ]) == 0
    return root


class TestPipelineCommands:
    def test_classify_clip(self, workspace, capsys):
        clip = sorted((workspace / "clips").glob("*_rgb.igsc"))[0]
        rc = main([
            "classify",
            "--model", str(workspace / "model.igsv"),
            "--codebooks", str(workspace / "codebooks"),
            "--clip", str(clip),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "label:" in out

    def test_classify_with_mismatched_codebooks_fails(self, workspace, tmp_path, capsys):
        other = tmp_path / "other_codebooks"
        assert main([
            "codebook",
            "--features", str(workspace / "features"),
            "--annotations", str(workspace / "annotations.jsonl"),
            "--out", str(other),
            "-k", "6",
        ]) == 0
        clip = sorted((workspace / "clips").glob("*_rgb.igsc"))[0]
        rc = main([
            "classify",
            "--model", str(workspace / "model.igsv"),
            "--codebooks", str(other),
            "--clip", str(clip),
        ])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err

    def test_classify_refuses_old_linear_kind_model(self, workspace, tmp_path, capsys):
        raw = bytearray((workspace / "model.igsv").read_bytes())
        raw[6] = 1  # the kind byte after magic and version; 1 was the removed linear kind
        (tmp_path / "linear.igsv").write_bytes(bytes(raw))
        clip = sorted((workspace / "clips").glob("*_rgb.igsc"))[0]
        rc = main([
            "classify",
            "--model", str(tmp_path / "linear.igsv"),
            "--codebooks", str(workspace / "codebooks"),
            "--clip", str(clip),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: model kind 1 not supported")

    def test_codebook_from_float32_features_equals_float64_training(self, workspace, tmp_path):
        # The CLI reads IGTF as float32 views; training on float64 copies of
        # the same matrices must write the same IGCB bytes (k and subsample
        # from the workspace config, the default codebook_seed).
        rows = [json.loads(line) for line in (workspace / "annotations.jsonl").read_text().splitlines()]
        per_clip = [
            {ch: np.array(m, dtype=np.float64) for ch, m in channel_matrices(
                read_features(workspace / "features" / (Path(r["clip"]).stem + ".igtf"))).items()}
            for r in rows
        ]
        for ch, book in train_codebooks(per_clip, k=12, seed=0, subsample=5000).items():
            write_codebook(tmp_path / _codebook_file(ch), book)
            assert (tmp_path / _codebook_file(ch)).read_bytes() == (
                workspace / "codebooks" / _codebook_file(ch)).read_bytes()

    def test_codebook_from_extracted_features_equals_training_on_track_output(self, workspace, tmp_path):
        # `track` returns the float32 values IGTF stores, so codebooks trained
        # in memory on its sets equal those of `extract` -> `codebook`.
        rows = [json.loads(line) for line in (workspace / "annotations.jsonl").read_text().splitlines()]
        per_clip = [
            channel_matrices(track(read_clip(workspace / "clips" / (Path(r["clip"]).stem + ".igsc"))).trajectories)
            for r in rows
        ]
        for ch, book in train_codebooks(per_clip, k=12, seed=0, subsample=5000).items():
            write_codebook(tmp_path / _codebook_file(ch), book)
            assert (tmp_path / _codebook_file(ch)).read_bytes() == (
                workspace / "codebooks" / _codebook_file(ch)).read_bytes()

    def test_detect_prints_segments(self, workspace, capsys):
        clip = sorted((workspace / "clips").glob("*_rgb.igsc"))[0]
        assert main(["detect", "--clip", str(clip)]) == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            row = json.loads(line)
            assert row["end_frame"] > row["start_frame"]


class TestAudioCommands:
    def test_synth_audio_and_classify(self, tmp_path, capsys):
        assert main([
            "synth", "--kind", "audio", "--out", str(tmp_path), "--per-command", "2",
        ]) == 0
        capsys.readouterr()  # drain the synth message
        manifest = tmp_path / "audio" / "manifest.json"
        rows = json.loads(manifest.read_text())
        target = next(r for r in rows if r["command_id"] == 3)
        rc = main([
            "classify",
            "--templates", str(manifest),
            "--wav", str(tmp_path / "audio" / target["path"]),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[0] == "stop"

    def test_keyword_gate_blocks(self, tmp_path, capsys):
        assert main([
            "synth", "--kind", "audio", "--out", str(tmp_path), "--per-command", "1",
        ]) == 0
        manifest = tmp_path / "audio" / "manifest.json"
        rows = json.loads(manifest.read_text())
        rc = main([
            "classify",
            "--templates", str(manifest),
            "--wav", str(tmp_path / "audio" / rows[0]["path"]),
            "--keyword-score", "0.0",
        ])
        assert rc == 0
        assert "no command" in capsys.readouterr().out


class TestSessionCommands:
    def test_simulate_and_evaluate(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        rc = main([
            "simulate", "--script", "legs", "--out", str(log_path),
            "--train-clips-per-class", "3",
        ])
        assert rc == 0
        log = read_session_log(log_path)
        assert len(log.entries) == 7
        assert log.final_state == "halted"

        report = tmp_path / "report.json"
        curve = tmp_path / "curve.csv"
        rc = main([
            "evaluate", "--logs", str(log_path), "--script", "legs",
            "--report", str(report), "--curve", str(curve),
        ])
        assert rc == 0
        blob = json.loads(report.read_text())
        assert "legs" in blob
        assert curve.read_text().startswith("step_id,")

    def test_simulate_trains_with_the_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid_step = 7\nsvm_c = 3.5\n")
        seen = {}

        class _Trained(Exception):
            pass

        def capture(clips, labels, **kwargs):
            seen.update(kwargs)
            raise _Trained

        monkeypatch.setattr("avcmd.cli.train_gesture_pipeline", capture)
        with pytest.raises(_Trained):
            main([
                "--config", str(cfg), "simulate", "--out", str(tmp_path / "log.jsonl"),
                "--train-clips-per-class", "1",
            ])
        assert seen["tracker"] == TrackerParams(grid_step=7)
        assert seen["c"] == 3.5
        assert (seen["k"], seen["subsample"]) == (32, 20_000)


class TestScriptsAndUsage:
    def test_synth_scripts(self, tmp_path):
        assert main(["synth", "--kind", "scripts", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "script_legs.jsonl").exists()
        assert (tmp_path / "script_back.jsonl").exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--wat"])
        assert exc.value.code == 2

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["classify", "--wav", "w.wav"],
            ["train", "--annotations", "a.jsonl", "--codebooks", "books", "--out", "m.igsv"],
        ],
        ids=["classify-without-inputs", "classify-wav-without-templates", "train-without-encoded"],
    )
    def test_missing_inputs_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--kind", "bovw", "--features", "f", "--codebooks", "books", "--out", "e.igev"],
            ["train", "--kind", "kernel", "--encoded", "e.igev", "--annotations", "a.jsonl",
             "--codebooks", "books", "--out", "m.igsv"],
        ],
        ids=["encode", "train"],
    )
    def test_removed_kind_option_is_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --kind" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--kind", "gestures", "--clips-per-class", "1", "--subjects"],
            ["synth", "--kind", "gestures", "--clips-per-class"],
            ["synth", "--kind", "audio", "--per-command"],
            ["simulate", "--train-clips-per-class"],
            ["codebook", "--features", "features", "-k"],
        ],
        ids=["subjects", "clips-per-class", "per-command", "train-clips-per-class", "k"],
    )
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, argv, value):
        # Past argparse, such a count writes an empty corpus, names subjects
        # u0 and u-1, or fails inside the command with a traceback.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, value, "--out", str(out)])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_synth_size_below_one_is_exit_1(self, tmp_path, capsys, size):
        argv = ["synth", "--kind", "gestures", "--clips-per-class", "1", "--size", size, "--out", str(tmp_path)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: pattern extent does not fit the frame\n"

    @pytest.mark.parametrize(
        "option,message", [("--size", "pattern extent does not fit the frame"), ("--frames", "need at least 16 frames")]
    )
    def test_refused_synth_leaves_no_directory(self, tmp_path, capsys, option, message):
        # the corpus is generated before any directory is made
        out = tmp_path / "out"
        argv = ["synth", "--kind", "gestures", "--clips-per-class", "1", option, "0" if option == "--size" else "3"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_missing_input_is_validation_failure(self, tmp_path, capsys):
        rc = main(["extract", "--clips", str(tmp_path), "--out", str(tmp_path / "f")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def _two_clip_model_argv(tmp_path, n_frames: int) -> tuple[list[str], list[str]]:
    """`train` and `classify` argv for a model of two hand-made, non-empty
    histograms and a clip of n static 8x8 frames."""
    frame = GrayFrame.from_array(np.arange(64, dtype=np.uint8).reshape(8, 8))
    write_clip(tmp_path / "c.igsc", Clip(frames=(frame,) * n_frames, fps=15.0, modality=Modality.RGB))
    books = tmp_path / "books"
    books.mkdir()
    for ch in CHANNEL_ORDER:
        write_codebook(books / _codebook_file(ch), Codebook(channel=ch, centroids=np.eye(2, 3), seed=0))
    write_encoded(tmp_path / "e.igev", [
        {ch: BovwHist(counts=np.eye(2)[i], channel=ch) for ch in CHANNEL_ORDER} for i in range(2)
    ])
    write_annotations(tmp_path / "a.jsonl", [
        Annotation(clip=f"c{i}.igsc", label=i, subject="u", task="legs", start_frame=0, end_frame=16)
        for i in range(2)
    ])
    train = [
        "train", "--encoded", str(tmp_path / "e.igev"), "--annotations", str(tmp_path / "a.jsonl"),
        "--codebooks", str(books), "--out", str(tmp_path / "m.igsv"),
    ]
    classify = [
        "classify", "--model", str(tmp_path / "m.igsv"), "--codebooks", str(books),
        "--clip", str(tmp_path / "c.igsc"),
    ]
    return train, classify


@pytest.mark.parametrize("n_frames", [16, 10])
def test_classify_clip_without_gesture_evidence(tmp_path, capsys, n_frames):
    # 16 static frames keep no trajectory, and no training clip was empty:
    # no gesture, exit 0. Ten frames are too short to track: exit 1.
    train, classify = _two_clip_model_argv(tmp_path, n_frames)
    assert main(train) == 0
    capsys.readouterr()
    rc = main(classify)
    out, err = capsys.readouterr()
    if n_frames == 16:
        assert rc == 0 and out == "no gesture (no trajectory survived)\n"
    else:
        assert rc == 1 and "too short" in err and out == ""


@pytest.mark.parametrize("c", ["0", "-1"])
def test_train_refuses_a_c_of_zero_or_below(tmp_path, capsys, c):
    # `-c 0` used to train with the configured svm_c instead
    train, _ = _two_clip_model_argv(tmp_path, 16)
    assert main([*train, "-c", c]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: C must be finite and positive, got {float(c)}\n"
    assert not (tmp_path / "m.igsv").exists()


def test_train_refuses_an_unlabeled_clip(tmp_path, capsys):
    # `codebook` and `encode` accept a null label; `train` has nothing to learn from it
    train, _ = _two_clip_model_argv(tmp_path, 16)
    write_annotations(tmp_path / "a.jsonl", [
        Annotation(clip=f"c{i}.igsc", label=(0 if i == 0 else None), subject="u", task="legs",
                   start_frame=0, end_frame=16)
        for i in range(2)
    ])
    assert main(train) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: clip c1.igsc has no label to train on\n"
    assert not (tmp_path / "m.igsv").exists()


class TestBadFilesExitOne:
    """Every binary file the CLI reads ends the command with exit 1 when cut or extended."""

    @pytest.mark.parametrize("target", ["clip", "codebook", "encoded", "model", "features"])
    @pytest.mark.parametrize("damage", ["cut", "extend"])
    def test_reader_failure_is_exit_1(self, tmp_path, capsys, target, damage):
        # 16 static frames: long enough to classify, and nothing moves, so no
        # trajectory survives and `classify` reports no gesture (exit 0)
        train, classify = _two_clip_model_argv(tmp_path, 16)
        books = tmp_path / "books"
        (tmp_path / "f").mkdir()
        write_features(tmp_path / "f" / "c.igtf", TrajectorySet(
            np.zeros(2), np.zeros((2, 16, 2)), np.arange(2.0 * DESC_DIM).reshape(2, DESC_DIM)
        ))
        codebook = ["codebook", "--features", str(tmp_path / "f"), "--out", str(tmp_path / "cb"), "-k", "1"]
        path, argv = {
            "clip": (tmp_path / "c.igsc", ["detect", "--clip", str(tmp_path / "c.igsc")]),
            "codebook": (books / _codebook_file(Channel.TRAJ), train),
            "encoded": (tmp_path / "e.igev", train),
            "model": (tmp_path / "m.igsv", classify),
            "features": (tmp_path / "f" / "c.igtf", codebook),
        }[target]
        assert main(train) == 0
        assert main(argv) == 0
        capsys.readouterr()
        raw = path.read_bytes()
        path.write_bytes(raw[:-1] if damage == "cut" else raw + b"\0")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("truncated" in err or "bytes after" in err)


class TestBadJsonRowsExitOne:
    """A malformed row in a script, session log or annotation file ends the command with exit 1."""

    LOG_ROW = {
        "step_id": 1, "performed_ok": True, "recognized": "halt",
        "source": "agreed", "latency_frames": 4, "state_after": "halted",
    }

    @pytest.mark.parametrize(
        "row", [None, [1, 2, 3], 5, {**LOG_ROW, "step_id": None}, {**LOG_ROW, "recognized": 5}]
    )
    def test_evaluate_bad_log(self, tmp_path, capsys, row):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(self.LOG_ROW) + "\n" + json.dumps(row) + "\n")
        assert main(["evaluate", "--logs", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: bad log row on line 2")

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    @pytest.mark.parametrize("row", [None, [1, 2, 3], {"step_id": None, "command": "halt", "modality": "A"}])
    def test_bad_script(self, tmp_path, capsys, command, row):
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps(row) + "\n")
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(self.LOG_ROW) + "\n")
        target = ["--out", str(tmp_path / "out.jsonl")] if command == "simulate" else ["--logs", str(log)]
        assert main([command, "--script", str(script), *target]) == 1
        assert capsys.readouterr().err.startswith("error: bad script row on line 1")

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    @pytest.mark.parametrize(
        "rows,message",
        [
            ([{"step_id": 1, "command": "halt", "modality": "AG"}],
             "bad script row on line 1: modality must be A or A-G, not 'AG'"),
            ([{"step_id": 1, "command": "halt", "modality": "A"}, {"step_id": 2, "command": "stop", "modality": "A"},
              {"step_id": 1, "command": "repeat", "modality": "A-G"}], "lists step 1 more than once"),
        ],
        ids=["modality", "repeated-step"],
    )
    def test_script_rows_follow_the_session_step_rules(self, tmp_path, capsys, command, rows, message):
        # `evaluate` once took both files: 'AG' left gesture performance n/a,
        # and the last row of a repeated step id silently won
        script = tmp_path / "script.jsonl"
        script.write_text("".join(json.dumps(r) + "\n" for r in rows))
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(self.LOG_ROW) + "\n")
        target = ["--out", str(tmp_path / "out.jsonl")] if command == "simulate" else ["--logs", str(log)]
        assert main([command, "--script", str(script), *target]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_train_bad_annotation(self, tmp_path, capsys):
        (tmp_path / "a.jsonl").write_text('{"clip": "c.igsc", "label": [1]}\n')
        argv = [
            "train", "--annotations", str(tmp_path / "a.jsonl"), "--codebooks", str(tmp_path),
            "--encoded", str(tmp_path / "e.igev"), "--out", str(tmp_path / "m.igsv"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: bad annotation on line 1")

    def test_config_setting_traj_len_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "cfg.txt").write_text("traj_len = 12\n")
        argv = ["--config", str(tmp_path / "cfg.txt"), "extract", "--clips", str(tmp_path), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "unknown key 'traj_len'" in capsys.readouterr().err

    def test_config_with_infinite_duration_is_exit_1(self, tmp_path, capsys):
        # min_dur_s = inf once passed validation and ended `detect` in an
        # OverflowError from the seconds-to-frames conversion
        (tmp_path / "cfg.txt").write_text("min_dur_s = inf\n")
        write_clip(tmp_path / "c.igsc", Clip(frames=np.zeros((4, 8, 8)), fps=15.0, modality=Modality.RGB))
        argv = ["--config", str(tmp_path / "cfg.txt"), "detect", "--clip", str(tmp_path / "c.igsc")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: min_dur_s must be finite\n"

    @pytest.mark.parametrize("key,value", [("seed", -3), ("codebook_seed", -1)])
    def test_config_with_a_negative_seed_is_exit_1(self, workspace, tmp_path, capsys, key, value):
        # a negative seed once passed validation and ended `synth` or
        # `codebook` in numpy's "expected non-negative integer" ValueError
        (tmp_path / "cfg.txt").write_text(f"{key} = {value}\n")
        command = {
            "seed": ["synth", "--kind", "audio", "--per-command", "1", "--out", str(tmp_path)],
            "codebook_seed": [
                "codebook", "--features", str(workspace / "features"),
                "--annotations", str(workspace / "annotations.jsonl"), "--out", str(tmp_path / "books"),
            ],
        }[key]
        assert main(["--config", str(tmp_path / "cfg.txt"), *command]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {key} must be >= 0\n"


class TestMissingFilesExitOne:
    """An input file that does not exist ends the command with exit 1 and an `error:` line."""

    def test_evaluate_missing_log(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["evaluate", "--logs", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_classify_manifest_names_a_missing_wav(self, tmp_path, capsys):
        wav = tmp_path / "utt.wav"
        wav_write(wav, np.zeros(1600), 16000)
        manifest = tmp_path / "templates.json"
        save_template_manifest(manifest, [{"command_id": 1, "language": "en", "speaker": "s", "path": "gone.wav"}])
        assert main(["classify", "--wav", str(wav), "--templates", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gone.wav" in err


@pytest.mark.parametrize("size", [0, 4, 24])
def test_classify_refuses_a_cut_wav(tmp_path, capsys, size):
    # a cut inside the RIFF or chunk headers once ended in a bare EOFError
    wav_write(tmp_path / "t.wav", np.zeros(1600), 16000)
    save_template_manifest(tmp_path / "m.json", [{"command_id": 1, "language": "en", "speaker": "s", "path": "t.wav"}])
    (tmp_path / "cut.wav").write_bytes((tmp_path / "t.wav").read_bytes()[:size])
    assert main(["classify", "--wav", str(tmp_path / "cut.wav"), "--templates", str(tmp_path / "m.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: WAV file truncated\n"


def _reader_inputs(tmp_path) -> dict[str, tuple[Path, list[str]]]:
    """Per reader of outside input, a valid file and a command that reads it (and exits 0)."""
    train, classify = _two_clip_model_argv(tmp_path, 16)
    assert main(train) == 0
    (tmp_path / "f").mkdir()
    write_features(tmp_path / "f" / "c.igtf", TrajectorySet(
        np.zeros(2), np.zeros((2, 16, 2)), np.arange(2.0 * DESC_DIM).reshape(2, DESC_DIM)
    ))
    write_annotations(tmp_path / "f.jsonl", [
        Annotation(clip="c.igsc", label=0, subject="u", task="legs", start_frame=0, end_frame=16)
    ])
    codebook = ["codebook", "--features", str(tmp_path / "f"), "--out", str(tmp_path / "cb"), "-k", "1"]
    (tmp_path / "cfg.txt").write_text("seed = 4\ncodebook_k = 12\n")
    (tmp_path / "script.jsonl").write_text('{"command": "halt", "modality": "A", "step_id": 1}\n')
    (tmp_path / "log.jsonl").write_text(json.dumps(TestBadJsonRowsExitOne.LOG_ROW) + "\n")
    evaluate = ["evaluate", "--logs", str(tmp_path / "log.jsonl"), "--script", str(tmp_path / "script.jsonl")]
    wav_write(tmp_path / "t.wav", np.zeros(1600), 16000)
    wav_write(tmp_path / "utt.wav", np.zeros(1600), 16000)
    save_template_manifest(tmp_path / "m.json", [
        {"command_id": int(c), "language": "en", "speaker": "s", "path": "t.wav"} for c in Command
    ])
    wav = ["classify", "--wav", str(tmp_path / "utt.wav"), "--templates", str(tmp_path / "m.json")]
    return {
        "IGSC": (tmp_path / "c.igsc", ["detect", "--clip", str(tmp_path / "c.igsc")]),
        "IGTF": (tmp_path / "f" / "c.igtf", codebook),
        "IGCB": (tmp_path / "books" / _codebook_file(Channel.HOF), train),
        "IGEV": (tmp_path / "e.igev", train),
        "IGSV": (tmp_path / "m.igsv", classify),
        "config": (tmp_path / "cfg.txt", ["--config", str(tmp_path / "cfg.txt"), "synth", "--kind", "scripts",
                                          "--out", str(tmp_path / "s")]),
        "annotation": (tmp_path / "f.jsonl", [*codebook, "--annotations", str(tmp_path / "f.jsonl")]),
        "script": (tmp_path / "script.jsonl", evaluate),
        "log": (tmp_path / "log.jsonl", evaluate),
        "manifest": (tmp_path / "m.json", wav),
        "WAV": (tmp_path / "utt.wav", wav),
        "template WAV": (tmp_path / "t.wav", wav),
    }


_TEXT_READERS = ("config", "annotation", "script", "log", "manifest")


@pytest.mark.parametrize(
    "reader,damage",
    [(r, "cut") for r in ("IGSC", "IGTF", "IGCB", "IGEV", "IGSV", *_TEXT_READERS, "WAV")]
    + [(r, "not-utf8") for r in _TEXT_READERS]
    + [("WAV", "extend")]
    + [(r, "long-chunk") for r in ("WAV", "template WAV")],
)
def test_every_reader_of_outside_input_fails_with_one_error_line(tmp_path, capsys, reader, damage):
    # Cut to half its length, given a byte that is not UTF-8, or (a WAV file)
    # one byte after its RIFF chunk or a `fmt ` chunk that declares 2**30
    # bytes, each input ends its command with exit 1 and one `error:` line,
    # never a traceback.
    path, argv = _reader_inputs(tmp_path)[reader]
    assert main(argv) == 0
    capsys.readouterr()
    raw = path.read_bytes()
    path.write_bytes({
        "cut": raw[: len(raw) // 2],
        "not-utf8": raw[:-2] + b"\xff" + raw[-2:],
        "extend": raw + b"\0",
        "long-chunk": raw[:16] + (1 << 30).to_bytes(4, "little") + raw[20:],
    }[damage])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if damage == "not-utf8":
        assert err.startswith(f"error: {path} is not UTF-8 text")
