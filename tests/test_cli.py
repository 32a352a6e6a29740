from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from avcmd.cli import _codebook_file, build_parser, main
from avcmd.container import Annotation, read_clip, write_annotations, write_clip
from avcmd.encoding import CHANNEL_ORDER, BovwHist, Channel, Codebook, write_codebook, write_encoded
from avcmd.errors import read_json_rows, write_json_rows
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
        (tmp_path / "cfg.txt").write_text("codebook_k = 6\n")
        assert main([
            "--config", str(tmp_path / "cfg.txt"), "codebook",
            "--features", str(workspace / "features"),
            "--annotations", str(workspace / "annotations.jsonl"),
            "--out", str(other),
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
        manifest = tmp_path / "audio" / "manifest.jsonl"
        rows = read_json_rows(manifest, "manifest row", dict)
        assert all(set(r) == {"command_id", "path"} for r in rows)
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
        manifest = tmp_path / "audio" / "manifest.jsonl"
        rows = read_json_rows(manifest, "manifest row", dict)
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

    def test_evaluate_keys_the_report_by_its_script(self, tmp_path, capsys):
        # `--task` used to default to "legs" whatever the script
        log = tmp_path / "back.jsonl"
        log.write_text(json.dumps({**TestBadJsonRowsExitOne.LOG_ROW, "recognized": "wash_back"}) + "\n")
        report = tmp_path / "report.json"
        assert main(["evaluate", "--logs", str(log), "--script", "back", "--report", str(report)]) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[0] == "back"
        assert list(json.loads(report.read_text())) == ["back"]
        assert main(["evaluate", "--logs", str(log), "--script", "back", "--task", "b2", "--report", str(report)]) == 0
        assert list(json.loads(report.read_text())) == ["b2"]

    def test_evaluate_a_log_with_no_correctly_performed_step(self, tmp_path, capsys):
        # MCRR has no denominator: the report says n/a (0 of 0), as for gesture
        # performance without an A-G step, where it used to end in exit 1
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps({**TestBadJsonRowsExitOne.LOG_ROW, "performed_ok": False}) + "\n")
        report = tmp_path / "report.json"
        assert main(["evaluate", "--logs", str(log), "--report", str(report)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[2].split() == ["legs", "n/a", "0.00", "0.00", "n/a"]
        blob = json.loads(report.read_text())["legs"]
        assert blob["mcrr"] == blob["user_performance"]["gesture"] == {"num": 0, "den": 0, "pct": None}
        assert blob["accuracy"] == {"num": 0, "den": 1, "pct": 0.0}

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
            ["codebook", "--features", "f", "--out", "books"],
            ["encode", "--features", "f", "--codebooks", "books", "--out", "e.igev"],
        ],
        ids=["classify-without-inputs", "classify-wav-without-templates", "train-without-encoded",
             "codebook-without-annotations", "encode-without-annotations"],
    )
    def test_missing_inputs_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--kind", "bovw", "--features", "f", "--annotations", "a.jsonl", "--codebooks", "books",
             "--out", "e.igev"],
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

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["codebook", "--features", "f", "--annotations", "a.jsonl", "--out", "books", "-k", "8"], "-k"),
            (["train", "--encoded", "e.igev", "--annotations", "a.jsonl", "--codebooks", "books",
              "--out", "m.igsv", "-c", "1"], "-c"),
        ],
        ids=["codebook-k", "train-c"],
    )
    def test_k_and_c_are_set_only_by_the_config(self, capsys, argv, option):
        # `codebook_k` and `svm_c` are their one setter; the flags that restated them are gone
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_each_command_accepts_exactly_these_options(self):
        # One table of every option string the parser accepts, so a flag that
        # sets a config key a second time cannot come back without an edit here.
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in [("", parser), *sub.choices.items()]
        }
        assert accepted == {
            "": ["--config"],
            "synth": ["--kind", "--out", "--clips-per-class", "--per-command", "--frames", "--size", "--subjects"],
            "extract": ["--clips", "--out"],
            "codebook": ["--features", "--annotations", "--out"],
            "encode": ["--features", "--annotations", "--codebooks", "--out"],
            "train": ["--encoded", "--annotations", "--codebooks", "--out"],
            "classify": ["--model", "--codebooks", "--clip", "--wav", "--templates", "--keyword-score"],
            "detect": ["--clip"],
            "simulate": ["--script", "--out", "--gesture-noise", "--train-clips-per-class"],
            "evaluate": ["--logs", "--script", "--task", "--report", "--curve"],
            "selftest": ["--profile", "--report"],
        }

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--kind", "gestures", "--clips-per-class", "1", "--subjects"],
            ["synth", "--kind", "gestures", "--clips-per-class"],
            ["synth", "--kind", "audio", "--per-command"],
            ["simulate", "--train-clips-per-class"],
        ],
        ids=["subjects", "clips-per-class", "per-command", "train-clips-per-class"],
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
        Annotation(clip=f"c{i}.igsc", label=i, subject="u") for i in range(2)
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
    # the config is C's one setter (`-c 0` once trained with the configured svm_c instead)
    train, _ = _two_clip_model_argv(tmp_path, 16)
    (tmp_path / "cfg.txt").write_text(f"svm_c = {c}\n")
    _refused(["--config", str(tmp_path / "cfg.txt"), *train], capsys, "svm_c must be positive")
    assert not (tmp_path / "m.igsv").exists()


def _train_on_second_label(tmp_path, label) -> list[str]:
    """`train` argv whose sidecar labels clip c0 with 0 and clip c1 with `label`."""
    train, _ = _two_clip_model_argv(tmp_path, 16)
    write_annotations(tmp_path / "a.jsonl", [
        Annotation(clip=f"c{i}.igsc", label=(0 if i == 0 else label), subject="u") for i in range(2)
    ])
    return train


def test_train_refuses_an_unlabeled_clip(tmp_path, capsys):
    # `codebook` and `encode` accept a null label; `train` has nothing to learn from it
    _refused(_train_on_second_label(tmp_path, None), capsys, "clip c1.igsc has no label to train on")
    assert not (tmp_path / "m.igsv").exists()


@pytest.mark.parametrize("label", [99, 3_000_000_000])
def test_train_refuses_a_label_that_is_no_gesture_class(tmp_path, capsys, label):
    # 99 trained a class that no command has; 3000000000 ended in a traceback,
    # since IGSV stores class ids as i32
    message = f"clip c1.igsc has label {label}, not one of the gesture classes [0, 1, 2, 3, 4, 5, 6]"
    _refused(_train_on_second_label(tmp_path, label), capsys, message)
    assert not (tmp_path / "m.igsv").exists()


def _refused(argv, capsys, message: str) -> None:
    """`argv` ends with exit 1, no output and the one error line `message`."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_train_on_a_file_of_fewer_channels_than_the_codebooks_is_exit_1(tmp_path, capsys):
    # a one-channel IGEV used to end in a KeyError traceback
    train, _ = _two_clip_model_argv(tmp_path, 16)
    write_encoded(tmp_path / "e.igev", [{Channel.HOG: BovwHist(counts=np.eye(2)[i], channel=Channel.HOG)}
                                        for i in range(2)])
    _refused(train, capsys, "a model needs training histograms, channel means and codebook hashes of one channel set")
    assert not (tmp_path / "m.igsv").exists()


def test_train_with_codebooks_of_another_k_than_the_encoding_is_exit_1(workspace, tmp_path, capsys):
    # the model used to claim the k = 6 hashes, and `classify` then failed
    books = tmp_path / "books"
    (tmp_path / "cfg.txt").write_text("codebook_k = 6\n")
    assert main(["--config", str(tmp_path / "cfg.txt"), "codebook", "--features", str(workspace / "features"),
                 "--annotations", str(workspace / "annotations.jsonl"), "--out", str(books)]) == 0
    capsys.readouterr()
    _refused([
        "train", "--encoded", str(workspace / "encoded.igev"), "--annotations", str(workspace / "annotations.jsonl"),
        "--codebooks", str(books), "--out", str(tmp_path / "m.igsv"),
    ], capsys, "TRAJ histograms have 12 bins, its codebook 6")
    assert not (tmp_path / "m.igsv").exists()


def test_train_on_an_empty_sidecar_is_exit_1(tmp_path, capsys):
    train, _ = _two_clip_model_argv(tmp_path, 16)
    write_annotations(tmp_path / "a.jsonl", [])
    write_encoded(tmp_path / "e.igev", [])
    _refused(train, capsys, f"annotation sidecar {tmp_path / 'a.jsonl'} lists no clip")


@pytest.mark.parametrize("command", ["codebook", "encode"])
def test_codebook_and_encode_on_an_empty_sidecar_are_exit_1(tmp_path, capsys, command):
    # the sidecar is the chain's one clip list, so an empty one is refused by name
    write_annotations(tmp_path / "a.jsonl", [])
    argv = ["--features", str(tmp_path), "--annotations", str(tmp_path / "a.jsonl"), "--out", str(tmp_path / "o")]
    if command == "encode":
        argv += ["--codebooks", str(tmp_path)]
    _refused([command, *argv], capsys, f"annotation sidecar {tmp_path / 'a.jsonl'} lists no clip")


def test_the_chain_keeps_the_sidecar_order(workspace, tmp_path, capsys):
    # One RGB clip per class, listed by descending label: `train` labels the
    # encoded clips in sidecar order, so `encode` must take that order too.
    # Without a sidecar it used to sort clips by name, and the model then
    # classified its own training clips as other classes.
    one_per_label = {}
    for row in read_json_rows(workspace / "annotations.jsonl", "annotation", dict):
        if row["clip"].endswith("_rgb.igsc"):
            one_per_label.setdefault(row["label"], row)
    picked = [one_per_label[label] for label in sorted(one_per_label, reverse=True)]
    assert len(picked) == 7
    write_json_rows(tmp_path / "a.jsonl", picked)
    (tmp_path / "cfg.txt").write_text("codebook_k = 8\n")
    common = ["--features", str(workspace / "features"), "--annotations", str(tmp_path / "a.jsonl")]
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--features", str(workspace / "features"), "--codebooks", str(tmp_path / "cb"),
              "--out", str(tmp_path / "e.igev")])
    assert exc.value.code == 2
    for argv in (
        ["codebook", *common, "--out", str(tmp_path / "cb")],
        ["encode", *common, "--codebooks", str(tmp_path / "cb"), "--out", str(tmp_path / "e.igev")],
        ["train", "--encoded", str(tmp_path / "e.igev"), "--annotations", str(tmp_path / "a.jsonl"),
         "--codebooks", str(tmp_path / "cb"), "--out", str(tmp_path / "m.igsv")],
    ):
        assert main(["--config", str(tmp_path / "cfg.txt"), *argv]) == 0
    capsys.readouterr()
    for row in picked:
        assert main(["classify", "--model", str(tmp_path / "m.igsv"), "--codebooks", str(tmp_path / "cb"),
                     "--clip", str(workspace / "clips" / row["clip"])]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"label: {row['label']}"


def test_codebook_over_features_without_trajectories_is_exit_1(tmp_path, capsys):
    # the empty pool used to end in vstack's ValueError traceback
    for i in range(2):
        write_features(tmp_path / f"c{i}.igtf", TrajectorySet.empty())
    write_annotations(tmp_path / "a.jsonl", [Annotation(clip=f"c{i}.igsc", label=i, subject="u") for i in range(2)])
    (tmp_path / "cfg.txt").write_text("codebook_k = 2\n")
    _refused(["--config", str(tmp_path / "cfg.txt"), "codebook", "--features", str(tmp_path),
              "--annotations", str(tmp_path / "a.jsonl"), "--out", str(tmp_path / "books")],
             capsys, "need at least 2 descriptors, got 0")


@pytest.mark.parametrize("key,value", [("codebook_seed", 2**64), ("seed", 2**64 - 2)])
def test_config_with_a_seed_past_igcb_is_exit_1(workspace, tmp_path, capsys, key, value):
    # such a seed passed validation and ended `codebook` or `simulate` in
    # struct.error once every k-means had run
    (tmp_path / "cfg.txt").write_text(f"{key} = {value}\n")
    command = {
        "codebook_seed": ["codebook", "--features", str(workspace / "features"),
                          "--annotations", str(workspace / "annotations.jsonl"), "--out", str(tmp_path / "books")],
        "seed": ["simulate", "--out", str(tmp_path / "log.jsonl"), "--train-clips-per-class", "1"],
    }[key]
    offset = {"codebook_seed": 3, "seed": 4}[key]
    _refused(["--config", str(tmp_path / "cfg.txt"), *command], capsys, f"{key} + {offset} must fit in IGCB's u64 seed")



@pytest.mark.parametrize(
    "config,command,message",
    [
        ("max_gap_s = 1e308\n", "detect", "max_gap_s must be in (0, 86400] s"),
        ("min_dur_s = 1e308\n", "simulate", "min_dur_s must be in (0, 86400] s"),
        ("snr_db = 1e308\n", "synth", "snr_db must be in [-300, 300] dB"),
        ("snr_db = -1e308\n", "synth", "snr_db must be in [-300, 300] dB"),
        ("snr_db = -3100\n", "synth", "snr_db must be in [-300, 300] dB"),
        ("codebook_k = 8\ncodebook_k = 16\n", "synth", "line 2: key 'codebook_k' set a second time"),
    ],
    ids=["max_gap_s", "min_dur_s", "snr_db-overflow", "snr_db-zero-noise-scale", "snr_db-nan-wave", "repeated-key"],
)
def test_config_value_the_commands_cannot_use_is_exit_1(tmp_path, capsys, config, command, message):
    # a duration whose frame count overflowed ended `detect` (and `simulate`,
    # after training) in OverflowError; these SNRs ended `synth --kind audio`
    # in OverflowError or ZeroDivisionError or wrote a NaN waveform; and the
    # second value of a repeated key silently won
    (tmp_path / "cfg.txt").write_text(config)
    write_clip(tmp_path / "c.igsc", Clip(frames=np.zeros((4, 8, 8)), fps=15.0, modality=Modality.RGB))
    argv = {
        "detect": ["detect", "--clip", str(tmp_path / "c.igsc")],
        "simulate": ["simulate", "--out", str(tmp_path / "log.jsonl"), "--train-clips-per-class", "1"],
        "synth": ["synth", "--kind", "audio", "--per-command", "1", "--out", str(tmp_path / "a")],
    }[command]
    _refused(["--config", str(tmp_path / "cfg.txt"), *argv], capsys, message)
    assert not (tmp_path / "a").exists()

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
        codebook = _one_clip_codebook_argv(tmp_path)
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
        manifest = tmp_path / "templates.jsonl"
        write_json_rows(manifest, [{"command_id": 1, "path": "gone.wav"}])
        assert main(["classify", "--wav", str(wav), "--templates", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gone.wav" in err


@pytest.mark.parametrize("size", [0, 4, 24])
def test_classify_refuses_a_cut_wav(tmp_path, capsys, size):
    # a cut inside the RIFF or chunk headers once ended in a bare EOFError
    wav_write(tmp_path / "t.wav", np.zeros(1600), 16000)
    write_json_rows(tmp_path / "m.jsonl", [{"command_id": 1, "path": "t.wav"}])
    (tmp_path / "cut.wav").write_bytes((tmp_path / "t.wav").read_bytes()[:size])
    assert main(["classify", "--wav", str(tmp_path / "cut.wav"), "--templates", str(tmp_path / "m.jsonl")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: WAV file truncated\n"


def _one_clip_codebook_argv(tmp_path) -> list[str]:
    """`codebook` argv at k = 1 over the one feature file `f/c.igtf`, listed in `f.jsonl`."""
    write_annotations(tmp_path / "f.jsonl", [Annotation(clip="c.igsc", label=0, subject="u")])
    (tmp_path / "k1.txt").write_text("codebook_k = 1\n")
    return ["--config", str(tmp_path / "k1.txt"), "codebook", "--features", str(tmp_path / "f"),
            "--annotations", str(tmp_path / "f.jsonl"), "--out", str(tmp_path / "cb")]


def _reader_inputs(tmp_path) -> dict[str, tuple[Path, list[str]]]:
    """Per reader of outside input, a valid file and a command that reads it (and exits 0)."""
    train, classify = _two_clip_model_argv(tmp_path, 16)
    assert main(train) == 0
    (tmp_path / "f").mkdir()
    write_features(tmp_path / "f" / "c.igtf", TrajectorySet(
        np.zeros(2), np.zeros((2, 16, 2)), np.arange(2.0 * DESC_DIM).reshape(2, DESC_DIM)
    ))
    codebook = _one_clip_codebook_argv(tmp_path)
    (tmp_path / "cfg.txt").write_text("seed = 4\ncodebook_k = 12\n")
    (tmp_path / "script.jsonl").write_text('{"command": "halt", "modality": "A", "step_id": 1}\n')
    (tmp_path / "log.jsonl").write_text(json.dumps(TestBadJsonRowsExitOne.LOG_ROW) + "\n")
    evaluate = ["evaluate", "--logs", str(tmp_path / "log.jsonl"), "--script", str(tmp_path / "script.jsonl")]
    wav_write(tmp_path / "t.wav", np.zeros(1600), 16000)
    wav_write(tmp_path / "utt.wav", np.zeros(1600), 16000)
    write_json_rows(tmp_path / "m.jsonl", [
        {"command_id": int(c), "path": "t.wav"} for c in Command
    ])
    wav = ["classify", "--wav", str(tmp_path / "utt.wav"), "--templates", str(tmp_path / "m.jsonl")]
    return {
        "IGSC": (tmp_path / "c.igsc", ["detect", "--clip", str(tmp_path / "c.igsc")]),
        "IGTF": (tmp_path / "f" / "c.igtf", codebook),
        "IGCB": (tmp_path / "books" / _codebook_file(Channel.HOF), train),
        "IGEV": (tmp_path / "e.igev", train),
        "IGSV": (tmp_path / "m.igsv", classify),
        "config": (tmp_path / "cfg.txt", ["--config", str(tmp_path / "cfg.txt"), "synth", "--kind", "scripts",
                                          "--out", str(tmp_path / "s")]),
        "annotation": (tmp_path / "f.jsonl", codebook),
        "script": (tmp_path / "script.jsonl", evaluate),
        "log": (tmp_path / "log.jsonl", evaluate),
        "manifest": (tmp_path / "m.jsonl", wav),
        "WAV": (tmp_path / "utt.wav", wav),
        "template WAV": (tmp_path / "t.wav", wav),
    }


_TEXT_READERS = ("config", "annotation", "script", "log", "manifest")


@pytest.mark.parametrize(
    "reader,damage",
    [(r, "cut") for r in ("IGSC", "IGTF", "IGCB", "IGEV", "IGSV", *_TEXT_READERS, "WAV")]
    + [(r, "not-utf8") for r in _TEXT_READERS]
    + [("WAV", "extend")]
    + [(r, "long-chunk") for r in ("WAV", "template WAV")]
    + [("manifest", "unknown-command")],
)
def test_every_reader_of_outside_input_fails_with_one_error_line(tmp_path, capsys, reader, damage):
    # Cut to half its length, given a byte that is not UTF-8, (a WAV file)
    # one byte after its RIFF chunk or a `fmt ` chunk that declares 2**30
    # bytes, or (the manifest) a row of a command id that no command has, each
    # input ends its command with exit 1 and one `error:` line, never a traceback.
    path, argv = _reader_inputs(tmp_path)[reader]
    assert main(argv) == 0
    capsys.readouterr()
    raw = path.read_bytes()
    path.write_bytes({
        "cut": raw[: len(raw) // 2],
        "not-utf8": raw[:-2] + b"\xff" + raw[-2:],
        "extend": raw + b"\0",
        "long-chunk": raw[:16] + (1 << 30).to_bytes(4, "little") + raw[20:],
        "unknown-command": raw.replace(b'"command_id": 0,', b'"command_id": 99,', 1),
    }[damage])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if damage == "not-utf8":
        assert err.startswith(f"error: {path} is not UTF-8 text")
    if damage == "unknown-command":
        assert err == "error: bad manifest row on line 1: 99 is not a valid Command\n"
