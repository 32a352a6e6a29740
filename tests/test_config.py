from __future__ import annotations

import inspect
import math
import shutil
from dataclasses import MISSING, fields

import numpy as np
import pytest

from avcmd import synth
from avcmd.audio import default_grammar
from avcmd.cli import main
from avcmd.config import PipelineConfig, load_config
from avcmd.errors import ConfigError
from avcmd.gesture import train_gesture_pipeline
from avcmd.selftest import build_audio_templates
from avcmd.session import BACK_SCRIPT, LEGS_SCRIPT, FusionSource, SessionModels, SessionParams, run_session
from avcmd.trajectories import TrackerParams


def test_defaults_validate():
    cfg = PipelineConfig().validate()
    assert not hasattr(cfg, "traj_len")
    assert cfg.codebook_k == 4000
    assert cfg.svm_c == 100.0
    assert cfg.theta_on == 0.02 and cfg.theta_off == 0.01
    assert math.isclose(cfg.sigma_min, math.sqrt(3.0))


def test_round_trip(tmp_path):
    cfg = PipelineConfig(codebook_k=64, svm_c=10.0, speech_fallback=False)
    path = tmp_path / "cfg.txt"
    lines = ["codebook_k = 64", "svm_c = 10.0", "speech_fallback = false"]
    path.write_text("# pipeline configuration\n\n" + "\n".join(lines) + "\n")
    back = load_config(path)
    assert back == cfg


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\n\ncodebook_k = 32  # inline\nsvm_c = 5.0\n")
    cfg = load_config(path)
    assert cfg.codebook_k == 32
    assert cfg.svm_c == 5.0


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("mystery_knob = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)
    # `jobs` was validated but never read; it is now an unknown key
    path.write_text("jobs = 0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    # `traj_len` is fixed by the descriptor layout; setting it is an error
    path.write_text("traj_len = 12\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    # `lang` reached no output; it is now an unknown key
    path.write_text("lang = de\n")
    with pytest.raises(ConfigError, match="unknown key 'lang'"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("codebook_k = lots\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("codebook_k 32\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "key,value",
    [
        ("theta_on", "0.005"),  # below theta_off default
        ("traj_len", "14"),     # no longer a key: the layout is fixed at L = 15
        ("quality", "0"),
        ("svm_c", "-1"),
        # k's one setter (the `codebook -k` count option is gone)
        ("codebook_k", "0"),
        ("codebook_k", "-1"),
        ("lang", "fr"),         # no longer a key: rejected as unknown
        ("jobs", "0"),          # no longer a key: rejected as unknown
        # a codebook seed of codebook_seed + 3, or of seed + 1 + 3, past IGCB's u64
        ("codebook_seed", str(2**64 - 3)),
        ("codebook_seed", str(2**64)),
        ("seed", str(2**64 - 4)),
        ("seed", str(2**64 - 2)),
        # a duration past a day, whose frame count could overflow
        ("min_dur_s", "86400.001"),
        ("max_gap_s", "1e308"),
        # an SNR past 300 dB, whose noise power overflows or underflows
        ("snr_db", "300.001"),
        ("snr_db", "-300.001"),
    ],
)
def test_range_violations(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_the_largest_seeds_whose_codebook_seeds_fit_validate():
    PipelineConfig(seed=2**64 - 5, codebook_seed=2**64 - 4).validate()


@pytest.mark.parametrize("snr_db", [-300.0, 300.0])
def test_the_edges_of_the_duration_and_snr_bounds_validate(snr_db):
    cfg = PipelineConfig(min_dur_s=86400.0, max_gap_s=86400.0, snr_db=snr_db).validate()
    # at the largest fps IGSC's float32 holds, a day is still a frame count
    params = cfg.session_params(float(np.finfo(np.float32).max))
    assert params.min_dur_frames == params.max_gap_frames == round(86400.0 * float(np.finfo(np.float32).max))
    assert np.isfinite(synth.generate_command_audio(0, speaker_seed=1, snr_db=snr_db)).all()


def test_repeated_key_rejected(tmp_path):
    # the second value once silently won
    path = tmp_path / "cfg.txt"
    path.write_text("codebook_k = 8\n# a comment\ncodebook_k = 16\n")
    with pytest.raises(ConfigError, match="line 3: key 'codebook_k' set a second time"):
        load_config(path)


FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


def test_every_key_is_a_number_or_a_flag():
    assert len(fields(PipelineConfig)) == 17
    assert {f.type for f in fields(PipelineConfig)} == {"int", "float", "bool"}


def test_float_keys_are_the_ten_numeric_tunables():
    assert FLOAT_KEYS == [
        "quality", "sigma_min", "svm_c", "tau_noise", "theta_on", "theta_off",
        "min_dur_s", "max_gap_s", "keyword_threshold", "snr_db",
    ]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_floats_rejected(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(path)


def test_bool_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("speech_fallback = off\n")
    assert load_config(path).speech_fallback is False
    path.write_text("speech_fallback = maybe\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_session_params_conversion():
    cfg = PipelineConfig().validate()
    sp = cfg.session_params(fps=15.0)
    assert sp.min_dur_frames == 6   # 0.4 s at 15 fps
    assert sp.max_gap_frames == 8   # 0.5 s rounded
    # Every default has one value: the config's objects equal the defaults'.
    assert cfg.tracker_params() == TrackerParams()
    assert cfg.session_params(synth.FPS) == SessionParams()
    assert cfg.tracker_params().traj_len == 15


def test_only_settings_with_a_caller_are_settable():
    """The settable values (parameters and fields with a default) of these
    signatures; each has a caller in `src/` or `bench/`, and a value only
    tests need is a module constant that they monkeypatch."""
    from avcmd import encoding, flow, gesture, selftest, session, svm, trajectories

    signatures = {
        flow.FramePyramid: ["levels"],
        flow.dense_flow: [],
        svm.train_kernel_svm: ["c"],
        svm.train_kernel_svms: ["c"],
        encoding.train_codebook: ["channel", "subsample"],
        gesture.evaluate_loo_bovw: ["c"],
        gesture.train_bovw_model: [],
        session.run_session: ["params"],
        synth.build_session_streams: ["gesture_noise"],
        synth.generate_corpus: ["frames", "size"],
        selftest.build_audio_templates: ["per_command"],
        selftest.build_gesture_artifacts: [],
        selftest.criterion_flow_oracle: [],
        selftest.criterion_kernel_gram: [],
        trajectories.is_erratic: [],
    }
    settable = {
        fn.__name__: [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]
        for fn in signatures
    }
    assert settable == {fn.__name__: names for fn, names in signatures.items()}
    assert [(f.name, f.default) for f in fields(trajectories.TrackResult)] == [("trajectories", MISSING)]
    assert sum(map(len, settable.values())) == 11


# ---------------------------------------------------------------------------
# every key reaches an output

# The baseline of the smoke tree below: the default k = 4000 exceeds its descriptors.
BASELINE = "codebook_k = 8\n"

# Per command, its argv in the smoke tree; every file it writes goes under `out`.
COMMANDS = {
    "synth gestures": ["synth", "--kind", "gestures", "--out", "out", "--clips-per-class", "1", "--frames", "16"],
    "synth audio": ["synth", "--kind", "audio", "--out", "out", "--per-command", "1"],
    "extract": ["extract", "--clips", "g/clips", "--out", "out"],
    "codebook": ["codebook", "--features", "f", "--annotations", "g/annotations.jsonl", "--out", "out"],
    "train": ["train", "--encoded", "e.igev", "--annotations", "g/annotations.jsonl", "--codebooks", "cb",
              "--out", "out/m.igsv"],
    "detect rgb": ["detect", "--clip", "g/clips/g0000_rgb.igsc"],
    "detect depth": ["detect", "--clip", "g/clips/g0005_logdepth.igsc"],
    "classify --wav": ["classify", "--wav", "a/audio/stop_00.wav", "--templates", "a/audio/manifest.jsonl"],
    "simulate": ["simulate", "--out", "out/log.jsonl", "--train-clips-per-class", "1"],
}

# Per key, one valid value other than the baseline's and the command whose
# output it changes. `speech_fallback` has its own test below.
REACH = {
    "grid_step": ("8", "extract"),
    "quality": ("0.01", "extract"),
    "sigma_min": ("1.0", "extract"),
    "pyramid_levels": ("1", "extract"),
    "codebook_k": ("6", "codebook"),
    "codebook_seed": ("1", "codebook"),
    "descriptor_subsample": ("50", "codebook"),
    "svm_c": ("0.01", "train"),
    "tau_noise": ("40", "detect rgb"),
    "theta_on": ("0.3", "detect rgb"),
    "theta_off": ("0.02", "detect depth"),
    "min_dur_s": ("1.2", "detect rgb"),
    "max_gap_s": ("0.1", "simulate"),
    "keyword_threshold": ("2.0", "classify --wav"),
    "snr_db": ("5", "synth audio"),
    "seed": ("1", "synth gestures"),
}


@pytest.fixture(scope="module")
def smoke_tree(tmp_path_factory):
    """Gesture clips and their features, codebooks and encodings, and speech
    templates, all made through the CLI from the baseline config."""
    root = tmp_path_factory.mktemp("smoke")
    (root / "cfg.txt").write_text(BASELINE)
    build = [
        ["synth", "--kind", "gestures", "--out", "g", "--clips-per-class", "1", "--frames", "16"],
        ["synth", "--kind", "audio", "--out", "a", "--per-command", "1"],
        ["extract", "--clips", "g/clips", "--out", "f"],
        ["codebook", "--features", "f", "--annotations", "g/annotations.jsonl", "--out", "cb"],
        ["encode", "--features", "f", "--annotations", "g/annotations.jsonl", "--codebooks", "cb", "--out", "e.igev"],
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in build:
            assert main(["--config", "cfg.txt", *argv]) == 0
    return root


def _command_output(tree, capsys, config: str, command: str) -> tuple[str, dict]:
    """Standard output and every file `command` writes, run in `tree` under `config`."""
    (tree / "cfg.txt").write_text(config)
    shutil.rmtree(tree / "out", ignore_errors=True)
    (tree / "out").mkdir()
    capsys.readouterr()
    assert main(["--config", "cfg.txt", *COMMANDS[command]]) == 0
    files = {str(p.relative_to(tree)): p.read_bytes() for p in sorted((tree / "out").rglob("*")) if p.is_file()}
    return capsys.readouterr().out, files


@pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig) if f.name != "speech_fallback"])
def test_every_key_changes_a_command_output(smoke_tree, capsys, monkeypatch, key):
    if key not in REACH:
        pytest.fail(f"{key} changes no command output on the smoke tree")
    value, command = REACH[key]
    monkeypatch.chdir(smoke_tree)
    base = _command_output(smoke_tree, capsys, BASELINE, command)
    # a config sets each key once, so the key's line replaces the baseline's
    config = f"{key} = {value}\n" if key == "codebook_k" else f"{BASELINE}{key} = {value}\n"
    assert _command_output(smoke_tree, capsys, config, command) != base


def test_speech_fallback_changes_a_session_where_speech_and_gesture_disagree(tmp_path):
    # LEGS speech over BACK video: the scripts share step windows and differ in
    # the commands of five steps, where speech and gesture can disagree.
    cfg = PipelineConfig()
    samples = synth.generate_corpus(1, seed=cfg.seed, frames=20)
    pipeline = train_gesture_pipeline(
        [s.rgb for s in samples], [s.label for s in samples], k=32, seed=cfg.seed + 1, c=cfg.svm_c,
        tracker=cfg.tracker_params(), subsample=20_000,
    )
    models = SessionModels(gesture=pipeline, templates=build_audio_templates(cfg.seed + 40),
                           grammar=default_grammar())
    legs = synth.build_session_streams(LEGS_SCRIPT, seed=cfg.seed + 41)
    back = synth.build_session_streams(BACK_SCRIPT, seed=cfg.seed + 41)
    assert [s.window for s in legs.steps] == [s.window for s in back.steps]
    logs = []
    for value in ("true", "false"):
        (tmp_path / "cfg.txt").write_text(f"speech_fallback = {value}\n")
        params = load_config(tmp_path / "cfg.txt").session_params(back.video.fps)
        logs.append(run_session(back.video, legs.audio_events, back.steps, models, params).entries)
    assert any(a.source is FusionSource.SPEECH_ONLY and b.recognized is None for a, b in zip(*logs))
