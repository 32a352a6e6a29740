from __future__ import annotations

import inspect
import math
from dataclasses import MISSING, fields

import pytest

from avcmd import synth
from avcmd.config import PipelineConfig, load_config
from avcmd.errors import ConfigError
from avcmd.session import SessionParams
from avcmd.trajectories import TrackerParams


def test_defaults_validate():
    cfg = PipelineConfig().validate()
    assert not hasattr(cfg, "traj_len")
    assert cfg.codebook_k == 4000
    assert cfg.svm_c == 100.0
    assert cfg.theta_on == 0.02 and cfg.theta_off == 0.01
    assert math.isclose(cfg.sigma_min, math.sqrt(3.0))


def test_round_trip(tmp_path):
    cfg = PipelineConfig(codebook_k=64, svm_c=10.0, speech_fallback=False, lang="de")
    path = tmp_path / "cfg.txt"
    lines = ["codebook_k = 64", "svm_c = 10.0", "speech_fallback = false", "lang = de"]
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
        ("lang", "fr"),
        ("jobs", "0"),          # no longer a key: rejected as unknown
    ],
)
def test_range_violations(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


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
    from avcmd import encoding, flow, selftest, svm, trajectories

    signatures = {
        flow.FramePyramid: ["levels"],
        flow.dense_flow: [],
        svm.train_kernel_svm: ["c"],
        svm.train_kernel_svms: ["c"],
        encoding.train_codebook: ["channel", "subsample"],
        synth.build_session_streams: ["gesture_noise"],
        synth.generate_corpus: ["frames", "size"],
        selftest.build_audio_templates: ["per_command"],
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
    assert sum(map(len, settable.values())) == 9
