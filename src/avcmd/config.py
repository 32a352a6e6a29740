"""Pipeline configuration: one flat key-value namespace for every tunable.

Values load from a plain-text file of `key = value` lines with `#` comments.
Unknown keys, out-of-range values and non-finite floats are rejected.
Tracking constants follow the dense-trajectory literature's published
defaults; the online thresholds are tuned on the synthetic suite; both kinds
are ordinary config here, so a deployment can pin its own. Each default is
written once, where the value is used: on `TrackerParams`, `SessionParams`,
`svm.DEFAULT_C` and `encoding.DESCRIPTOR_SUBSAMPLE`. The trajectory length,
the descriptor cell grid and tube, and the erratic and zero-motion
thresholds are not config: they fix the 426-value descriptor layout and its
pruning, and live as constants on `TrackerParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .encoding import DESCRIPTOR_SUBSAMPLE
from .errors import ConfigError, open_text
from .session import SessionParams
from .svm import DEFAULT_C
from .trajectories import TrackerParams


@dataclass
class PipelineConfig:
    # trajectory extraction (standard dense-trajectory settings)
    grid_step: int = TrackerParams.grid_step
    quality: float = TrackerParams.quality
    sigma_min: float = TrackerParams.sigma_min
    pyramid_levels: int = TrackerParams.pyramid_levels
    # encoding
    codebook_k: int = 4000
    codebook_seed: int = 0
    descriptor_subsample: int = DESCRIPTOR_SUBSAMPLE
    # classification
    svm_c: float = DEFAULT_C
    # online activity detection (tuned on the synthetic suite); the two
    # durations are in seconds, SessionParams' in frames
    tau_noise: float = SessionParams.tau_noise
    theta_on: float = SessionParams.theta_on
    theta_off: float = SessionParams.theta_off
    min_dur_s: float = 0.4
    max_gap_s: float = 0.5
    # audio and fusion
    keyword_threshold: float = SessionParams.keyword_threshold
    speech_fallback: bool = SessionParams.speech_fallback
    snr_db: float = 20.0
    # misc
    seed: int = 42
    lang: str = SessionParams.lang

    def validate(self) -> "PipelineConfig":
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        checks = [
            (self.grid_step >= 1, "grid_step must be >= 1"),
            (0.0 < self.quality <= 1.0, "quality must be in (0, 1]"),
            (self.sigma_min > 0.0, "sigma_min must be positive"),
            (self.pyramid_levels >= 1, "pyramid_levels must be >= 1"),
            (self.codebook_k >= 1, "codebook_k must be >= 1"),
            (self.codebook_seed >= 0, "codebook_seed must be >= 0"),
            (self.descriptor_subsample >= 1, "descriptor_subsample must be >= 1"),
            (self.svm_c > 0.0, "svm_c must be positive"),
            (self.tau_noise >= 0.0, "tau_noise must be nonnegative"),
            (0.0 <= self.theta_off <= self.theta_on <= 1.0, "need 0 <= theta_off <= theta_on <= 1"),
            (self.min_dur_s > 0.0, "min_dur_s must be positive"),
            (self.max_gap_s > 0.0, "max_gap_s must be positive"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.lang in ("en", "de", "it"), "lang must be one of en, de, it"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    def tracker_params(self) -> TrackerParams:
        return TrackerParams(
            grid_step=self.grid_step,
            quality=self.quality,
            sigma_min=self.sigma_min,
            pyramid_levels=self.pyramid_levels,
        )

    def session_params(self, fps: float) -> SessionParams:
        return SessionParams(
            tau_noise=self.tau_noise,
            theta_on=self.theta_on,
            theta_off=self.theta_off,
            min_dur_frames=max(1, int(round(self.min_dur_s * fps))),
            max_gap_frames=max(1, int(round(self.max_gap_s * fps))),
            keyword_threshold=self.keyword_threshold,
            speech_fallback=self.speech_fallback,
            lang=self.lang,
        )


def _parse_value(name: str, text: str, kind: type):
    text = text.strip()
    try:
        if kind is bool:
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value for {name}: {text!r}") from None


def load_config(path: str | Path) -> PipelineConfig:
    known = {f.name: f.type for f in fields(PipelineConfig)}
    types = {"int": int, "float": float, "bool": bool, "str": str}
    cfg = PipelineConfig()
    for lineno, raw in enumerate(open_text(path, ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        name, _, value = line.partition("=")
        name = name.strip()
        if name not in known:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        kind = types.get(known[name], str) if isinstance(known[name], str) else known[name]
        setattr(cfg, name, _parse_value(name, value, kind))
    return cfg.validate()

