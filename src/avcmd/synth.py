"""Procedural corpora with known ground truth.

Video: a textured limb rectangle moves over a static textured background
following one motion pattern per command class, rendered with subpixel
positions in both an RGB-carried intensity stream and a matched depth stream
(limb nearer than the background). The background class drifts below the
activity detector's trigger threshold instead of performing a gesture.

Audio: each command has a fixed two-formant sweep recipe; speakers differ by
seeded pitch/rate jitter and utterances carry additive white noise at a
requested SNR.

Everything is deterministic per (spec, seed): generating twice yields
byte-identical clips and waves.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .flow import binomial_blur
from .frames import Clip, Modality, Sensor, log_depth
from .mfcc import mfcc
from .session import AudioEvent, SessionStep
from .trajectories import TrackerParams
from .vocabulary import BACKGROUND_LABEL, COMMAND_GESTURES, Command, MotionPattern

MIN_CLIP_FRAMES = TrackerParams.traj_len + 1
FPS = 15.0           # frames per second of every clip and session stream
D_MAX = 4095         # depth range of every rendered depth stream
DEPTH_NOISE_SIGMA = 6.0  # mm, sensor noise of every rendered depth stream
SAMPLE_RATE = 16000  # Hz, every synthesized waveform
MAX_SNR_DB = 300.0   # |SNR| bound, dB: inside it the noise power is finite and nonzero

# Session streams: one larger scene whose limb and gesture excursions exceed
# the corpus clips' so every pattern clears the activity trigger.
SESSION_SIZE = 120
SESSION_SNR_DB = 20.0
SESSION_NOISE_SIGMA = 3.0
SESSION_LIMB_W, SESSION_LIMB_LEN = 18, 42
SESSION_AMPLITUDE_SCALE = 1.3
SESSION_GAP_FRAMES = 18     # idle frames before, between and after the steps
SESSION_WINDOW_FRAMES = 30  # frames per step


@dataclass(frozen=True)
class GestureSpec:
    pattern: MotionPattern
    amplitude: float          # px, total excursion of the pattern
    period: int               # frames per traverse / cycle
    limb_w: int = 14          # px, horizontal extent
    limb_len: int = 34        # px, vertical extent
    noise_sigma: float = 3.0  # intensity units

    def __post_init__(self):
        if self.pattern != MotionPattern.BACKGROUND and self.amplitude <= 0:
            raise InvalidParameterError("amplitude must be positive for gesture patterns")
        if self.period < 2:
            raise InvalidParameterError("period must be at least 2 frames")


#: Kinematics shared between corpus clips and session streams so a model
#: trained on one generalizes to the other.
PATTERN_DEFAULTS: dict[MotionPattern, tuple[float, int]] = {
    MotionPattern.SWIPE_UP: (26.0, 22),
    MotionPattern.SWIPE_DOWN: (26.0, 22),
    MotionPattern.SWIPE_LEFT: (26.0, 22),
    MotionPattern.SWIPE_RIGHT: (26.0, 22),
    MotionPattern.CIRCLE_CW: (26.0, 22),
    MotionPattern.SCRUB_OSCILLATE: (24.0, 8),
    MotionPattern.BACKGROUND: (4.0, 22),
}


def default_spec(pattern: MotionPattern, jitter_rng: np.random.Generator | None = None) -> GestureSpec:
    amplitude, period = PATTERN_DEFAULTS[pattern]
    spec = GestureSpec(pattern=pattern, amplitude=amplitude, period=period)
    if jitter_rng is not None and pattern != MotionPattern.BACKGROUND:
        spec = replace(
            spec,
            amplitude=amplitude * float(jitter_rng.uniform(0.85, 1.15)),
            period=max(2, int(round(period * float(jitter_rng.uniform(0.9, 1.1))))),
            limb_w=int(jitter_rng.integers(12, 17)),
            limb_len=int(jitter_rng.integers(30, 39)),
        )
    return spec


def _smooth_field(rng: np.random.Generator, h: int, w: int, passes: int = 3) -> np.ndarray:
    """Band-limited random field in [0, 1]."""
    field = rng.standard_normal((h, w))
    for _ in range(passes):
        field = binomial_blur(field, "wrap")
    field -= field.min()
    field /= max(field.max(), 1e-12)
    return field


def _limb_path(spec: GestureSpec, n_frames: int, rng: np.random.Generator,
               start_at_home: bool = False) -> np.ndarray:
    """Limb center offsets per frame, relative to its home position."""
    t = np.arange(n_frames, dtype=np.float64)
    amp, period = spec.amplitude, float(spec.period)
    offsets = np.zeros((n_frames, 2))
    progress = np.minimum(t, period) / period
    if spec.pattern in (
        MotionPattern.SWIPE_UP,
        MotionPattern.SWIPE_DOWN,
        MotionPattern.SWIPE_LEFT,
        MotionPattern.SWIPE_RIGHT,
    ):
        direction = {
            MotionPattern.SWIPE_UP: np.array([0.0, -1.0]),
            MotionPattern.SWIPE_DOWN: np.array([0.0, 1.0]),
            MotionPattern.SWIPE_LEFT: np.array([-1.0, 0.0]),
            MotionPattern.SWIPE_RIGHT: np.array([1.0, 0.0]),
        }[spec.pattern]
        anchor = 0.0 if start_at_home else 0.5
        offsets = (progress[:, None] - anchor) * amp * direction[None, :]
    elif spec.pattern == MotionPattern.CIRCLE_CW:
        r = amp / 2.0
        theta = 2.0 * math.pi * t / period
        # clockwise on screen (y grows downward); starts at the home position
        offsets = np.stack([r * np.sin(theta), r * (1.0 - np.cos(theta))], axis=1)
        if not start_at_home:
            offsets[:, 1] -= r
    elif spec.pattern == MotionPattern.SCRUB_OSCILLATE:
        offsets[:, 1] = (amp / 2.0) * np.sin(2.0 * math.pi * t / period)
    elif spec.pattern == MotionPattern.BACKGROUND:
        # slow sub-pixel drift: below the flow tracker's static threshold and
        # below the activity detector's noise floor
        v = np.zeros(2)
        pos = np.zeros(2)
        max_speed = 0.25
        for i in range(n_frames):
            offsets[i] = pos
            v = 0.85 * v + 0.15 * rng.normal(0.0, max_speed, size=2)
            speed = float(np.hypot(v[0], v[1]))
            if speed > max_speed:
                v *= max_speed / speed
            pos = pos + v
    else:  # pragma: no cover
        raise InvalidParameterError(f"unhandled pattern {spec.pattern}")
    return offsets


def _paint(base: np.ndarray, tex: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """Alpha-composite a textured rectangle at a subpixel center position."""
    h, w = base.shape
    lh, lw = tex.shape
    top = cy - lh / 2.0
    left = cx - lw / 2.0
    y0 = max(0, int(math.floor(top)))
    y1 = min(h, int(math.ceil(top + lh)) + 1)
    x0 = max(0, int(math.floor(left)))
    x1 = min(w, int(math.ceil(left + lw)) + 1)
    if y0 >= y1 or x0 >= x1:
        return base
    yy, xx = np.meshgrid(np.arange(y0, y1, dtype=np.float64), np.arange(x0, x1, dtype=np.float64), indexing="ij")
    u = yy - top
    v = xx - left
    dist = np.minimum(np.minimum(u, lh - u), np.minimum(v, lw - v))
    alpha = np.clip(dist + 0.5, 0.0, 1.0)
    ui = np.clip(u - 0.5, 0.0, lh - 1.0)
    vi = np.clip(v - 0.5, 0.0, lw - 1.0)
    iy0 = np.floor(ui).astype(np.intp)
    ix0 = np.floor(vi).astype(np.intp)
    iy1 = np.minimum(iy0 + 1, lh - 1)
    ix1 = np.minimum(ix0 + 1, lw - 1)
    fy = ui - iy0
    fx = vi - ix0
    sample = (
        tex[iy0, ix0] * (1 - fy) * (1 - fx)
        + tex[iy0, ix1] * (1 - fy) * fx
        + tex[iy1, ix0] * fy * (1 - fx)
        + tex[iy1, ix1] * fy * fx
    )
    out = base.copy()
    region = out[y0:y1, x0:x1]
    out[y0:y1, x0:x1] = alpha * sample + (1.0 - alpha) * region
    return out


@dataclass(frozen=True)
class GestureSample:
    rgb: Clip
    depth: Clip  # log-depth after the compression transform
    label: int


class _World:
    """Shared renderer state: textures and depth fields for one scene."""

    def __init__(self, rng: np.random.Generator, size: int, spec: GestureSpec):
        self.bg = 40.0 + 120.0 * _smooth_field(rng, size, size)
        self.limb_tex = 90.0 + 140.0 * _smooth_field(rng, spec.limb_len, spec.limb_w, passes=2)
        self.bg_depth = 2400.0 + 300.0 * _smooth_field(rng, size, size)
        self.limb_depth = 520.0 + 260.0 * _smooth_field(rng, spec.limb_len, spec.limb_w, passes=2)

    def render_gray(self, out: np.ndarray, cx: float, cy: float, rng: np.random.Generator,
                    noise_sigma: float) -> None:
        """Write the intensity frame with the limb centered at (cx, cy) into `out`.

        The RGB stream is rendered as its gray intensity, the form a clip
        carries it in, so no color frame is drawn.
        """
        gray = _paint(self.bg, self.limb_tex, cx, cy)
        gray = gray + rng.normal(0.0, noise_sigma, gray.shape) if noise_sigma > 0 else gray
        out[...] = np.clip(np.rint(gray), 0, 255)

    def render_depth(self, out: np.ndarray, cx: float, cy: float, rng: np.random.Generator) -> None:
        """Write the uint16 depth frame (mm) with the limb centered at (cx, cy) into `out`."""
        depth = _paint(self.bg_depth, self.limb_depth, cx, cy)
        depth = depth + rng.normal(0.0, DEPTH_NOISE_SIGMA, depth.shape)
        out[...] = np.clip(np.rint(depth), 0, D_MAX)


def generate_gesture_clip(
    spec: GestureSpec,
    seed: int,
    frames: int,
    size: int = 96,
) -> GestureSample:
    """Render one gesture as matched RGB and log-depth clips."""
    if frames < MIN_CLIP_FRAMES:
        raise InvalidParameterError(f"need at least {MIN_CLIP_FRAMES} frames, got {frames}")
    margin = spec.amplitude / 2.0 + max(spec.limb_len, spec.limb_w) / 2.0
    if margin > size / 2.0 - 2.0:
        raise InvalidParameterError("pattern extent does not fit the frame")
    rng = np.random.default_rng(seed)
    world = _World(rng, size, spec)
    home = np.array([size / 2.0, size / 2.0])
    offsets = _limb_path(spec, frames, rng)

    rgb = np.empty((frames, size, size), dtype=np.uint8)
    depth = np.empty(rgb.shape, dtype=np.uint16)
    for t, (cx, cy) in enumerate(home + offsets):
        world.render_gray(rgb[t], cx, cy, rng, spec.noise_sigma)
        world.render_depth(depth[t], cx, cy, rng)
    return GestureSample(
        rgb=Clip(frames=rgb, fps=FPS, modality=Modality.RGB, sensor_id=Sensor.S1),
        depth=Clip(frames=log_depth(depth, D_MAX), fps=FPS, modality=Modality.LOG_DEPTH, sensor_id=Sensor.S1),
        label=next((int(cmd) for cmd, pat in COMMAND_GESTURES.items() if pat == spec.pattern), BACKGROUND_LABEL),
    )


GESTURE_CLASSES: tuple[MotionPattern, ...] = tuple(MotionPattern)


def iter_corpus(clips_per_class: int, seed: int, frames: int, size: int) -> Iterator[GestureSample]:
    """The samples of `generate_corpus`, rendered one at a time as they are asked for."""
    for p_idx, pattern in enumerate(GESTURE_CLASSES):
        for i in range(clips_per_class):
            clip_seed = seed + 100_000 * p_idx + i
            jitter = np.random.default_rng(clip_seed + 7)
            spec = default_spec(pattern, jitter_rng=jitter)
            yield generate_gesture_clip(spec, clip_seed, frames, size=size)


def generate_corpus(
    clips_per_class: int,
    seed: int,
    frames: int = 24,
    size: int = 96,
) -> list[GestureSample]:
    """The labeled gesture corpus: every pattern class, jittered per clip."""
    return list(iter_corpus(clips_per_class, seed, frames, size))


# ---------------------------------------------------------------------------
# audio

# Two formant tracks per syllable: (duration s, (f1 start, f1 end), (f2 start, f2 end)).
# Warping absorbs timing and the cepstral mean normalization absorbs average
# spectra, so the recipes differ along what survives both: sweep direction,
# duty cycle, which formant moves, and whether anything moves at all.
_AUDIO_RECIPES: dict[int, list[tuple[float, tuple[float, float], tuple[float, float]]]] = {
    # one long monotone fall of the high formant
    int(Command.WASH_LEGS): [
        (0.32, (300.0, 300.0), (2600.0, 900.0)),
    ],
    # the time-reversed counterpart at a different low formant
    int(Command.WASH_BACK): [
        (0.32, (650.0, 650.0), (900.0, 2600.0)),
    ],
    # fast repeated square alternation between two high states
    int(Command.SCRUB_BACK): [
        (0.08, (430.0, 430.0), (1250.0, 1250.0)),
        (0.08, (430.0, 430.0), (2750.0, 2750.0)),
        (0.08, (430.0, 430.0), (1250.0, 1250.0)),
        (0.08, (430.0, 430.0), (2750.0, 2750.0)),
    ],
    # V-shaped high formant riding a falling low formant
    int(Command.STOP): [
        (0.13, (760.0, 500.0), (2500.0, 1000.0)),
        (0.13, (500.0, 240.0), (1000.0, 2500.0)),
    ],
    # low-formant bursts under a steady mid band: the only command whose
    # modulation lives in the low formant
    int(Command.REPEAT): [
        (0.13, (260.0, 260.0), (1650.0, 1650.0)),
        (0.06, (760.0, 760.0), (1650.0, 1650.0)),
        (0.13, (260.0, 260.0), (1650.0, 1650.0)),
        (0.06, (760.0, 760.0), (1650.0, 1650.0)),
    ],
    # completely steady dual tone: the only command with no modulation
    int(Command.HALT): [
        (0.30, (560.0, 560.0), (3550.0, 3550.0)),
    ],
}


def generate_command_audio(command: int, speaker_seed: int, snr_db: float) -> np.ndarray:
    """Synthesize one utterance of a command as a mono waveform in [-1, 1]."""
    recipe = _AUDIO_RECIPES.get(int(command))
    if recipe is None:
        raise InvalidParameterError(f"unknown command {command!r}")
    if not abs(snr_db) <= MAX_SNR_DB:
        raise InvalidParameterError(f"snr_db must be in [-{MAX_SNR_DB:g}, {MAX_SNR_DB:g}] dB, not {snr_db}")
    rng = np.random.default_rng(speaker_seed)
    pitch = math.exp(rng.normal(0.0, 0.015))
    rate = math.exp(rng.normal(0.0, 0.05))

    # tight endpointing: long silences would fill the warp path with
    # noise-only frames and blur the command identity
    parts = [np.zeros(int(0.015 * SAMPLE_RATE))]
    for dur, (f1a, f1b), (f2a, f2b) in recipe:
        n = max(1, int(round(dur * rate * SAMPLE_RATE)))
        wobble = math.exp(rng.normal(0.0, 0.008))
        f1 = np.linspace(f1a, f1b, n) * pitch * wobble
        f2 = np.linspace(f2a, f2b, n) * pitch * wobble
        ph1 = 2.0 * math.pi * np.cumsum(f1) / SAMPLE_RATE
        ph2 = 2.0 * math.pi * np.cumsum(f2) / SAMPLE_RATE
        # harmonic stacks widen each formant's spectral footprint, which
        # keeps more mel filters signal-dominated under additive noise
        low = np.sin(ph1) + 0.5 * np.sin(2.0 * ph1) + 0.3 * np.sin(3.0 * ph1)
        high = np.sin(ph2)
        if 2.0 * max(f2a, f2b) < 0.95 * SAMPLE_RATE / 2.0:
            high = high + 0.4 * np.sin(2.0 * ph2)
        env = np.sin(math.pi * (np.arange(n) + 0.5) / n) ** 0.7
        parts.append((0.5 * low + 0.45 * high) * env)
        parts.append(np.zeros(int(0.012 * SAMPLE_RATE)))
    parts.append(np.zeros(int(0.015 * SAMPLE_RATE)))
    wave = np.concatenate(parts)

    power = float(np.mean(wave**2))
    noise_power = power / (10.0 ** (snr_db / 10.0))
    wave = wave + rng.normal(0.0, math.sqrt(noise_power), wave.shape)
    peak = float(np.max(np.abs(wave)))
    if peak > 0.97:
        wave = wave * (0.97 / peak)
    return wave


def generate_audio_corpus(per_command: int, seed: int, snr_db: float = 20.0) -> list[tuple[int, int, np.ndarray]]:
    """(command, index within the command, waveform) for `per_command` utterances of every command."""
    return [
        (int(cmd), i, generate_command_audio(int(cmd), seed + 1000 * int(cmd) + i, snr_db))
        for cmd in Command
        for i in range(per_command)
    ]


# ---------------------------------------------------------------------------
# scripted audio-gestural session streams

@dataclass(frozen=True)
class SessionStreams:
    video: Clip
    audio_events: list[AudioEvent]
    steps: list[SessionStep]


def build_session_streams(
    script: list[tuple[int, int, str]],
    seed: int,
    gesture_noise: bool = False,
) -> SessionStreams:
    """One continuous scene realizing a command script.

    The limb rests at its home position between steps, performs the command's
    gesture during audio-gestural windows, and stays still during audio-only
    windows, in a `SESSION_SIZE` scene with the other `SESSION_*` settings.
    `gesture_noise` replaces every gesture with sub-threshold background
    drift, which ablates the visual modality.
    """
    rng = np.random.default_rng(seed)
    size = SESSION_SIZE
    base_spec = replace(default_spec(MotionPattern.SWIPE_RIGHT), limb_w=SESSION_LIMB_W, limb_len=SESSION_LIMB_LEN)
    world = _World(rng, size, base_spec)
    home = np.array([size / 2.0, size / 2.0])

    total = SESSION_GAP_FRAMES
    plan: list[tuple[SessionStep, np.ndarray]] = []
    for step_id, command, modality in script:
        window = (total, total + SESSION_WINDOW_FRAMES)
        step = SessionStep(step_id=step_id, command=command, modality=modality, window=window)
        if modality == "A-G":
            pattern = (
                MotionPattern.BACKGROUND if gesture_noise else COMMAND_GESTURES[Command(command)]
            )
            spec = default_spec(pattern)
            if pattern != MotionPattern.BACKGROUND:
                spec = replace(spec, amplitude=spec.amplitude * SESSION_AMPLITUDE_SCALE)
            offsets = _limb_path(spec, SESSION_WINDOW_FRAMES, rng, start_at_home=True)
        else:
            offsets = np.zeros((SESSION_WINDOW_FRAMES, 2))
        plan.append((step, offsets))
        total += SESSION_WINDOW_FRAMES + SESSION_GAP_FRAMES

    offset_by_frame = np.zeros((total, 2))
    for step, offsets in plan:
        offset_by_frame[step.window[0] : step.window[1]] = offsets
    frames = np.empty((total, size, size), dtype=np.uint8)
    for t, (cx, cy) in enumerate(home + offset_by_frame):
        world.render_gray(frames[t], cx, cy, rng, SESSION_NOISE_SIGMA)
    video = Clip(frames=frames, fps=FPS, modality=Modality.RGB)

    audio_events = []
    for idx, (step, _) in enumerate(plan):
        wave = generate_command_audio(step.command, seed + 31 * idx, SESSION_SNR_DB)
        feats = mfcc(wave, SAMPLE_RATE)
        dur_frames = max(2, int(round(len(wave) / SAMPLE_RATE * FPS)))
        start = step.window[0] + 1
        audio_events.append(
            AudioEvent(
                start_frame=start,
                end_frame=min(start + dur_frames, step.window[1]),
                features=feats,
                keyword_score=1.0,
            )
        )
    return SessionStreams(video=video, audio_events=audio_events, steps=[s for s, _ in plan])
