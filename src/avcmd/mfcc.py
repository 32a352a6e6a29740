"""MFCC front-end: 13 cepstra plus delta and delta-delta, 39 values per frame.

One fixed recipe, whose settings are the module constants: pre-emphasis
0.97, 25 ms Hamming windows every 10 ms, 26 triangular mel filters, log
energies, orthonormal DCT-II, per-utterance cepstral mean normalization on
the static coefficients, and +/-2 frame regression deltas. The sample rate
is the one input besides the samples, so an `MfccSeq` is just its frames.
Identical PCM in gives bit-identical features out.
"""

from __future__ import annotations

import io
import wave
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidParameterError, check_payload

SUPPORTED_RATES = (16000, 44100, 48000)
FRAME_LEN_S = 0.025
FRAME_SHIFT_S = 0.010
PREEMPHASIS = 0.97
N_MELS = 26
N_CEPS = 13
FEATURE_DIM = 3 * N_CEPS

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class MfccSeq:
    """Feature carrier: frames is (T, 39) with columns [cepstra, d, dd]."""

    frames: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != FEATURE_DIM:
            raise InvalidParameterError(f"frames must be (T, {FEATURE_DIM}) with T >= 1")
        if not np.all(np.isfinite(f)):
            raise InvalidParameterError("features contain non-finite values")
        f = np.ascontiguousarray(f)
        f.flags.writeable = False
        object.__setattr__(self, "frames", f)

    def __len__(self) -> int:
        return self.frames.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, n_fft: int) -> np.ndarray:
    """Triangular filters (N_MELS, n_fft//2 + 1) spanning 0 .. sample_rate/2."""
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), N_MELS + 2)
    hz_points = mel_to_hz(mel_points)
    bin_pos = hz_points * n_fft / sample_rate  # fractional FFT bin per point
    n_bins = n_fft // 2 + 1
    fb = np.zeros((N_MELS, n_bins))
    bins = np.arange(n_bins, dtype=np.float64)
    for m in range(N_MELS):
        lo, center, hi = bin_pos[m], bin_pos[m + 1], bin_pos[m + 2]
        rising = (bins - lo) / max(center - lo, 1e-9)
        falling = (hi - bins) / max(hi - center, 1e-9)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.sqrt(2.0 / n_in) * np.cos(np.pi * k * (2 * n + 1) / (2.0 * n_in))
    mat[0] /= np.sqrt(2.0)
    return mat


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=len(SUPPORTED_RATES))
def _analysis_constants(sample_rate: int):
    """Frame length, hop and FFT size in samples, then the Hamming window,
    mel filterbank and DCT matrix, at one sample rate.

    Built once per rate and shared, read-only, by every `mfcc` call at it.
    """
    frame_len = int(round(FRAME_LEN_S * sample_rate))
    n_fft = 1 << (frame_len - 1).bit_length()
    return (
        frame_len,
        int(round(FRAME_SHIFT_S * sample_rate)),
        n_fft,
        _read_only(np.hamming(frame_len)),
        _read_only(mel_filterbank(sample_rate, n_fft)),
        _read_only(_dct_matrix(N_CEPS, N_MELS)),
    )


def _deltas(feats: np.ndarray) -> np.ndarray:
    """+/-2 frame regression deltas with edge replication."""
    padded = np.pad(feats, ((2, 2), (0, 0)), mode="edge")
    return (
        (padded[3:-1] - padded[1:-3]) + 2.0 * (padded[4:] - padded[:-4])
    ) / 10.0


def mfcc(samples: np.ndarray, sample_rate: int) -> MfccSeq:
    if sample_rate not in SUPPORTED_RATES:
        raise InvalidParameterError(f"sample rate {sample_rate} not in {SUPPORTED_RATES}")
    x = np.asarray(samples, dtype=np.float64).ravel()
    frame_len, frame_shift, n_fft, window, filterbank, dct = _analysis_constants(sample_rate)
    if x.size < frame_len:
        raise InvalidParameterError("signal shorter than one analysis frame")

    y = np.empty_like(x)
    y[0] = x[0] - PREEMPHASIS * x[0]
    y[1:] = x[1:] - PREEMPHASIS * x[:-1]

    # One frame per hop; the tail is zero-padded so concatenating two signals
    # concatenates their frame sequences up to a single boundary frame.
    n_frames = x.size // frame_shift
    pad = max(0, (n_frames - 1) * frame_shift + frame_len - y.size)
    y = np.pad(y, (0, pad))
    idx = np.arange(frame_len)[None, :] + frame_shift * np.arange(n_frames)[:, None]
    windowed = y[idx] * window

    power = np.abs(np.fft.rfft(windowed, n_fft)) ** 2
    energies = power @ filterbank.T
    # Cap the dynamic range at 60 dB below the utterance peak: without the
    # relative floor, empty filters sit at the absolute floor and flip
    # wildly with tiny spectral shifts.
    floor = max(_LOG_FLOOR, 1e-6 * float(energies.max()))
    log_e = np.log(np.maximum(energies, floor))
    ceps = log_e @ dct.T
    ceps = ceps - ceps.mean(axis=0, keepdims=True)
    d1 = _deltas(ceps)
    d2 = _deltas(d1)
    return MfccSeq(frames=np.hstack([ceps, d1, d2]))


# ---------------------------------------------------------------------------
# 16-bit mono PCM WAV

def wav_write(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def wav_read(path: str | Path) -> tuple[np.ndarray, int]:
    """Samples (PCM / 32767) and rate of a 16-bit mono WAV file whose RIFF chunk
    spans the whole file; chunks in it other than `fmt ` and `data` are skipped."""
    data = Path(path).read_bytes()
    try:
        with wave.open(io.BytesIO(data), "rb") as fh:
            if fh.getnchannels() != 1:
                raise FormatError("expected mono audio")
            if fh.getsampwidth() != 2:
                raise FormatError("expected 16-bit PCM")
            rate, n = fh.getframerate(), fh.getnframes()
            raw = fh.readframes(n)
    except (wave.Error, EOFError) as exc:  # EOFError: a file cut inside its RIFF or chunk header
        raise FormatError(str(exc) or "WAV file truncated") from None
    except RuntimeError:  # the stdlib reader's word for a chunk that runs past the RIFF chunk
        raise FormatError("a WAV chunk runs past the end of its RIFF chunk") from None
    check_payload(len(data), 8 + int.from_bytes(data[4:8], "little"), "WAV")
    check_payload(len(raw), 2 * n, "WAV")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return samples, rate
