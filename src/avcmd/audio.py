"""Grammar-constrained spoken-command classification.

Utterances and per-command templates are MFCC sequences compared with
dynamic time warping (steps right/down/diagonal, Euclidean frame cost,
normalized by the two sequence lengths). A `CommandGrammar` is the tuple
of command ids an utterance is ranked against; a command's score is its
best template distance, and the ranked command list is the n-best a
downstream fusion stage consumes. Speaker mismatch is reduced with one
global affine feature transform fitted on DTW-aligned enrollment data, and
a wake-word gate suppresses every hypothesis when the keyword score, which
an upstream spotter supplies, is below threshold.

There is one DTW implementation, `_dtw_sweep`: it fills the accumulated-cost
tables of one query against K templates together, one anti-diagonal step at
a time over a (K, Ta, max Tb) cost stack padded with inf. Ranking an
utterance is one sweep over every template of the grammar, and choosing an
enrollment utterance's nearest template is one sweep over its command's
templates, whose predecessor tables also give the chosen template's
warping path; `dtw_distance` and `dtw_align` are the K = 1 case. The
search is exact, with no band.

Frame costs come from one BLAS Gram product per template, |a|² + |b|² -
2 a·b, with cells near zero recomputed from explicit differences, so
d(x, x) = 0 stays exact and the other costs are within the relative bound
stated at GRAM_FALLBACK. A template's cost matrix does not depend on the
other templates in the sweep, so copies of one template score bit for bit
alike wherever they sit, and the K = 1 distance equals the batched one.
Sequences with non-finite frames are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, json_field, read_json_rows
from .mfcc import FEATURE_DIM, MfccSeq, mfcc, wav_read
from .vocabulary import Command

MAX_CONDITION = 1e6

# Frame costs whose Gram-product d² is at most GRAM_FALLBACK * (|a|² + |b|²)
# are recomputed from explicit differences. The product's d² is within
# (2D + 3) u (|a|² + |b|²) of the exact value (D features, u = 2⁻⁵³), so
# every other cell's d is within (D + 2) u / GRAM_FALLBACK relative, about
# 4.6e-6 at D = 39, and so is a DTW distance, whose cost is a sum of cells.
GRAM_FALLBACK = 1e-9


class CommandGrammar(tuple):
    """The command ids an utterance is ranked against: at least one, none twice."""

    __slots__ = ()

    def __new__(cls, commands):
        grammar = super().__new__(cls, commands)
        if not grammar:
            raise InvalidParameterError("grammar needs at least one command")
        if len(set(grammar)) != len(grammar):
            raise InvalidParameterError("grammar command ids must be unique")
        return grammar


def default_grammar() -> CommandGrammar:
    return CommandGrammar(int(c) for c in Command)


@dataclass(frozen=True)
class Hypothesis:
    command: int
    score: float  # DTW distance; lower is better


@dataclass(frozen=True)
class NBest:
    hypotheses: tuple[Hypothesis, ...]
    tie: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.hypotheses

    @property
    def top(self) -> Hypothesis | None:
        return self.hypotheses[0] if self.hypotheses else None

    @classmethod
    def empty(cls) -> "NBest":
        return cls(hypotheses=())


@dataclass(frozen=True)
class SpeakerTransform:
    """Global affine feature map x -> A x + b."""

    a: np.ndarray  # (39, 39)
    b: np.ndarray  # (39,)
    bias_only: bool = False

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.shape != (FEATURE_DIM, FEATURE_DIM) or b.shape != (FEATURE_DIM,):
            raise InvalidParameterError("transform has the wrong shape")
        if np.linalg.cond(a) >= MAX_CONDITION:
            raise InvalidParameterError("transform matrix is ill-conditioned")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def apply(self, seq: MfccSeq) -> MfccSeq:
        return MfccSeq(frames=seq.frames @ self.a.T + self.b)


# ---------------------------------------------------------------------------
# dynamic time warping

def _frame_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the frames of `a` (Ta, D) and `b` (Tb, D).

    The expansion |a|² + |b|² - 2 a·b cancels where d² is small, so those
    cells are recomputed from explicit differences: d(x, x) = 0 stays exact
    and no d² is negative.
    """
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    norms = sq_a[:, None] + sq_b[None, :]
    d2 = norms - 2.0 * (a @ b.T)
    i, j = np.nonzero(d2 <= GRAM_FALLBACK * norms)
    if i.size:
        diff = a[i] - b[j]
        d2[i, j] = (diff * diff).sum(axis=1)
    return np.sqrt(d2, out=d2)


def _dtw_sweep(query: np.ndarray, templates: list[np.ndarray], with_moves: bool = False):
    """Minimum path costs of `query` against every template, in one sweep.

    The K frame-cost matrices are stacked into a (K, Ta, W) array padded with
    inf, W = max(Tb_k, 2), and the accumulated tables are filled together
    along anti-diagonals s = i + j. Two rolling diagonals of shape (K, Ta+1)
    hold cell (i, s-i) at column i+1; column 0 is an inf sentinel for row -1.
    In the flat (Ta*W) view a diagonal is the strided slice
    s + i*(W-1), so the step needs no index arrays. Template k's total is
    read at step Ta + Tb_k - 2; padded cells cost inf and never win a min.

    Returns the (K,) totals and, when `with_moves`, the (K, Ta, W)
    predecessor tables: 0 start, 1 diag, 2 up, 3 left, diag first on ties.
    A cell of template k depends only on cells of its own columns, so its
    table is the one a sweep of template k alone would fill.
    """
    ta = query.shape[0]
    widths = [t.shape[0] for t in templates]
    k, w = len(templates), max(2, max(widths))
    costs = np.full((k, ta, w), np.inf)
    # One Gram product per template, not one over the concatenated templates:
    # BLAS rounding would then depend on a template's column position, and a
    # template held by two commands could stop scoring a tie.
    for n, t in enumerate(templates):
        costs[n, :, : widths[n]] = _frame_costs(query, t)
    flat = costs.reshape(k, ta * w)
    totals = flat[:, 0].copy()  # a 1x1 problem ends at step 0
    finished: dict[int, list[int]] = {}  # step -> templates whose end cell it fills
    for n, tb in enumerate(widths):
        finished.setdefault(ta + tb - 2, []).append(n)
    moves = np.zeros((k, ta, w), dtype=np.uint8) if with_moves else None

    prev1 = np.full((k, ta + 1), np.inf)  # diagonal s-1
    prev2 = np.full((k, ta + 1), np.inf)  # diagonal s-2
    prev1[:, 1] = flat[:, 0]
    for s in range(1, max(finished) + 1):
        lo, hi = max(0, s - w + 1), min(s, ta - 1)
        cells = slice(s + lo * (w - 1), s + hi * (w - 1) + 1, w - 1)
        diag = prev2[:, lo : hi + 1]
        up = prev1[:, lo : hi + 1]
        left = prev1[:, lo + 1 : hi + 2]
        best = np.minimum(up, left)
        if moves is not None:
            moves.reshape(k, ta * w)[:, cells] = np.where(diag <= best, 1, np.where(up <= left, 2, 3))
        np.minimum(diag, best, out=best)
        best += flat[:, cells]
        prev2[:, lo + 1 : hi + 2] = best
        prev1, prev2 = prev2, prev1
        done = finished.get(s)
        if done is not None:
            totals[done] = prev1[done, ta]
    return totals, moves


def _coerce(seq) -> np.ndarray:
    if isinstance(seq, MfccSeq):
        return seq.frames
    a = np.asarray(seq, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1:
        raise InvalidParameterError("sequence must be a non-empty (T, dim) matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError("sequence contains non-finite values")
    return a


def _distances(query, templates, with_moves: bool = False):
    """Path-length-normalized DTW distances of `query` to each template."""
    fq = _coerce(query)
    fts = [_coerce(t) for t in templates]
    if any(ft.shape[1] != fq.shape[1] for ft in fts):
        raise InvalidParameterError("sequences must share the feature dimension")
    totals, moves = _dtw_sweep(fq, fts, with_moves)
    return totals / (fq.shape[0] + np.asarray([ft.shape[0] for ft in fts])), moves


def dtw_distance(a, b) -> float:
    """Path-length-normalized DTW distance: min path cost / (Ta + Tb)."""
    dists, _ = _distances(a, [b])
    return float(dists[0])


def _backtrack(move: np.ndarray, i: int, j: int) -> list[tuple[int, int]]:
    """The warping path that ends at cell (i, j) of a predecessor table."""
    path = []
    while True:
        path.append((i, j))
        m = move[i, j]
        if m == 0:
            break
        if m == 1:
            i, j = i - 1, j - 1
        elif m == 2:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path


def dtw_align(a, b) -> tuple[float, list[tuple[int, int]]]:
    """Distance plus the optimal warping path as (frame_a, frame_b) pairs."""
    fa, fb = _coerce(a), _coerce(b)
    dists, moves = _distances(fa, [fb], with_moves=True)
    return float(dists[0]), _backtrack(moves[0], fa.shape[0] - 1, fb.shape[0] - 1)


# ---------------------------------------------------------------------------
# classification

def classify_command(
    utterance: MfccSeq,
    templates: dict[int, list[MfccSeq]],
    grammar: CommandGrammar,
    transform: SpeakerTransform | None = None,
) -> NBest:
    """Rank grammar commands by their best template DTW distance.

    Ties in the top score are broken toward the lower command id and flagged.
    """
    for cmd in grammar:
        if not templates.get(cmd):
            raise InvalidParameterError(f"command {cmd} has no templates")
    if transform is not None:
        utterance = transform.apply(utterance)
    # One sweep over the grammar's templates in command order; each command
    # scores the minimum over its own slice.
    dists, _ = _distances(utterance, [t for cmd in grammar for t in templates[cmd]])
    scored, start = [], 0
    for cmd in grammar:
        stop = start + len(templates[cmd])
        scored.append(Hypothesis(command=cmd, score=float(dists[start:stop].min())))
        start = stop
    scored.sort(key=lambda h: (h.score, h.command))
    tie = len(scored) > 1 and scored[0].score == scored[1].score
    return NBest(hypotheses=tuple(scored), tie=tie)


def keyword_gate(nbest: NBest, keyword_score: float, threshold: float) -> NBest:
    """Pass hypotheses through only when the wake-word score reaches threshold."""
    if keyword_score >= threshold:
        return nbest
    return NBest.empty()


# ---------------------------------------------------------------------------
# speaker adaptation

def _aligned_enrollment(
    templates: dict[int, list[MfccSeq]],
    enrollment: list[tuple[int, MfccSeq]],
) -> list[tuple[MfccSeq, MfccSeq, np.ndarray]]:
    """Each enrollment utterance, its nearest template of the same command
    (the first on ties) and their DTW path as an (n, 2) array of frame pairs,
    backtracked from the one sweep over the command's templates."""
    out = []
    for cmd, utt in enrollment:
        if not templates.get(cmd):
            raise InvalidParameterError(f"command {cmd} has no templates")
        dists, moves = _distances(utt, templates[cmd], with_moves=True)
        n = int(np.argmin(dists))
        best = templates[cmd][n]
        path = _backtrack(moves[n], utt.frames.shape[0] - 1, best.frames.shape[0] - 1)
        out.append((utt, best, np.asarray(path)))
    return out


def adapt_speaker(
    templates: dict[int, list[MfccSeq]],
    enrollment: list[tuple[int, MfccSeq]],
) -> SpeakerTransform:
    """Fit one affine map from enrollment frames to DTW-aligned template frames.

    Needs enrollment for at least three distinct commands. When the frame
    matrix is rank deficient the fit falls back to a bias-only transform
    (A = I) and flags it. The fitted least-squares objective can never exceed
    the identity transform's, since identity is a feasible candidate.
    """
    commands = {cmd for cmd, _ in enrollment}
    if len(commands) < 3:
        raise InvalidParameterError("enrollment must cover at least 3 distinct commands")
    aligned = _aligned_enrollment(templates, enrollment)
    x = np.vstack([utt.frames[path[:, 0]] for utt, _, path in aligned])
    y = np.vstack([tmpl.frames[path[:, 1]] for _, tmpl, path in aligned])

    x_aug = np.hstack([x, np.ones((x.shape[0], 1))])
    solution, _, rank, _ = np.linalg.lstsq(x_aug, y, rcond=None)
    a = solution[:-1].T
    if rank < FEATURE_DIM + 1 or np.linalg.cond(a) >= MAX_CONDITION:
        return SpeakerTransform(
            a=np.eye(FEATURE_DIM), b=(y - x).mean(axis=0), bias_only=True
        )
    return SpeakerTransform(a=a, b=solution[-1])


# ---------------------------------------------------------------------------
# template store: directory of WAVs plus a JSON-lines manifest

def _manifest_row(row: dict) -> tuple[int, str]:
    return int(Command(json_field(row, "command_id", int))), json_field(row, "path", str)


def load_template_store(manifest_path: str | Path) -> dict[int, list[MfccSeq]]:
    """Manifest rows, one JSON object per line: {command_id, path}; paths are relative, other keys unread."""
    manifest_path = Path(manifest_path)
    templates: dict[int, list[MfccSeq]] = {}
    for cmd, rel in read_json_rows(manifest_path, "manifest row", _manifest_row):
        samples, rate = wav_read(manifest_path.parent / rel)
        templates.setdefault(cmd, []).append(mfcc(samples, rate))
    return templates
