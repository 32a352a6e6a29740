"""Reference oracles for the batched DTW sweep.

These are the straightforward forms of dynamic time warping and of the code
built on it: one anti-diagonal sweep per (query, template) pair with a
predecessor table filled by `argmin` over (diag, up, left), one
`dtw_distance` call per template when ranking commands, and a per-template
loop that picks each enrollment utterance's nearest template. The optimized
code in `avcmd.audio` must reproduce them bit for bit; the equivalence tests
compare with `==` and `np.array_equal`.
"""

from __future__ import annotations

import numpy as np

from avcmd.audio import MAX_CONDITION, CommandGrammar, Hypothesis, NBest, SpeakerTransform
from avcmd.errors import InvalidParameterError
from avcmd.mfcc import FEATURE_DIM, MfccSeq


def _frame_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _dtw_tables(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ta, tb = a.shape[0], b.shape[0]
    cost = _frame_costs(a, b)
    acc = np.full((ta, tb), np.inf)
    move = np.zeros((ta, tb), dtype=np.uint8)  # 0 start, 1 diag, 2 up, 3 left
    prev1 = np.full(ta, np.inf)
    prev2 = np.full(ta, np.inf)
    for s in range(ta + tb - 1):
        i_lo = max(0, s - (tb - 1))
        i_hi = min(s, ta - 1)
        i = np.arange(i_lo, i_hi + 1)
        j = s - i
        c = cost[i, j]
        if s == 0:
            cur_vals = c
            move[0, 0] = 0
        else:
            up = np.where(i > 0, prev1[np.maximum(i - 1, 0)], np.inf)
            left = prev1[i]
            left = np.where(j > 0, left, np.inf)
            diag = np.where((i > 0) & (j > 0), prev2[np.maximum(i - 1, 0)], np.inf)
            stacked = np.stack([diag, up, left])
            choice = np.argmin(stacked, axis=0)  # prefers diag on ties
            cur_vals = c + stacked[choice, np.arange(i.size)]
            move[i, j] = choice + 1
        acc[i, j] = cur_vals
        prev2 = prev1
        prev1 = np.full(ta, np.inf)
        prev1[i] = cur_vals
    return acc, move


def _frames(seq) -> np.ndarray:
    if isinstance(seq, MfccSeq):
        return seq.frames
    return np.asarray(seq, dtype=np.float64)


def dtw_distance(a, b) -> float:
    fa, fb = _frames(a), _frames(b)
    acc, _ = _dtw_tables(fa, fb)
    return float(acc[-1, -1] / (fa.shape[0] + fb.shape[0]))


def dtw_align(a, b) -> tuple[float, list[tuple[int, int]]]:
    fa, fb = _frames(a), _frames(b)
    acc, move = _dtw_tables(fa, fb)
    path = []
    i, j = fa.shape[0] - 1, fb.shape[0] - 1
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
    return float(acc[-1, -1] / (fa.shape[0] + fb.shape[0])), path


def classify_command(
    utterance: MfccSeq,
    templates: dict[int, list[MfccSeq]],
    grammar: CommandGrammar,
    transform: SpeakerTransform | None = None,
) -> NBest:
    if transform is not None:
        utterance = transform.apply(utterance)
    scored = []
    for cmd in grammar:
        best = min(dtw_distance(utterance, t) for t in templates[cmd])
        scored.append(Hypothesis(command=cmd, score=best))
    scored.sort(key=lambda h: (h.score, h.command))
    tie = len(scored) > 1 and scored[0].score == scored[1].score
    return NBest(hypotheses=tuple(scored), tie=tie)


def adapt_speaker(
    templates: dict[int, list[MfccSeq]],
    enrollment: list[tuple[int, MfccSeq]],
) -> SpeakerTransform:
    if len({cmd for cmd, _ in enrollment}) < 3:
        raise InvalidParameterError("enrollment must cover at least 3 distinct commands")
    xs, ys = [], []
    for cmd, utt in enrollment:
        best_t, best_d = None, np.inf
        for tmpl in templates[cmd]:
            d = dtw_distance(utt, tmpl)
            if d < best_d:
                best_d, best_t = d, tmpl
        _, path = dtw_align(utt, best_t)
        for i, j in path:
            xs.append(utt.frames[i])
            ys.append(best_t.frames[j])
    x = np.asarray(xs)
    y = np.asarray(ys)

    x_aug = np.hstack([x, np.ones((x.shape[0], 1))])
    solution, _, rank, _ = np.linalg.lstsq(x_aug, y, rcond=None)
    if rank < FEATURE_DIM + 1:
        return SpeakerTransform(a=np.eye(FEATURE_DIM), b=(y - x).mean(axis=0), bias_only=True)
    a = solution[:-1].T
    b = solution[-1]
    if np.linalg.cond(a) >= MAX_CONDITION:
        return SpeakerTransform(a=np.eye(FEATURE_DIM), b=(y - x).mean(axis=0), bias_only=True)
    return SpeakerTransform(a=a, b=b)


def alignment_objective(
    templates: dict[int, list[MfccSeq]],
    enrollment: list[tuple[int, MfccSeq]],
    transform: SpeakerTransform,
) -> float:
    """The least-squares objective `adapt_speaker` minimizes: squared residuals
    between transformed enrollment frames and the frames of the nearest
    same-command template (the first on ties) that DTW aligns them with."""
    total = 0.0
    for cmd, utt in enrollment:
        best = min(templates[cmd], key=lambda t: dtw_distance(utt, t))
        _, path = dtw_align(utt, best)
        mapped = utt.frames @ transform.a.T + transform.b
        for i, j in path:
            diff = mapped[i] - best.frames[j]
            total += float(diff @ diff)
    return total
