from __future__ import annotations

import numpy as np
import pytest

from avcmd import flow
from avcmd.errors import InvalidParameterError
from avcmd.flow import (
    LK_ITERATIONS,
    LK_RADIUS,
    MAX_INTENSITY,
    PYRAMID_LEVELS,
    FramePyramid,
    _upsample_taps,
    _window_sums,
    binomial_blur,
    dense_flow,
    median_filter_3x3,
)
from avcmd.frames import GrayFrame
from avcmd.synth import GESTURE_CLASSES, default_spec, generate_corpus, generate_gesture_clip

import reference_per_frame as per_frame
import reference_tracker as ref
from conftest import smooth_texture


def shifted_pair(dx: int, dy: int, size: int = 64, seed: int = 7):
    """Crop two views of one texture so content moves by (+dx, +dy)."""
    margin = 8
    tex = smooth_texture(size + 2 * margin, size + 2 * margin, seed)
    prev = tex[margin : margin + size, margin : margin + size]
    nxt = tex[margin - dy : margin - dy + size, margin - dx : margin - dx + size]
    return prev, nxt


def interior_median(field: np.ndarray, margin: int = 12):
    u = field[0, margin:-margin, margin:-margin]
    v = field[1, margin:-margin, margin:-margin]
    return float(np.median(u)), float(np.median(v))


def test_no_motion_gives_zero_field():
    prev, _ = shifted_pair(0, 0)
    field = dense_flow(prev, prev)
    assert field.shape == (2, *prev.shape)
    assert np.all(field == 0.0)


@pytest.mark.parametrize("dx,dy", [(3, 0), (-2, 1), (0, -3), (1, 1)])
def test_known_translation_recovered(dx, dy):
    prev, nxt = shifted_pair(dx, dy)
    mu, mv = interior_median(dense_flow(prev, nxt))
    assert abs(mu - dx) <= 0.25
    assert abs(mv - dy) <= 0.25


@pytest.mark.parametrize("d", [-4, -3, -2, -1, 1, 2, 3, 4])
def test_acceptance_range_horizontal_and_vertical(d):
    prev, nxt = shifted_pair(d, 0)
    mu, mv = interior_median(dense_flow(prev, nxt))
    assert abs(mu - d) <= 0.25 and abs(mv) <= 0.25
    prev, nxt = shifted_pair(0, d)
    mu, mv = interior_median(dense_flow(prev, nxt))
    assert abs(mu) <= 0.25 and abs(mv - d) <= 0.25


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        dense_flow(np.zeros((8, 8)), np.zeros((8, 9)))


def test_flat_frames_give_zero_flow():
    flat = np.full((32, 32), 128, dtype=np.uint8)
    field = dense_flow(flat, flat)
    assert np.all(field == 0.0)


def test_dense_flow_returns_a_float32_field():
    prev, nxt = shifted_pair(1, 0, size=32)
    for a, b in ((prev, nxt), (prev.astype(np.float32), nxt.astype(np.float32))):
        field = dense_flow(a, b)
        assert field.dtype == np.float32 and field.shape == (2, 32, 32)


def _noise_pair() -> np.ndarray:
    """The 32x32 random float64 frame pair of the frame-check probes."""
    return np.random.default_rng(8).random((2, 32, 32)) * 255.0


class TestFrameChecks:
    """A frame enters `FramePyramid`, and so `dense_flow`, only if every value
    is finite and at most `MAX_INTENSITY` in magnitude.

    Past that, the estimator's float32 sums overflow and a non-finite warp
    coordinate reaches the cast to a pixel index. The check comes before any
    cast, so a refused frame raises no warning either, which the pytest
    settings would turn into a failure.
    """

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1], ids=["prev", "nxt"])
    def test_a_non_finite_pixel_is_refused(self, which, bad):
        pair = _noise_pair()
        pair[which, 5, 7] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            dense_flow(pair[0], pair[1])

    def test_a_pair_scaled_past_the_bound_is_refused(self):
        at_bound = _noise_pair() * (MAX_INTENSITY / 255.0)
        assert np.abs(at_bound).max() <= MAX_INTENSITY
        assert np.isfinite(dense_flow(-at_bound[0], -at_bound[1])).all()
        assert np.isfinite(dense_flow(at_bound[0], at_bound[1])).all()
        pair = _noise_pair() * 1e15
        with pytest.raises(InvalidParameterError, match="magnitude"):
            dense_flow(pair[0], pair[1])

    def test_int64_frames_past_the_bound_are_refused(self):
        pair = np.random.default_rng(8).integers(0, 2**40, size=(2, 32, 32), dtype=np.int64)
        assert np.isfinite(dense_flow(*(pair % 2**24))).all()
        with pytest.raises(InvalidParameterError, match="magnitude"):
            dense_flow(pair[0], pair[1])

    def test_a_non_finite_frame_or_stack_is_refused_by_the_pyramid(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            FramePyramid(np.full((8, 8), np.nan))
        stack = np.zeros((3, 8, 8), dtype=np.float32)
        stack[2, 0, 0] = np.inf
        with pytest.raises(InvalidParameterError, match="finite"):
            FramePyramid(stack)


def test_median_filter_kills_salt_noise():
    field = np.ones((10, 10))
    field[5, 5] = 100.0
    out = median_filter_3x3(field)
    assert out[5, 5] == 1.0
    assert np.all(out == 1.0)


# ---------------------------------------------------------------------------
# fast paths against the reference oracles in reference_tracker.py


class TestMedianAgainstOracle:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (2, 2), (2, 7), (3, 3), (5, 8), (17, 11), (64, 64)]
    )
    def test_equals_np_median(self, shape, rng):
        fields = [
            rng.normal(size=shape),
            rng.integers(-2, 3, size=shape).astype(np.float64),  # many ties
            rng.choice([-0.0, 0.0, 1.0, -1.0], size=shape),  # signed zeros
            np.full(shape, 3.5),
        ]
        for field in fields + [f.astype(np.float32) for f in fields]:
            got = median_filter_3x3(field)
            assert got.dtype == field.dtype
            assert np.array_equal(got, ref.median_filter_3x3(field))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        field = np.zeros((4, 5))
        field[2, 3] = bad
        with pytest.raises(InvalidParameterError):
            median_filter_3x3(field)


def _frame_pairs():
    pairs = [shifted_pair(2, -1), shifted_pair(-3, 2, size=37)]
    tex = smooth_texture(60, 80, 11)
    pairs.append((tex[5:50, 3:75], tex[6:51, 5:77]))  # 45x72: odd level shapes
    sample = generate_corpus(1, seed=3, frames=16, size=96)[3]
    for clip in (sample.rgb, sample.depth):
        pairs.append((clip.frames[6], clip.frames[7]))
    return pairs


class TestFlowAgainstOracle:
    """The float32 flow agrees with the float64 oracle within a stated max |du|, |dv|.

    The bounds are about 3x the largest difference measured over these five
    pairs at 1, 2, 3 and 4 levels (4.7e-5, 1.5e-4, 5.7e-4 and 9.1e-4 px,
    each on the log-depth pair, whose flat regions make the 2x2 solve
    ill-conditioned). Arrays and prebuilt pyramids of the default depth
    give the same field bit for bit.
    """

    # max |du|, |dv| in px, by the oracle's (levels, window, iterations); the
    # window and the iteration count are flow's constants
    TOL_PX = {(1, 7, 3): 1.5e-4, (2, 7, 3): 5e-4, (3, 7, 3): 2e-3, (4, 7, 3): 3e-3}

    @pytest.mark.parametrize("levels,window,iterations", list(TOL_PX))
    def test_arrays_pyramids_and_oracle_agree(self, levels, window, iterations):
        assert (window, iterations) == (2 * LK_RADIUS + 1, LK_ITERATIONS)
        tol_px = self.TOL_PX[levels, window, iterations]
        for prev, nxt in _frame_pairs():
            expected = ref.dense_flow(prev, nxt, levels=levels, window=window, iterations=iterations)
            got = dense_flow(FramePyramid(prev, levels), FramePyramid(nxt, levels))
            if levels == PYRAMID_LEVELS:
                assert np.array_equal(dense_flow(prev, nxt), got)
            assert np.abs(got[0] - expected.u).max() <= tol_px
            assert np.abs(got[1] - expected.v).max() <= tol_px

    def test_textured_pairs_at_default_parameters(self):
        # The three textured crops, without the synthetic clips' flat regions.
        for prev, nxt in _frame_pairs()[:3]:
            expected = ref.dense_flow(prev, nxt)
            got = dense_flow(prev, nxt)
            assert np.abs(got[0] - expected.u).max() <= 2e-5
            assert np.abs(got[1] - expected.v).max() <= 2e-5

    def test_pyramids_of_other_depth_rejected(self):
        # 32 px builds up to 4 levels; an array gets the default 3
        prev, nxt = shifted_pair(1, 0, size=32)
        for levels in (1, 2, 4):
            with pytest.raises(InvalidParameterError, match="pyramid depth"):
                dense_flow(FramePyramid(prev, levels), FramePyramid(nxt))
            with pytest.raises(InvalidParameterError, match="pyramid depth"):
                dense_flow(prev, FramePyramid(nxt, levels))
            got = dense_flow(FramePyramid(prev, levels), FramePyramid(nxt, levels))
            assert np.isclose(np.median(got[0, 8:-8, 8:-8]), 1.0, atol=0.25)
        # 15 x 9 stops after two levels whatever is asked, so the depths agree
        a, b = np.zeros((15, 9)), np.ones((15, 9))
        assert dense_flow(FramePyramid(a, 2), FramePyramid(b, 4)).shape == (2, 15, 9)

    def test_pyramid_validation(self):
        with pytest.raises(InvalidParameterError):
            FramePyramid(np.zeros((8, 8)), levels=0)
        with pytest.raises(InvalidParameterError):
            dense_flow(FramePyramid(np.zeros((8, 8))), FramePyramid(np.zeros((8, 9))))


@pytest.mark.parametrize("shape", [(1, 1), (2, 7), (5, 5), (24, 20), (96, 96)])
def test_edge_blur_equals_pyramid_oracle(shape):
    img = np.random.default_rng(sum(shape)).normal(100.0, 40.0, size=shape)
    assert np.array_equal(binomial_blur(img, "edge"), ref._smooth(img))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blur_keeps_the_input_dtype(dtype):
    img = np.random.default_rng(2).normal(100.0, 40.0, size=(9, 12)).astype(dtype)
    for mode in ("edge", "wrap"):
        assert binomial_blur(img, mode).dtype == dtype


def test_blur_of_an_integer_image_is_its_float64_blur():
    img = np.random.default_rng(3).integers(0, 256, size=(9, 12)).astype(np.uint8)
    for mode in ("edge", "wrap"):
        got = binomial_blur(img, mode)
        assert got.dtype == np.float64 and got.any()
        np.testing.assert_array_equal(got, binomial_blur(img.astype(np.float64), mode))


def _brute_box_sum(img: np.ndarray, r: int) -> np.ndarray:
    h, w = img.shape
    out = np.zeros((h, w), dtype=img.dtype)
    for y in range(h):
        for x in range(w):
            out[y, x] = img[max(0, y - r) : y + r + 1, max(0, x - r) : x + r + 1].sum()
    return out


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (4, 3), (7, 7), (13, 20)])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_box_sum_equals_clipped_window_sum(shape, radius):
    # Small integers: every partial sum is exact in float32, so any order agrees.
    rng = np.random.default_rng(shape[0] * 31 + shape[1] + radius)
    stack = rng.integers(-50, 51, size=(3,) + shape).astype(np.float32)
    padded = np.zeros((3, shape[0] + 2 * radius, shape[1] + 2 * radius), dtype=np.float32)
    padded[:, radius : radius + shape[0], radius : radius + shape[1]] = stack
    got = _window_sums(padded, radius)
    assert got.dtype == np.float32 and got.shape == stack.shape
    for k in range(3):
        assert np.array_equal(got[k], _brute_box_sum(stack[k], radius))


def test_upsample_taps_are_shared_and_read_only():
    taps, scale = _upsample_taps((45, 72), (23, 36))
    assert _upsample_taps((45, 72), (23, 36))[0] is taps
    assert scale == (72 / 36, 45 / 23)
    idx, frac = taps
    assert idx.shape == (45, 72) and frac.shape == (2, 45, 72)
    assert frac.dtype == np.float32
    for a in taps:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[..., 0, 0] = 0


@pytest.mark.parametrize("shape,seed", [((80, 80), 7), ((60, 80), 11), ((18, 18), 4), ((5, 9), 0)])
def test_wrap_blur_equals_per_axis_convolution(shape, seed):
    # the form the flow-oracle texture and the test textures were built with
    img = np.random.default_rng(seed).standard_normal(shape)
    want = img
    for axis in (0, 1):
        want = np.apply_along_axis(
            lambda m: np.convolve(np.pad(m, 2, mode="wrap"), ref._BINOMIAL, mode="valid"), axis, want
        )
    assert np.array_equal(binomial_blur(img, "wrap"), want)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _same_pyramid(got: FramePyramid, want: per_frame.FramePyramid) -> None:
    assert got.shape == want.shape and got.n_frames is None
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        for name in ("image", "padded", "grad", "grid"):
            assert _same_bytes(getattr(a, name), getattr(b, name)), name
        assert len(a.tensor) == len(b.tensor) == 2
        assert all(_same_bytes(x, y) for x, y in zip(a.tensor, b.tensor))


class TestStackedPyramid:
    """A stack's frames and one frame's pyramid equal the per-frame build bit for bit.

    The window is flow's constant `LK_RADIUS`; the identity holds at any
    radius, so it is checked at the windows of radius 3, 1 and 2.
    """

    # odd sizes; (15, 9) and (8, 8) stop after two levels, (7, 30) and (2, 3)
    # after one, whatever `levels` asks for
    SHAPES = [(37, 53), (53, 37), (15, 9), (8, 8), (7, 30), (2, 3), (96, 96)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("levels,window", [(3, 7), (4, 3), (1, 5)])
    def test_stack_and_single_frames_equal_per_frame_pyramids(self, monkeypatch, shape, levels, window):
        monkeypatch.setattr(flow, "LK_RADIUS", window // 2)
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        frames = [GrayFrame.from_array(a) for a in rng.integers(0, 256, (5,) + shape).astype(np.uint8)]
        stack = FramePyramid(frames, levels=levels)
        assert stack.n_frames == 5
        for t, frame in enumerate(frames):
            want = per_frame.FramePyramid(frame, levels=levels, window=window)
            _same_pyramid(stack.frame(t), want)
            _same_pyramid(FramePyramid(frame, levels=levels), want)
            _same_pyramid(FramePyramid(frame.data, levels=levels), want)

    def test_float_stack_and_flow_from_its_frames(self):
        rng = np.random.default_rng(5)
        frames = smooth_texture(45, 72, 11).astype(np.float64) + rng.normal(0.0, 3.0, (4, 45, 72))
        stack = FramePyramid(frames)
        for t in range(3):
            _same_pyramid(stack.frame(t), per_frame.FramePyramid(frames[t]))
            got = dense_flow(stack.frame(t), stack.frame(t + 1))
            want = dense_flow(per_frame.FramePyramid(frames[t]), per_frame.FramePyramid(frames[t + 1]))
            from_arrays = dense_flow(frames[t], frames[t + 1])
            for field in (want, from_arrays):
                assert _same_bytes(got, field)

    def test_a_frames_gradients_keep_only_the_gradient_stack_alive(self):
        # `track` keeps level 0's gradients of every frame for hog; they must
        # not hold the chunk's tensors or coarser levels.
        stack = FramePyramid(np.zeros((3, 16, 16)))
        assert len(stack.levels) == 3
        grad = stack.frame(1).levels[0].grad
        assert grad.base is stack.levels[0].grad and grad.base.base is None
        assert grad.base.nbytes == 3 * 2 * 16 * 16 * 4

    def test_stack_validation(self):
        with pytest.raises(InvalidParameterError):
            FramePyramid(np.zeros((1, 8)))  # no central difference across one row
        with pytest.raises(InvalidParameterError):
            FramePyramid(np.zeros((0, 8, 8)))
        with pytest.raises(InvalidParameterError):
            FramePyramid([np.zeros((8, 8)), np.zeros((8, 9))])
        with pytest.raises(InvalidParameterError):
            FramePyramid(np.zeros((8, 8))).frame(0)
        with pytest.raises(InvalidParameterError):
            dense_flow(FramePyramid(np.zeros((2, 8, 8))), np.zeros((8, 8)))


def _odd_shaped_pairs():
    """The three textured crops, and noise moved by a pixel at odd small shapes."""
    rng = np.random.default_rng(17)
    pairs = _frame_pairs()[:3]
    for shape in [(61, 33), (15, 9), (7, 30), (2, 3)]:
        prev = rng.normal(100.0, 30.0, shape)
        pairs.append((prev, np.roll(prev, 1, axis=1) + rng.normal(0.0, 2.0, shape)))
    return pairs


class TestFieldAgainstPerComponentLoop:
    """The (2, h, w) flow field equals the loop that carried u and v apart, bit for bit.

    `reference_per_frame.dense_flow` is that loop with its one-image bilinear
    helpers, on per-frame pyramids of the same window.
    """

    @pytest.mark.parametrize("size,frames", [(96, 24), (120, 30)])
    def test_every_pair_of_an_rgb_and_a_log_depth_clip(self, size, frames):
        sample = generate_gesture_clip(default_spec(GESTURE_CLASSES[1]), size, frames, size=size)
        for clip in (sample.rgb, sample.depth):
            stack = FramePyramid(clip.frames)
            for t in range(frames - 1):
                got = dense_flow(stack.frame(t), stack.frame(t + 1))
                want = per_frame.dense_flow(clip.frames[t], clip.frames[t + 1])
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_odd_shapes_at_every_depth_and_window(self, monkeypatch, levels, radius):
        monkeypatch.setattr(flow, "LK_RADIUS", radius)
        for prev, nxt in _odd_shaped_pairs():
            got = dense_flow(FramePyramid(prev, levels), FramePyramid(nxt, levels))
            want = per_frame.dense_flow(
                per_frame.FramePyramid(prev, levels, window=2 * radius + 1),
                per_frame.FramePyramid(nxt, levels, window=2 * radius + 1),
            )
            assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 1), (5, 9), (34, 14), (96, 96), (120, 120)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
def test_blur_of_one_image_is_unchanged_and_stacks_and_strides_agree(shape, dtype):
    rng = np.random.default_rng(shape[0] + shape[1])
    stack = (rng.standard_normal((3,) + shape) * 40.0 + 100.0).clip(0, 255).astype(dtype)
    for mode in ("edge", "wrap"):
        got = binomial_blur(stack, mode)
        for img, blurred in zip(stack, got):
            want = per_frame.binomial_blur(img, mode)
            assert _same_bytes(binomial_blur(img, mode), want)
            assert _same_bytes(np.ascontiguousarray(blurred), want)
            assert _same_bytes(binomial_blur(img, mode, stride=2), np.ascontiguousarray(want[::2, ::2]))
