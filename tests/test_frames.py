from __future__ import annotations

import math

import numpy as np
import pytest

from avcmd.errors import InvalidParameterError
from avcmd.frames import (
    Clip,
    GrayFrame,
    Modality,
    Sensor,
    _log_table,
    log_depth,
)


class TestLogDepth:
    def test_zero_depth_maps_to_zero(self):
        assert np.all(log_depth(np.array([[0, 0]], dtype=np.uint16), 4095) == 0)

    def test_d_max_maps_to_255(self):
        assert log_depth(np.array([[4095]], dtype=np.uint16), 4095)[0, 0] == 255

    def test_scalar_evaluation(self):
        # round(255 * ln(1001) / ln(4096)) = 212
        expected = round(255 * math.log(1001) / math.log(4096))
        assert expected == 212
        assert log_depth(np.array([[1000]], dtype=np.uint16), 4095)[0, 0] == 212

    def test_monotone_over_full_16bit_range(self):
        d_max = 65535
        depths = np.arange(d_max + 1, dtype=np.uint16).reshape(1, -1)
        values = log_depth(depths, d_max)[0]
        assert np.all(np.diff(values.astype(np.int32)) >= 0)
        # Spot-check against per-sample scalar math (independent of the LUT).
        for d in (0, 1, 7, 500, 12345, 65535):
            assert values[d] == round(255 * math.log(1 + d) / math.log(1 + d_max))

    def test_d_max_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            log_depth(np.array([[0]], dtype=np.uint16), 0)

    def test_sample_above_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            log_depth(np.array([[100]], dtype=np.uint16), 50)
        stack = np.zeros((3, 2, 2), dtype=np.uint16)
        stack[2, 1, 0] = 51
        with pytest.raises(InvalidParameterError):
            log_depth(stack, 50)

    @pytest.mark.parametrize("bad", [-1, 12.9, 65536, np.nan])
    def test_depth_that_would_wrap_or_truncate_rejected(self, bad):
        # An unchecked uint16 cast would turn -1 into 65535 and 12.9 into 12.
        with pytest.raises(InvalidParameterError):
            log_depth(np.array([[bad, 0]]), 65535)

    def test_integral_float_depth_accepted(self):
        assert np.array_equal(log_depth(np.zeros((2, 3)), 4095), np.zeros((2, 3), dtype=np.uint8))
        assert np.array_equal(log_depth(np.array([[1000.0, 4095.0]]), 4095), [[212, 255]])

    def test_stack_equals_per_frame_results(self, rng):
        stack = rng.integers(0, 4096, size=(5, 6, 7)).astype(np.uint16)
        out = log_depth(stack, 4095)
        assert out.shape == stack.shape and out.dtype == np.uint8
        assert np.array_equal(out, np.stack([log_depth(f, 4095) for f in stack]))

    def test_table_is_built_once_and_read_only(self):
        table = _log_table(4095)
        assert _log_table(4095) is table and table.shape == (4096,)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


class TestClip:
    def _frame(self, v=0, w=3, h=2):
        return np.full((h, w), v, dtype=np.uint8)

    def test_basic_construction(self):
        clip = Clip(frames=(self._frame(), self._frame(1)), fps=15.0, modality=Modality.RGB)
        assert len(clip) == 2
        assert clip.width == 3 and clip.height == 2
        assert clip.sensor_id == Sensor.S1

    def test_frames_are_one_array_whatever_the_input(self, rng):
        stack = rng.integers(0, 256, size=(4, 5, 6), dtype=np.uint8)
        inputs = (tuple(GrayFrame.from_array(f) for f in stack), [f for f in stack], stack)
        for frames in inputs:
            clip = Clip(frames=frames, fps=15.0, modality=Modality.RGB)
            assert clip.frames.shape == (4, 5, 6) and clip.frames.dtype == np.uint8
            assert np.array_equal(clip.frames, stack)

    def test_array_input_is_frozen_as_a_view(self, rng):
        stack = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        clip = Clip(frames=stack, fps=15.0, modality=Modality.RGB)
        assert np.shares_memory(clip.frames, stack)
        assert stack.flags.writeable
        assert not clip.frames.flags.writeable

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            Clip(frames=(), fps=15.0, modality=Modality.RGB)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(InvalidParameterError):
            Clip(
                frames=(self._frame(), self._frame(w=4)),
                fps=15.0,
                modality=Modality.RGB,
            )

    @pytest.mark.parametrize(
        "frames",
        [
            np.zeros((0, 2, 3), dtype=np.uint8),
            [GrayFrame.from_array(np.zeros((2, 3))), GrayFrame.from_array(np.zeros((3, 2)))],
            np.zeros((2, 3), dtype=np.uint8),
            np.zeros((2, 3, 0), dtype=np.uint8),
            np.zeros((2, 0, 3), dtype=np.uint8),
            np.zeros((2, 2, 3, 1), dtype=np.uint8),
        ],
        ids=["no-frames", "ragged", "2-D", "zero-width", "zero-height", "4-D"],
    )
    def test_malformed_stacks_rejected(self, frames):
        with pytest.raises(InvalidParameterError):
            Clip(frames=frames, fps=15.0, modality=Modality.RGB)

    @pytest.mark.parametrize("value", [300, -1, 12.5])
    def test_out_of_range_intensities_rejected(self, value):
        # a uint8 cast would store 300 as 44, -1 as 255 and 12.5 as 12
        with pytest.raises(InvalidParameterError):
            Clip(frames=np.full((2, 3, 4), value), fps=15.0, modality=Modality.RGB)
        with pytest.raises(InvalidParameterError):
            GrayFrame.from_array(np.full((3, 4), value))
        with pytest.raises(InvalidParameterError):
            GrayFrame(width=4, height=3, data=np.full(12, value))

    def test_integral_intensities_of_any_dtype_accepted(self):
        for frames in (np.zeros((2, 3, 4)), np.full((2, 3, 4), 255, dtype=np.int64), np.full((2, 3, 4), 7.0)):
            clip = Clip(frames=frames, fps=15.0, modality=Modality.RGB)
            assert clip.frames.dtype == np.uint8 and np.array_equal(clip.frames, frames)
            assert np.array_equal(GrayFrame.from_array(frames[0]).data, frames[0])

    def test_nonpositive_fps_rejected(self):
        with pytest.raises(InvalidParameterError):
            Clip(frames=(self._frame(),), fps=0.0, modality=Modality.RGB)

    def test_frames_are_read_only(self):
        clip = Clip(frames=(self._frame(),), fps=15.0, modality=Modality.RGB)
        with pytest.raises(ValueError):
            clip.frames[0][0, 0] = 9

    def test_subclip_preserves_metadata(self):
        clip = Clip(
            frames=tuple(self._frame(i) for i in range(5)),
            fps=30.0,
            modality=Modality.LOG_DEPTH,
            sensor_id=Sensor.S3,
        )
        sub = clip.subclip(1, 3)
        assert len(sub) == 2
        assert sub.modality == Modality.LOG_DEPTH
        assert sub.sensor_id == Sensor.S3
        assert np.all(sub.frames[0] == 1)

    def test_subclip_is_a_read_only_view(self):
        clip = Clip(frames=np.arange(5 * 2 * 3, dtype=np.uint8).reshape(5, 2, 3), fps=15.0, modality=Modality.RGB)
        sub = clip.subclip(1, 4)
        assert np.shares_memory(sub.frames, clip.frames)
        assert np.array_equal(sub.frames, clip.frames[1:4])
        assert not sub.frames.flags.writeable
        for start, stop in ((0, 0), (3, 2), (-1, 2), (0, 6)):
            with pytest.raises(InvalidParameterError):
                clip.subclip(start, stop)

    def test_gray_frame_is_array_like(self):
        frame = GrayFrame.from_array(np.arange(6).reshape(2, 3))
        assert np.array_equal(np.asarray(frame), frame.data)
        assert np.asarray(frame, dtype=np.float32).dtype == np.float32
