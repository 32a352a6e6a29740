from __future__ import annotations

import dataclasses
import inspect
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcmd import trajectories
from avcmd.errors import (
    AvcmdError,
    FormatError,
    InvalidParameterError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from avcmd.flow import PYRAMID_LEVELS, FramePyramid, dense_flow
from avcmd.frames import Clip, GrayFrame, Modality
from avcmd.synth import GESTURE_CLASSES, default_spec, generate_corpus, generate_gesture_clip
from avcmd.trajectories import (
    HOF_DIM,
    HOG_DIM,
    MBH_DIM,
    TRAJ_DIM,
    TrackerParams,
    TrajectorySet,
    _describe_batch,
    _orientation_bins,
    descriptor_traj,
    is_erratic,
    is_static,
    read_features,
    sample_points,
    track,
    write_features,
)

import reference_per_frame as per_frame
import reference_tracker as ref
from conftest import smooth_texture

P = TrackerParams()


def grad_of(img) -> np.ndarray:
    """The (gx, gy) that `track` hands to `sample_points` for this frame."""
    return FramePyramid(img).levels[0].grad


def moving_block_clip(
    n_frames=18, size=80, block=18, speed=2.0, start=(14, 31), seed=3, offset=0
):
    """Textured square sliding right over a static textured background."""
    bg = smooth_texture(size, size, seed, lo=40, hi=170).astype(np.float64)
    btex = smooth_texture(block, block, seed + 1, lo=60, hi=220).astype(np.float64)
    frames = []
    for t in range(n_frames):
        img = bg.copy()
        x = int(round(start[0] + speed * t))
        y = start[1]
        img[y : y + block, x : x + block] = btex
        frames.append(np.clip(img + offset, 0, 255).astype(np.uint8))
    return Clip(frames=frames, fps=15.0, modality=Modality.RGB)


def corpus_of(patterns, seed, frames, size):
    """One clip of each of `patterns`, seeded as `generate_corpus` seeds the
    classes of its corpus: class index p gets seed + 100_000 p, and its
    jitter that seed + 7. Given all of `GESTURE_CLASSES`, this is
    `generate_corpus(1, seed, frames, size)`."""
    samples = []
    for p_idx, pattern in enumerate(patterns):
        clip_seed = seed + 100_000 * p_idx
        spec = default_spec(pattern, jitter_rng=np.random.default_rng(clip_seed + 7))
        samples.append(generate_gesture_clip(spec, clip_seed, frames, size=size))
    return samples


def static_clip(n_frames=18, size=64, seed=5):
    img = smooth_texture(size, size, seed)
    return Clip(frames=np.repeat(img[None], n_frames, axis=0), fps=15.0, modality=Modality.RGB)


class TestTrackerParams:
    def test_descriptor_layout_is_fixed(self):
        assert (P.traj_len, P.spatial_cells, P.temporal_cells, P.n_bins) == (15, 2, 3, 8)
        assert (P.tube_size, P.erratic_frac, P.hof_zero_thresh) == (32, 0.7, 0.4)
        assert TrackerParams.traj_len == 15
        refused = (
            ("traj_len", 12), ("spatial_cells", 4), ("temporal_cells", 5), ("n_bins", 9),
            ("tube_size", 24), ("erratic_frac", 0.5), ("hof_zero_thresh", 0.2),
        )
        for name, value in refused:
            with pytest.raises(TypeError):
                TrackerParams(**{name: value})
        assert [f.name for f in dataclasses.fields(TrackerParams)] == [
            "grid_step", "quality", "sigma_min", "pyramid_levels"
        ]

    def test_pyramid_depth_has_one_default(self):
        defaults = {
            inspect.signature(FramePyramid).parameters["levels"].default,
            {f.name: f.default for f in dataclasses.fields(TrackerParams)}["pyramid_levels"],
        }
        assert defaults == {PYRAMID_LEVELS}

    def test_tube_size_must_split_into_cells(self):
        # The descriptor cells are tube_size // spatial_cells px wide.
        assert TrackerParams.tube_size % TrackerParams.spatial_cells == 0


class TestSamplePoints:
    def test_flat_frame_yields_nothing(self):
        assert sample_points(grad_of(np.full((40, 40), 77.0)), step=5) == []

    def test_fully_occupied_grid_yields_nothing(self):
        img = smooth_texture(40, 40, 1)
        everywhere = [(x, y) for x in range(0, 40, 2) for y in range(0, 40, 2)]
        assert sample_points(grad_of(img), step=5, occupied=everywhere) == []

    def test_checkerboard_matches_direct_eigenvalue_oracle(self):
        # 3-px checkerboard; the oracle recomputes every node's min eigenvalue
        # from the same gradients with numpy.linalg over the border-clipped
        # 3x3 window, no shared box-filter code. The gradients are multiples
        # of 127.5, so the window sums are exact in float32.
        n = 33
        yy, xx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        img = (((yy // 3) + (xx // 3)) % 2 * 255).astype(np.float64)
        step, quality = 5, 0.001
        grad = grad_of(img)
        got = set(sample_points(grad, step=step, quality=quality))

        gx, gy = grad.astype(np.float64)

        def node_score(x, y):
            m = np.zeros((2, 2))
            for yy in range(max(0, y - 1), min(n, y + 2)):
                for xx in range(max(0, x - 1), min(n, x + 2)):
                    gxv, gyv = gx[yy, xx], gy[yy, xx]
                    m += np.array([[gxv * gxv, gxv * gyv], [gxv * gyv, gyv * gyv]])
            return float(np.linalg.eigvalsh(m)[0])

        scores = {
            (x, y): node_score(x, y)
            for y in range(step // 2, n, step)
            for x in range(step // 2, n, step)
        }
        max_score = max(
            node_score(x, y) for y in range(n) for x in range(n)
        )
        expected = {
            (float(x), float(y))
            for (x, y), s in scores.items()
            if s >= quality * max_score and s > 0
        }
        assert got == expected
        assert expected  # the oracle itself must select something

    def test_step_validation(self):
        with pytest.raises(InvalidParameterError):
            sample_points(np.zeros((2, 8, 8)), step=0)

    def test_takes_gradients_not_an_image(self):
        frame = GrayFrame.from_array(np.zeros((8, 8), dtype=np.uint8))
        for bad in (frame, np.zeros((8, 8)), np.zeros((3, 8, 8)), np.zeros((1, 2, 8, 8)), [[0.0]]):
            with pytest.raises(InvalidParameterError):
                sample_points(bad, step=5)


class TestPruningPredicates:
    def test_static_path(self):
        pts = np.tile([3.0, 4.0], (16, 1))
        assert is_static(pts, P.sigma_min)

    def test_uniform_motion_is_not_static(self):
        pts = np.stack([np.arange(16.0) * 2.0, np.full(16, 5.0)], axis=1)
        assert not is_static(pts, P.sigma_min)

    def test_teleport_is_erratic(self):
        pts = np.zeros((16, 2))
        pts[8:, 0] = 40.0  # one 40 px jump, otherwise still
        assert is_erratic(pts)

    def test_uniform_motion_is_not_erratic(self):
        pts = np.stack([np.arange(16.0) * 2.0, np.zeros(16)], axis=1)
        assert not is_erratic(pts)


class TestTrajDescriptor:
    def test_uniform_motion_right(self):
        pts = np.stack([np.arange(16.0), np.zeros(16)], axis=1)
        d = descriptor_traj(pts)
        assert d.shape == (30,)
        np.testing.assert_allclose(d[0::2], 1.0 / 15.0)
        np.testing.assert_allclose(d[1::2], 0.0)

    def test_uniform_motion_down_negative(self):
        pts = np.stack([np.zeros(16), -2.0 * np.arange(16.0)], axis=1)
        d = descriptor_traj(pts)
        np.testing.assert_allclose(d[0::2], 0.0)
        np.testing.assert_allclose(d[1::2], -1.0 / 15.0)

    def test_alternating_steps(self):
        xs = np.zeros(16)
        xs[1::2] = 1.0  # +1, -1, +1, ...
        pts = np.stack([xs, np.zeros(16)], axis=1)
        d = descriptor_traj(pts)
        np.testing.assert_allclose(d[0::2], np.where(np.arange(15) % 2 == 0, 1 / 15, -1 / 15))

    def test_zero_displacement_rejected(self):
        with pytest.raises(InvalidParameterError):
            descriptor_traj(np.zeros((16, 2)))


class TestOrientationBins:
    """Octant bins against math.atan2 in float64 on the same values."""

    @staticmethod
    def _atan2_bin(gx: float, gy: float) -> int:
        ang = math.atan2(gy, gx) % (2 * math.pi)
        return min(int(ang * P.n_bins / (2 * math.pi)), P.n_bins - 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_float64_angle(self, dtype):
        rng = np.random.default_rng(4)
        units = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        edges = [(ux * s, uy * s) for ux, uy in units for s in (1e-3, 0.5, 1.0, 3.5, 7.25, 255.0)]
        ties = rng.integers(-4, 5, size=(2000, 2)) * 0.25  # many vectors on a bin edge
        vecs = np.vstack([edges, ties, rng.normal(size=(2000, 2))]).astype(dtype)
        vecs = vecs[(vecs != 0).any(axis=1)].T
        bins, weights = _orientation_bins(*vecs)
        assert bins.tolist() == [self._atan2_bin(float(x), float(y)) for x, y in zip(*vecs)]
        assert weights.dtype == dtype
        np.testing.assert_array_equal(weights, np.hypot(*vecs))

    def test_signed_zero_lies_on_the_axis(self):
        gx = np.float32([-0.0, 2.0, -2.0, -0.0])
        gy = np.float32([2.0, -0.0, -0.0, -2.0])
        assert _orientation_bins(gx, gy)[0].tolist() == [2, 0, 4, 6]


class TestTubeDescriptors:
    """`_describe_batch` on one still trajectory in the middle of a 64x64 clip."""

    @staticmethod
    def _describe(image_value, u, v):
        grads = [grad_of(np.full((64, 64), image_value, dtype=np.uint8))] * P.traj_len
        flows = [np.stack([np.full((64, 64), u, dtype=np.float32), np.full((64, 64), v, dtype=np.float32)])] * P.traj_len
        paths = np.full((1, P.traj_len + 1, 2), 32.0)
        hog, hof, mbh = _describe_batch(np.zeros(1, dtype=np.intp), paths, grads, flows, P)
        return hog[0], hof[0], mbh[0]

    def test_flat_tube_gives_zero_hog(self):
        hog, _, _ = self._describe(99, 0.0, 0.0)
        assert hog.shape == (HOG_DIM,)
        assert np.all(hog == 0.0)

    def test_zero_flow_hof_mass_in_zero_bins(self):
        _, hof, _ = self._describe(99, 0.0, 0.0)
        assert hof.shape == (HOF_DIM,)
        zero_bins = hof.reshape(3, 2, 2, 9)[..., 8]
        other_bins = hof.reshape(3, 2, 2, 9)[..., :8]
        assert np.all(other_bins == 0.0)
        np.testing.assert_allclose(zero_bins, 1.0 / math.sqrt(12.0))

    def test_constant_flow_gives_zero_mbh(self):
        _, _, mbh = self._describe(99, 3.0, -1.5)
        assert mbh.shape == (MBH_DIM,)
        assert np.all(mbh == 0.0)


class TestTrajectorySet:
    def test_shapes_validated(self):
        good = TestFeatureDump()._trajs(n=2)
        bad = [
            (good.start[:1], good.points, good.desc),           # N differs
            (good.start, good.points[:, :, :1], good.desc),      # not (x, y) pairs
            (good.start, good.points[:, 0], good.desc),          # no path axis
            (good.start, good.points, good.desc[:, :-1]),        # 425 descriptor values
            (good.start[:, None], good.points, good.desc),       # start not a vector
            (good.start, good.points[:, :13], good.desc),        # L = 12
            (good.start, np.concatenate([good.points] * 2, axis=1), good.desc),  # L = 31
            ([], np.empty((0, 1, 2)), np.empty((0, 426))),       # an empty set of L = 0
            ([], np.empty((0, 13, 2)), np.empty((0, 426))),      # an empty set of L = 12
        ]
        for start, points, desc in bad:
            with pytest.raises(InvalidParameterError):
                TrajectorySet(start, points, desc)
        assert TrajectorySet.empty().points.shape == (0, 16, 2)

    def test_rows_and_columns_are_the_same_views(self):
        s = TestFeatureDump()._trajs(n=4)
        assert len(s) == 4 and s.points.shape == (4, 16, 2)
        spans = {"traj": (0, 30), "hog": (30, 126), "hof": (126, 234), "mbh": (234, 426)}
        for name, (lo, hi) in spans.items():
            assert np.shares_memory(getattr(s, name), s.desc)
            assert np.array_equal(getattr(s, name), s.desc[:, lo:hi])
        for i, row in enumerate(s):
            assert row.start_frame == i and type(row.start_frame) is int
            assert np.array_equal(row.points, s.points[i])
            for name in spans:
                assert np.array_equal(getattr(row, name), getattr(s, name)[i])
        assert not TrajectorySet.empty() and len(TrajectorySet.empty()) == 0

    def test_input_is_rounded_to_float32_and_float32_is_kept(self):
        s = TestFeatureDump()._trajs(n=3)
        assert s.points.dtype == np.float32 and s.desc.dtype == np.float32
        kept = TrajectorySet(s.start, s.points, s.desc)
        assert kept.points is s.points and kept.desc is s.desc
        assert all(getattr(row, name).dtype == np.float32 for row in kept for name in ("points", "hog"))
        rng = np.random.default_rng(3)
        points64, desc64 = rng.normal(20.0, 5.0, (3, 16, 2)), rng.random((3, 426))
        rounded = TrajectorySet(s.start, points64, desc64)
        assert np.array_equal(rounded.points, points64.astype(np.float32))
        assert np.array_equal(rounded.desc, desc64.astype(np.float32))
        ints = TrajectorySet(s.start, np.rint(points64).astype(np.int32), np.ones((3, 426), dtype=np.int64))
        assert ints.points.dtype == np.float32 and ints.desc.dtype == np.float32
        assert np.array_equal(ints.points, np.rint(points64))
        empty = TrajectorySet.empty()
        assert empty.points.dtype == np.float32 and empty.desc.dtype == np.float32

    @pytest.mark.parametrize(
        "start,point,match",
        [
            (-1, 20.0, "start frames"),
            (2**32 + 5, 20.0, "start frames"),
            (0, 1e39, "points must be finite"),
            (0, np.nan, "points must be finite"),
        ],
    )
    def test_what_igtf_cannot_store_is_refused_without_a_warning(self, start, point, match):
        s = TestFeatureDump()._trajs(n=3)
        points = s.points.astype(np.float64)
        points[1, 4, 0] = point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=match):
                TrajectorySet([0, start, 2], points, s.desc)

    def test_float32_bound_is_where_the_cast_overflows(self):
        s = TestFeatureDump()._trajs(n=1)
        fmax = float(np.finfo(np.float32).max)
        below, limit = np.nextafter(trajectories._FLOAT32_OVERFLOW, 0.0), trajectories._FLOAT32_OVERFLOW
        assert fmax < below < limit
        desc = s.desc.astype(np.float64)
        desc[0, 40] = -below
        assert TrajectorySet(s.start, s.points, desc).desc[0, 40] == -fmax
        for bad in (limit, -np.inf, np.nan):
            desc[0, 40] = bad
            with pytest.raises(InvalidParameterError, match="descriptors must be finite"):
                TrajectorySet(s.start, s.points, desc)
        stored = s.desc.copy()
        stored[0, 7] = np.inf
        with pytest.raises(InvalidParameterError, match="descriptors must be finite"):
            TrajectorySet(s.start, s.points, stored)

    def test_batched_path_functions_equal_per_path_calls(self):
        rng = np.random.default_rng(8)
        paths = np.cumsum(rng.normal(0.0, rng.uniform(0.1, 3.0, size=(400, 1, 1)), size=(400, 16, 2)), axis=1)
        paths[::7, 9:] += rng.uniform(-60, 60, size=(58, 1, 2))  # some jumps
        paths[::11] = np.rint(paths[::11])
        tracked = track(moving_block_clip()).trajectories.points
        assert tracked.dtype == np.float32
        for p in (paths, tracked):
            static, erratic = is_static(p, P.sigma_min), is_erratic(p)
            traj = descriptor_traj(p)
            # The batched functions widen float32 paths; the per-path forms get them widened.
            wide = p.astype(np.float64)
            for i in range(len(p)):
                assert static[i] == ref.is_static(wide[i], P.sigma_min)
                assert erratic[i] == ref.is_erratic(wide[i], P.erratic_frac)
                assert np.array_equal(traj[i], ref.descriptor_traj(wide[i]))
        assert descriptor_traj(np.empty((0, 16, 2))).shape == (0, 30)


class TestTrack:
    def test_static_clip_yields_no_trajectories(self):
        res = track(static_clip())
        assert len(res.trajectories) == 0

    def test_short_clip_flagged(self):
        # by an empty set: L + 1 frames of the moving block keep trajectories, L keep none
        assert len(track(moving_block_clip(n_frames=P.traj_len + 1)).trajectories) > 0
        assert len(track(moving_block_clip(n_frames=P.traj_len)).trajectories) == 0

    def test_moving_block_total_displacement(self):
        # ground truth: block interior moves 2 px/frame for 15 steps = 30 px.
        # Edge trajectories straddle the occlusion boundary, so judge only
        # those spawned well inside the block.
        start, block, speed = (14, 31), 18, 2.0
        res = track(moving_block_clip(start=start, block=block, speed=speed))
        interior = []
        for tr in res.trajectories:
            x0 = start[0] + speed * tr.start_frame
            y0 = start[1]
            px, py = tr.points[0]
            if x0 + 4 <= px <= x0 + block - 4 and y0 + 4 <= py <= y0 + block - 4:
                steps = np.diff(tr.points, axis=0)
                interior.append(float(np.hypot(steps[:, 0], steps[:, 1]).sum()))
        assert len(interior) >= 4
        np.testing.assert_allclose(interior, 30.0, atol=3.0)

    def test_emitted_trajectories_satisfy_prune_predicates(self):
        res = track(moving_block_clip())
        for tr in res.trajectories:
            assert not is_static(tr.points, P.sigma_min)
            assert not is_erratic(tr.points)

    def test_descriptor_dimensions(self):
        res = track(moving_block_clip())
        for tr in res.trajectories:
            assert tr.traj.shape == (TRAJ_DIM,)
            assert tr.hog.shape == (HOG_DIM,)
            assert tr.hof.shape == (HOF_DIM,)
            assert tr.mbh.shape == (MBH_DIM,)

    def test_teleporting_block_yields_no_block_trajectories(self):
        # block jumps half the frame after 7 frames; nothing trackable there
        size, block = 80, 18
        bg = smooth_texture(size, size, 9, lo=40, hi=170).astype(np.float64)
        btex = smooth_texture(block, block, 10, lo=60, hi=220).astype(np.float64)
        frames = []
        for t in range(18):
            img = bg.copy()
            x = 10 if t < 7 else 50
            img[30 : 30 + block, x : x + block] = btex
            frames.append(img.astype(np.uint8))
        clip = Clip(frames=frames, fps=15.0, modality=Modality.RGB)
        assert len(track(clip).trajectories) == 0

    def test_brightness_offset_leaves_hof_unchanged(self):
        res_a = track(moving_block_clip())
        res_b = track(moving_block_clip(offset=30))
        assert len(res_a.trajectories) == len(res_b.trajectories)
        for ta, tb in zip(res_a.trajectories, res_b.trajectories):
            np.testing.assert_allclose(ta.hof, tb.hof, atol=1e-2)

    def test_180_rotation_negates_mean_traj_descriptor(self):
        clip = moving_block_clip()
        rotated = Clip(
            frames=np.rot90(clip.frames, 2, axes=(1, 2)),
            fps=clip.fps,
            modality=clip.modality,
        )
        mean_a = np.mean([t.traj for t in track(clip).trajectories], axis=0)
        mean_b = np.mean([t.traj for t in track(rotated).trajectories], axis=0)
        np.testing.assert_allclose(mean_a, -mean_b, atol=0.02)

    def test_ordering_is_deterministic(self):
        a = track(moving_block_clip()).trajectories
        b = track(moving_block_clip()).trajectories
        keys_a = [(t.start_frame, t.points[0, 0], t.points[0, 1]) for t in a]
        keys_b = [(t.start_frame, t.points[0, 0], t.points[0, 1]) for t in b]
        assert keys_a == keys_b == sorted(keys_a)


class TestFastPathAgainstBruteForce:
    """The integral-histogram path must agree with a naive per-pixel tally.

    Each pixel is binned on its own with `math.atan2` in float64, on the
    float32 gradients and flow the tracker uses. The float32 integral
    histograms round their running sums, hence the 1e-6 tolerance on the
    normalised values (at most 6e-8 measured on this clip).
    """

    @staticmethod
    def _brute(images, flows, start, points, kind, params=P):
        L = params.traj_len
        half = params.tube_size // 2
        cs = params.tube_size // params.spatial_cells
        spt = L // params.temporal_cells
        nb = params.n_bins + (1 if kind == "hof" else 0)
        acc = np.zeros((params.temporal_cells, 2, 2, nb))
        for t in range(L):
            f = start + t
            if kind == "hog":
                gy, gx = np.gradient(images[f])
            elif kind == "hof":
                gx, gy = flows[f]  # treated as the vector field itself
            elif kind == "mbhu":
                gy, gx = np.gradient(flows[f][0])
            else:
                gy, gx = np.gradient(flows[f][1])
            cx = int(round(points[t, 0]))
            cy = int(round(points[t, 1]))
            for yy in range(cy - half, cy + half):
                for xx in range(cx - half, cx + half):
                    vx, vy = float(gx[yy, xx]), float(gy[yy, xx])
                    mag = math.hypot(vx, vy)
                    if kind == "hof" and mag < params.hof_zero_thresh:
                        b, wgt = params.n_bins, 1.0
                    else:
                        ang = math.atan2(vy, vx) % (2 * math.pi)
                        b = min(int(ang * params.n_bins / (2 * math.pi)), params.n_bins - 1)
                        wgt = mag
                    ci = (yy - (cy - half)) // cs
                    cj = (xx - (cx - half)) // cs
                    acc[t // spt, ci, cj, b] += wgt
        return acc.ravel()

    def test_matches_on_tracked_clip(self):
        clip = moving_block_clip()
        res = track(clip)
        assert res.trajectories
        images = clip.frames.astype(np.float32)
        flows = []
        for t in range(len(images) - 1):
            field = dense_flow(images[t], images[t + 1])
            flows.append(field)
        for tr in list(res.trajectories)[:2]:
            hog = self._brute(images, flows, tr.start_frame, tr.points, "hog")
            hof = self._brute(images, flows, tr.start_frame, tr.points, "hof")
            mbu = self._brute(images, flows, tr.start_frame, tr.points, "mbhu")
            mbv = self._brute(images, flows, tr.start_frame, tr.points, "mbhv")
            mbh = np.concatenate([mbu, mbv])
            for ref, got in ((hog, tr.hog), (hof, tr.hof), (mbh, tr.mbh)):
                n = np.linalg.norm(ref)
                ref = ref / n if n > 0 else ref
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)


class TestFeatureDump:
    def _trajs(self, n=3, seed=0):
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.normal(1.0, 0.2, size=(n, 16, 2)), axis=1) + 20.0
        desc = np.hstack([descriptor_traj(pts), rng.random((n, HOG_DIM + HOF_DIM + MBH_DIM))])
        return TrajectorySet(np.arange(n), pts, desc)

    def test_round_trip(self, tmp_path):
        trajs = self._trajs()
        path = tmp_path / "f.igtf"
        write_features(path, trajs)
        back = read_features(path)
        assert len(back) == len(trajs)
        for a, b in zip(trajs, back):
            assert a.start_frame == b.start_frame
            np.testing.assert_allclose(a.points, b.points, atol=1e-5)
            np.testing.assert_allclose(
                np.concatenate([a.traj, a.hog, a.hof, a.mbh]),
                np.concatenate([b.traj, b.hog, b.hof, b.mbh]),
                atol=1e-6,
            )

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "f.igtf"
        for empty in (TrajectorySet.empty(), TrajectorySet([], np.empty((0, 16, 2)), np.empty((0, 426)))):
            write_features(path, empty)
            assert path.read_bytes()[6:] == struct.pack("<II", 0, 0)  # count 0, L 0
            assert len(read_features(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.igtf"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_features(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "f.igtf"
        write_features(path, self._trajs())
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(TruncatedPayloadError):
            read_features(path)

    def test_trajectory_length_mismatch_detected(self, tmp_path):
        # Well-formed records of L = 20: the payload size agrees with the
        # header, but the layout is L = 15, so the file is refused.
        rows = [tr._replace(points=np.concatenate([tr.points, tr.points[-5:] + 1.0])) for tr in self._trajs()]
        path = tmp_path / "f.igtf"
        _write_features_per_record(path, rows)
        with pytest.raises(FormatError, match="trajectory length 20"):
            read_features(path)


class TestTrackAgainstReference:
    """The float32 tracker against the float64 reference tracker.

    Trajectories are paired by start frame and first point; an unpaired one
    was spawned, kept or pruned by one tracker only. The bounds are set from
    measurements on these clips: every trajectory paired, points moved by
    at most 1.6e-3 px and descriptor values by at most 1.4e-3.
    """

    MAX_UNPAIRED = 0.02  # share of the larger of the two kept sets
    POINT_TOL_PX = 0.01
    DESC_TOL = 0.01

    @classmethod
    def assert_close(cls, got, expected):
        key = lambda t: (t.start_frame, *map(float, t.points[0]))
        mine = {key(t): t for t in got.trajectories}
        want = {key(t): t for t in expected.trajectories}
        assert len(mine.keys() ^ want.keys()) <= cls.MAX_UNPAIRED * max(len(mine), len(want))
        for k in mine.keys() & want.keys():
            a, b = mine[k], want[k]
            assert np.abs(a.points - b.points).max() <= cls.POINT_TOL_PX
            for name in ("traj", "hog", "hof", "mbh"):
                assert np.abs(getattr(a, name) - getattr(b, name)).max() <= cls.DESC_TOL, name

    @pytest.mark.parametrize("stream", ["rgb", "depth"])
    @pytest.mark.parametrize(
        "size,patterns", [(96, GESTURE_CLASSES), (120, GESTURE_CLASSES[::2])]
    )
    def test_synthetic_corpus(self, size, patterns, stream):
        corpus = corpus_of(patterns, seed=21, frames=20, size=size)
        kept = 0
        for sample in corpus:
            clip = getattr(sample, stream)
            got = track(clip)
            self.assert_close(got, ref.track(clip))
            kept += len(got.trajectories)
        assert kept > 0

    def test_moving_block_and_short_clips(self):
        for clip in (moving_block_clip(), static_clip(), static_clip(n_frames=10)):
            self.assert_close(track(clip), ref.track(clip))

    def test_other_tracker_parameters(self):
        params = TrackerParams(grid_step=4, quality=0.01, sigma_min=1.0, pyramid_levels=2)
        clip = moving_block_clip()
        self.assert_close(track(clip, params), ref.track(clip, params))

    def test_spawned_points_equal_the_reference_sampling(self):
        # Same frame, no live trajectories: the float32 scores select the
        # same nodes as the float64 oracle.
        corpus = generate_corpus(1, seed=21, frames=16, size=96)
        for sample in corpus:
            for clip in (sample.rgb, sample.depth):
                for f in (0, 7):
                    img = clip.frames[f]
                    assert sample_points(grad_of(img), P.grid_step) == ref.sample_points(
                        img.astype(np.float64), P.grid_step
                    )


def _write_features_per_record(path, trajectories, version=2):
    """The record-at-a-time IGTF writer that write_features replaced.

    `trajectories` is any sequence of `Trajectory` rows. Version 2 adds the
    trajectory length L (0 for an empty file) to the version 1 header; the
    records are the same.
    """
    rows = list(trajectories)
    with open(path, "wb") as fh:
        fh.write(b"IGTF")
        fh.write(struct.pack("<HI", version, len(rows)))
        if version == 2:
            fh.write(struct.pack("<I", len(rows[0].points) - 1 if rows else 0))
        for tr in rows:
            fh.write(struct.pack("<I", tr.start_frame))
            fh.write(tr.points.astype("<f4").tobytes())
            fh.write(np.concatenate([tr.traj, tr.hog, tr.hof, tr.mbh]).astype("<f4").tobytes())


class TestFeatureBytes:
    def test_same_bytes_as_per_record_writer(self, tmp_path):
        tracked = track(moving_block_clip()).trajectories
        assert tracked
        for trajs in (tracked, TestFeatureDump()._trajs(n=5, seed=4), TrajectorySet.empty()):
            write_features(tmp_path / "one.igtf", trajs)
            _write_features_per_record(tmp_path / "each.igtf", trajs)
            assert (tmp_path / "one.igtf").read_bytes() == (tmp_path / "each.igtf").read_bytes()

    def test_read_back_is_the_float32_cast(self, tmp_path):
        trajs = track(moving_block_clip()).trajectories
        assert trajs
        write_features(tmp_path / "f.igtf", trajs)
        back = read_features(tmp_path / "f.igtf")
        assert trajs.points.dtype == np.float32 and trajs.desc.dtype == np.float32
        assert back.points.dtype == np.float32 and back.desc.dtype == np.float32
        assert not back.points.flags.writeable and not back.desc.flags.writeable
        # interleaved fields of the file's one record buffer, not copies
        assert np.may_share_memory(back.points, back.desc)
        for name in ("start", "points", "desc"):
            assert np.array_equal(getattr(trajs, name), getattr(back, name)), name


class TestFeatureFileIsTotal:
    """A cut or mislabelled IGTF file raises instead of reading back short."""

    def test_cut_at_every_byte_raises(self, tmp_path):
        path = tmp_path / "f.igtf"
        write_features(path, TestFeatureDump()._trajs(n=3))
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(AvcmdError):
                read_features(path)

    def test_cut_empty_file_raises(self, tmp_path):
        path = tmp_path / "f.igtf"
        write_features(path, TrajectorySet.empty())
        raw = path.read_bytes()
        assert len(raw) == 14
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(AvcmdError):
                read_features(path)

    def test_header_length_is_checked_against_payload(self, tmp_path):
        path = tmp_path / "f.igtf"
        write_features(path, TestFeatureDump()._trajs(n=3))
        raw = bytearray(path.read_bytes())
        for wrong in (14, 16, 0, 2**32 - 1):
            raw[10:14] = struct.pack("<I", wrong)
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError):
                read_features(path)

    def test_header_length_14_is_refused_before_the_payload_size(self, tmp_path):
        path = tmp_path / "f.igtf"
        write_features(path, TestFeatureDump()._trajs(n=3))
        raw = bytearray(path.read_bytes())
        raw[10:14] = struct.pack("<I", 14)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="trajectory length 14") as err:
            read_features(path)
        assert not isinstance(err.value, TruncatedPayloadError)

    def test_payload_one_byte_long_is_a_format_error(self, tmp_path):
        path = tmp_path / "f.igtf"
        for trajs in (TestFeatureDump()._trajs(n=3), TrajectorySet.empty()):
            write_features(path, trajs)
            path.write_bytes(path.read_bytes() + b"\0")
            with pytest.raises(FormatError) as err:
                read_features(path)
            assert not isinstance(err.value, TruncatedPayloadError)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flips_read_or_raise(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("igtf") / "f.igtf"
        write_features(path, TestFeatureDump()._trajs(n=2))
        flipped = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(flipped) - 1))
            flipped[pos] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(flipped))
        try:
            back = read_features(path)
        except AvcmdError:
            return
        assert isinstance(back, TrajectorySet)
        n = len(back)
        assert back.start.shape == (n,) and back.points.shape == (n, P.traj_len + 1, 2)
        assert back.desc.shape == (n, TRAJ_DIM + HOG_DIM + HOF_DIM + MBH_DIM)
        assert np.all(np.isfinite(back.points)) and np.all(np.isfinite(back.desc))
        write_features(path, back)
        assert path.read_bytes() == flipped  # what a read accepts is written back as it was

    def test_empty_file_with_a_trajectory_length_refused(self, tmp_path):
        # write_features gives an empty set L = 0; L = 15 used to read as empty
        path = tmp_path / "f.igtf"
        write_features(path, TrajectorySet.empty())
        raw = bytearray(path.read_bytes())
        assert raw[10:14] == struct.pack("<I", 0)
        raw[10:14] = struct.pack("<I", P.traj_len)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="trajectory length 15, expected 0"):
            read_features(path)

    def test_version_1_is_refused(self, tmp_path):
        path = tmp_path / "v1.igtf"
        _write_features_per_record(path, TestFeatureDump()._trajs(n=3), version=1)
        with pytest.raises(UnsupportedVersionError):
            read_features(path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(AvcmdError):
                read_features(path)


def sliding_texture_clip(n_frames: int, shape=(53, 67), seed=4):
    """A texture sliding right by 1 px per frame over an odd-sized frame.

    Grid nodes at y = 37 stay there, so their tubes touch the bottom border.
    """
    h, w = shape
    tex = smooth_texture(h, w + n_frames, seed)
    frames = [tex[:, n_frames - t : n_frames - t + w] for t in range(n_frames)]
    return Clip(frames=frames, fps=15.0, modality=Modality.RGB)


class TestAgainstPerFrameReference:
    """The chunked tracker against its per-frame form in `reference_per_frame`.

    Stacked pyramids, array sampling and transposed integral passes only
    reorganise the float32 work, so every output byte must be equal.
    """

    @staticmethod
    def assert_same(got, want):
        for name in ("start", "points", "desc"):
            a, b = getattr(got.trajectories, name), getattr(want.trajectories, name)
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize(
        "chunk,n_frames", [(3, 16), (3, 17), (1, 17), (16, 16), (16, 17), (16, 33), (None, 17)]
    )
    def test_clip_lengths_around_chunk_boundaries(self, monkeypatch, chunk, n_frames):
        clip = sliding_texture_clip(n_frames)
        if chunk is not None:
            monkeypatch.setattr(trajectories, "PYRAMID_BATCH_PIXELS", chunk * clip.width * clip.height)
        got = track(clip)
        self.assert_same(got, per_frame.track(clip))
        x, y = np.rint(got.trajectories.points[:, : P.traj_len]).T
        half = P.tube_size // 2
        assert ((x == half) | (x + half == clip.width) | (y == half) | (y + half == clip.height)).any()

    @pytest.mark.parametrize("size,n_frames,chunks", [(96, 24, [4] * 6), (120, 17, [2] * 8 + [1])])
    def test_chunk_lengths_at_the_benchmark_frame_sizes(self, monkeypatch, size, n_frames, chunks):
        built = []

        class Spy(FramePyramid):
            def __init__(self, frames, levels):
                built.append(len(frames))
                super().__init__(frames, levels)

        monkeypatch.setattr(trajectories, "FramePyramid", Spy)
        track(Clip(frames=np.zeros((n_frames, size, size), dtype=np.uint8), fps=15.0, modality=Modality.RGB))
        assert built == chunks

    @pytest.mark.parametrize("stream", ["rgb", "depth"])
    def test_synthetic_clips(self, stream):
        kept = 0
        for sample in corpus_of(GESTURE_CLASSES[:3], seed=8, frames=20, size=96):
            clip = getattr(sample, stream)
            got = track(clip)
            self.assert_same(got, per_frame.track(clip))
            kept += len(got.trajectories)
        assert kept > 0

    def test_static_and_empty_clips(self):
        tiny = np.arange(64, dtype=np.uint8).reshape(8, 8)
        clips = [
            static_clip(),
            static_clip(n_frames=10),
            Clip(frames=[tiny] * 16, fps=15.0, modality=Modality.RGB),
            moving_block_clip(),
        ]
        for clip in clips:
            self.assert_same(track(clip), per_frame.track(clip))
        assert [len(track(c).trajectories) for c in clips[:3]] == [0, 0, 0]

    def test_sampling_with_live_points_on_cell_borders(self):
        img = smooth_texture(37, 53, 2)
        grad = grad_of(img)
        step = P.grid_step
        xs, ys = np.meshgrid(np.arange(0.0, 53.0, step), np.arange(0.0, 37.0, step))
        border = np.stack([xs.ravel(), ys.ravel()], axis=1)[::3]  # cell corners
        just_below = border[1::4] - 1e-9  # the neighbouring cell
        outside = [[-0.5, 3.0], [52.0, 36.0], [60.0, 2.0], [3.0, 40.0]]  # past the last node's cell
        for occupied in (np.empty((0, 2)), border, just_below, np.vstack([border, just_below, outside])):
            want = per_frame.sample_points(grad, step, occupied.tolist())
            assert sample_points(grad, step, occupied) == want
            assert sample_points(grad, step, [tuple(p) for p in occupied.tolist()]) == want
        assert sample_points(grad, step, border) != sample_points(grad, step)

    @pytest.mark.parametrize(
        "bbox", [(0, 37, 0, 53), (0, 20, 28, 53), (17, 37, 0, 9), (5, 6, 3, 40), (4, 30, 7, 8), (10, 27, 11, 45)]
    )
    def test_integrals_equal_the_cumsum_form(self, bbox):
        rng = np.random.default_rng(sum(bbox))
        grad = rng.normal(0.0, 20.0, (2, 37, 53)).astype(np.float32)
        grad[:, 5:9] = 0.0  # zero vectors add nothing
        uv = rng.normal(0.0, 1.0, (2, 37, 53)).astype(np.float32)
        got = trajectories._frame_integrals(grad, uv, bbox, P)
        want = per_frame.frame_integrals(grad, uv, bbox, P)
        assert got.shape == (want.shape[1], want.shape[0], want.shape[2])
        assert np.ascontiguousarray(got.transpose(1, 0, 2)).tobytes() == want.tobytes()
