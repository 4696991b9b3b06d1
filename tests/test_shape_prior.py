import dataclasses
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shapeseg import field, shape_prior, synth
from shapeseg.shape_prior import Pose

from conftest import disk_mask, grid, traced_peak


def nearest_opposite_sdf(m):
    """Exact distance to the nearest opposite pixel, minus the half pixel, negative inside."""
    ys, xs = (a.ravel() for a in np.indices(m.shape))
    inside = m.ravel()
    d2 = (ys[:, None] - ys) ** 2 + (xs[:, None] - xs) ** 2
    d2[inside[:, None] == inside] = np.iinfo(d2.dtype).max
    d = np.sqrt(d2.min(axis=1).astype(np.float64)) - 0.5
    return np.where(inside, -d, d).reshape(m.shape)


def box_mask(h, w, y0, x0, y1, x1):
    m = np.zeros((h, w), dtype=bool)
    m[y0:y1, x0:x1] = True
    return m


def ellipse_sdfs(n=10, a_range=(12, 30), b=18, size=128):
    masks = synth.ellipse_training_set(n, a_range, (b, b), size, size)
    return [shape_prior.sdf_from_mask(m) for m in masks]


class TestSdfFromMask:
    def test_disk_oracle(self):
        # disk centered on a pixel so the analytic distance applies at the center
        m = disk_mask(64, 64, 32, 32, 20)
        s = shape_prior.sdf_from_mask(m)
        assert abs(s[32, 32] - (-20)) < 1.0
        corner = np.hypot(32, 32) - 20
        assert abs(s[0, 0] - corner) < 1.5

    def test_halfplane_oracle(self):
        xs, ys = grid(64, 64)
        m = xs < 32
        s = shape_prior.sdf_from_mask(m)
        want = xs - 31.5
        assert np.max(np.abs(s - want)) < 0.71

    def test_complement_negates(self):
        m = disk_mask(64, 64, 30, 28, 15)
        s = shape_prior.sdf_from_mask(m)
        sc = shape_prior.sdf_from_mask(~m)
        assert np.max(np.abs(s + sc)) < 1e-9

    def test_eikonal_invariant(self):
        for mask in (disk_mask(64, 64, 32, 32, 20),
                     synth.ellipse_training_set(2, (14, 22), (10, 16), 64, 64)[1]):
            s = shape_prior.sdf_from_mask(mask)
            m = field.grad_magnitude(s)
            far = np.abs(s) > 2
            far[:, -1] = far[-1, :] = False
            frac = np.mean((m[far] >= 0.8) & (m[far] <= 1.2))
            assert frac >= 0.95

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            shape_prior.sdf_from_mask(np.ones((8, 8), dtype=bool))
        with pytest.raises(ValueError):
            shape_prior.sdf_from_mask(np.zeros((8, 8), dtype=bool))

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        # a random blob on a random sub-box of the grid (the whole grid included),
        # so the inside's box is often a real crop
        h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        bh, bw = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
        y0, x0 = data.draw(st.integers(0, h - bh)), data.draw(st.integers(0, w - bw))
        m = np.zeros((h, w), dtype=bool)
        m[y0:y0 + bh, x0:x0 + bw] = data.draw(arrays(bool, (bh, bw)))
        assume(m.any() and not m.all())
        assert np.array_equal(shape_prior.sdf_from_mask(m), nearest_opposite_sdf(m))

    @pytest.mark.parametrize("m", [
        # the inside's box touching one edge
        box_mask(23, 31, 0, 4, 12, 9), box_mask(23, 31, 5, 4, 23, 9),
        box_mask(23, 31, 6, 0, 11, 7), box_mask(23, 31, 6, 20, 11, 31),
        # and one corner
        box_mask(23, 31, 0, 0, 5, 9), box_mask(23, 31, 0, 24, 8, 31),
        box_mask(23, 31, 17, 0, 23, 3), box_mask(23, 31, 20, 29, 23, 31),
        # a box that is the whole grid: a frame, a cross, and everything but one pixel
        ~box_mask(24, 24, 3, 3, 21, 21),
        box_mask(19, 26, 8, 0, 11, 26) | box_mask(19, 26, 0, 12, 19, 14),
        ~box_mask(17, 29, 9, 14, 10, 15),
        # holes, one of them a single pixel
        disk_mask(32, 32, 15.5, 15.5, 11) & ~disk_mask(32, 32, 15.5, 15.5, 4),
        box_mask(20, 22, 3, 4, 16, 17) & ~box_mask(20, 22, 9, 9, 10, 10),
        # two components in opposite corners
        box_mask(30, 30, 0, 0, 4, 6) | box_mask(30, 30, 25, 23, 30, 30),
        box_mask(27, 35, 0, 30, 3, 35) | box_mask(27, 35, 24, 0, 27, 2),
        # 1 x N and N x 1 grids
        box_mask(1, 37, 0, 10, 1, 17), box_mask(1, 37, 0, 0, 1, 36),
        box_mask(1, 37, 0, 1, 1, 37), box_mask(37, 1, 20, 0, 33, 1),
        box_mask(37, 1, 0, 0, 1, 1), box_mask(37, 1, 2, 0, 37, 1),
    ], ids=lambda m: "x".join(map(str, m.shape)))
    def test_matches_brute_force_on_crop_cases(self, m):
        assert np.array_equal(shape_prior.sdf_from_mask(m), nearest_opposite_sdf(m))
        assert np.array_equal(shape_prior.sdf_from_mask(~m), -nearest_opposite_sdf(m))


class TestBuildShapeModel:
    def test_two_point_pca(self):
        s1, s2 = ellipse_sdfs(n=2, a_range=(14, 24))
        model = shape_prior.build_shape_model([s1, s2], p=1)
        diff = (s1 - s2).ravel()
        mode = model.modes[0].ravel()
        alignment = abs(diff @ mode) / np.linalg.norm(diff)
        assert abs(alignment - 1.0) < 1e-10
        for s in (s1, s2):
            rec = shape_prior.synthesize_shape(model, model.project(s))
            assert np.max(np.abs(rec - s)) < 1e-8

    def test_full_rank_reconstruction(self):
        sdfs = ellipse_sdfs(n=10)
        model = shape_prior.build_shape_model(sdfs, p=9)
        for s in sdfs:
            rec = shape_prior.synthesize_shape(model, model.project(s))
            rms = np.sqrt(np.mean((rec - s) ** 2))
            assert rms < 1e-6

    def test_identical_inputs_zero_variance(self):
        s = ellipse_sdfs(n=2)[0]
        model = shape_prior.build_shape_model([s.copy() for _ in range(4)], p=2)
        assert np.all(model.variances <= 1e-10)

    def test_repeated_training_shapes(self):
        # six disks with each radius twice span two directions; the other three
        # eigenpairs of the Gram matrix are rounding, which must not become modes
        sdfs = [shape_prior.sdf_from_mask(disk_mask(128, 128, 63.5, 63.5, r))
                for r in (14, 16, 18, 14, 16, 18)]
        model = shape_prior.build_shape_model(sdfs, p=5)
        m = model.modes.reshape(5, -1)
        assert np.max(np.abs(m @ m.T - np.eye(5))) < 1e-12
        assert np.all(model.variances[2:] == 0)
        for s in sdfs:
            rec = shape_prior.synthesize_shape(model, model.project(s))
            assert np.max(np.abs(rec - s)) < 1e-10

    def test_mode_orthonormality(self):
        model = shape_prior.build_shape_model(ellipse_sdfs(n=8), p=5)
        g = model.modes.reshape(5, -1) @ model.modes.reshape(5, -1).T
        assert np.max(np.abs(g - np.eye(5))) < 1e-8

    def test_total_variance_identity(self):
        sdfs = ellipse_sdfs(n=6)
        model = shape_prior.build_shape_model(sdfs, p=5)
        mean = np.mean([s for s in sdfs], axis=0)
        msd = np.mean([np.sum((s - mean) ** 2) for s in sdfs])
        assert abs(model.variances.sum() - msd) < 1e-8 * msd

    def test_variances_descending(self):
        model = shape_prior.build_shape_model(ellipse_sdfs(n=8), p=7)
        assert np.all(np.diff(model.variances) <= 0)
        assert np.all(model.variances >= 0)

    def test_argument_validation(self):
        sdfs = ellipse_sdfs(n=3)
        with pytest.raises(ValueError):
            shape_prior.build_shape_model(sdfs, p=3)  # p > N - 1
        with pytest.raises(ValueError):
            shape_prior.build_shape_model([sdfs[0]], p=1)
        with pytest.raises(ValueError):
            shape_prior.build_shape_model([sdfs[0], sdfs[1][:64, :32]], p=1)

    def test_lambda_box_scales(self):
        sdfs = ellipse_sdfs(n=4)
        m1 = shape_prior.build_shape_model(sdfs, p=2)
        assert np.allclose(m1.lambda_box[:, 1], 3 * np.sqrt(m1.variances))

    def test_peak(self):
        # 12.02 grids for seven 128 x 128 SDFs: their stack, centred in place, the
        # mean, the two modes and a mode's two work arrays. It read 19.03 when the
        # centred stack was a second copy
        sdfs = [shape_prior.sdf_from_mask(disk_mask(128, 128, 63.5, 63.5, r))
                for r in range(14, 27, 2)]
        nbytes = sdfs[0].nbytes
        peak = traced_peak(lambda: shape_prior.build_shape_model(sdfs, p=2))
        assert peak <= 12.1 * nbytes, peak / nbytes


@pytest.fixture(scope="module")
def model():
    return shape_prior.build_shape_model(ellipse_sdfs(n=6), p=3)


class TestSynthesizeShape:

    def test_zero_lambda_is_mean(self, model):
        out = shape_prior.synthesize_shape(model, np.zeros(3))
        assert np.array_equal(out, model.mean)

    def test_single_mode_offset(self, model):
        s0 = np.sqrt(model.variances[0])
        out = shape_prior.synthesize_shape(model, np.array([s0, 0.0, 0.0]))
        assert np.allclose(out - model.mean, s0 * model.modes[0], atol=1e-12)

    def test_linearity(self, model, rng):
        l1 = rng.normal(size=3)
        l2 = rng.normal(size=3)
        a, b = rng.normal(size=2)
        lhs = shape_prior.synthesize_shape(model, a * l1 + b * l2)
        rhs = (a * shape_prior.synthesize_shape(model, l1)
               + b * shape_prior.synthesize_shape(model, l2)
               - (a + b - 1) * model.mean)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_tensordot(self, p):
        # the sum as the tensordot it was written as, bit for bit: lambda at 0, at
        # every corner of its box and at random points inside it
        m = shape_prior.build_shape_model(ellipse_sdfs(n=6), p=p)
        lo, hi = m.lambda_box.T
        lams = [np.zeros(p), *map(np.array, itertools.product(*m.lambda_box)),
                *np.random.default_rng(p).uniform(lo, hi, size=(40, p))]
        for lam in lams:
            want = m.mean + np.tensordot(lam, m.modes, axes=1)
            got = shape_prior.synthesize_shape(m, lam)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_length_mismatch(self, model):
        with pytest.raises(ValueError):
            shape_prior.synthesize_shape(model, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, model, bad):
        with pytest.raises(ValueError, match="finite"):
            shape_prior.synthesize_shape(model, np.array([0.0, bad, 0.0]))


class TestPose:
    @pytest.mark.parametrize("name", ["tau", "theta", "tx", "ty"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            Pose(**{name: bad})
        v = Pose().as_vector()
        v[["tau", "theta", "tx", "ty"].index(name)] = bad
        with pytest.raises(ValueError, match="finite"):
            Pose(*v)

    @pytest.mark.parametrize("name", ["tau", "theta", "tx", "ty"])
    def test_fields_are_frozen(self, name):
        # an assignment would skip the finiteness check, the clamp of tau and the wrap of theta
        pose = Pose(tau=2.0, theta=1.0, tx=3.0, ty=4.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pose, name, 100.0)
        assert pose == Pose(tau=2.0, theta=1.0, tx=3.0, ty=4.0)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(-np.pi, np.pi),
           st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_clamp_idempotent(self, tau, theta, tx, ty):
        # the descent clips theta to [-pi, pi] and tau into its box before
        # building a Pose, which clamps once; a second clamp changes no bit
        pose = Pose(tau, theta, tx, ty)
        again = Pose(*pose.as_vector())
        assert again.as_vector().tobytes() == pose.as_vector().tobytes()


class TestWarp:
    def test_identity_pose(self, rng):
        f = rng.normal(size=(32, 40))
        out = shape_prior.warp(f, Pose(), outside=99.0)
        assert np.max(np.abs(out - f)) < 1e-12

    def test_quarter_turns_compose(self, rng):
        # on bilinear functions 90-degree warps are exact, so two quarter
        # turns must equal one half turn away from the outside-fill region
        xs, ys = grid(21, 21)
        a, b, c, d = rng.normal(size=4)
        f = a + b * xs + c * ys + d * xs * ys
        quarter = Pose(theta=np.pi / 2)
        half = Pose(theta=np.pi)
        twice = shape_prior.warp(shape_prior.warp(f, quarter, np.nan), quarter, np.nan)
        once = shape_prior.warp(f, half, np.nan)
        ok = ~(np.isnan(twice) | np.isnan(once))
        assert ok[5:-5, 5:-5].all()
        assert np.max(np.abs(twice[ok] - once[ok])) < 1e-6

    def test_pure_translation_on_ramp(self):
        xs, _ = grid(16, 16)
        out = shape_prior.warp(xs, Pose(tx=3.0), outside=-1.0)
        interior = out[:, :12]
        assert np.max(np.abs(interior - (xs[:, :12] + 3.0))) < 1e-12

    def test_scale_about_center(self):
        # tau=2 samples twice as far from the center: f(c + 2(x-c))
        xs, _ = grid(17, 17)
        out = shape_prior.warp(xs, Pose(tau=2.0), outside=np.nan)
        assert abs(out[8, 10] - (8.0 + 2 * 2.0)) < 1e-12

    @staticmethod
    def _mgrid_warp(f, pose, outside):
        # the warp written out on full coordinate grids
        h, w = f.shape
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        ct, st = np.cos(pose.theta), np.sin(pose.theta)
        dx = xs - cx
        dy = ys - cy
        hx = pose.tau * (ct * dx - st * dy) + cx + pose.tx
        hy = pose.tau * (st * dx + ct * dy) + cy + pose.ty
        return field.bilinear_sample(f, hx, hy, outside)

    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (1, 9), (9, 1)])
           | st.tuples(st.integers(1, 24), st.integers(1, 24)),
           tau=st.sampled_from([shape_prior.TAU_MIN, shape_prior.TAU_MAX])
           | st.floats(shape_prior.TAU_MIN, shape_prior.TAU_MAX),
           theta=st.floats(-np.pi, np.pi),
           tx=st.floats(-30, 30), ty=st.floats(-30, 30),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_mgrid_formula(self, shape, tau, theta, tx, ty, seed):
        f = np.random.default_rng(seed).normal(size=shape)
        pose = Pose(tau, theta, tx, ty)
        out = shape_prior.warp(f, pose, 7.5)
        want = self._mgrid_warp(f, pose, 7.5)
        assert out.shape == want.shape == shape
        assert out.tobytes() == want.tobytes()


    def test_repeated_and_alternating_poses_match_fresh_warps(self, rng):
        # a sequence that repeats and alternates grid shapes and poses, with the
        # same pose on two grid shapes of one size, must equal the warp written
        # out afresh every time
        f, g = rng.normal(size=(2, 20, 24))
        t = rng.normal(size=(24, 20))
        a, b = Pose(1.1, 0.3, 1.5, -2.0), Pose(0.9, -0.2, -1.0, 0.5)
        calls = [(f, a), (f, a), (g, a), (f, b), (g, a), (t, a), (t, a), (f, a),
                 (t, b), (f, b), (g, b), (t, b), (t, a), (f, a), (g, b)]
        for fld, pose in calls:
            out = shape_prior.warp(fld, pose, 7.5)
            want = self._mgrid_warp(fld, pose, 7.5)
            assert out.shape == want.shape == fld.shape
            assert out.tobytes() == want.tobytes()

    @staticmethod
    def _reference_coords(shape, pose):
        # the warp's coordinates written out on full grids: both of every pixel
        h, w = shape
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        ct, st_ = np.cos(pose.theta), np.sin(pose.theta)
        dx = np.arange(w, dtype=np.float64) - cx
        dy = (np.arange(h, dtype=np.float64) - cy)[:, None]
        hx = (ct * dx - st_ * dy) * pose.tau + cx + pose.tx
        hy = (st_ * dx + ct * dy) * pose.tau + cy + pose.ty
        return hx, hy

    @pytest.mark.parametrize("shape", [(128, 128), (17, 12), (1, 9), (9, 1), (1, 1), (2, 2)])
    @pytest.mark.parametrize("tau", [shape_prior.TAU_MIN, 1.0, 1.37, shape_prior.TAU_MAX])
    @pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi, 1e-3, 0.7, -2.9])
    def test_coords_match_full_grid_formula(self, rng, shape, tau, theta):
        # unrotated maps (theta = 0) keep hx a row and hy a column; a row range
        # is those rows of the whole grid's coordinates, an empty one included
        h, w = shape
        f = rng.normal(size=shape)
        for tx, ty in ((0.0, 0.0), (1e-3, -1e-3), (0.37, -2.6), (-13.25, 7.5)):
            pose = Pose(tau, theta, tx, ty)
            want = self._reference_coords(shape, pose)
            for rows in (slice(None), slice(0, h // 2), slice(h // 2, h), slice(1, h - 1)):
                got = shape_prior._warp_coords(shape, pose, rows)
                n = len(range(h)[rows])
                if theta == 0.0:
                    assert (got[0].shape, got[1].shape) == ((1, w), (n, 1))
                for g, r in zip(np.broadcast_arrays(*got), want):
                    r = r[rows]
                    assert g.shape == r.shape == (n, w)
                    assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
            assert shape_prior.warp(f, pose, 7.5).tobytes() == \
                self._mgrid_warp(f, pose, 7.5).tobytes()

    @pytest.mark.parametrize("h", [1, 2, 3, 127])
    @pytest.mark.parametrize("pose", [Pose(1.0, 0.7, 0.0, 0.0), Pose(1.37, -2.9, 0.37, -2.6),
                                      Pose(shape_prior.TAU_MAX, 1e-3, -13.25, 7.5),
                                      Pose(shape_prior.TAU_MIN, np.pi, 40.0, -90.0)])
    def test_rotated_warp_in_row_halves_equals_one_sample(self, rng, h, pose):
        # the row quarters (some of them empty when h < 4) against one sample of
        # the whole grid's coordinates, with samples on and beyond the grid
        for w in (1, 6, 128):
            f = rng.normal(size=(h, w))
            want = field.bilinear_sample(f, *self._reference_coords(f.shape, pose), 7.5)
            got = shape_prior.warp(f, pose, 7.5)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @staticmethod
    def _traced(call):
        """(bytes kept beyond the result, peak bytes above the start) of call()."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = call()
            now, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        return now - before - out.nbytes, peak - before

    def test_warp_keeps_nothing_between_calls(self, rng):
        # one warp keeps no more than a few KiB traced beyond its result (a
        # kept 128 x 128 geometry would be about 0.64 MiB); a warp on a small
        # grid first takes any one-time allocations
        f, small = rng.normal(size=(128, 128)), rng.normal(size=(8, 8))
        for pose in (Pose(1.1, 0.0, 1.5, -2.0), Pose(1.1, 0.3, 1.5, -2.0)):
            shape_prior.warp(small, pose, 7.5)
            kept = self._traced(lambda: shape_prior.warp(f, pose, 7.5))[0]
            assert kept <= 4096, kept

    def test_rotated_warp_peak(self, rng):
        # 3.06 grids on 128 x 128 at theta = 0.1: the result, and a quarter of
        # the rows' coordinates, corners, fractions and sample work arrays at a
        # time (5.08 with half of the rows at a time)
        f = rng.normal(size=(128, 128))
        peak = traced_peak(lambda: shape_prior.warp(f, Pose(1.0, 0.1, 0.0, 0.0), 7.5))
        assert peak <= 3.1 * f.nbytes, peak / f.nbytes

    def test_rotated_warp_peak_near_unrotated(self, rng):
        # a rotated warp holds a quarter of its full-grid geometry at a time; in
        # one piece its peak was about twice an unrotated warp's (948 against
        # 470 KiB)
        f, small = rng.normal(size=(128, 128)), rng.normal(size=(8, 8))
        peaks = []
        for pose in (Pose(1.1, 0.0, 1.5, -2.0), Pose(1.1, 0.3, 1.5, -2.0)):
            shape_prior.warp(small, pose, 7.5)
            peaks.append(self._traced(lambda: shape_prior.warp(f, pose, 7.5))[1])
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestSmdlFormat:
    def test_roundtrip(self, tmp_path):
        model = shape_prior.build_shape_model(ellipse_sdfs(n=5, size=96), p=3)
        p1 = tmp_path / "m1.smdl"
        shape_prior.write_smdl(model, p1)
        back = shape_prior.read_smdl(p1)
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.modes, model.modes)
        assert np.array_equal(back.variances, model.variances)
        assert np.array_equal(back.lambda_box, model.lambda_box)
        assert back.n_training == model.n_training == 5
        p2 = tmp_path / "m2.smdl"
        shape_prior.write_smdl(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)).flatmap(
        lambda d: st.tuples(
            arrays(np.float64, d[1:], elements=st.floats(-1e6, 1e6)),
            arrays(np.float64, d, elements=st.floats(-1.0, 1.0)),
            arrays(np.float64, d[0], elements=st.floats(0.0, 1e6)),
            st.integers(0, 2 ** 32 - 1))))
    def test_roundtrip_property(self, tmp_path_factory, parts):
        mean, modes, variances, n_training = parts
        model = shape_prior.ShapeModel(mean=mean, modes=modes, variances=variances,
                                       n_training=n_training)
        d = tmp_path_factory.mktemp("smdl")
        shape_prior.write_smdl(model, d / "m.smdl")
        back = shape_prior.read_smdl(d / "m.smdl")
        assert back.mean.tobytes() == mean.tobytes()
        assert back.modes.tobytes() == modes.tobytes() and back.modes.shape == modes.shape
        assert back.variances.tobytes() == variances.tobytes()
        assert back.lambda_box.tobytes() == model.lambda_box.tobytes()
        assert back.n_training == n_training
        shape_prior.write_smdl(back, d / "again.smdl")
        assert (d / "again.smdl").read_bytes() == (d / "m.smdl").read_bytes()

    @pytest.mark.parametrize("flag", [0.0, -0.0])
    def test_origin_centred_flag_rejected(self, tmp_path, flag):
        # the trailer is (flag, cx, cy); flag 0 marked the origin-centred map
        model = shape_prior.build_shape_model(ellipse_sdfs(n=3, size=96), p=2)
        p = tmp_path / "m.smdl"
        shape_prior.write_smdl(model, p)
        data = bytearray(p.read_bytes())
        assert struct.unpack("<d", data[-24:-16]) == (1.0,)
        data[-24:-16] = struct.pack("<d", flag)
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="^origin-centred SMDL models are not supported$"):
            shape_prior.read_smdl(p)

    def test_any_non_zero_flag_reads_as_centred(self, tmp_path):
        model = shape_prior.build_shape_model(ellipse_sdfs(n=3, size=96), p=2)
        p = tmp_path / "m.smdl"
        shape_prior.write_smdl(model, p)
        data = bytearray(p.read_bytes())
        data[-24:-16] = struct.pack("<d", -0.5)
        p.write_bytes(bytes(data))
        back = shape_prior.read_smdl(p)
        assert back.modes.tobytes() == model.modes.tobytes()
        shape_prior.write_smdl(back, p)
        assert struct.unpack("<d", p.read_bytes()[-24:-16]) == (1.0,)

    def test_off_centre_trailer_rejected(self, tmp_path):
        # the trailer is (flag, cx, cy); the warp only ever centres on the grid
        model = shape_prior.build_shape_model(ellipse_sdfs(n=3, size=96), p=2)
        p = tmp_path / "m.smdl"
        shape_prior.write_smdl(model, p)
        data = bytearray(p.read_bytes())
        assert struct.unpack("<dd", data[-16:]) == (47.5, 47.5)
        for centre in ((5.0, -7.0), (47.5, 47.0), (np.nan, 47.5)):
            data[-16:] = struct.pack("<dd", *centre)
            p.write_bytes(bytes(data))
            with pytest.raises(ValueError, match=r"^SMDL centre \(.*\) is not the grid "
                                                 r"centre \(47\.5, 47\.5\)$"):
                shape_prior.read_smdl(p)

    def test_truncated(self, tmp_path):
        # 96x96 grids, p=2: header ends at 24, trailer starts at 24 + 3 grids + 16
        model = shape_prior.build_shape_model(ellipse_sdfs(n=3, size=96), p=2)
        p = tmp_path / "m.smdl"
        shape_prior.write_smdl(model, p)
        data = p.read_bytes()
        grid = 8 * 96 * 96
        for cut in (6, 23, 24 + grid // 2, 24 + 2 * grid + 8,
                    24 + 3 * grid + 8, len(data) - 1):
            p.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated SMDL"):
                shape_prior.read_smdl(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.smdl"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            shape_prior.read_smdl(p)
