import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeseg import shape_prior, synth
from shapeseg.synth import SceneSpec


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


# reference scene rendering on full np.mgrid coordinate grids; synth builds the
# same masks from a broadcast row and column, which must not move a bit


def reference_shape_mask(spec):
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width].astype(np.float64)
    kind = spec.shape[0]
    if kind == "disk":
        _, cx, cy, r = spec.shape
        synth._check_margin(cx - r, cy - r, cx + r, cy + r, spec)
        return (xs - cx) ** 2 + (ys - cy) ** 2 < r * r
    if kind == "ellipse":
        _, cx, cy, a, b, angle = spec.shape
        ext = max(a, b)
        synth._check_margin(cx - ext, cy - ext, cx + ext, cy + ext, spec)
        ct, st_ = np.cos(angle), np.sin(angle)
        u = (xs - cx) * ct + (ys - cy) * st_
        v = -(xs - cx) * st_ + (ys - cy) * ct
        with np.errstate(over="ignore"):
            return (u / a) ** 2 + (v / b) ** 2 < 1.0
    _, nx, ny, offset = spec.shape
    with np.errstate(over="ignore", invalid="ignore"):
        side = nx * xs + ny * ys
    if np.isnan(side).any():
        raise ValueError("halfplane normal overflows on the grid")
    return side < offset


def reference_occlusion_mask(spec):
    if spec.occlusion is None:
        return np.zeros((spec.height, spec.width), dtype=bool)
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width].astype(np.float64)
    if spec.occlusion[0] == "arc":
        _, t0, t1 = spec.occlusion
        cx, cy = spec.shape[1], spec.shape[2]
        ang = np.arctan2(ys - cy, xs - cx)
        return (ang - t0) % (2 * np.pi) < (t1 - t0) % (2 * np.pi)
    _, x0, y0, x1, y1 = spec.occlusion
    return (xs >= x0) & (xs < x1) & (ys >= y0) & (ys < y1)


def reference_render(spec):
    truth = reference_shape_mask(spec)
    visible = truth & ~reference_occlusion_mask(spec)
    image = np.where(visible, spec.fg, spec.bg).astype(np.float64)
    if spec.noise_std > 0:
        noise = synth.gaussian_noise(spec.noise_seed, image.size).reshape(image.shape)
        with np.errstate(over="ignore"):
            image = image + spec.noise_std * noise
        if not np.isfinite(image).all():
            raise ValueError("noise_std overflows the image")
    return image, truth


def outcome(fn, *args):
    """``fn(*args)``, or the ValueError it raised, as something ``==`` can compare."""
    try:
        return fn(*args)
    except ValueError as exc:
        return repr(exc)


def arc_on_halfplane(shape, occlusion) -> bool:
    return occlusion is not None and occlusion[0] == "arc" and shape[0] == "halfplane"


def scene(**kw):
    """``SceneSpec(**kw)``, or None once it has checked that an arc on a halfplane is rejected."""
    if arc_on_halfplane(kw["shape"], kw.get("occlusion")):
        with pytest.raises(ValueError,
                           match="^an arc occlusion needs a disk or ellipse, not a halfplane$"):
            SceneSpec(**kw)
        return None
    return SceneSpec(**kw)


def assert_same_render(spec):
    # the render, and the truth mask alone, which must be the render's truth;
    # a spec that was rejected at construction has nothing to render
    if spec is None:
        return
    got, want = outcome(synth.render, spec), outcome(reference_render, spec)
    mask, want_mask = outcome(synth.truth_mask, spec), outcome(reference_shape_mask, spec)
    if isinstance(want_mask, str):
        assert mask == want_mask
    else:
        assert mask.dtype == want_mask.dtype and mask.shape == want_mask.shape
        assert mask.tobytes() == want_mask.tobytes()
    if isinstance(want, str):
        assert got == want
        return
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()
    assert got[1].tobytes() == mask.tobytes()


class TestSplitmix64:
    def test_reference_stream_seed_zero(self):
        # published splitmix64 outputs for seed 0, mapped to [0,1) doubles
        refs = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        want = [(z >> 11) * 2.0 ** -53 for z in refs]
        got = synth.splitmix64_uniforms(0, 3)
        assert np.array_equal(got, want)

    def test_deterministic_and_seeded(self):
        a = synth.splitmix64_uniforms(42, 100)
        b = synth.splitmix64_uniforms(42, 100)
        c = synth.splitmix64_uniforms(43, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 42, 2 ** 63, 2 ** 64 - 1])
    @pytest.mark.parametrize("count", [0, 1, 1000])
    def test_matches_scalar_recurrence(self, seed, count):
        # the module docstring's recurrence, in Python ints
        mask = (1 << 64) - 1
        state = seed
        want = []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            want.append((z >> 11) * 2.0 ** -53)
        got = synth.splitmix64_uniforms(seed, count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert np.array_equal(got, want)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            synth.splitmix64_uniforms(0, -1)

    def test_range_and_mean(self):
        u = synth.splitmix64_uniforms(7, 10000)
        assert np.all((u >= 0) & (u < 1))
        assert abs(u.mean() - 0.5) < 0.02


class TestGaussianNoise:
    def test_moments(self):
        z = synth.gaussian_noise(3, 20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_odd_count(self):
        assert len(synth.gaussian_noise(0, 7)) == 7

    def test_prefix_property(self):
        # a longer draw starts with the shorter one
        a = synth.gaussian_noise(5, 10)
        b = synth.gaussian_noise(5, 20)
        assert np.array_equal(b[:10], a)


class TestRender:
    def test_clean_disk(self):
        spec = SceneSpec(width=64, height=64, shape=("disk", 31.5, 31.5, 12.0))
        img, truth = synth.render(spec)
        assert set(np.unique(img)) == {50.0, 200.0}
        assert np.array_equal(img == 200.0, truth)
        assert abs(truth.sum() - np.pi * 144) < 0.05 * np.pi * 144

    def test_noise_statistics_and_determinism(self):
        spec = SceneSpec(width=64, height=64, noise_std=5.0, noise_seed=9,
                         shape=("disk", 31.5, 31.5, 12.0))
        img1, _ = synth.render(spec)
        img2, _ = synth.render(spec)
        assert np.array_equal(img1, img2)
        clean, truth = synth.render(SceneSpec(width=64, height=64,
                                              shape=("disk", 31.5, 31.5, 12.0)))
        resid = img1 - clean
        assert abs(resid.mean()) < 0.3
        assert abs(resid.std() - 5.0) < 0.3

    def test_arc_occlusion_masks_image_not_truth(self):
        base = SceneSpec(width=64, height=64, shape=("disk", 31.5, 31.5, 14.0))
        occ = SceneSpec(width=64, height=64, shape=("disk", 31.5, 31.5, 14.0),
                        occlusion=("arc", 0.0, np.pi / 3))
        img0, truth0 = synth.render(base)
        img1, truth1 = synth.render(occ)
        assert np.array_equal(truth0, truth1)
        hidden = (img0 == 200.0) & (img1 == 50.0)
        # a 60-degree wedge of the disk area is hidden
        assert abs(hidden.sum() - truth0.sum() / 6) < 0.15 * truth0.sum() / 6
        # hidden pixels lie in the requested angular range
        ys, xs = np.nonzero(hidden)
        ang = np.arctan2(ys - 31.5, xs - 31.5) % (2 * np.pi)
        assert np.all(ang < np.pi / 3 + 0.2)

    def test_box_occlusion(self):
        spec = SceneSpec(width=64, height=64, shape=("disk", 31.5, 31.5, 14.0),
                         occlusion=("box", 20, 20, 44, 28))
        img, truth = synth.render(spec)
        assert np.all(img[22, 24:40] == 50.0)
        assert truth[22, 31]

    def test_halfplane(self):
        spec = SceneSpec(width=32, height=32, shape=("halfplane", 1.0, 0.0, 16.0))
        img, truth = synth.render(spec)
        assert np.array_equal(truth, np.tile(np.arange(32) < 16, (32, 1)))

    @pytest.mark.parametrize("axes", [(1e-300, 4.0), (4.0, 1e-300)])
    def test_needle_ellipse_is_its_limit_segment(self, axes):
        # the squares overflow off the long axis, where inf is the exact limit
        spec = SceneSpec(width=32, height=32, shape=("ellipse", 15.0, 15.0, *axes, 0.0))
        img, truth = synth.render(spec)
        ys, xs = np.mgrid[0:32, 0:32]
        # offsets across and along the degenerate axis
        across, along = (xs - 15, ys - 15) if axes[0] < 1 else (ys - 15, xs - 15)
        assert np.array_equal(truth, (across == 0) & (np.abs(along) < 4))

    def test_margin_enforced(self):
        with pytest.raises(ValueError, match="margin"):
            synth.render(SceneSpec(width=64, height=64, shape=("disk", 31.5, 31.5, 31.0)))

    def test_arc_occlusion_needs_a_centred_shape(self):
        # a halfplane's shape[1:3] is its normal, not a centre; the spec is
        # rejected when it is made, and a made spec cannot be edited into one
        with pytest.raises(ValueError, match="arc occlusion needs a disk or ellipse, not a halfplane"):
            SceneSpec(width=32, height=32, shape=("halfplane", 1.0, 0.0, 16.0),
                      occlusion=("arc", 0.0, 1.0))
        spec = SceneSpec(width=32, height=32, shape=("halfplane", 1.0, 0.0, 16.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.occlusion = ("arc", 0.0, 1.0)
        with pytest.raises(ValueError, match="arc occlusion needs a disk or ellipse, not a halfplane"):
            replace(spec, occlusion=("arc", 0.0, 1.0))


SHAPES = {
    "disk": ("disk", 20.3, 13.7, 9.2),
    "ellipse": ("ellipse", 19.6, 14.2, 11.5, 6.25, 0.7),
    "halfplane": ("halfplane", 0.6, -0.8, 3.3),
}
OCCLUSIONS = {
    "none": None,
    "arc": ("arc", -0.4, 1.9),
    "box": ("box", 7.5, -2.0, 18.0, 11.25),
}


class TestRenderMatchesReference:
    @pytest.mark.parametrize("noise_std", [0.0, 6.5])
    @pytest.mark.parametrize("occlusion", OCCLUSIONS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_shape_and_occlusion(self, shape, occlusion, noise_std):
        assert_same_render(scene(width=41, height=30, shape=SHAPES[shape],
                                 occlusion=OCCLUSIONS[occlusion],
                                 noise_std=noise_std, noise_seed=17))

    @pytest.mark.parametrize("occlusion", [("arc", -np.pi / 4, np.pi / 2), ("arc", np.pi, 0.0),
                                           ("box", 12.0, 9.0, 18.0, 14.0)])
    @pytest.mark.parametrize("shape", [("disk", 15.0, 12.0, 5.0),
                                       ("ellipse", 15.0, 12.0, 5.0, 4.0, np.pi / 2)])
    def test_pixels_on_the_boundaries(self, shape, occlusion):
        # pixel centres on the circle (3-4-5 offsets), the wedge's rays and the box's edges
        assert_same_render(SceneSpec(width=31, height=26, shape=shape, occlusion=occlusion))

    @pytest.mark.parametrize("axes", [(1e-300, 4.0), (4.0, 1e-300), (1e-160, 7.0)])
    @pytest.mark.parametrize("angle", [0.0, 0.3, np.pi / 2])
    def test_needle_ellipse(self, axes, angle):
        assert_same_render(SceneSpec(width=32, height=27, shape=("ellipse", 15.0, 13.0,
                                                                 *axes, angle)))

    @pytest.mark.parametrize("shape", [
        ("halfplane", 1e308, 1e308, 0.0),       # most sides overflow to +inf
        ("halfplane", 1e308, -1e308, 0.0),      # inf - inf: rejected
        ("halfplane", -1e308, 0.0, -1e300),     # -inf sides, all but the first column
        ("halfplane", 3e307, 2e307, 1e308),
    ])
    def test_overflowing_halfplane(self, shape):
        assert_same_render(SceneSpec(width=19, height=23, shape=shape))

    @pytest.mark.parametrize("width, height", [(1, 37), (37, 1), (1, 1), (53, 20), (20, 53)])
    @pytest.mark.parametrize("occlusion", OCCLUSIONS)
    @pytest.mark.parametrize("noise_std", [0.0, 3.0])
    def test_thin_and_non_square_grids(self, width, height, occlusion, noise_std):
        for shape in (("halfplane", 0.3, 0.7, 5.1), ("disk", 9.5, 9.75, 6.0),
                      ("ellipse", 10.0, 9.0, 6.5, 4.0, -1.1)):
            assert_same_render(scene(width=width, height=height, shape=shape,
                                     occlusion=OCCLUSIONS[occlusion],
                                     noise_std=noise_std, noise_seed=3))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_scenes(self, data):
        w, h = data.draw(st.integers(1, 48)), data.draw(st.integers(1, 48))
        coord = st.floats(-10.0, 60.0)
        shape = data.draw(st.one_of(
            st.tuples(st.just("disk"), coord, coord, st.floats(0.1, 25.0)),
            st.tuples(st.just("ellipse"), coord, coord, st.floats(0.1, 25.0),
                      st.floats(0.1, 25.0), st.floats(-7.0, 7.0)),
            st.tuples(st.just("halfplane"), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                      st.floats(-100.0, 100.0))))
        occlusion = data.draw(st.none() | st.tuples(st.just("arc"), *[st.floats(-7.0, 7.0)] * 2)
                              | st.tuples(st.just("box"), *[coord] * 4))
        noise = data.draw(st.sampled_from([0.0, 4.0]))
        assert_same_render(scene(width=w, height=h, shape=shape, occlusion=occlusion,
                                 noise_std=noise, noise_seed=data.draw(st.integers(0, 99)),
                                 fg=data.draw(st.sampled_from([200.0, 7, -3.5]))))

    @pytest.mark.parametrize("width, height", [(96, 96), (61, 40), (40, 61)])
    def test_ellipse_training_set(self, width, height):
        got = synth.ellipse_training_set(6, (6, 14), (5, 12.5), width, height)
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        for m, a, b in zip(got, np.linspace(6, 14, 6), np.linspace(5, 12.5, 6)):
            spec = SceneSpec(width=width, height=height,
                             shape=("ellipse", cx, cy, float(a), float(b), 0.0))
            want = reference_shape_mask(spec)
            assert m.dtype == want.dtype and m.tobytes() == want.tobytes()


class TestSceneValidation:
    @pytest.mark.parametrize("kw", [
        dict(fg=np.nan), dict(bg=np.inf), dict(fg=-np.inf),
        dict(noise_std=-3.0), dict(noise_std=np.nan), dict(noise_std=np.inf),
        dict(shape=("disk", np.nan, 15.5, 8.0)),
        dict(shape=("ellipse", 15.5, 15.5, 8.0, np.inf, 0.0)),
        dict(shape=("halfplane", 1.0, 0.0, np.nan)),
        dict(occlusion=("arc", 0.0, np.inf)),
        dict(occlusion=("box", 0.0, 0.0, np.nan, 4.0)),
    ])
    def test_non_finite_or_negative_rejected(self, kw):
        base = {"width": 32, "height": 32, "shape": ("disk", 15.5, 15.5, 8.0)}
        with pytest.raises(ValueError, match="finite") as made:
            SceneSpec(**{**base, **kw})
        # replace makes a new spec, so the same check rejects an edited copy
        with pytest.raises(ValueError) as edited:
            replace(SceneSpec(**base), **kw)
        assert str(edited.value) == str(made.value)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SceneSpec)])
    def test_fields_are_frozen(self, name):
        # an assignment would skip every check above
        spec = SceneSpec(noise_std=1.0, occlusion=("box", 0.0, 0.0, 4.0, 4.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, getattr(spec, name))

    @pytest.mark.parametrize("kw, match", [
        (dict(width=0, shape=("halfplane", 1.0, 0.0, 5.0)), ">= 1"),
        (dict(height=0), ">= 1"), (dict(width=-3), ">= 1"),
        (dict(shape=("disk", 15.5, 15.5, -5.0)), "positive"),
        (dict(shape=("disk", 15.5, 15.5, 0.0)), "positive"),
        (dict(shape=("ellipse", 15.5, 15.5, 0.0, 5.0, 0.0)), "positive"),
        (dict(shape=("ellipse", 15.5, 15.5, 5.0, -1.0, 0.0)), "positive"),
        (dict(shape=("disk", 15.5, 15.5)), "takes 3 parameters"),
        (dict(shape=("ellipse", 15.5, 15.5, 5.0, 4.0)), "takes 5 parameters"),
    ])
    def test_degenerate_geometry_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            SceneSpec(**{"width": 32, "height": 32, "shape": ("disk", 15.5, 15.5, 8.0), **kw})

    @pytest.mark.parametrize("size", [dict(width=32.0), dict(height=32.5),
                                      dict(width=np.float64(40.0)), dict(height=31.999)])
    def test_non_integer_size_rejected(self, size):
        # render would otherwise fail with a bare TypeError inside np.zeros
        with pytest.raises(ValueError, match="width and height must be integers"):
            SceneSpec(**{"width": 32, "height": 32, "shape": ("halfplane", 1.0, 0.0, 5.0),
                         **size})

    @pytest.mark.parametrize("kw, match", [
        (dict(fg=True), "^fg must be a number, not a bool$"),
        (dict(bg=np.True_), "^bg must be a number, not a bool$"),
        (dict(noise_std=True), "^noise_std must be a number, not a bool$"),
        (dict(fg="a"), "^fg must be a real number, not str$"),
        (dict(bg=None), "^bg must be a real number, not NoneType$"),
        (dict(noise_std=1j), "^noise_std must be a real number, not complex$"),
        (dict(noise_seed=True), "^noise_seed must be an integer$"),
        (dict(noise_seed=1.5), "^noise_seed must be an integer$"),
        (dict(noise_seed=1.5, noise_std=1.0), "^noise_seed must be an integer$"),
        (dict(noise_seed="3"), "^noise_seed must be an integer$"),
        (dict(width=True, shape=("halfplane", 1.0, 0.0, 5.0)),
         "^width and height must be integers$"),
        (dict(height=np.True_), "^width and height must be integers$"),
        (dict(shape=("disk", True, 15.5, 8.0)), "^shape parameters must be a number, not a bool$"),
        (dict(shape=("disk", 15.5, 15.5, "8")),
         "^shape parameters must be a real number, not str$"),
        (dict(occlusion=("box", 0.0, None, 4.0, 4.0)),
         "^occlusion parameters must be a real number, not NoneType$"),
        (dict(shape=(1.0, 15.5, 15.5, 8.0)), "^shape kind must be a str, not float$"),
        (dict(occlusion=(None, 0.0, 1.0)), "^occlusion kind must be a str, not NoneType$"),
        (dict(shape="disk"), "^shape must be a tuple of a kind and its parameters$"),
        (dict(shape=()), "^shape must be a tuple of a kind and its parameters$"),
        (dict(shape=["disk", 15.5, 15.5, 8.0]),
         "^shape must be a tuple of a kind and its parameters$"),
        (dict(occlusion="arc"), "^occlusion must be a tuple of a kind and its parameters$"),
        # read back as ("disk", 63.5, 63.5, 20.0) and ("disk", 1.0, 63.5, 20.0)
        (dict(shape=(" disk", 63.5, 63.5, 20.0)), "^unknown shape kind ' disk'$"),
        (dict(shape=("disk,1", 63.5, 20.0)), "^unknown shape kind 'disk,1'$"),
        (dict(shape=("blob", 1.0, 2.0)), "^unknown shape kind 'blob'$"),
        (dict(shape=("Disk", 15.5, 15.5, 8.0)), "^unknown shape kind 'Disk'$"),
        (dict(occlusion=("stripe", 0.0)), "^unknown occlusion kind 'stripe'$"),
        (dict(occlusion=("box ", 0.0, 0.0, 4.0, 4.0)), "^unknown occlusion kind 'box '$"),
        (dict(shape=("halfplane", 1.0, 0.0, 16.0), occlusion=("arc", 0.0, 1.0)),
         "^an arc occlusion needs a disk or ellipse, not a halfplane$"),
    ])
    def test_values_the_kv_format_cannot_read_back_rejected(self, kw, match):
        # each was accepted (and written as text scene_from_kv rejects or reads
        # back as another spec, or that render rejects) or failed later with a
        # bare TypeError
        with pytest.raises(ValueError, match=match):
            SceneSpec(**{"width": 32, "height": 32, "shape": ("disk", 15.5, 15.5, 8.0), **kw})

    @pytest.mark.parametrize("kw", [
        dict(fg=np.float32(180.0), bg=np.int64(40), noise_std=3, noise_seed=np.uint64(7)),
        dict(noise_seed=-5), dict(shape=(np.str_("disk"), 15.5, np.float64(15.5), 8)),
        dict(occlusion=("box", 0, 0, np.int32(4), 4.5)),
    ])
    def test_numeric_types_accepted_and_read_back(self, kw):
        spec = SceneSpec(**{"width": 32, "height": 32, "shape": ("disk", 15.5, 15.5, 8.0), **kw})
        assert synth.scene_from_kv(synth.scene_to_kv(spec)) == spec
        synth.render(spec)

    def test_numpy_integer_size_accepted(self):
        spec = SceneSpec(width=np.int64(24), height=np.uint8(20),
                         shape=("halfplane", 1.0, 0.0, 5.0))
        assert synth.render(spec)[0].shape == (20, 24)

    def test_numpy_scalar_axis_beside_a_huge_one(self):
        # compared in float32, 1e300 would overflow in a cast
        spec = SceneSpec(shape=("ellipse", 63.5, 63.5, np.float32(10.0), 1e300, 0.0))
        assert spec.shape[4] == 1e300


class TestEllipseTrainingSet:
    def test_count_and_monotone_area(self):
        masks = synth.ellipse_training_set(6, (10, 24), (8, 18), 96, 96)
        assert len(masks) == 6
        areas = [m.sum() for m in masks]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_centered(self):
        for m in synth.ellipse_training_set(3, (10, 20), (10, 20), 96, 96):
            ys, xs = np.nonzero(m)
            assert abs(xs.mean() - 47.5) < 0.5 and abs(ys.mean() - 47.5) < 0.5

    def test_one_dominant_mode(self):
        # linearly coupled semi-axes: the leading PCA mode carries nearly all
        # training variance
        masks = synth.ellipse_training_set(8, (10, 24), (8, 18), 96, 96)
        sdfs = [shape_prior.sdf_from_mask(m) for m in masks]
        model = shape_prior.build_shape_model(sdfs, p=4)
        assert model.variances[0] / model.variances.sum() >= 0.9

    def test_needs_two(self):
        with pytest.raises(ValueError):
            synth.ellipse_training_set(1, (10, 20), (10, 20), 96, 96)


class TestSceneKv:
    def test_roundtrip(self):
        spec = SceneSpec(width=80, height=72, shape=("ellipse", 39.5, 35.5, 20.0, 14.0, 0.3),
                         fg=180.0, bg=40.0, noise_std=4.0, noise_seed=11,
                         occlusion=("arc", 0.5, 1.5))
        back = synth.scene_from_kv(synth.scene_to_kv(spec))
        assert back == spec

    def test_roundtrip_no_occlusion(self):
        spec = SceneSpec()
        assert synth.scene_from_kv(synth.scene_to_kv(spec)) == spec

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries(dict(
        width=st.integers(1, 4096), height=st.integers(1, 4096),
        shape=st.one_of(
            st.tuples(st.just("disk"), FINITE, FINITE, POSITIVE),
            st.tuples(st.just("ellipse"), FINITE, FINITE, POSITIVE, POSITIVE, FINITE),
            st.tuples(st.just("halfplane"), *[FINITE] * 3)),
        fg=FINITE, bg=FINITE,
        noise_std=st.floats(0, allow_infinity=False), noise_seed=st.integers(0, 2 ** 64 - 1),
        occlusion=st.none() | st.tuples(st.just("arc"), *[FINITE] * 2)
        | st.tuples(st.just("box"), *[FINITE] * 4)))
        .filter(lambda kw: not arc_on_halfplane(kw["shape"], kw["occlusion"]))
        .map(lambda kw: SceneSpec(**kw)))
    def test_roundtrip_property(self, spec):
        assert synth.scene_from_kv(synth.scene_to_kv(spec)) == spec

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            synth.scene_from_kv("width 64\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            synth.scene_from_kv("widht=64\n")
