import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeseg import shape_prior, synth
from shapeseg.synth import SceneSpec


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


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

    def test_margin_enforced(self):
        with pytest.raises(ValueError, match="margin"):
            synth.render(SceneSpec(width=64, height=64, shape=("disk", 31.5, 31.5, 31.0)))

    def test_unknown_kinds(self):
        with pytest.raises(ValueError):
            synth.render(SceneSpec(shape=("blob", 1.0)))
        with pytest.raises(ValueError):
            synth.render(SceneSpec(occlusion=("stripe", 0.0)))


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
        with pytest.raises(ValueError, match="finite"):
            SceneSpec(**{"width": 32, "height": 32, "shape": ("disk", 15.5, 15.5, 8.0), **kw})

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
    @given(st.builds(
        SceneSpec,
        width=st.integers(1, 4096), height=st.integers(1, 4096),
        shape=st.one_of(
            st.tuples(st.just("disk"), FINITE, FINITE, POSITIVE),
            st.tuples(st.just("ellipse"), FINITE, FINITE, POSITIVE, POSITIVE, FINITE),
            st.tuples(st.just("halfplane"), *[FINITE] * 3)),
        fg=FINITE, bg=FINITE,
        noise_std=st.floats(0, allow_infinity=False), noise_seed=st.integers(0, 2 ** 64 - 1),
        occlusion=st.none() | st.tuples(st.just("arc"), *[FINITE] * 2)
        | st.tuples(st.just("box"), *[FINITE] * 4)))
    def test_roundtrip_property(self, spec):
        assert synth.scene_from_kv(synth.scene_to_kv(spec)) == spec

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            synth.scene_from_kv("width 64\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            synth.scene_from_kv("widht=64\n")
