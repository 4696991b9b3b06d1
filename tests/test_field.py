import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shapeseg import field

from conftest import disk_sdf, disk_mask, grid


class TestGrad:
    def test_constant_field(self):
        gx, gy = field.grad(np.full((8, 8), 3.7))
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_linear_ramp(self):
        xs, _ = grid(8, 8)
        gx, gy = field.grad(xs)
        assert np.all(gx[:, :-1] == 1.0)
        assert np.all(gy == 0.0)

    def test_quadratic_matches_enumeration(self):
        # independent oracle: hand-computed forward differences, pixel by pixel
        xs, _ = grid(8, 8)
        f = xs ** 2
        gx, gy = field.grad(f)
        for y in range(8):
            for x in range(8):
                want = f[y, x + 1] - f[y, x] if x < 7 else 0.0
                assert gx[y, x] == want
                want_y = f[y + 1, x] - f[y, x] if y < 7 else 0.0
                assert gy[y, x] == want_y

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            field.grad(np.zeros((1, 8)))


class TestGradMagnitude:
    def test_disk_sdf_unit_gradient(self):
        phi = disk_sdf(64, 64, 31.5, 31.5, 20)
        m = field.grad_magnitude(phi)
        xs, ys = grid(64, 64)
        rad = np.hypot(xs - 31.5, ys - 31.5)
        away = (rad > 6) & (np.abs(rad - 20) > 3) & (xs < 62) & (ys < 62)
        assert np.all(np.abs(m[away] - 1.0) < 0.1)

    def test_constant_zero(self):
        assert np.all(field.grad_magnitude(np.full((5, 5), 2.0)) == 0)

    def test_scaled_ramp(self):
        xs, _ = grid(6, 6)
        m = field.grad_magnitude(3.0 * xs)
        assert np.allclose(m[:, :-1], 3.0)


class TestDivergence:
    def test_grad_of_constant(self):
        gx, gy = field.grad(np.full((6, 6), 1.0))
        assert np.all(field.divergence(gx, gy) == 0)

    def test_exact_adjointness(self, rng):
        # summation-by-parts identity, checked by direct summation
        for _ in range(20):
            f = rng.normal(size=(16, 16))
            vx = rng.normal(size=(16, 16))
            vy = rng.normal(size=(16, 16))
            gx, gy = field.grad(f)
            lhs = field.inner(gx, vx) + field.inner(gy, vy)
            rhs = -field.inner(f, field.divergence(vx, vy))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(2, 12), st.integers(2, 12)).flatmap(
        lambda shape: st.tuples(*[arrays(np.float64, shape, elements=st.integers(-1000, 1000))
                                  for _ in range(3)])))
    def test_exact_adjointness_on_integer_fields(self, fields):
        # integer samples keep every product and partial sum exact in binary64
        f, vx, vy = fields
        gx, gy = field.grad(f)
        assert (field.inner(gx, vx) + field.inner(gy, vy)
                == -field.inner(f, field.divergence(vx, vy)))

    def test_constant_vector_field_interior(self):
        d = field.divergence(np.ones((8, 8)), np.zeros((8, 8)))
        assert np.all(d[1:-1, 1:-1] == 0)

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            field.divergence(np.zeros((4, 4)), np.zeros((4, 5)))


class TestGaussianConvolve:
    def test_deviation_whose_square_overflows_is_no_smoothing(self):
        # the smallest positive variance: (t/sigma)**2 overflows off the centre
        assert np.array_equal(field.gaussian_kernel(np.sqrt(5e-324)), [0.0, 1.0, 0.0])

    def test_constant_preserved(self):
        out = field.gaussian_convolve(np.full((9, 9), 4.2), 2.0)
        assert np.allclose(out, 4.2, atol=1e-12)

    def test_impulse_center(self):
        f = np.zeros((33, 33))
        f[16, 16] = 1.0
        out = field.gaussian_convolve(f, 2.0)
        k = field.gaussian_kernel(2.0)
        c = (len(k) - 1) // 2
        assert abs(out[16, 16] - k[c] * k[c]) < 1e-14
        assert abs(out.sum() - 1.0) < 1e-12

    def test_step_edge_monotone_and_matches_bruteforce(self):
        xs, _ = grid(9, 17)
        f = (xs >= 8).astype(np.float64)
        out = field.gaussian_convolve(f, 0.5)
        assert np.all(np.diff(out[4]) >= -1e-15)
        # brute-force mirror-boundary convolution oracle
        k = field.gaussian_kernel(0.5)
        r = (len(k) - 1) // 2

        def mirror(i, n):
            while not 0 <= i < n:
                i = -i - 1 if i < 0 else 2 * n - 1 - i
            return i

        for x in (0, 1, 8, 16):
            want = sum(k[t] * f[4, mirror(x + t - r, 17)] for t in range(len(k)))
            assert abs(out[4, x] - want) < 1e-14

    def test_mean_preserved_random(self, rng):
        f = rng.normal(size=(20, 31))
        out = field.gaussian_convolve(f, 1.7)
        assert abs(out.mean() - f.mean()) < 1e-10

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            field.gaussian_convolve(np.zeros((4, 4)), 0.0)


class TestBilinearSample:
    def test_integer_coordinates_exact(self, rng):
        f = rng.normal(size=(7, 9))
        for y in range(7):
            for x in range(9):
                assert field.bilinear_sample(f, float(x), float(y), 0.0) == f[y, x]

    def test_midpoint(self):
        f = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert field.bilinear_sample(f, 0.5, 0.5, 9.0) == 0.5

    def test_outside_contract(self):
        f = np.zeros((4, 4))
        assert field.bilinear_sample(f, -5.0, -5.0, 1e6) == 1e6
        assert field.bilinear_sample(f, 3.0001, 1.0, -1.0) == -1.0

    def test_exact_on_bilinear_functions(self, rng):
        # a + b*x + c*y + d*x*y is reproduced exactly
        xs, ys = grid(10, 12)
        for _ in range(10):
            a, b, c, d = rng.normal(size=4)
            f = a + b * xs + c * ys + d * xs * ys
            px = rng.uniform(0, 11, size=10)
            py = rng.uniform(0, 9, size=10)
            got = field.bilinear_sample(f, px, py, 0.0)
            want = a + b * px + c * py + d * px * py
            assert np.all(np.abs(got - want) < 1e-12 * np.maximum(1.0, np.abs(want)))


def bilinear_reference(f, x, y, outside):
    """The 2-D-indexed formula bilinear_sample had before its flat gather."""
    h, w = f.shape
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xc = np.clip(x, 0, w - 1)
    yc = np.clip(y, 0, h - 1)
    x0 = np.minimum(np.floor(xc).astype(np.intp), w - 2) if w > 1 else np.zeros_like(xc, dtype=np.intp)
    y0 = np.minimum(np.floor(yc).astype(np.intp), h - 2) if h > 1 else np.zeros_like(yc, dtype=np.intp)
    fx = xc - x0
    fy = yc - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    val = (
        f[y0, x0] * (1 - fx) * (1 - fy)
        + f[y0, x1] * fx * (1 - fy)
        + f[y1, x0] * (1 - fx) * fy
        + f[y1, x1] * fx * fy
    )
    out = np.where(valid, val, outside)
    return float(out) if out.ndim == 0 else out


@st.composite
def field_and_points(draw):
    h, w = draw(st.sampled_from([(1, 1), (1, 7), (7, 1)]) | st.tuples(
        st.integers(1, 20), st.integers(1, 20)))
    f = draw(arrays(np.float64, (h, w), elements=st.floats(-1e6, 1e6)))

    def coord(n):
        # inside, exactly on the first or last row/column, or outside
        return (st.floats(0, n - 1) | st.sampled_from([0.0, n - 1.0])
                | st.floats(-3, n + 2))
    pts = draw(st.lists(st.tuples(coord(w), coord(h)), min_size=1, max_size=16))
    return f, np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


class TestBilinearReference:
    @settings(max_examples=300, deadline=None)
    @given(field_and_points())
    def test_matches_2d_indexed_formula(self, case):
        f, x, y = case
        got = field.bilinear_sample(f, x, y, -7.25)
        assert got.tobytes() == bilinear_reference(f, x, y, -7.25).tobytes()
        for xs, ys in zip(x, y):
            a = field.bilinear_sample(f, float(xs), float(ys), -7.25)
            assert np.float64(a).tobytes() == np.float64(
                bilinear_reference(f, float(xs), float(ys), -7.25)).tobytes()

    def test_matches_on_a_warp_grid(self, rng):
        f = rng.normal(size=(20, 17))
        ys, xs = grid(20, 17)
        x = 1.07 * xs - 0.3 * ys + 0.4
        y = 0.3 * xs + 1.07 * ys - 1.1
        got = field.bilinear_sample(f, x, y, 9.0)
        assert got.tobytes() == bilinear_reference(f, x, y, 9.0).tobytes()


class TestTotalVariation:
    def test_constant_zero(self):
        assert field.total_variation(np.full((8, 8), 5.0)) == 0.0

    def test_disk_characteristic_perimeter(self):
        chi = disk_mask(128, 128, 63.5, 63.5, 30).astype(np.float64)
        tv = field.total_variation(chi)
        assert abs(tv - 2 * np.pi * 30) / (2 * np.pi * 30) < 0.05

    def test_halfplane_characteristic_perimeter(self):
        xs, _ = grid(64, 64)
        chi = (xs < 32).astype(np.float64)
        assert abs(field.total_variation(chi) - 64) / 64 < 0.02

    def test_lower_semicontinuity_sanity(self):
        # TV of the sharp disk never exceeds the mollified minimum by > 5%
        chi = disk_mask(128, 128, 63.5, 63.5, 30).astype(np.float64)
        tv0 = field.total_variation(chi)
        tvs = [field.total_variation(field.gaussian_convolve(chi, 2.0 / n))
               for n in range(1, 6)]
        assert all(np.isfinite(t) for t in tvs)
        assert tv0 <= min(tvs) * 1.05


class TestSfldFormat:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        f = rng.normal(size=(17, 23))
        path = tmp_path / "a.sfld"
        field.write_sfld(f, path)
        back = field.read_sfld(path)
        assert back.shape == f.shape
        assert np.all(back == f)
        field.write_sfld(back, tmp_path / "b.sfld")
        assert (tmp_path / "a.sfld").read_bytes() == (tmp_path / "b.sfld").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 20)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_roundtrip_property(self, tmp_path_factory, f):
        path = tmp_path_factory.mktemp("sfld") / "f.sfld"
        field.write_sfld(f, path)
        back = field.read_sfld(path)
        assert back.shape == f.shape and back.tobytes() == f.tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.sfld"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            field.read_sfld(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.sfld"
        field.write_sfld(np.zeros((4, 4)), p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            field.read_sfld(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "n.sfld"
        vals = np.zeros((3, 4))
        vals[1, 2] = bad
        p.write_bytes(field.SFLD_MAGIC + struct.pack("<II", 4, 3) + vals.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            field.read_sfld(p)

    @pytest.mark.parametrize("w, h", [(0, 0), (0, 3), (3, 0)])
    def test_empty_rejected(self, tmp_path, w, h):
        p = tmp_path / "e.sfld"
        p.write_bytes(field.SFLD_MAGIC + struct.pack("<II", w, h))
        with pytest.raises(ValueError, match="non-empty"):
            field.read_sfld(p)

    def test_read_is_a_writable_copy(self, tmp_path):
        p = tmp_path / "w.sfld"
        field.write_sfld(np.ones((2, 3)), p)
        back = field.read_sfld(p)
        assert back.dtype == np.float64 and back.flags.writeable
