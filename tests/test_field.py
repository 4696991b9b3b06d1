import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

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


def _grad_2d_slices(f):
    """grad as written with 2-D slice differences, the reference for its raveled form."""
    gx = np.empty_like(f)
    gy = np.empty_like(f)
    np.subtract(f[:, 1:], f[:, :-1], out=gx[:, :-1])
    np.subtract(f[1:], f[:-1], out=gy[:-1])
    gx[:, -1] = 0
    gy[-1] = 0
    return gx, gy


def _divergence_2d_slices(vx, vy):
    """divergence as written with 2-D slice differences added into zeros."""
    d = np.zeros_like(vx)
    d[:, 0] += vx[:, 0]
    d[:, 1:-1] += vx[:, 1:-1] - vx[:, :-2]
    d[:, -1] += -vx[:, -2]
    d[0, :] += vy[0, :]
    d[1:-1, :] += vy[1:-1, :] - vy[:-2, :]
    d[-1, :] += -vy[-2, :]
    return d


def _layouts(shape, dtype, r):
    """Arrays of ``shape`` and ``dtype`` as C-ordered, Fortran-ordered and strided views."""
    h, w = shape
    size = (3 * max(shape), 3 * max(shape))
    if np.issubdtype(dtype, np.floating):
        big = np.finfo(dtype).max
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, big, -big, 3.0],
                            dtype=dtype)
        base = r.choice(specials, size=size)
    else:
        info = np.iinfo(dtype)
        base = r.integers(info.min, info.max, size=size, dtype=dtype, endpoint=True)
    c = np.ascontiguousarray(base[:h, :w])
    return {"C": c, "F": np.asfortranarray(c), "strided": base[1::2, ::3][:h, :w],
            "reversed": base[h - 1::-1, w - 1::-1], "transposed": base[::3, 1::2][:w, :h].T}


class TestGradDivergenceLayout:
    """grad and divergence match their 2-D slice forms byte for byte in every layout.

    Both return C-ordered arrays of the input's dtype. Row length 8 puts a
    column of a float64 grid at a 64-byte stride.
    """

    SHAPES = [(2, 2), (2, 8), (8, 2), (2, 5), (5, 2), (6, 8)]
    DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8]

    @staticmethod
    def _same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_grad(self, shape, dtype):
        r = np.random.default_rng(7)
        for _ in range(4):
            for f in _layouts(shape, dtype, r).values():
                before = f.tobytes()
                # inf - inf and overflows warn in the reference; the bits are compared
                with np.errstate(all="ignore"):
                    want = _grad_2d_slices(f)
                    got = field.grad(f)
                assert f.tobytes() == before
                for g, ref in zip(got, want):
                    self._same(g, ref)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_divergence(self, shape, dtype):
        r = np.random.default_rng(11)
        for _ in range(4):
            vxs, vys = _layouts(shape, dtype, r), _layouts(shape, dtype, r)
            # each layout of vx against another layout of vy
            for vx, vy in zip(vxs.values(), [*vys.values()][1:] + [*vys.values()][:1]):
                with np.errstate(all="ignore"):
                    want = _divergence_2d_slices(vx, vy)
                    got = field.divergence(vx, vy)
                self._same(got, want)

    @pytest.mark.parametrize("kind", ["F", "strided", "reversed", "transposed"])
    def test_outputs_are_c_ordered(self, kind):
        f = _layouts((6, 8), np.float64, np.random.default_rng(3))[kind]
        with np.errstate(all="ignore"):
            out = (*field.grad(f), field.divergence(f, f))
        assert all(a.flags.c_contiguous for a in out)

    @pytest.mark.parametrize("shape", SHAPES + [(3, 3), (128, 128)])
    def test_divergence_into_its_x_flux(self, shape):
        # the phi gradient hands its x-flux's first h - 2 rows as the buffer of the
        # y-differences; every read of the flux comes first, so no bit moves
        r = np.random.default_rng(19)
        for _ in range(4):
            vx, vy = _layouts(shape, np.float64, r)["C"], _layouts(shape, np.float64, r)["C"]
            with np.errstate(all="ignore"):
                want = field.divergence(vx, vy)
                got = field._divergence(vx, vy, vx[:-2])
            self._same(got, want)

    def test_silent_on_row_crossing_overflow(self, recwarn):
        # the first row ends at 1e308 and the next starts at -1e308: the only
        # overflowing difference crosses rows, and no output holds it
        f = np.array([[0.0, 1e308], [-1e308, 0.0]])
        gx, gy = field.grad(f)
        d = field.divergence(f, np.zeros_like(f))
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
        assert gx.tolist() == [[1e308, 0.0], [1e308, 0.0]]
        assert gy.tolist() == [[-1e308, -1e308], [0.0, 0.0]]
        assert d.tolist() == [[0.0, 0.0], [-1e308, 1e308]]


class TestGaussianConvolve:
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, -2.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        # inf used to raise OverflowError, and NaN a ValueError from an int() cast
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            field.gaussian_kernel(sigma)

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


class TestBilinearRowAndColumn:
    # each axis is worked out at its own coordinates' shape, so an x row and a
    # y column, or a scalar beside an array, skip the full grids of the
    # reference; every sample must still match it bit for bit

    @staticmethod
    def coords(n):
        # inside, on either end, beyond either end, -0.0 and NaN
        return (st.floats(0, n - 1) | st.sampled_from([0.0, -0.0, n - 1.0, np.nan])
                | st.floats(-3, n + 2))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_and_column(self, data):
        h, w = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20))
        f = data.draw(arrays(np.float64, (h, w), elements=st.floats(-1e6, 1e6)))
        nx, ny = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        x = np.array(data.draw(st.lists(self.coords(w), min_size=nx, max_size=nx)))[None, :]
        y = np.array(data.draw(st.lists(self.coords(h), min_size=ny, max_size=ny)))[:, None]
        for a, b in ((x, y), (y.T, x.T), (x, x), (x[0, 0], y), (x, float(y[0, 0])),
                     (x[0, 0], y[0, 0])):
            got = np.float64(field.bilinear_sample(f, a, b, -7.25))
            # the reference on the broadcast coordinates, with NaN (which it
            # cannot index with) read as 0 and its samples set to outside
            xs, ys = np.broadcast_arrays(np.asarray(a, dtype=np.float64),
                                         np.asarray(b, dtype=np.float64))
            nan = np.isnan(xs) | np.isnan(ys)
            want = np.where(nan, -7.25, bilinear_reference(
                f, np.where(nan, 0.0, xs), np.where(nan, 0.0, ys), -7.25))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_unrotated_weights_are_a_row_and_a_column(self, rng):
        # an axis-aligned 128 x 128 sample peaks at about 3.67 grids, since only
        # the samples, the corner index, the beyond mask and one product span
        # the grid; weights at the full sample shape would add 4 grids
        f = rng.normal(size=(128, 128))
        x, y = rng.uniform(-2, 130, size=(1, 128)), rng.uniform(-2, 130, size=(128, 1))
        field.bilinear_sample(f[:8, :8], x[:, :8], y[:8], 7.5)    # one-time allocations
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            field.bilinear_sample(f, x, y, 7.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 4 * f.nbytes, peak / f.nbytes


class TestBilinearNan:
    # a NaN coordinate once became an INT_MIN index, which take(mode="wrap")
    # wraps one step at a time: the call never returned, so it runs in a child
    def test_nan_coordinate_is_outside_at_once_and_silently(self):
        code = textwrap.dedent("""
            import numpy as np
            from shapeseg import field
            f = np.arange(12.0).reshape(3, 4)
            nan = float("nan")
            print(field.bilinear_sample(f, nan, 0.0, -7.25))
            print(field.bilinear_sample(f, 1.0, nan, -7.25))
            print(field.bilinear_sample(f, nan, nan, -7.25))
            print(field.bilinear_sample(f, np.array([nan, 1.5]), np.array([0.5, nan]), -7.25))
        """)
        src = str(Path(field.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split("\n") == ["-7.25"] * 3 + ["[-7.25 -7.25]", ""]

    @settings(max_examples=200, deadline=None)
    @given(field_and_points(), st.data())
    def test_nan_leaves_finite_samples_bit_identical(self, case, data):
        f, x, y = case
        nan_x = np.array(data.draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x))))
        nan_y = np.array(data.draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x))))
        xn, yn = np.where(nan_x, np.nan, x), np.where(nan_y, np.nan, y)
        got = field.bilinear_sample(f, xn, yn, -7.25)
        finite = ~(nan_x | nan_y)
        assert np.all(got[~finite] == -7.25)
        assert got[finite].tobytes() == bilinear_reference(f, x, y, -7.25)[finite].tobytes()


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
