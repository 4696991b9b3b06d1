import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shapeseg import contours, io
from shapeseg.energy import EnergyBreakdown


class TestPgm:
    def test_p5_roundtrip(self, tmp_path, rng):
        f = rng.uniform(0, 255, size=(13, 17))
        p = tmp_path / "a.pgm"
        io.write_pgm(f, p)
        back = io.read_pgm(p)
        assert back.shape == f.shape
        assert np.array_equal(back, np.clip(np.rint(f), 0, 255))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 20)),
                  elements=st.floats(-1e3, 1e3)))
    def test_p5_roundtrip_property(self, tmp_path_factory, f):
        p = tmp_path_factory.mktemp("pgm") / "a.pgm"
        io.write_pgm(f, p)
        back = io.read_pgm(p)
        assert np.array_equal(back, np.clip(np.rint(f), 0, 255))
        io.write_pgm(back, p)
        assert np.array_equal(io.read_pgm(p), back)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 65535).flatmap(lambda maxval: st.tuples(
        st.just(maxval), arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                                elements=st.integers(0, maxval)))),
        st.booleans())
    def test_p2_and_p5_readers_property(self, tmp_path_factory, case, binary):
        # every sample is read back unscaled, at any maxval, in both encodings
        maxval, vals = case
        h, w = vals.shape
        head = b"%s\n# comment\n%d %d\n%d\n" % (b"P5" if binary else b"P2", w, h, maxval)
        if binary:
            body = vals.astype(">u2" if maxval > 255 else "u1").tobytes()
        else:
            body = " ".join(map(str, vals.ravel())).encode()
        p = tmp_path_factory.mktemp("pgm") / "a.pgm"
        p.write_bytes(head + body)
        assert np.array_equal(io.read_pgm(p), vals.astype(np.float64))

    def test_write_clamps(self, tmp_path):
        f = np.array([[-10.0, 300.0], [127.4, 127.6]])
        p = tmp_path / "c.pgm"
        io.write_pgm(f, p)
        back = io.read_pgm(p)
        assert np.array_equal(back, [[0.0, 255.0], [127.0, 128.0]])

    @pytest.mark.parametrize("head", [b"P2\n# a comment\n3 2\n255\n",
                                      b"P2\r3\x0b2\x0c255\r"])
    def test_p2_ascii_with_comments(self, tmp_path, head):
        p = tmp_path / "a.pgm"
        p.write_bytes(head + b"0 1 2\n250 251 252\n")
        back = io.read_pgm(p)
        assert np.array_equal(back, [[0, 1, 2], [250, 251, 252]])

    def test_p5_16bit_big_endian(self, tmp_path):
        p = tmp_path / "w.pgm"
        samples = np.array([[300, 40000]], dtype=">u2")
        p.write_bytes(b"P5\n2 1\n65535\n" + samples.tobytes())
        assert np.array_equal(io.read_pgm(p), [[300.0, 40000.0]])

    def test_unsupported_magic(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P7\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(io.PgmError, match="magic"):
            io.read_pgm(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(io.PgmError, match="truncated"):
            io.read_pgm(p)

    @pytest.mark.parametrize("data, message", [
        (b"P5\nxx 4\n255\n", "^malformed PGM header: "),
        # a # inside a token starts no comment
        (b"P5\n2 1\n255#x\n\x00\x00", r"^malformed PGM header: .*b'255#x'$"),
        (b"P5\n2 1 # the maxval follows", "^truncated PGM header$"),
    ])
    def test_malformed_header(self, tmp_path, data, message):
        p = tmp_path / "h.pgm"
        p.write_bytes(data)
        with pytest.raises(io.PgmError, match=message):
            io.read_pgm(p)

    @pytest.mark.parametrize("sample", [b"nan", b"inf", b"300", b"1.5", b"-1", b"1e2"])
    def test_p2_sample_not_an_integer_in_range(self, tmp_path, sample):
        p = tmp_path / "s.pgm"
        p.write_bytes(b"P2\n2 1\n255\n7 " + sample + b"\n")
        with pytest.raises(io.PgmError, match="sample"):
            io.read_pgm(p)

    @pytest.mark.parametrize("maxval, samples", [
        (1000, np.array([[3, 1001]], dtype=">u2")),
        (300, np.array([[65535, 0]], dtype=">u2")),
        (100, np.array([[101, 0]], dtype="u1")),
    ])
    def test_p5_sample_above_maxval(self, tmp_path, maxval, samples):
        p = tmp_path / "s.pgm"
        p.write_bytes(b"P5\n2 1\n%d\n" % maxval + samples.tobytes())
        with pytest.raises(io.PgmError, match="maxval"):
            io.read_pgm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n70000\n" + b"\x00" * 8)
        with pytest.raises(io.PgmError):
            io.read_pgm(p)


class TestContourCsv:
    def test_roundtrip_lossless(self, rng):
        cs = [contours.Contour(vertices=[(rng.uniform(0, 64), rng.uniform(0, 64))
                                         for _ in range(5)], closed=False)
              for _ in range(3)]
        back = io.contours_from_csv(io.contours_to_csv(cs))
        assert len(back) == 3
        for c, verts in zip(cs, back):
            assert verts == c.vertices  # 17 significant digits: bit-exact

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            io.contours_from_csv("x,y\n0,1,2\n")


class TestTraceCsv:
    def test_format_numbers_rows_from_one(self):
        trace = [EnergyBreakdown(f1=1.0, f2=2.0, f3=3.0, f4=4.0, total=10.0),
                 EnergyBreakdown(f1=0.5, f2=1.5, f3=2.5, f4=3.5, total=8.0)]
        assert io.trace_to_csv(trace) == ("iter,f1,f2,f3,f4,total\n"
                                          "1,1,2,3,4,10\n"
                                          "2,0.5,1.5,2.5,3.5,8\n")
        assert io.trace_to_csv([]) == "iter,f1,f2,f3,f4,total\n"


class TestOverlay:
    def test_marks_vertices(self):
        img = np.zeros((16, 16))
        c = contours.Contour(vertices=[(3.4, 7.6), (100.0, 100.0)], closed=False)
        out = io.overlay(img, [c])
        assert out[8, 3] == 255.0
        assert out.sum() == 255.0  # out-of-domain vertex ignored
        assert img.sum() == 0.0    # input untouched
