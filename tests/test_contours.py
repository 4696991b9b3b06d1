import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shapeseg import contours, field

from conftest import disk_sdf, grid


class TestExtractContours:
    def test_disk_single_closed(self):
        phi = disk_sdf(64, 64, 31.5, 31.5, 15)
        out = contours.extract_contours(phi)
        assert len(out) == 1
        c = out[0]
        assert c.closed
        assert c.vertices[0] == c.vertices[-1]
        assert abs(c.length() - 2 * np.pi * 15) / (2 * np.pi * 15) < 0.02
        v = np.asarray(c.vertices)
        rad = np.hypot(v[:, 0] - 31.5, v[:, 1] - 31.5)
        assert np.max(np.abs(rad - 15)) < 0.15

    def test_vertices_on_zero_level(self):
        phi = disk_sdf(48, 48, 22.3, 24.1, 11)
        for c in contours.extract_contours(phi):
            for x, y in c.vertices:
                assert abs(field.bilinear_sample(phi, x, y, 1e9)) < 0.05

    def test_halfplane_open(self):
        xs, _ = grid(32, 32)
        phi = xs - 15.25
        out = contours.extract_contours(phi)
        assert len(out) == 1
        c = out[0]
        assert not c.closed
        v = np.asarray(c.vertices)
        assert np.allclose(v[:, 0], 15.25, atol=1e-12)
        assert abs(c.length() - 31) < 1e-9

    def test_two_disks_scanline_order(self):
        phi1 = disk_sdf(96, 64, 31.5, 20.0, 8)
        phi2 = disk_sdf(96, 64, 31.5, 70.0, 8)
        phi = np.minimum(phi1, phi2)
        out = contours.extract_contours(phi)
        assert len(out) == 2
        y_first = np.asarray(out[0].vertices)[:, 1].mean()
        y_second = np.asarray(out[1].vertices)[:, 1].mean()
        assert y_first < y_second

    def test_no_crossing_empty(self):
        assert contours.extract_contours(np.full((16, 16), 3.0)) == []
        assert contours.extract_contours(np.full((16, 16), -3.0)) == []

    def test_saddle_cell_splits(self):
        phi = np.array([[-1.0, 1.0], [1.0, -1.0]])
        out = contours.extract_contours(phi)
        assert len(out) == 2
        assert all(not c.closed for c in out)

    def test_zero_counts_as_outside(self):
        # a single zero pixel surrounded by positives produces no contour
        phi = np.full((8, 8), 2.0)
        phi[4, 4] = 0.0
        assert contours.extract_contours(phi) == []

    def test_length_of_unit_square_loop(self):
        # one interior negative pixel: a small diamond through the four
        # midpoints of its incident edges, perimeter 4 * sqrt(0.5^2+0.5^2)
        phi = np.full((8, 8), 1.0)
        phi[4, 4] = -1.0
        out = contours.extract_contours(phi)
        assert len(out) == 1 and out[0].closed
        assert abs(out[0].length() - 4 * np.hypot(0.5, 0.5)) < 1e-12


def _all_cells_reference(phi):
    """Marching squares visiting every cell, with its own case table.

    Chains segments exactly as :func:`contours.extract_contours` documents:
    scanline discovery order, forward from the tail, then back from the head.
    """
    h, w = phi.shape
    segments, by_edge = [], {}
    for y in range(h - 1):
        for x in range(w - 1):
            v00, v10, v01, v11 = phi[y, x], phi[y, x + 1], phi[y + 1, x], phi[y + 1, x + 1]
            s00, s10, s01, s11 = (v < 0 for v in (v00, v10, v01, v11))
            code = s00 * 1 + s10 * 2 + s11 * 4 + s01 * 8
            if code in (0, 15):
                continue
            top = (("h", x, y), contours._interp((x, y), (x + 1, y), v00, v10))
            bottom = (("h", x, y + 1), contours._interp((x, y + 1), (x + 1, y + 1), v01, v11))
            left = (("v", x, y), contours._interp((x, y), (x, y + 1), v00, v01))
            right = (("v", x + 1, y), contours._interp((x + 1, y), (x + 1, y + 1), v10, v11))
            center_inside = (v00 + v10 + v01 + v11) / 4.0 < 0
            pairs = {
                1: [(left, top)], 2: [(top, right)], 3: [(left, right)],
                4: [(right, bottom)], 6: [(top, bottom)], 7: [(left, bottom)],
                8: [(bottom, left)], 9: [(bottom, top)], 11: [(bottom, right)],
                12: [(right, left)], 13: [(right, top)], 14: [(top, left)],
                5: ([(left, bottom), (right, top)] if center_inside
                    else [(left, top), (right, bottom)]),
                10: ([(top, right), (bottom, left)] if center_inside
                     else [(top, left), (bottom, right)]),
            }[code]
            for (ka, pa), (kb, pb) in pairs:
                by_edge.setdefault(ka, []).append(len(segments))
                by_edge.setdefault(kb, []).append(len(segments))
                segments.append((ka, pa, kb, pb))

    used = [False] * len(segments)
    out = []
    for i, (ka, pa, kb, pb) in enumerate(segments):
        if used[i]:
            continue
        used[i] = True
        pts, keys, closed = [pa, pb], [ka, kb], False
        for end in (1, 0):
            while not closed:
                nxt = next((k for k in by_edge.get(keys[end], []) if not used[k]), None)
                if nxt is None:
                    break
                used[nxt] = True
                na, qa, nb, qb = segments[nxt]
                keys[end], pt = (nb, qb) if na == keys[end] else (na, qa)
                if end == 1:
                    pts.append(pt)
                else:
                    pts.insert(0, pt)
                closed = keys[0] == keys[1]
        out.append(contours.Contour(vertices=pts, closed=closed))
    return out


class TestAgainstAllCellsReference:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.sampled_from([-2.0, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0])))
    def test_same_contours_small_fields(self, phi):
        # exact zeros, equal corners and saddle cells are all frequent here
        assert contours.extract_contours(phi) == _all_cells_reference(phi)

    def test_same_contours_disks(self):
        phi = np.minimum(disk_sdf(40, 52, 14.3, 17.8, 9), disk_sdf(40, 52, 38.0, 24.1, 11.5))
        got = contours.extract_contours(phi)
        assert len(got) == 2 and got == _all_cells_reference(phi)
