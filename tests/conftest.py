import numpy as np
import pytest


def grid(h, w):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    return xs, ys


def disk_sdf(h, w, cx, cy, r):
    """Analytic signed distance to a circle, negative inside."""
    xs, ys = grid(h, w)
    return np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2) - r


def disk_mask(h, w, cx, cy, r):
    xs, ys = grid(h, w)
    return (xs - cx) ** 2 + (ys - cy) ** 2 < r * r


def circle_distance(contour_vertices, cx, cy, r):
    """Mean absolute distance of contour vertices to the circle of radius r."""
    v = np.asarray(contour_vertices, dtype=np.float64)
    return float(np.mean(np.abs(np.hypot(v[:, 0] - cx, v[:, 1] - cy) - r)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def reference_bilinear_geometry(shape, x, y):
    """field.bilinear_geometry as written on full coordinate grids, x and y broadcast first."""
    h, w = shape
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    fx, fy, x0, y0 = (np.empty(x.shape) for _ in range(4))
    np.clip(x, 0, w - 1, out=fx)
    np.clip(y, 0, h - 1, out=fy)
    beyond = fx != x
    beyond |= fy != y
    np.fmin(np.floor(fx, out=x0), max(w - 2, 0), out=x0)
    np.fmin(np.floor(fy, out=y0), max(h - 2, 0), out=y0)
    x0 += 0.0
    y0 += 0.0
    fx -= x0
    fy -= y0
    y0 *= w
    y0 += x0
    return (beyond, y0.astype(np.intp), 1 if w > 1 else 0, w if h > 1 else 0, fx, fy,
            1 - fx, 1 - fy)


def assert_same_geometry(got, want):
    """Two bilinear geometries agree in every component's dtype and bytes.

    Each component is compared broadcast to the full sample shape: a geometry
    may keep an axis's weights at that axis's own shape (a row or a column).
    """
    assert len(got) == len(want) == 8
    full = np.shape(want[1])
    assert np.shape(got[0]) == np.shape(got[1]) == np.shape(want[0]) == full
    for g, r in zip(got, want):
        g, r = np.broadcast_to(g, full), np.broadcast_to(r, full)
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
