import tracemalloc

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


def traced_peak(call) -> int:
    """Peak bytes that one ``call()`` allocates above its start, after a first call.

    The first call takes any one-time allocations (NumPy's and the kernels'
    own caches), so the figure is what every later call holds at once.
    """
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
