"""2D scalar-field calculus: gradients, divergence, smoothing, interpolation, TV.

Fields are 2D float64 numpy arrays of shape (height, width) with unit grid
spacing. The x axis is the column index, y the row index. All public
operations are pure functions; none mutate their inputs.

The discrete gradient uses forward differences with a zero last column/row
(replicate boundary), and ``divergence`` is its exact negative adjoint under
the plain pixel-sum inner product, so that summation by parts holds exactly:
``inner(grad(f), v) == -inner(f, divergence(v))`` for every f and v.
"""

import struct

import numpy as np

SFLD_MAGIC = b"SFLD"


def as_field(data) -> np.ndarray:
    """Validate and convert input into a 2D float64 field.

    Raises ValueError for wrong dimensionality or non-finite entries.
    """
    f = np.asarray(data, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"field must be 2D, got shape {f.shape}")
    if f.shape[0] < 1 or f.shape[1] < 1:
        raise ValueError(f"field must be non-empty, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("field contains non-finite values")
    return f


def _check_differentiable(f: np.ndarray) -> None:
    if f.shape[0] < 2 or f.shape[1] < 2:
        raise ValueError(f"field too small to differentiate: shape {f.shape}")


def grad(f: np.ndarray):
    """Forward-difference gradient (gx, gy) with zero last column/row.

    The x-differences are one contiguous subtraction over the raveled grid,
    which also pairs each row's end with the next row's start; those entries
    are then overwritten with the zero column. An overflow gives +-inf and
    inf - inf gives NaN without a warning, since one could name an entry that
    no output holds.

    Returns
    -------
    (gx, gy) : pair of C-ordered arrays with the shape and dtype of ``f``.
    """
    _check_differentiable(f)
    w = f.shape[1]
    flat = f.ravel()        # C order: a copy only for a non-contiguous f
    gx = np.empty(f.shape, f.dtype)
    gy = np.empty(f.shape, f.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(flat[1:], flat[:-1], out=gx.reshape(-1)[:-1])
        np.subtract(flat[w:], flat[:-w], out=gy.reshape(-1)[:-w])
    gx[:, -1] = 0
    gy[-1] = 0
    return gx, gy


def grad_magnitude(f: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm of the forward-difference gradient."""
    gx, gy = grad(f)
    return np.sqrt(gx * gx + gy * gy)


def divergence(vx: np.ndarray, vy: np.ndarray, work=None) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of grad.

    The last column of ``vx`` and last row of ``vy`` never enter (grad puts
    zeros there), matching the standard TV divergence stencil.

    The result is C-ordered with the dtype of ``vx``, and each pixel is
    (0 + x-part) + y-part, so no float result is -0.0. As in :func:`grad`,
    the x-differences are one subtraction over the raveled grid whose
    row-crossing entries are overwritten, and no overflow warns.

    The y-differences are written into ``work`` when given: an (h - 2) x w
    array of ``vy``'s dtype, or None for a fresh temporary. It may be the
    first h - 2 rows of a C-ordered ``vx``: every read of ``vx`` comes before
    the y-differences are written.
    """
    if vx.shape != vy.shape:
        raise ValueError(f"component shapes differ: {vx.shape} vs {vy.shape}")
    _check_differentiable(vx)
    d = np.empty(vx.shape, vx.dtype)
    flat = vx.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(flat[1:], flat[:-1], out=d.reshape(-1)[1:])
        d[:, 0] = vx[:, 0]
        # through a contiguous temporary: NumPy 2.4's negative with a strided
        # out reads a column of an 8-wide float64 grid as if it were a row
        d[:, -1] = -vx[:, -2]
        # the 0 + x-part (-0.0 becomes 0.0), in place; an integer 0 keeps integer dtypes
        d += 0
        d[0, :] += vy[0, :]
        d[1:-1, :] += np.subtract(vy[1:-1, :], vy[:-2, :], out=work)
        d[-1, :] += -vy[-2, :]
    return d


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete L2 inner product (plain pixel sum)."""
    return float(np.sum(a * b))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at radius ceil(3*sigma), normalized to sum 1."""
    # a chained comparison is False for NaN, so NaN fails it
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    r = int(np.ceil(3.0 * sigma))
    t = np.arange(-r, r + 1, dtype=np.float64)
    # for a sigma below about 1e-154 the square overflows off the centre, where
    # exp(-inf) = 0 is the exact limit: the kernel is [0, 1, 0]
    with np.errstate(over="ignore"):
        k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def gaussian_convolve(f: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with mirror (half-sample symmetric) boundaries.

    Mirror extension makes the smoothing operator self-adjoint, so it
    preserves the field mean exactly; replicate extension does not.
    """
    k = gaussian_kernel(sigma)
    r = (len(k) - 1) // 2
    out = np.pad(f, ((0, 0), (r, r)), mode="symmetric")
    out = sum(k[i] * out[:, i : i + f.shape[1]] for i in range(len(k)))
    out = np.pad(out, ((r, r), (0, 0)), mode="symmetric")
    out = sum(k[i] * out[i : i + f.shape[0], :] for i in range(len(k)))
    return out


def bilinear_sample(f: np.ndarray, x, y, outside: float, out=None):
    """Bilinearly interpolate ``f`` at real coordinates, ``outside`` beyond the domain.

    ``x`` and ``y`` may be scalars or arrays that broadcast together; the valid
    domain is [0, w-1] x [0, h-1]. Each axis's fractions and weights keep the
    shape of its own coordinates, so an x row and a y column (an axis-aligned
    grid) give a row and a column of weights, which the products broadcast;
    only the corner index and the beyond mask have the sample shape. The
    samples go into ``out`` when given, a contiguous array of the sample shape
    and ``f``'s dtype, and into a new array otherwise; one sample is a float.
    """
    h, w = f.shape
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    fx, x0, beyond_x = _axis_geometry(x, w)
    fy, y0, beyond_y = _axis_geometry(y, h)
    beyond = beyond_x | beyond_y
    y0 *= w
    i00 = np.add(y0, x0, out=np.empty(beyond.shape, dtype=np.intp))
    # free the corners before the complements are made: on a rotated map each
    # is a full grid
    del x0, y0, beyond_x, beyond_y
    wx0, wy0 = 1 - fx, 1 - fy
    dx, dy = 1 if w > 1 else 0, w if h > 1 else 0
    flat = f.ravel()
    # (f00*wx0)*wy0 + (f10*fx)*wy0 + (f01*wx0)*fy + (f11*fx)*fy, accumulated in
    # place, reading flat[i00 + off] as flat[off:].take(i00); every index is in
    # range by construction, and mode="wrap" skips the default mode's range check
    val = np.asarray(flat.take(i00, out=out, mode="wrap"))     # 0-d for one sample
    val *= wx0
    val *= wy0
    t = np.empty_like(val)
    for off, a, b in ((dx, fx, wy0), (dy, wx0, fy), (dy + dx, fx, fy)):
        flat[off:].take(i00, out=t, mode="wrap")
        t *= a
        t *= b
        val += t
    np.copyto(val, outside, where=beyond)
    return float(val) if val.ndim == 0 else val


def _axis_geometry(c, n):
    """(fraction, integer corner, beyond) of coordinates ``c`` on an axis of n samples."""
    # the fraction starts as a clamped copy of c, the corner as its floor, each in
    # its own buffer (0-d for one sample); a coordinate is beyond the axis if
    # clamping moved it, or if it is NaN
    f = np.clip(c, 0, n - 1, out=np.empty(c.shape))
    beyond = f != c
    # fmin sends a NaN corner to the last one, so every corner is an integer in
    # [0, max(n - 2, 0)] and casts exactly; the cast also turns floor(-0.0) into
    # 0, so a sample at -0.0 keeps the fraction -0.0 - 0.0 = -0.0
    c0 = np.floor(f, out=np.empty(c.shape))
    np.fmin(c0, max(n - 2, 0), out=c0)
    c0 = c0.astype(np.intp)
    f -= c0
    return f, c0, beyond


def total_variation(f: np.ndarray) -> float:
    """Isotropic discrete total variation, sum over pixels of a gradient norm.

    Uses Sobel-style smoothed central differences rather than the one-sided
    ``grad`` stencil: one-sided differences overestimate the perimeter of
    diagonal edges by up to 40%, which would put binary-disk perimeters far
    outside their analytic values. This stencil stays within ~2% on disks
    and is exact on axis-aligned edges and constants.
    """
    _check_differentiable(f)
    fp = np.pad(f, 1, mode="edge")
    gx = (fp[1:-1, 2:] - fp[1:-1, :-2]) / 2.0
    gy = (fp[2:, 1:-1] - fp[:-2, 1:-1]) / 2.0
    gxp = np.pad(gx, 1, mode="edge")
    gx = (gxp[:-2, 1:-1] + 2.0 * gxp[1:-1, 1:-1] + gxp[2:, 1:-1]) / 4.0
    gyp = np.pad(gy, 1, mode="edge")
    gy = (gyp[1:-1, :-2] + 2.0 * gyp[1:-1, 1:-1] + gyp[1:-1, 2:]) / 4.0
    return float(np.sum(np.sqrt(gx * gx + gy * gy)))


def write_sfld(f: np.ndarray, path) -> None:
    """Write a field in the SFLD binary format (magic, u32 w/h LE, f64 LE row-major)."""
    f = as_field(f)
    h, w = f.shape
    with open(path, "wb") as fh:
        fh.write(SFLD_MAGIC)
        fh.write(struct.pack("<II", w, h))
        fh.write(f.astype("<f8").tobytes(order="C"))


def read_sfld(path) -> np.ndarray:
    """Read a field written by :func:`write_sfld`. Bit-exact round trip.

    Raises ValueError for a header that claims more data than the file holds
    and, like :func:`as_field`, for an empty or non-finite field.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SFLD_MAGIC:
        raise ValueError(f"bad SFLD magic: {data[:4]!r}")
    if len(data) < 12:
        raise ValueError("truncated SFLD header")
    w, h = struct.unpack_from("<II", data, 4)
    if len(data) < 12 + 8 * w * h:
        raise ValueError("truncated SFLD data")
    return as_field(np.frombuffer(data, "<f8", w * h, 12).reshape(h, w).astype(np.float64))
