"""2D scalar-field calculus: gradients, divergence, smoothing, interpolation, TV.

Fields are 2D float64 numpy arrays of shape (height, width) with unit grid
spacing. The x axis is the column index, y the row index. All operations are
pure functions; none mutate their inputs.

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

    Returns
    -------
    (gx, gy) : pair of arrays with the same shape as ``f``.
    """
    _check_differentiable(f)
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    gx[:, :-1] = f[:, 1:] - f[:, :-1]
    gy[:-1, :] = f[1:, :] - f[:-1, :]
    return gx, gy


def grad_magnitude(f: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm of the forward-difference gradient."""
    gx, gy = grad(f)
    return np.sqrt(gx * gx + gy * gy)


def divergence(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of grad.

    The last column of ``vx`` and last row of ``vy`` never enter (grad puts
    zeros there), matching the standard TV divergence stencil.
    """
    if vx.shape != vy.shape:
        raise ValueError(f"component shapes differ: {vx.shape} vs {vy.shape}")
    _check_differentiable(vx)
    d = np.zeros_like(vx)
    d[:, 0] += vx[:, 0]
    d[:, 1:-1] += vx[:, 1:-1] - vx[:, :-2]
    d[:, -1] += -vx[:, -2]
    d[0, :] += vy[0, :]
    d[1:-1, :] += vy[1:-1, :] - vy[:-2, :]
    d[-1, :] += -vy[-2, :]
    return d


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete L2 inner product (plain pixel sum)."""
    return float(np.sum(a * b))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at radius ceil(3*sigma), normalized to sum 1."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
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


def bilinear_geometry(shape, x, y):
    """Where :func:`bilinear_gather` reads to sample a field of ``shape`` at (x, y).

    Returns (beyond, i00, dx, dy, fx, fy): the mask of coordinates outside
    [0, w-1] x [0, h-1], the index of each sample's upper-left corner in the
    raveled field, the offsets of its right and lower neighbours (0 on a
    1-wide axis) and the fractions toward them. None of it depends on the
    field's values, so one geometry serves every field of that shape.
    """
    h, w = shape
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    beyond = ~((x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1))
    # fx, fy start as clamped copies of x, y and x0, y0 as the corners, on
    # floats; + 0.0 turns floor(-0.0) into 0.0, so a sample at x = -0.0 keeps
    # fx = -0.0 - 0.0 = -0.0, as with integer corners
    fx = np.clip(x, 0, w - 1)
    fy = np.clip(y, 0, h - 1)
    x0 = np.minimum(np.floor(fx), max(w - 2, 0))
    y0 = np.minimum(np.floor(fy), max(h - 2, 0))
    x0 += 0.0
    y0 += 0.0
    fx -= x0
    fy -= y0
    y0 *= w
    y0 += x0
    return beyond, y0.astype(np.intp), 1 if w > 1 else 0, w if h > 1 else 0, fx, fy


def bilinear_gather(f: np.ndarray, geometry, outside: float) -> np.ndarray:
    """Bilinear samples of ``f`` at a :func:`bilinear_geometry`, ``outside`` beyond the domain."""
    beyond, i00, dx, dy, fx, fy = geometry
    flat = f.ravel()
    wx0 = 1 - fx
    wy0 = 1 - fy
    # (f00*wx0)*wy0 + (f10*fx)*wy0 + (f01*wx0)*fy + (f11*fx)*fy, accumulated in
    # place, reading flat[i00 + off] as flat[off:].take(i00); every index is in
    # range by construction, and mode="wrap" skips the default mode's range check
    val = np.asarray(flat.take(i00, mode="wrap"))     # a 0-d array for one sample
    val *= wx0
    val *= wy0
    t = np.empty_like(val)
    for off, a, b in ((dx, fx, wy0), (dy, wx0, fy), (dy + dx, fx, fy)):
        flat[off:].take(i00, out=t, mode="wrap")
        t *= a
        t *= b
        val += t
    np.copyto(val, outside, where=beyond)
    return val


def bilinear_sample(f: np.ndarray, x, y, outside: float):
    """Bilinearly interpolate ``f`` at real coordinates, ``outside`` beyond the domain.

    ``x`` and ``y`` may be scalars or arrays of matching shape; the valid
    domain is [0, w-1] x [0, h-1].
    """
    out = bilinear_gather(f, bilinear_geometry(f.shape, x, y), outside)
    return float(out) if out.ndim == 0 else out


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
