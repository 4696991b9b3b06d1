"""Statistical shape priors over signed distance functions.

Training masks are embedded as signed distance fields (negative inside the
object), a PCA over the stack gives a mean field plus orthonormal variation
modes, and new shapes are synthesized as mean + modes @ coefficients. A rigid
pose (scale, rotation, translation) warps a synthesized shape onto the image
grid.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import field

SMDL_MAGIC = b"SMDL"

# Rigid-scale bounds; deliberately tighter than a degenerate [0, 255].
TAU_MIN = 0.25
TAU_MAX = 4.0


def as_mask(data) -> np.ndarray:
    """Validate a boolean object mask: 2D, with both inside and outside pixels."""
    m = np.asarray(data, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {m.shape}")
    if not m.any() or m.all():
        raise ValueError("degenerate mask: needs at least one inside and one outside pixel")
    return m


def sdf_from_mask(m) -> np.ndarray:
    """Signed Euclidean distance field of a mask, negative inside.

    The zero level set sits halfway between adjacent inside/outside pixels
    (half-pixel offset off the exact nearest-opposite-pixel distance), so
    complementing the mask exactly negates the result.

    The inside pixels' transform runs only on the inside's bounding box grown
    by one pixel (clipped to the grid). That is exact: an outside pixel beyond
    the box, clamped onto it, lands on the grown ring, which is outside and no
    farther from any inside pixel.
    """
    m = as_mask(m)
    sdf = ndimage.distance_transform_edt(~m)   # distance for outside pixels
    sdf -= 0.5
    rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
    box = (slice(max(rows[0] - 1, 0), rows[-1] + 2), slice(max(cols[0] - 1, 0), cols[-1] + 2))
    inside = m[box]
    d_in = ndimage.distance_transform_edt(inside)   # distance for inside pixels
    d_in -= 0.5
    np.negative(d_in, out=sdf[box], where=inside)
    return sdf


@dataclass(frozen=True)
class Pose:
    """Rigid transform parameters: scale tau, rotation theta, translation (tx, ty)."""

    tau: float = 1.0
    theta: float = 0.0
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.tau, self.theta, self.tx, self.ty))):
            raise ValueError("pose parameters must be finite")
        # project into the admissible box (theta wraps)
        object.__setattr__(self, "tau", float(min(max(self.tau, TAU_MIN), TAU_MAX)))
        object.__setattr__(self, "theta", float((self.theta + np.pi) % (2 * np.pi) - np.pi))

    def as_vector(self) -> np.ndarray:
        return np.array([self.tau, self.theta, self.tx, self.ty])


def warp(f: np.ndarray, pose: Pose, outside: float) -> np.ndarray:
    """Resample ``f`` through the rigid map h(x) = tau*R(x - c) + c + T, c the domain centre.

    An unrotated map's coordinates are a row and a column, sampled in one
    piece. A rotated map's are full grids, so they are made and sampled one
    row half at a time into one output, and at most half of them are held at
    once.
    """
    if pose.theta == 0.0:
        return field.bilinear_sample(f, *_warp_coords(f.shape, pose), outside)
    h = f.shape[0]
    out = np.empty(f.shape, f.dtype)
    for rows in (slice(0, h // 2), slice(h // 2, h)):
        field.bilinear_sample(f, *_warp_coords(f.shape, pose, rows), outside, out=out[rows])
    return out


def _warp_coords(shape, pose: Pose, rows: slice = slice(None)):
    """(hx, hy), where a pose's map sends ``rows`` of a grid of ``shape``.

    An unrotated map keeps hx a row and hy a column.
    """
    tau, theta, tx, ty = pose.as_vector()
    h, w = shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    # an x-offset row and a y-offset column
    dx = np.arange(w, dtype=np.float64)[None, :] - cx
    dy = np.arange(h, dtype=np.float64)[rows, None] - cy
    if theta == 0.0:
        # ct*dx - st*dy is exactly dx and st*dx + ct*dy exactly dy (neither is
        # ever -0.0), so hx stays a row and hy a column
        hx, hy = dx, dy
    else:
        ct, st = np.cos(theta), np.sin(theta)
        hx = ct * dx - st * dy
        hy = st * dx + ct * dy
    # tau*hx + cx + tx and its y twin, in place
    hx *= tau
    hx += cx
    hx += tx
    hy *= tau
    hy += cy
    hy += ty
    return hx, hy


@dataclass
class ShapeModel:
    """PCA shape model: mean SDF, orthonormal modes, eigenvalue variances."""

    mean: np.ndarray
    modes: np.ndarray            # (p, h, w), L2-orthonormal
    variances: np.ndarray        # (p,), descending
    n_training: int = 0          # training shapes the model was built from

    @property
    def lambda_box(self) -> np.ndarray:
        """(p, 2) shape-parameter box: +-3*sqrt(variance) per mode."""
        s = 3.0 * np.sqrt(np.maximum(self.variances, 0.0))
        return np.stack([-s, s], axis=1)

    @property
    def p(self) -> int:
        return self.modes.shape[0]

    def project(self, sdf: np.ndarray) -> np.ndarray:
        """Coefficients of a field in the mode basis (after subtracting the mean)."""
        d = (sdf - self.mean).ravel()
        return self.modes.reshape(self.p, -1) @ d


def build_shape_model(sdfs, p: int) -> ShapeModel:
    """PCA over a stack of SDFs via the N x N Gram matrix."""
    sdfs = [field.as_field(s) for s in sdfs]
    n = len(sdfs)
    if n < 2:
        raise ValueError("need at least 2 training shapes")
    shape = sdfs[0].shape
    if any(s.shape != shape for s in sdfs):
        raise ValueError("training SDFs must share dimensions")
    if not (1 <= p <= n - 1):
        raise ValueError(f"p must be in [1, {n - 1}], got {p}")

    stack = np.stack([s.ravel() for s in sdfs])      # (N, M)
    mean = stack.mean(axis=0)
    centered = stack - mean
    gram = centered @ centered.T
    evals, evecs = np.linalg.eigh(gram)              # ascending
    order = np.argsort(evals)[::-1][:p]
    evals = np.maximum(evals[order], 0.0)

    modes = np.empty((p, stack.shape[1]))
    for k in range(p):
        u = centered.T @ evecs[:, order[k]]
        norm = float(np.sqrt(np.sum(u * u)))   # fixed order: no threaded BLAS
        if norm <= 1e-12:
            # zero-spread direction: fall back to an arbitrary unit vector
            # orthogonal to the ones already chosen
            u = np.zeros(stack.shape[1])
            u[k] = 1.0
            for j in range(k):
                u -= np.sum(u * modes[j]) * modes[j]
            norm = float(np.sqrt(np.sum(u * u)))
        modes[k] = u / norm

    return ShapeModel(
        mean=mean.reshape(shape),
        modes=modes.reshape(p, *shape),
        variances=evals / n,
        n_training=n,
    )


def synthesize_shape(model: ShapeModel, lam) -> np.ndarray:
    """Build mean + sum_i lam[i] * mode[i]; only approximately an SDF for lam != 0."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (model.p,):
        raise ValueError(f"lambda must have length {model.p}, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambda must be finite")
    # one matrix-vector product, then the mean added in place (addition commutes)
    out = lam @ model.modes.reshape(model.p, -1)
    out += model.mean.ravel()
    return out.reshape(model.mean.shape)


def write_smdl(model: ShapeModel, path) -> None:
    """Write a shape model in the SMDL binary format (bit-exact round trip)."""
    h, w = model.mean.shape
    with open(path, "wb") as fh:
        fh.write(SMDL_MAGIC)
        fh.write(struct.pack("<IIIII", 1, w, h, model.n_training, model.p))
        fh.write(model.mean.astype("<f8").tobytes(order="C"))
        for k in range(model.p):
            fh.write(model.modes[k].astype("<f8").tobytes(order="C"))
        fh.write(model.variances.astype("<f8").tobytes())
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        fh.write(struct.pack("<ddd", 1.0, cx, cy))


def read_smdl(path) -> ShapeModel:
    """Read a shape model written by :func:`write_smdl`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SMDL_MAGIC:
        raise ValueError(f"bad SMDL magic: {data[:4]!r}")
    if len(data) < 24:
        raise ValueError("truncated SMDL header")
    version, w, h, n, p = struct.unpack_from("<IIIII", data, 4)
    if version != 1:
        raise ValueError(f"unsupported SMDL version {version}")
    if p < 1:
        raise ValueError("SMDL model has no modes")
    m = w * h
    count = m * (1 + p) + p + 3     # mean, modes, variances, 3-double trailer
    if len(data) < 24 + 8 * count:
        raise ValueError("truncated SMDL data")
    vals = np.frombuffer(data, dtype="<f8", count=count, offset=24).astype(np.float64)
    if vals[-3] == 0.0:
        raise ValueError("origin-centred SMDL models are not supported")
    # the warp always centres on the grid, so any other stored centre would be ignored
    centre, stored = ((w - 1) / 2.0, (h - 1) / 2.0), (float(vals[-2]), float(vals[-1]))
    if stored != centre:
        raise ValueError(f"SMDL centre {stored} is not the grid centre {centre}")
    if not (np.all(np.isfinite(vals[:-3])) and np.all(vals[m * (1 + p):-3] >= 0)):
        raise ValueError("SMDL mean, modes and variances must be finite, with variances >= 0")
    return ShapeModel(mean=vals[:m].reshape(h, w),
                      modes=vals[m:m * (1 + p)].reshape(p, h, w),
                      variances=vals[m * (1 + p):-3], n_training=n)
