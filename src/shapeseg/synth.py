"""Deterministic synthetic scenes: two-phase shapes, occlusions, noise.

Noise comes from a fully specified splitmix64 generator (documented below) so
renders are bit-identical across platforms and languages:

    state_{k+1} = (state_k + 0x9E3779B97F4A7C15) mod 2^64
    z = state_{k+1}; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9 (mod 2^64)
    z ^= z >> 27; z *= 0x94D049BB133111EB (mod 2^64); z ^= z >> 31

Each output z maps to a uniform double in [0, 1) via (z >> 11) * 2^-53;
pairs of uniforms feed a Box-Muller transform for Gaussian samples.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import io
from .energy import check_real, is_integer

_MASK64 = (1 << 64) - 1


def splitmix64_uniforms(seed: int, count: int) -> np.ndarray:
    """``count`` uniform doubles in [0, 1) from a splitmix64 stream.

    Computed in closed form on wrapping uint64 arrays: the k-th state is
    seed + k * 0x9E3779B97F4A7C15 (mod 2^64), k = 1..count.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    k = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + k * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0 ** -53


def gaussian_noise(seed: int, count: int) -> np.ndarray:
    """Standard normal samples via Box-Muller over splitmix64 uniforms."""
    n_pairs = (count + 1) // 2
    u = splitmix64_uniforms(seed, 2 * n_pairs)
    u1 = np.maximum(u[0::2], 2.0 ** -53)  # guard log(0)
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * n_pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:count]


# parameter count of each kind: shapes (cx, cy, r), (cx, cy, a, b, angle) and
# (nx, ny, offset); occlusions (theta0, theta1) and (x0, y0, x1, y1)
_ARITY = {"shape": {"disk": 3, "ellipse": 5, "halfplane": 3},
          "occlusion": {"arc": 2, "box": 4}}


@dataclass
class SceneSpec:
    """Recipe for one two-phase scene.

    ``shape`` is one of
      ("disk", cx, cy, r)
      ("ellipse", cx, cy, a, b, angle)
      ("halfplane", nx, ny, offset)   -- inside where nx*x + ny*y < offset
    ``occlusion`` is None, ("arc", theta0, theta1) masking that angular wedge
    of the shape to background, or ("box", x0, y0, x1, y1).
    """

    width: int = 128
    height: int = 128
    shape: tuple = ("disk", 63.5, 63.5, 20.0)
    fg: float = 200.0
    bg: float = 50.0
    noise_std: float = 0.0
    noise_seed: int = 0
    occlusion: Optional[tuple] = None

    def __post_init__(self):
        # a float size would pass the bound below and fail later inside np.zeros; a
        # bool anywhere would be written as True, which scene_from_kv cannot read
        # back, and a str would fail the bounds with a bare TypeError
        if not (is_integer(self.width) and is_integer(self.height)):
            raise ValueError("width and height must be integers")
        if not (1 <= self.width and 1 <= self.height):
            raise ValueError("width and height must be >= 1")
        for name in ("fg", "bg", "noise_std"):
            check_real(name, getattr(self, name))
        if not is_integer(self.noise_seed):
            raise ValueError("noise_seed must be an integer")
        if not (math.isfinite(self.fg) and math.isfinite(self.bg)):
            raise ValueError("fg and bg must be finite")
        if not 0 <= self.noise_std < math.inf:     # False for NaN
            raise ValueError("noise_std must be finite and >= 0")
        for name, arity in _ARITY.items():
            value = getattr(self, name)
            if value is None:
                continue
            # only a tuple is written as kind,number,... (a list would be its repr)
            if not isinstance(value, tuple) or not value:
                raise ValueError(f"{name} must be a tuple of a kind and its parameters")
            kind, *params = value
            if not isinstance(kind, str):
                raise ValueError(f"{name} kind must be a str, not {type(kind).__name__}")
            # render knows no other kind, and one with a comma or an edge space
            # would be read back from the key=value text as another spec
            if kind not in arity:
                raise ValueError(f"unknown {name} kind {kind!r}")
            for v in params:
                check_real(f"{name} parameters", v)
            if not all(map(math.isfinite, params)):
                raise ValueError(f"{name} parameters must be finite")
            if len(params) != arity[kind]:
                raise ValueError(f"{name} {kind} takes {arity[kind]} parameters")
        kind, *params = self.shape
        # the arc is centred on the shape, and a halfplane has no centre
        if self.occlusion is not None and self.occlusion[0] == "arc" and kind == "halfplane":
            raise ValueError(f"an arc occlusion needs a disk or ellipse, not a {kind}")
        # r, or a and b, compared as Python floats so a NumPy scalar cannot overflow in a cast
        if kind in ("disk", "ellipse") and not min(map(float, params[2:4])) > 0:
            raise ValueError("disk radius and ellipse semi-axes must be positive")


def truth_mask(spec: SceneSpec) -> np.ndarray:
    """The scene's shape mask, True inside: its truth, with no occlusion and no image."""
    # a y column and an x row, broadcast to the grid: each pixel sees the
    # same float operands as on full coordinate grids, which are never built
    ys = np.arange(spec.height, dtype=np.float64)[:, None]
    xs = np.arange(spec.width, dtype=np.float64)
    kind = spec.shape[0]
    if kind == "disk":
        _, cx, cy, r = spec.shape
        _check_margin(cx - r, cy - r, cx + r, cy + r, spec)
        return (xs - cx) ** 2 + (ys - cy) ** 2 < r * r
    if kind == "ellipse":
        _, cx, cy, a, b, angle = spec.shape
        ext = max(a, b)
        _check_margin(cx - ext, cy - ext, cx + ext, cy + ext, spec)
        ct, st = np.cos(angle), np.sin(angle)
        u = (xs - cx) * ct + (ys - cy) * st
        v = -(xs - cx) * st + (ys - cy) * ct
        # a tiny semi-axis overflows the squares, where inf gives the exact limit
        with np.errstate(over="ignore"):
            return (u / a) ** 2 + (v / b) ** 2 < 1.0
    if kind == "halfplane":
        _, nx, ny, offset = spec.shape
        with np.errstate(over="ignore", invalid="ignore"):
            side = nx * xs + ny * ys
        if np.isnan(side).any():    # inf - inf: the side of some pixel is unknown
            raise ValueError("halfplane normal overflows on the grid")
        return side < offset
    raise ValueError(f"unknown shape kind {kind!r}")


def _check_margin(x0, y0, x1, y1, spec: SceneSpec) -> None:
    if x0 < 2 or y0 < 2 or x1 > spec.width - 3 or y1 > spec.height - 3:
        raise ValueError("shape does not fit inside the domain with a 2 px margin")


def _occlusion_mask(spec: SceneSpec) -> np.ndarray:
    """Pixels whose image value is forced to background (truth unaffected)."""
    occ = np.zeros((spec.height, spec.width), dtype=bool)
    if spec.occlusion is None:
        return occ
    ys = np.arange(spec.height, dtype=np.float64)[:, None]
    xs = np.arange(spec.width, dtype=np.float64)
    kind = spec.occlusion[0]
    if kind == "arc":
        if spec.shape[0] not in ("disk", "ellipse"):    # the arc is centred on the shape
            raise ValueError(f"an arc occlusion needs a disk or ellipse, not a {spec.shape[0]}")
        _, t0, t1 = spec.occlusion
        cx, cy = spec.shape[1], spec.shape[2]
        ang = np.arctan2(ys - cy, xs - cx)
        span = (t1 - t0) % (2 * np.pi)
        rel = (ang - t0) % (2 * np.pi)
        return rel < span
    if kind == "box":
        _, x0, y0, x1, y1 = spec.occlusion
        return (xs >= x0) & (xs < x1) & (ys >= y0) & (ys < y1)
    raise ValueError(f"unknown occlusion kind {kind!r}")


def render(spec: SceneSpec):
    """Render (image, truth_mask); the truth is the un-occluded geometry."""
    truth = truth_mask(spec)
    visible = truth & ~_occlusion_mask(spec)
    image = np.where(visible, spec.fg, spec.bg).astype(np.float64, copy=False)
    if spec.noise_std > 0:
        noise = gaussian_noise(spec.noise_seed, image.size).reshape(image.shape)
        with np.errstate(over="ignore"):
            image = image + spec.noise_std * noise
        if not np.isfinite(image).all():
            raise ValueError("noise_std overflows the image")
    return image, truth


def ellipse_training_set(n: int, a_range, b_range, width: int, height: int):
    """n centered ellipse masks with semi-axes evenly spaced across the ranges."""
    if n < 2:
        raise ValueError("need n >= 2")
    a_vals = np.linspace(a_range[0], a_range[1], n)
    b_vals = np.linspace(b_range[0], b_range[1], n)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    masks = []
    for a, b in zip(a_vals, b_vals):
        spec = SceneSpec(width=width, height=height,
                         shape=("ellipse", cx, cy, float(a), float(b), 0.0))
        masks.append(truth_mask(spec))
    return masks


# flat key=value serialization, shared with the run-config format

def scene_to_kv(spec: SceneSpec) -> str:
    return io.to_kv(spec)


def scene_from_kv(text: str) -> SceneSpec:
    return io.from_kv(text, "scene", SceneSpec)[0]
