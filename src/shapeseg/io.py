"""Image and table codecs: PGM (P2/P5), contour CSV, energy-trace CSV, and
the flat key=value line format shared by run configs and scene specs.

Pixel values map to field reals without scaling (0..255 stays 0..255).
Floats in CSV output are printed with 17 significant digits so re-parsing is
lossless.
"""

from typing import List

import numpy as np

from .contours import Contour
from .energy import EnergyBreakdown


class PgmError(ValueError):
    """Malformed, truncated, or unsupported PGM data."""


def _read_tokens(data: bytes, count: int):
    """First `count` whitespace-separated header tokens, skipping # comments.

    Returns (tokens, offset_past_last_token).
    """
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise PgmError("truncated PGM header")
        tokens.append(data[i:j])
        i = j
    return tokens, i


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM file into a float64 field."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise PgmError("truncated PGM file")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported PGM magic {magic!r}")
    tokens, offset = _read_tokens(data, 4)
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise PgmError(f"malformed PGM header: {exc}") from exc
    if w < 1 or h < 1 or not (0 < maxval <= 65535):
        raise PgmError("malformed PGM header values")
    if magic == b"P2":
        try:
            vals = np.array(data[offset:].split()).astype(np.int64)
        except (ValueError, OverflowError) as exc:
            raise PgmError(f"malformed PGM sample: {exc}") from exc
        if vals.size != w * h:
            raise PgmError("truncated PGM data")
    else:
        # P5: a single whitespace byte separates header and raster
        offset += 1
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = w * h * dtype.itemsize
        raw = data[offset : offset + need]
        if len(raw) != need:
            raise PgmError("truncated PGM data")
        vals = np.frombuffer(raw, dtype=dtype)
    if vals.min() < 0 or vals.max() > maxval:
        raise PgmError(f"PGM sample outside [0, maxval={maxval}]")
    return vals.reshape(h, w).astype(np.float64)


def write_pgm(f: np.ndarray, path) -> None:
    """Write a field as binary P5 maxval 255, rounding and clamping to [0, 255]."""
    vals = np.clip(np.rint(f), 0, 255).astype("u1")
    h, w = vals.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(vals.tobytes(order="C"))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def contours_to_csv(contours: List[Contour]) -> str:
    lines = ["contour_id,x,y"]
    for cid, c in enumerate(contours):
        for x, y in c.vertices:
            lines.append(f"{cid},{_fmt(x)},{_fmt(y)}")
    return "\n".join(lines) + "\n"


def contours_from_csv(text: str) -> List[List[tuple]]:
    """Parse a contour CSV back into per-contour vertex lists."""
    rows = text.strip().splitlines()
    if not rows or rows[0] != "contour_id,x,y":
        raise ValueError("bad contour CSV header")
    out = {}
    for row in rows[1:]:
        cid, x, y = row.split(",")
        out.setdefault(int(cid), []).append((float(x), float(y)))
    return [out[k] for k in sorted(out)]


def trace_to_csv(trace: List[EnergyBreakdown]) -> str:
    lines = ["iter,f1,f2,f3,f4,total"]
    for it, bd in enumerate(trace, 1):
        lines.append(",".join([str(it)] + [_fmt(v) for v in
                                           (bd.f1, bd.f2, bd.f3, bd.f4, bd.total)]))
    return "\n".join(lines) + "\n"


def parse_kv(text: str, kind: str, types: dict) -> dict:
    """Parse ``key=value`` lines, converting each value with ``types[key]``.

    ``#`` starts a comment, blank lines are skipped and a later key overrides
    an earlier one; ``kind`` names the format in error messages.
    """
    kv = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed {kind} line: {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in types:
            raise ValueError(f"unknown {kind} key {key!r}")
        kv[key] = val.strip()
    return {key: types[key](val) for key, val in kv.items()}


def overlay(image: np.ndarray, contours: List[Contour]) -> np.ndarray:
    """Copy of the image with the nearest pixel to each contour vertex set to 255."""
    out = image.copy()
    h, w = out.shape
    for c in contours:
        for x, y in c.vertices:
            xi, yi = int(round(x)), int(round(y))
            if 0 <= xi < w and 0 <= yi < h:
                out[yi, xi] = 255.0
    return out
