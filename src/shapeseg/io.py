"""Image and table codecs: PGM (P2/P5), contour CSV, energy-trace CSV, and
the flat key=value line format shared by run configs and scene specs.

Pixel values map to field reals without scaling (0..255 stays 0..255).
Floats in CSV output are printed with 17 significant digits so re-parsing is
lossless.
"""

import re
from dataclasses import fields
from itertools import islice
from typing import List, Optional

import numpy as np

from .contours import Contour
from .energy import EnergyBreakdown


class PgmError(ValueError):
    """Malformed, truncated, or unsupported PGM data."""


# a header token is a run of non-whitespace; a # at a token's start comments out its line
_HEADER_TOKEN = re.compile(rb"#[^\n]*|\S+")


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM file into a float64 field."""
    return _read_pgm(path)[0].astype(np.float64)


def read_mask(path) -> np.ndarray:
    """Read a PGM file as a binary mask: a pixel is inside when 2 * value > maxval."""
    vals, maxval = _read_pgm(path)
    # 2 * value > maxval, in integers that cannot overflow: value > maxval // 2
    return vals > maxval // 2


def _read_pgm(path):
    """The samples of a P2 or P5 PGM file, as an integer (h, w) array, and its maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise PgmError("truncated PGM file")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported PGM magic {magic!r}")
    # the magic, width, height and maxval, skipping # comments
    tokens = list(islice((m for m in _HEADER_TOKEN.finditer(data) if m[0][:1] != b"#"), 4))
    if len(tokens) < 4:
        raise PgmError("truncated PGM header")
    offset = tokens[-1].end()
    try:
        w, h, maxval = (int(t[0]) for t in tokens[1:])
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
    return vals.reshape(h, w), maxval


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


def to_kv(*objs) -> str:
    """``name=value`` lines for every field of the dataclasses ``objs``, in declaration order.

    A tuple is written as its items joined by commas; a None field is left out.
    """
    lines = []
    for obj in objs:
        for f in fields(obj):
            val = getattr(obj, f.name)
            if isinstance(val, tuple):
                val = ",".join(map(str, val))
            if val is not None:
                lines.append(f"{f.name}={val}\n")
    return "".join(lines)


def _from_text(typ, text: str):
    """A value of field type ``typ``; a tuple reads as ``kind,number,...``."""
    if typ in (tuple, Optional[tuple]):
        kind, *nums = text.split(",")
        return (kind, *map(float, nums))
    return typ(text)


def from_kv(text: str, kind: str, *classes) -> tuple:
    """One instance of each dataclass in ``classes``, read from ``key=value`` lines.

    ``#`` starts a comment, blank lines are skipped and a later key overrides
    an earlier one. Each key goes to the class that declares it and is
    converted by its field's type; ``kind`` names the format in error messages.
    """
    types = {f.name: (cls, f.type) for cls in classes for f in fields(cls)}
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
    args = {cls: {} for cls in classes}
    for key, val in kv.items():
        cls, typ = types[key]
        try:
            args[cls][key] = _from_text(typ, val)
        except ValueError as exc:
            raise ValueError(f"{kind} key {key!r}: {exc}") from exc
    return tuple(cls(**args[cls]) for cls in classes)


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
