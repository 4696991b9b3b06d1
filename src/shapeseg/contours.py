"""Zero-level-set contour extraction by marching squares.

Cells are the unit squares between pixel centers. Each cell's four corner
signs form a 4-bit code, and one 16-case table gives the segments that code
draws between the cell's edges (Lorensen & Cline, 1987). A crossing point on
an edge is placed by linear interpolation between the two corner values; the
ambiguous saddle cases are resolved by the sign of the cell-center average.
Segments are chained into polylines in scanline discovery order, so the
output ordering is deterministic. Closed contours repeat their first vertex.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class Contour:
    vertices: List[Tuple[float, float]]
    closed: bool

    def length(self) -> float:
        v = np.asarray(self.vertices)
        return float(np.sum(np.hypot(np.diff(v[:, 0]), np.diff(v[:, 1]))))


def _interp(p0, p1, v0, v1):
    """Zero crossing between points p0, p1 carrying values v0, v1.

    An edge with a sign change always has v0 != v1; for v0 == v1 the point
    defaults to the midpoint.
    """
    t = v0 / (v0 - v1) if v0 != v1 else 0.5
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


# a cell's edges as (key kind, first corner, second corner), corners as (dx, dy)
# offsets from the cell's top-left pixel; the edge is keyed by its first corner
_T = ("h", (0, 0), (1, 0))
_B = ("h", (0, 1), (1, 1))
_L = ("v", (0, 0), (0, 1))
_R = ("v", (1, 0), (1, 1))
# the segments (edge pairs) of a cell by its corner code, whose bits 1, 2, 4 and 8
# mark a negative top-left, top-right, bottom-right and bottom-left corner; the
# saddles 5 and 10 hold two choices, for a cell centre outside and inside
_CASES = (
    (), ((_L, _T),), ((_T, _R),), ((_L, _R),), ((_R, _B),),
    (((_L, _T), (_R, _B)), ((_L, _B), (_R, _T))),
    ((_T, _B),), ((_L, _B),), ((_B, _L),), ((_B, _T),),
    (((_T, _L), (_B, _R)), ((_T, _R), (_B, _L))),
    ((_B, _R),), ((_R, _L),), ((_R, _T),), ((_T, _L),), (),
)


def extract_contours(phi: np.ndarray) -> List[Contour]:
    """All zero-level-set contours of a field, in discovery order."""
    # value 0 counts as non-negative ("outside"), consistently everywhere
    neg = (phi < 0).view(np.uint8)
    code = neg[:-1, :-1] | neg[:-1, 1:] << 1 | neg[1:, 1:] << 2 | neg[1:, :-1] << 3
    ys, xs = np.nonzero((code != 0) & (code != 15))      # crossing cells, scanline order
    segments = []          # (edge_key_a, point_a, edge_key_b, point_b)
    by_edge = {}           # edge_key -> list of segment indices
    for y, x in zip(ys.tolist(), xs.tolist()):
        c = code[y, x]
        pairs = _CASES[c]
        if c == 5 or c == 10:
            v00, v10, v01, v11 = phi[y, x], phi[y, x + 1], phi[y + 1, x], phi[y + 1, x + 1]
            pairs = pairs[1 if (v00 + v10 + v01 + v11) / 4.0 < 0 else 0]
        for pair in pairs:
            seg = ()
            for kind, (ax, ay), (bx, by) in pair:
                a, b = (x + ax, y + ay), (x + bx, y + by)
                key = (kind, *a)
                by_edge.setdefault(key, []).append(len(segments))
                seg += (key, _interp(a, b, phi[a[1], a[0]], phi[b[1], b[0]]))
            segments.append(seg)

    used = [False] * len(segments)
    contours = []
    for i, (ka, pa, kb, pb) in enumerate(segments):
        if used[i]:
            continue
        used[i] = True
        # extend forward from the tail, then backward from the head; on closure the
        # chain revisits the starting edge, so the first and last vertices coincide
        pts, back, keys, closed = [pa, pb], [], [ka, kb], False
        for end, out in ((1, pts), (0, back)):
            while not closed:
                nxt = next((k for k in by_edge[keys[end]] if not used[k]), None)
                if nxt is None:
                    break
                used[nxt] = True
                na, qa, nb, qb = segments[nxt]
                keys[end], pt = (nb, qb) if na == keys[end] else (na, qa)
                out.append(pt)
                closed = keys[0] == keys[1]
        pts[:0] = back[::-1]
        contours.append(Contour(vertices=pts, closed=closed))
    return contours
