"""Zero-level-set contour extraction by marching squares.

Cells are the unit squares between pixel centers. A crossing point on a cell
edge is placed by linear interpolation between the two corner values; the
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

    All four cell edges are interpolated eagerly; edges without a sign change
    may have v0 == v1, where the (unused) point defaults to the midpoint.
    """
    t = v0 / (v0 - v1) if v0 != v1 else 0.5
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _cell_segments(x, y, phi):
    """Zero-crossing segments inside crossing cell (x, y) as pairs of edge-keyed points.

    Edge keys are ('h', x, y) for the horizontal edge from (x,y) to (x+1,y)
    and ('v', x, y) for the vertical edge from (x,y) to (x,y+1).
    """
    v00 = phi[y, x]
    v10 = phi[y, x + 1]
    v01 = phi[y + 1, x]
    v11 = phi[y + 1, x + 1]
    # value 0 counts as non-negative ("outside"), consistently everywhere
    s00, s10, s01, s11 = (v < 0 for v in (v00, v10, v01, v11))
    code = s00 * 1 + s10 * 2 + s11 * 4 + s01 * 8

    top = (("h", x, y), _interp((x, y), (x + 1, y), v00, v10))
    bottom = (("h", x, y + 1), _interp((x, y + 1), (x + 1, y + 1), v01, v11))
    left = (("v", x, y), _interp((x, y), (x, y + 1), v00, v01))
    right = (("v", x + 1, y), _interp((x + 1, y), (x + 1, y + 1), v10, v11))

    table = {
        1: [(left, top)],
        2: [(top, right)],
        3: [(left, right)],
        4: [(right, bottom)],
        6: [(top, bottom)],
        7: [(left, bottom)],
        8: [(bottom, left)],
        9: [(bottom, top)],
        11: [(bottom, right)],
        12: [(right, left)],
        13: [(right, top)],
        14: [(top, left)],
    }
    if code in (5, 10):
        center_inside = (v00 + v10 + v01 + v11) / 4.0 < 0
        if code == 5:
            pairs = [(left, bottom), (right, top)] if center_inside else [(left, top), (right, bottom)]
        else:
            pairs = [(top, right), (bottom, left)] if center_inside else [(top, left), (bottom, right)]
        return pairs
    return table[code]


def extract_contours(phi: np.ndarray) -> List[Contour]:
    """All zero-level-set contours of a field, in discovery order."""
    neg = phi < 0
    corner = neg[:-1, :-1]
    # a cell crosses zero when some corner's sign differs from the others
    crossing = (neg[:-1, 1:] != corner) | (neg[1:, :-1] != corner) | (neg[1:, 1:] != corner)
    segments = []          # (edge_key_a, point_a, edge_key_b, point_b)
    by_edge = {}           # edge_key -> list of segment indices
    ys, xs = np.nonzero(crossing)      # scanline order
    for y, x in zip(ys.tolist(), xs.tolist()):
        for (ka, pa), (kb, pb) in _cell_segments(x, y, phi):
            idx = len(segments)
            segments.append((ka, pa, kb, pb))
            by_edge.setdefault(ka, []).append(idx)
            by_edge.setdefault(kb, []).append(idx)

    used = [False] * len(segments)
    contours = []

    def walk(start_idx):
        ka, pa, kb, pb = segments[start_idx]
        used[start_idx] = True
        pts = [pa, pb]
        keys = [ka, kb]
        # extend forward from the tail, then backward from the head
        for end in (1, 0):
            while True:
                key = keys[end]
                nxt = next((i for i in by_edge.get(key, []) if not used[i]), None)
                if nxt is None:
                    break
                used[nxt] = True
                na, qa, nb, qb = segments[nxt]
                key_new, pt_new = (nb, qb) if na == key else (na, qa)
                if end == 1:
                    pts.append(pt_new)
                    keys[1] = key_new
                else:
                    pts.insert(0, pt_new)
                    keys[0] = key_new
                if keys[0] == keys[1]:
                    return pts, True
        return pts, False

    for i in range(len(segments)):
        if used[i]:
            continue
        pts, closed = walk(i)
        # on closure the walk already revisits the starting edge, so the
        # first and last vertices coincide exactly
        contours.append(Contour(vertices=pts, closed=closed))
    return contours
