"""Self-intersection detection and multiplicity measurement for sampled curves.

Candidate segment pairs come from a sort and sweep along x over the
segments' tolerance-inflated bounding boxes, kept as sorted 1-D edge columns;
each candidate gets an exact segment-to-segment distance from one pass over
its four endpoint projections.  The sweep visits the pairs whose boxes overlap
in x: a few per segment on a smooth uniform curve (2.5 n on a circle, 3.6 n
on a limacon at the default eps), up to n^2 / 2 when all boxes overlap in x.
Contacts within the tolerance count as crossings even when tangential: for
embeddedness certification a false alarm is acceptable, a missed one is not.
"""

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import RejectedInputError
from .geometry import SampledCurve, _real_arg, _row_norms, _shift

_ROW_BLOCK = 512   # sweep positions per block; a block holds <= _ROW_BLOCK * n pairs

_RESOLUTION_CAVEAT = (
    "contacts within eps count as crossings; touching and crossing are "
    "indistinguishable below the sampling resolution"
)


@dataclass(frozen=True)
class Crossing:
    """One near-contact: its location and the two segments that meet there."""

    point: Tuple[float, float]
    segments: Tuple[int, int]


@dataclass(frozen=True)
class CrossingSet:
    """Crossings, their spatial clusters, and the resulting multiplicity.

    ``clusters`` holds index tuples into ``crossings`` (single linkage at
    radius ``eps``).  ``multiplicity`` is the largest number of distinct
    local curve branches running through any one cluster, or 1 when the
    curve has no crossings at all.
    """

    crossings: Tuple[Crossing, ...]
    clusters: Tuple[Tuple[int, ...], ...]
    multiplicity: int
    eps: float

    def __post_init__(self):
        if self.multiplicity < 1:
            raise RejectedInputError("multiplicity must be at least 1")
        if (self.multiplicity == 1) != (len(self.crossings) == 0):
            raise RejectedInputError(
                "multiplicity 1 must coincide with an empty crossing list"
            )
        seen = sorted(i for cluster in self.clusters for i in cluster)
        if seen != list(range(len(self.crossings))):
            raise RejectedInputError("clusters must partition the crossing indices")


def _candidate_pairs(starts: np.ndarray, ends: np.ndarray, eps: float,
                     excluded_gap: int) -> np.ndarray:
    """Index pairs (i < j, circular gap > excluded_gap) whose inflated boxes overlap.

    Sort and sweep along x: with the boxes ordered by their left edge, the
    boxes at sweep positions a+1 .. stop[a]-1 are exactly those that start no
    earlier than box a and overlap it in x, so each x-overlapping pair is
    met once, at its first position.  The pairs come out in no fixed order.
    """
    n = starts.shape[0]
    lo = np.minimum(starts, ends)
    lo -= eps
    hi = np.maximum(starts, ends)
    hi += eps
    order = lo[:, 0].argsort(kind="stable")
    lo_x, lo_y = lo[:, 0][order], lo[:, 1][order]
    hi_x, hi_y = hi[:, 0][order], hi[:, 1][order]
    stop = lo_x.searchsorted(hi_x, side="right")
    out: List[np.ndarray] = []
    for pos0 in range(0, n, _ROW_BLOCK):
        pos = np.arange(pos0, min(pos0 + _ROW_BLOCK, n))
        run = stop[pos0:pos0 + _ROW_BLOCK] - pos - 1
        # position a pairs with b = a + 1 .. stop[a] - 1, on the block rows
        # cumsum(run)[a] - run[a] onwards, so b is the row plus first_b[a]
        first_b = pos + 1 + run - run.cumsum()
        aa = pos.repeat(run)
        bb = np.arange(aa.size) + first_b.repeat(run)
        i, j = order[aa], order[bb]
        ii, jj = np.minimum(i, j), np.maximum(i, j)
        gap = jj - ii
        keep = ((lo_y[bb] <= hi_y[aa]) & (lo_y[aa] <= hi_y[bb])
                & (gap > excluded_gap) & (gap < n - excluded_gap))
        if keep.any():
            out.append(np.stack([ii[keep], jj[keep]], axis=1))
    if not out:
        return np.zeros((0, 2), dtype=int)
    return np.concatenate(out, axis=0)


def _point_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Distance and foot of each point p[i] on its segment a[i]-b[i]."""
    d = b - a
    len2 = np.einsum("ij,ij->i", d, d)
    t = np.einsum("ij,ij->i", p - a, d) / np.where(len2 > 0.0, len2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    foot = a + t[:, None] * d
    return _row_norms(p - foot), foot


def _pair_contacts(starts: np.ndarray, ends: np.ndarray,
                   pairs: np.ndarray, eps: float):
    """Exact segment-pair distances for the candidates; contacts within eps.

    Non-intersecting segments attain their minimum distance at an endpoint
    of one of them, so the distance is the proper-crossing test plus four
    endpoint-to-segment projections, made in one pass over the endpoints
    stacked slot by slot; no iterative clamping involved.
    """
    m = pairs.shape[0]
    a, b = starts[pairs[:, 0]], ends[pairs[:, 0]]
    c, d = starts[pairs[:, 1]], ends[pairs[:, 1]]
    ab, cd = b - a, d - c

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    d1 = cross(cd, a - c)
    d2 = cross(cd, b - c)
    d3 = cross(ab, c - a)
    d4 = cross(ab, d - a)
    proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)

    # slot s holds rows s*m .. s*m + m - 1: a and b on cd, then c and d on ab
    base = np.concatenate((a, b, c, d))
    cand_dist, cand_foot = _point_segment(base, np.concatenate((c, c, a, a)),
                                          np.concatenate((d, d, b, b)))
    best = np.argmin(cand_dist.reshape(4, m), axis=0) * m + np.arange(m)
    dist = cand_dist[best]
    point = 0.5 * (base[best] + cand_foot[best])

    # proper crossings: exact line-line intersection, distance zero.  The
    # signed areas d1, d2 interpolate linearly along ab, vanishing at the hit.
    denom = d1 - d2
    safe = np.where(proper & (denom != 0.0), denom, 1.0)
    s = d1 / safe
    hit = a + ab * s[:, None]
    dist = np.where(proper, 0.0, dist)
    point = np.where(proper[:, None], hit, point)

    keep = dist <= eps
    return pairs[keep], point[keep]


def _single_linkage(points: np.ndarray, eps: float) -> List[List[int]]:
    count = points.shape[0]
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(count):
        d = np.linalg.norm(points[i + 1:] - points[i], axis=1)
        for off in np.nonzero(d <= eps)[0]:
            ri, rj = find(i), find(i + 1 + int(off))
            if ri != rj:
                parent[rj] = ri
    groups: dict = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _branch_count(segment_indices, n: int) -> int:
    """Distinct local branches: maximal runs of circularly consecutive segments."""
    segs = sorted(set(segment_indices))
    if not segs:
        return 0
    runs = 1
    for prev, cur in zip(segs, segs[1:]):
        if cur - prev > 1:
            runs += 1
    # wraparound: last and first segment adjacent on the circle means one run
    if runs > 1 and (segs[0] + n) - segs[-1] <= 1:
        runs -= 1
    return runs


def find_crossings(curve: SampledCurve, eps: Optional[float] = None) -> CrossingSet:
    """Locate all self-contacts of the polygonal trace and measure multiplicity.

    ``eps`` is the contact tolerance; defaults to 1e-6 of the curve length,
    scale-invariant.  Crossings closer than eps to each other merge into one
    cluster, and the cluster's multiplicity is the number of distinct runs
    of consecutive segments meeting there.

    Segments within arc distance 4 eps of each other are the same local
    branch (the curve cannot leave the contact ball and return that fast),
    so such pairs are never contacts; at the default eps this reduces to
    excluding the vertex-sharing neighbors.
    """
    if eps is None:
        eps = 1e-6 * curve.length()
    _real_arg("eps", eps, positive=True)
    h = curve.length() / curve.n
    excluded_gap = max(1, int(math.ceil(4.0 * eps / h)))
    if excluded_gap >= curve.n // 2:
        raise RejectedInputError(
            "eps is so large that every segment pair counts as one branch; "
            "refine the curve or shrink eps"
        )
    starts = curve.vertices
    ends = _shift(starts, 1)
    pairs = _candidate_pairs(starts, ends, eps, excluded_gap)
    if pairs.shape[0] == 0:
        return CrossingSet(crossings=(), clusters=(), multiplicity=1, eps=eps)
    pairs, points = _pair_contacts(starts, ends, pairs, eps)
    if pairs.shape[0] == 0:
        return CrossingSet(crossings=(), clusters=(), multiplicity=1, eps=eps)

    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs, points = pairs[order], points[order]
    crossings = tuple(
        Crossing(point=(float(p[0]), float(p[1])),
                 segments=(int(i), int(j)))
        for p, (i, j) in zip(points, pairs)
    )
    clusters = _single_linkage(points, eps)
    # A cluster exists only because arc-separated segments touched, so it
    # holds at least two branches even when an eps-thick band of contacts
    # fills in the index range between them and the runs merge.
    branches = [
        max(2, _branch_count([s for idx in members for s in crossings[idx].segments],
                             curve.n))
        for members in clusters
    ]
    return CrossingSet(
        crossings=crossings,
        clusters=tuple(tuple(members) for members in clusters),
        multiplicity=max(branches) if branches else 1,
        eps=eps,
    )


def crossing_set_dict(cs: CrossingSet) -> dict:
    """The crossing set's fields and the resolution caveat, for json.dumps."""
    return {**asdict(cs), "caveat": _RESOLUTION_CAVEAT}
