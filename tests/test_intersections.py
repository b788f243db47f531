"""Self-contact detection against geometric oracles and relabeling gauges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvediffusion import intersections
from curvediffusion.errors import RejectedInputError
from curvediffusion.geometry import ShapeSpec, generate, resample_uniform
from curvediffusion.intersections import (
    Crossing,
    CrossingSet,
    crossing_set_dict,
    find_crossings,
)


def uniform(spec: ShapeSpec, n: int):
    return resample_uniform(generate(spec, n))


def _seg_dist(p: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    d = ends - starts
    w = p[None, :] - starts
    denom = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", w, d)
                / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    proj = starts + t[:, None] * d
    return np.linalg.norm(p[None, :] - proj, axis=1)


def _seg_foot(p: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    d = end - start
    denom = float(d @ d)
    t = float((p - start) @ d) / (denom if denom != 0.0 else 1.0)
    return start + min(max(t, 0.0), 1.0) * d


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Twice the signed area of the triangle p, q, r."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def probe_multiplicity(curve, eps: float) -> int:
    """Independent multiplicity count: probe every vertex and midpoint,
    collect the segments within eps, and count circular index runs that are
    separated by more than the arc-exclusion gap."""
    pts = curve.vertices
    n = curve.n
    starts = pts
    ends = np.roll(pts, -1, axis=0)
    probes = np.vstack([pts, 0.5 * (starts + ends)])
    h = curve.length() / n
    gap = max(1, int(math.ceil(4.0 * eps / h)))
    best = 1
    for p in probes:
        near = np.nonzero(_seg_dist(p, starts, ends) <= eps)[0]
        if near.size == 0:
            continue
        idx = sorted(int(i) for i in near)
        breaks = sum(1 for a, b in zip(idx, idx[1:] + [idx[0] + n])
                     if b - a > gap)
        best = max(best, max(1, breaks))
    return best


def all_pairs_candidates(starts: np.ndarray, ends: np.ndarray, eps: float,
                         excluded_gap: int) -> np.ndarray:
    """The all-pairs box test the sweep replaced: every row of boxes against
    every column, in row blocks of 512."""
    n = starts.shape[0]
    lo = np.minimum(starts, ends) - eps
    hi = np.maximum(starts, ends) + eps
    out = []
    for row0 in range(0, n, 512):
        rows = np.arange(row0, min(row0 + 512, n))
        overlap = (
            (lo[rows, None, 0] <= hi[None, :, 0])
            & (lo[None, :, 0] <= hi[rows, None, 0])
            & (lo[rows, None, 1] <= hi[None, :, 1])
            & (lo[None, :, 1] <= hi[rows, None, 1])
        )
        ii, jj = np.nonzero(overlap)
        ii = rows[ii]
        keep = jj > ii
        ii, jj = ii[keep], jj[keep]
        gap = jj - ii
        keep = (gap > excluded_gap) & (gap < n - excluded_gap)
        out.append(np.stack([ii[keep], jj[keep]], axis=1))
    return np.concatenate(out, axis=0)


def pair_set(pairs: np.ndarray) -> set:
    found = set(map(tuple, pairs.tolist()))
    assert len(found) == pairs.shape[0], "a pair was reported twice"
    return found


@st.composite
def sweep_inputs(draw):
    """Polygons that stress the sweep: coordinates on a coarse grid (many
    ties in the boxes' left edges), zigzags whose boxes all overlap in x,
    and free floats; with eps from tiny to larger than the polygon."""
    n = draw(st.integers(min_value=16, max_value=70))
    kind = draw(st.sampled_from(("grid", "zigzag", "free")))
    if kind == "grid":
        cells = st.integers(min_value=-4, max_value=4)
        pts = 0.25 * np.array(draw(st.lists(st.tuples(cells, cells),
                                            min_size=n, max_size=n)), dtype=float)
    else:
        coord = st.floats(min_value=-2.0, max_value=2.0)
        pts = np.array(draw(st.lists(st.tuples(coord, coord),
                                     min_size=n, max_size=n)))
        if kind == "zigzag":
            pts[:, 0] = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    # 0.125 makes grid boxes touch exactly: one's right edge on the next's left
    eps = draw(st.sampled_from((1e-12, 1e-3, 0.1, 0.125, 1.0, 5.0)))
    gap = draw(st.integers(min_value=1, max_value=n // 2 - 1))
    return pts, np.roll(pts, -1, axis=0), eps, gap


@st.composite
def contact_inputs(draw):
    """Segments with endpoints on a coarse grid (exact ties between the four
    endpoint distances, parallel and degenerate segments) or free floats,
    and random candidate pairs among them."""
    count = draw(st.integers(min_value=2, max_value=24))
    if draw(st.booleans()):
        cells = st.integers(min_value=-3, max_value=3)
        pts = 0.5 * np.array(draw(st.lists(st.tuples(cells, cells),
                                           min_size=2 * count,
                                           max_size=2 * count)), dtype=float)
    else:
        coord = st.floats(min_value=-2.0, max_value=2.0)
        pts = np.array(draw(st.lists(st.tuples(coord, coord),
                                     min_size=2 * count, max_size=2 * count)))
    index = st.integers(min_value=0, max_value=count - 1)
    pairs = np.array(draw(st.lists(st.tuples(index, index), min_size=1,
                                   max_size=40)), dtype=int)
    eps = draw(st.sampled_from((1e-12, 0.1, 0.5, 1.0)))
    return pts[:count], pts[count:], pairs, eps


def corpus_spec(rng: np.random.Generator, index: int) -> ShapeSpec:
    kind = index % 4
    if kind == 0:
        count = int(rng.integers(1, 3))
        modes = tuple(
            (int(rng.integers(2, 7)), float(rng.uniform(0.0, 0.08)),
             float(rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(count))
        return ShapeSpec("fourier-perturbed-circle",
                         r0=float(rng.uniform(0.7, 1.5)), modes=modes)
    if kind == 1:
        return ShapeSpec("limacon", offset=float(rng.uniform(0.3, 1.7)))
    if kind == 2:
        return ShapeSpec("lemniscate", scale=float(rng.uniform(0.5, 2.0)))
    return ShapeSpec("circle", radius=float(rng.uniform(0.5, 2.0)))


class TestKnownShapes:
    def test_circle_has_no_contacts(self):
        cs = find_crossings(uniform(ShapeSpec("circle", radius=1.0), 256))
        assert cs.multiplicity == 1
        assert cs.crossings == ()
        assert cs.clusters == ()

    def test_figure_eight_double_point(self):
        cs = find_crossings(uniform(ShapeSpec("lemniscate", scale=1.0), 256))
        assert cs.multiplicity == 2
        assert len(cs.crossings) == 4
        assert len(cs.clusters) == 1
        for crossing in cs.crossings:
            assert math.hypot(*crossing.point) <= 1e-3

    def test_inner_loop_contact_sits_at_the_pole(self):
        cs = find_crossings(uniform(ShapeSpec("limacon", offset=0.5), 512))
        assert cs.multiplicity == 2
        assert all(math.hypot(*c.point) <= 1e-2 for c in cs.crossings)

    def test_convex_shape_is_embedded(self):
        curve = uniform(ShapeSpec("limacon", offset=1.5), 512)
        assert not find_crossings(curve).crossings
        assert find_crossings(curve).multiplicity == 1

    def test_refinement_keeps_the_verdict(self):
        for n in (128, 256, 512, 1024):
            cs = find_crossings(uniform(ShapeSpec("lemniscate", scale=1.0), n))
            assert cs.multiplicity == 2
            assert len(cs.clusters) == 1


class TestGaugeInvariance:
    def test_vertex_relabeling_changes_nothing_geometric(self):
        curve = uniform(ShapeSpec("lemniscate", scale=1.0), 256)
        base = find_crossings(curve)
        for shift in (1, 17, 128):
            rolled = type(curve)(
                vertices=np.roll(curve.vertices, shift, axis=0).copy())
            cs = find_crossings(rolled)
            assert cs.multiplicity == base.multiplicity
            assert len(cs.crossings) == len(base.crossings)
            got = sorted(map(tuple, (c.point for c in cs.crossings)))
            want = sorted(map(tuple, (c.point for c in base.crossings)))
            for g, w in zip(got, want):
                assert math.hypot(g[0] - w[0], g[1] - w[1]) <= 1e-9

    def test_rigid_rotation_changes_nothing(self):
        curve = uniform(ShapeSpec("limacon", offset=0.5), 512)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        turned = type(curve)(vertices=curve.vertices @ rot.T)
        assert find_crossings(turned).multiplicity == 2

    def test_repeated_calls_are_identical(self):
        curve = uniform(ShapeSpec("lemniscate", scale=1.0), 256)
        a = crossing_set_dict(find_crossings(curve))
        b = crossing_set_dict(find_crossings(curve))
        assert a == b


class TestOracleCorpus:
    def test_probe_count_agrees_on_mixed_corpus(self):
        # the probe oracle resolves contacts down to a few vertex spacings,
        # so compare at the matched tolerance eps = 3 L / n
        rng = np.random.default_rng(42)
        for index in range(50):
            curve = resample_uniform(generate(corpus_spec(rng, index), 256))
            eps = 3.0 * curve.length() / curve.n
            cs = find_crossings(curve, eps=eps)
            assert cs.multiplicity == probe_multiplicity(curve, eps), \
                f"corpus curve {index}"

    def test_embedded_iff_multiplicity_one(self):
        rng = np.random.default_rng(9)
        for index in range(12):
            curve = resample_uniform(generate(corpus_spec(rng, index), 256))
            cs = find_crossings(curve)
            assert (not find_crossings(curve).crossings) == (cs.multiplicity == 1)

    def test_clusters_partition_the_crossings(self):
        cs = find_crossings(uniform(ShapeSpec("lemniscate", scale=1.0), 512))
        seen = sorted(i for cluster in cs.clusters for i in cluster)
        assert seen == list(range(len(cs.crossings)))


class TestCandidateSweep:
    @settings(max_examples=200, deadline=None)
    @given(sweep_inputs())
    def test_sweep_finds_the_all_pairs_set(self, case):
        starts, ends, eps, gap = case
        expected = pair_set(all_pairs_candidates(starts, ends, eps, gap))
        # blocks of 7 split every drawn n, mostly with a partial last block
        for block in (7, intersections._ROW_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(intersections, "_ROW_BLOCK", block)
                got = intersections._candidate_pairs(starts, ends, eps, gap)
            assert got.shape[1] == 2
            assert (got[:, 0] < got[:, 1]).all()
            assert pair_set(got) == expected

    @settings(max_examples=200, deadline=None)
    @given(contact_inputs())
    def test_contacts_are_the_pairs_within_eps(self, case):
        starts, ends, pairs, eps = case
        got_pairs, got_points = intersections._pair_contacts(starts, ends,
                                                             pairs, eps)
        want_pairs, want_points = [], []
        for i, j in pairs:
            a, b, c, d = starts[i], ends[i], starts[j], ends[j]
            if (_orient(c, d, a) * _orient(c, d, b) < 0.0
                    and _orient(a, b, c) * _orient(a, b, d) < 0.0):
                want_pairs.append((i, j))
                want_points.append(None)   # a proper crossing
                continue
            slots = ((a, c, d), (b, c, d), (c, a, b), (d, a, b))
            dist = [float(_seg_dist(p, s[None, :], e[None, :])[0])
                    for p, s, e in slots]
            if min(dist) <= eps:
                # the first slot at the least distance names the contact point
                p, s, e = slots[int(np.argmin(dist))]
                want_pairs.append((i, j))
                want_points.append(0.5 * (p + _seg_foot(p, s, e)))
        assert got_pairs.tolist() == [list(pair) for pair in want_pairs]
        for (i, j), got, want in zip(want_pairs, got_points, want_points):
            if want is None:
                # the hit lies on both segments, up to rounding
                scale = 1e-9 * (1.0 + float(np.abs(got).max()))
                for s, e in ((starts[i], ends[i]), (starts[j], ends[j])):
                    assert _seg_dist(got, s[None, :], e[None, :])[0] <= scale
            else:
                # the foot's rounding may differ; the slot cannot
                assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("spec", [ShapeSpec("lemniscate", scale=1.0),
                                      ShapeSpec("limacon", offset=0.5)])
    def test_crossing_set_unchanged_at_4096(self, monkeypatch, spec):
        curve = uniform(spec, 4096)
        swept = crossing_set_dict(find_crossings(curve))
        monkeypatch.setattr(intersections, "_candidate_pairs",
                            all_pairs_candidates)
        assert swept == crossing_set_dict(find_crossings(curve))
        assert swept["multiplicity"] == 2


class TestValidation:
    def test_eps_must_be_positive(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 128)
        for eps in (0.0, -1e-3, "x", True, math.nan):
            with pytest.raises(RejectedInputError, match="^eps"):
                find_crossings(curve, eps=eps)

    @pytest.mark.parametrize("big", [10 ** 400, 10 ** 5000],
                             ids=["401-digits", "5001-digits"])
    def test_eps_beyond_float_range_is_refused_by_name(self, big):
        # used to end in a bare OverflowError
        curve = uniform(ShapeSpec("circle", radius=1.0), 128)
        with pytest.raises(RejectedInputError,
                           match="^eps must be a positive finite number"):
            find_crossings(curve, eps=big)

    def test_oversized_eps_rejected(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 128)
        with pytest.raises(RejectedInputError):
            find_crossings(curve, eps=curve.length())

    def test_crossing_set_consistency_enforced(self):
        with pytest.raises(RejectedInputError):
            CrossingSet(crossings=(), clusters=(), multiplicity=0, eps=1e-6)
        with pytest.raises(RejectedInputError):
            CrossingSet(crossings=(), clusters=(), multiplicity=2, eps=1e-6)
        one = Crossing(point=(0.0, 0.0), segments=(0, 7))
        with pytest.raises(RejectedInputError):
            CrossingSet(crossings=(one,), clusters=(), multiplicity=2, eps=1e-6)
        with pytest.raises(RejectedInputError):
            CrossingSet(crossings=(one,), clusters=((0, 0),), multiplicity=2,
                        eps=1e-6)


class TestSerialization:
    def test_dict_schema_and_determinism(self):
        cs = find_crossings(uniform(ShapeSpec("lemniscate", scale=1.0), 256))
        payload = crossing_set_dict(cs)
        assert payload == crossing_set_dict(cs)
        assert set(payload) == {"eps", "multiplicity", "crossings",
                                "clusters", "caveat"}
        assert payload["multiplicity"] == 2
        assert len(payload["crossings"]) == len(cs.crossings)
        for entry in payload["crossings"]:
            assert set(entry) == {"point", "segments"}

    def test_fixed_crossing_set_dict_is_its_literal(self):
        cs = CrossingSet(
            crossings=(Crossing(point=(0.5, -0.25), segments=(3, 17)),
                       Crossing(point=(0.5, -0.2), segments=(4, 16))),
            clusters=((0, 1),), multiplicity=2, eps=0.001,
        )
        assert crossing_set_dict(cs) == {
            "caveat": "contacts within eps count as crossings; touching and "
                      "crossing are indistinguishable below the sampling resolution",
            "clusters": ((0, 1),),
            "crossings": ({"point": (0.5, -0.25), "segments": (3, 17)},
                          {"point": (0.5, -0.2), "segments": (4, 16)}),
            "eps": 0.001,
            "multiplicity": 2,
        }
