"""Self-contact detection against geometric oracles and relabeling gauges."""

import json
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
    crossing_set_to_json,
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
        a = crossing_set_to_json(find_crossings(curve))
        b = crossing_set_to_json(find_crossings(curve))
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

    @pytest.mark.parametrize("spec", [ShapeSpec("lemniscate", scale=1.0),
                                      ShapeSpec("limacon", offset=0.5)])
    def test_crossing_json_unchanged_at_4096(self, monkeypatch, spec):
        curve = uniform(spec, 4096)
        swept = crossing_set_to_json(find_crossings(curve))
        monkeypatch.setattr(intersections, "_candidate_pairs",
                            all_pairs_candidates)
        assert swept == crossing_set_to_json(find_crossings(curve))
        assert json.loads(swept)["multiplicity"] == 2


class TestValidation:
    def test_eps_must_be_positive(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 128)
        for eps in (0.0, -1e-3, "x", True, math.nan):
            with pytest.raises(RejectedInputError, match="^eps"):
                find_crossings(curve, eps=eps)

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
    def test_json_schema_and_determinism(self):
        cs = find_crossings(uniform(ShapeSpec("lemniscate", scale=1.0), 256))
        text = crossing_set_to_json(cs)
        assert text == crossing_set_to_json(cs)
        payload = json.loads(text)
        assert set(payload) == {"eps", "multiplicity", "crossings",
                                "clusters", "caveat"}
        assert payload["multiplicity"] == 2
        assert len(payload["crossings"]) == len(cs.crossings)
        for entry in payload["crossings"]:
            assert set(entry) == {"point", "segments"}

    def test_fixed_crossing_set_serializes_to_its_literal(self):
        cs = CrossingSet(
            crossings=(Crossing(point=(0.5, -0.25), segments=(3, 17)),
                       Crossing(point=(0.5, -0.2), segments=(4, 16))),
            clusters=((0, 1),), multiplicity=2, eps=0.001,
        )
        assert crossing_set_to_json(cs) == (
            '{"caveat":"contacts within eps count as crossings; touching and '
            'crossing are indistinguishable below the sampling resolution",'
            '"clusters":[[0,1]],'
            '"crossings":[{"point":[0.5,-0.25],"segments":[3,17]},'
            '{"point":[0.5,-0.2],"segments":[4,16]}],'
            '"eps":0.001,"multiplicity":2}'
        )
