"""Curve construction, metrics, and resampling against closed-form oracles."""

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

from curvediffusion import geometry
from curvediffusion.errors import (
    DegenerateGeometryError,
    NonUniformParametrizationError,
    RejectedInputError,
)
from curvediffusion.flow import FlowConfig, run
from curvediffusion.geometry import (
    SPREAD_TOL,
    UNIFORM_IN_ARCLENGTH,
    SampledCurve,
    ShapeSpec,
    curvature_derivatives,
    curvature_profile,
    curve_integral,
    generate,
    hausdorff_distance,
    metrics,
    read_curve_csv,
    resample_uniform,
    turning_number,
    write_curve_csv,
)


def uniform(spec: ShapeSpec, n: int) -> SampledCurve:
    return resample_uniform(generate(spec, n))


def ellipse_perimeter(a: float, b: float) -> float:
    # complete elliptic integral route, independent of chord summation
    big, small = max(a, b), min(a, b)
    return float(4.0 * big * ellipe(1.0 - (small / big) ** 2))


class TestGeneratedShapes:
    def test_circle_metrics_match_closed_forms(self):
        m = metrics(uniform(ShapeSpec("circle", radius=2.0), 256))
        assert abs(m.length - 4.0 * math.pi) <= 1e-3
        assert abs(m.signed_area - 4.0 * math.pi) <= 5e-3
        assert m.winding_number == 1
        assert abs(m.average_curvature - 0.5) <= 1e-4
        assert abs(m.min_curvature - 0.5) <= 1e-4
        assert m.osc_energy <= 1e-6
        assert 1.0 <= m.isoperimetric_ratio <= 1.0 + 1e-3

    def test_ellipse_perimeter_against_elliptic_integral(self):
        m = metrics(uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 1024))
        exact = ellipse_perimeter(1.5, 2.0 / 3.0)
        assert abs(m.length - exact) / exact <= 1e-4

    def test_ellipse_curvature_extremes(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 512)
        k = curvature_profile(curve)
        a, b = 1.5, 2.0 / 3.0
        assert abs(k.max() - a / b**2) / (a / b**2) <= 1e-3
        assert abs(k.min() - b / a**2) / (b / a**2) <= 1e-3
        assert abs(metrics(curve).min_curvature - k.min()) <= 1e-12

    def test_circle_curvature_sign_convention(self):
        # counterclockwise circle has positive curvature with the inward normal
        k = curvature_profile(uniform(ShapeSpec("circle", radius=1.0), 128))
        assert np.all(k > 0.9)

    def test_limacon_winding(self):
        curve = uniform(ShapeSpec("limacon", offset=0.5, scale=1.0), 512)
        assert turning_number(curve) == 2
        assert metrics(curve).winding_number == 2

    def test_lemniscate_winding_and_area(self):
        m = metrics(uniform(ShapeSpec("lemniscate", scale=1.0), 512))
        assert m.winding_number == 0
        assert abs(m.signed_area) <= 1e-10
        assert m.isoperimetric_ratio is None
        assert m.min_curvature < 0.0

    def test_convex_limacon_winds_once(self):
        assert turning_number(uniform(ShapeSpec("limacon", offset=1.5, scale=1.0), 512)) == 1

    def test_doubly_traversed_circle(self):
        # same vertex spacing as the n=256 single cover
        j = np.arange(512)
        pts = np.column_stack([np.cos(4.0 * math.pi * j / 512),
                               np.sin(4.0 * math.pi * j / 512)])
        m = metrics(SampledCurve(pts, param=UNIFORM_IN_ARCLENGTH))
        assert m.winding_number == 2
        assert abs(m.length - 4.0 * math.pi) <= 2e-3
        assert abs(m.average_curvature - 1.0) <= 1e-3
        assert m.osc_energy <= 1e-6

    def test_doubly_traversed_circle_coarse(self):
        # at 256 total vertices the spacing doubles and the curvature
        # quadrature floor rises ~16x; the energy stays at that floor
        j = np.arange(256)
        pts = np.column_stack([np.cos(4.0 * math.pi * j / 256),
                               np.sin(4.0 * math.pi * j / 256)])
        m = metrics(SampledCurve(pts, param=UNIFORM_IN_ARCLENGTH))
        assert m.winding_number == 2
        assert abs(m.average_curvature - 1.0) <= 1e-3
        assert m.osc_energy <= 4e-6


class TestInvariances:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        freq=st.integers(min_value=2, max_value=5),
        amplitude=st.floats(min_value=0.01, max_value=0.06),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_scaling_covariance(self, scale, freq, amplitude, phase):
        spec = ShapeSpec("fourier-perturbed-circle", r0=1.0,
                         modes=((freq, amplitude, phase),))
        curve = uniform(spec, 128)
        scaled = SampledCurve(scale * curve.vertices, param=curve.param)
        m0, m1 = metrics(curve), metrics(scaled)

        def rel(x, y):
            return abs(x - y) / max(abs(x), abs(y))

        assert rel(m1.length, scale * m0.length) <= 1e-8
        assert rel(m1.signed_area, scale**2 * m0.signed_area) <= 1e-8
        assert m1.winding_number == m0.winding_number
        assert rel(m1.isoperimetric_ratio, m0.isoperimetric_ratio) <= 1e-8
        assert rel(m1.osc_energy, m0.osc_energy) <= 1e-8

    def test_orientation_reversal(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        reversed_curve = SampledCurve(curve.vertices[::-1].copy(),
                                      param=curve.param)
        m, mr = metrics(curve), metrics(reversed_curve)
        assert mr.winding_number == -m.winding_number
        assert abs(mr.signed_area + m.signed_area) <= 1e-12
        assert abs(mr.length - m.length) <= 1e-12
        assert abs(mr.osc_energy - m.osc_energy) <= 1e-9 * m.osc_energy + 1e-15
        k = curvature_profile(curve)
        kr = curvature_profile(reversed_curve)
        assert np.allclose(kr, -k[::-1], atol=1e-9)

    def test_wirtinger_consistency_of_curvature_deviation(self, ellipse_run):
        # the oscillation energy never exceeds what the mean-free bound
        # allows for the curvature deviation, on fresh and evolved curves.
        # A fully relaxed curve sits on the osc-energy quadrature floor
        # (about h^4) while its k_s energy cancels far below it, so the
        # comparison needs that floor as absolute slack
        fresh = uniform(ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                  modes=((4, 0.05, 0.3),)), 256)
        evolved = run(fresh, FlowConfig(n=256, dt=1e-4, max_steps=200)
                      ).final_state.curve
        curves = [
            uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256),
            uniform(ShapeSpec("limacon", offset=1.5, scale=1.0), 256),
            fresh,
            evolved,
            ellipse_run.result.final_state.curve,
        ]
        for curve in curves:
            m = metrics(curve)
            bound = m.length**3 / (4.0 * math.pi**2) * m.ks_norm_sq
            assert m.osc_energy <= bound * 1.01 + 5e-8

    def test_sup_bound_of_curvature_deviation(self):
        for spec in (ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0),
                     ShapeSpec("fourier-perturbed-circle", r0=1.0,
                               modes=((3, 0.08, 0.0),))):
            curve = uniform(spec, 256)
            m = metrics(curve)
            k = curvature_profile(curve)
            dev = float(np.max(np.abs(k - m.average_curvature)))
            assert dev**2 <= m.length / (2.0 * math.pi) * m.ks_norm_sq * 1.01


class TestRefinement:
    @staticmethod
    def _order(errors):
        return math.log2(errors[0] / errors[1])

    def test_circle_length_and_area_second_order(self):
        errs_l, errs_a = [], []
        for n in (256, 512):
            m = metrics(uniform(ShapeSpec("circle", radius=1.0), n))
            errs_l.append(abs(m.length - 2.0 * math.pi))
            errs_a.append(abs(m.signed_area - math.pi))
        assert self._order(errs_l) >= 1.9
        assert self._order(errs_a) >= 1.9

    def test_ellipse_length_second_order(self):
        exact = ellipse_perimeter(1.5, 2.0 / 3.0)
        errs = [abs(metrics(uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), n)).length - exact)
                for n in (256, 512)]
        assert self._order(errs) >= 1.9

    def test_circle_curvature_is_exact(self):
        # the chord-length stencil reproduces a regular polygon's curvature
        # identically, so the circle shows rounding only, at any count
        for n in (64, 256):
            k = curvature_profile(uniform(ShapeSpec("circle", radius=1.0), n))
            assert float(np.max(np.abs(k - 1.0))) <= 1e-11

    def test_ellipse_curvature_extreme_second_order(self):
        errs = []
        for n in (128, 256):
            k = curvature_profile(uniform(ShapeSpec("ellipse", a=2.0, b=1.0), n))
            errs.append(abs(float(np.max(k)) - 2.0))
        assert self._order(errs) >= 1.9


class TestResampling:
    def test_produces_uniform_chords(self):
        curve = resample_uniform(generate(ShapeSpec("ellipse", a=2.0, b=1.0), 256))
        assert curve.is_uniform()
        assert curve.chord_spread() <= 1e-6

    def test_preserves_trace(self):
        # the resampled points ride a smooth interpolant, so they sit off
        # the raw chords by O(h^2) near the fast vertex; the gap must both
        # stay small and shrink at second order
        gaps = []
        for n in (256, 512):
            raw = generate(ShapeSpec("ellipse", a=2.0, b=1.0), n)
            gaps.append(hausdorff_distance(raw, resample_uniform(raw)))
        assert gaps[1] <= 2e-4
        assert gaps[0] / gaps[1] >= 3.0

    def test_changes_vertex_count(self):
        curve = resample_uniform(generate(ShapeSpec("circle", radius=1.0), 256), 512)
        assert curve.n == 512
        assert curve.is_uniform()

    def test_idempotent_on_uniform_input(self):
        once = resample_uniform(generate(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256))
        again = resample_uniform(once)
        assert float(np.max(np.abs(again.vertices - once.vertices))) <= 1e-9

    def test_stops_at_rounding_level_on_fine_mesh(self, monkeypatch):
        # at n = 4096 rounding keeps the spread above the 1e-12 target, so
        # the iteration must stop once the spread stops halving
        evals = []
        evaluate = geometry._evaluate_spline

        def counting(*args):
            evals.append(1)
            return evaluate(*args)

        monkeypatch.setattr(geometry, "_evaluate_spline", counting)
        spec = ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((2, 0.01, 0.0),))
        curve = resample_uniform(generate(spec, 4096))
        assert len(evals) <= 3
        assert curve.chord_spread() <= 0.5 * SPREAD_TOL

    def test_nonconverging_spread_raises(self):
        # the periodic spline through a random point cloud loops back on
        # itself, and no placement of 16 vertices on it has equal chords
        pts = np.random.default_rng(0).standard_normal((16, 2))
        with pytest.raises(DegenerateGeometryError, match="did not converge"):
            resample_uniform(SampledCurve(pts))


class TestSplineKernel:
    """The private periodic spline equals scipy's CubicSpline bitwise."""

    @staticmethod
    def knots_and_points(n):
        rng = np.random.default_rng(n)
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
        y = rng.standard_normal((n, 2))
        y[-1] = y[0]
        return x, y

    @pytest.mark.parametrize("n", [16, 17, 256, 4096])
    def test_matches_scipy_periodic_cubic_spline(self, n):
        from scipy.interpolate import CubicSpline

        x, y = self.knots_and_points(n)
        reference = CubicSpline(x, y, axis=0, bc_type="periodic")
        coeffs = geometry._periodic_spline(x, y)
        assert np.array_equal(coeffs, reference.c)
        u = np.random.default_rng(n + 1).uniform(0.0, x[-1], 3 * n)
        u = np.concatenate([u, x[:-1], [np.nextafter(x[-1], 0.0)]])
        assert np.array_equal(geometry._evaluate_spline(x, coeffs, u), reference(u))

    def test_chord_below_knot_rounding_raises(self):
        # a chord of one ulp vanishes in the cumulative length near pi, so
        # two spline knots coincide
        pts = generate(ShapeSpec("circle", radius=1.0), 32).vertices
        twin = [np.nextafter(pts[16, 0], 0.0), pts[16, 1]]
        curve = SampledCurve(np.insert(pts, 17, twin, axis=0))
        with pytest.raises(DegenerateGeometryError, match="increase strictly"):
            resample_uniform(curve)


def _shift(a, k):
    """Row i of the result is row i + k of a (periodic)."""
    return np.concatenate((a[k:], a[:k]))


class TestPaddedStencils:
    """The stencils that read one padded copy of their array are bitwise the
    two-sided shifted formulas they replace, kept here as the oracle."""

    @staticmethod
    def oracle_frames(pts, h):
        fwd, bwd = _shift(pts, 1), _shift(pts, -1)
        d1 = (fwd - bwd) / (2.0 * h)
        d2 = (fwd - 2.0 * pts + bwd) / (h * h)
        tau = d1 / np.linalg.norm(d1, axis=1)[:, None]
        nu = np.column_stack([-tau[:, 1], tau[:, 0]])
        return tau, nu, d2[:, 0] * nu[:, 0] + d2[:, 1] * nu[:, 1]

    @staticmethod
    def polygon(kind, n):
        t = 2.0 * np.pi * np.arange(n) / n
        r = 1.5
        if kind == "jittered":
            r = r + 0.05 * np.random.default_rng(n).uniform(-1.0, 1.0, n)
        return np.column_stack([r * np.cos(t), r * np.sin(t)])

    @pytest.mark.parametrize("kind", ["circle", "jittered"])
    @pytest.mark.parametrize("n", [16, 17, 256, 4096])
    def test_stencils_match_shifted_formulas(self, kind, n, monkeypatch):
        from curvediffusion.flow import _apply_cyclic_pentadiagonal

        pts = self.polygon(kind, n)
        seg = geometry._chord_lengths(pts)
        # numpy's float64 mean is the same add.reduce and one division
        assert seg.sum() / n == seg.mean()
        h = float(seg.mean())
        tau, nu, k = self.oracle_frames(pts, h)
        for got, want in zip(geometry._frames(pts, h), (tau, nu, k)):
            assert np.array_equal(got, want)
        padded = np.concatenate((pts[-1:], pts, pts[:1]))
        normals_only = geometry._tangents(padded, h)
        for got, want in zip(normals_only, (tau, nu)):
            assert np.array_equal(got, want)

        curve = SampledCurve(pts)
        L = curve.length()
        hk = L / n
        m, ks = geometry._metrics(curve, k)
        want_ks = (_shift(k, 1) - _shift(k, -1)) / (2.0 * hk)
        want_kss = (_shift(k, 1) - 2.0 * k + _shift(k, -1)) / (hk * hk)
        assert np.array_equal(ks, want_ks)
        assert m.ks_norm_sq == float(np.sum(want_ks * want_ks)) * hk
        assert m.kss_norm_sq == float(np.sum(want_kss * want_kss)) * hk
        if kind == "circle":
            uniform_curve = SampledCurve(pts, param=UNIFORM_IN_ARCLENGTH)
            k_u = curvature_profile(uniform_curve)
            hu = uniform_curve.length() / n
            assert np.array_equal(curvature_derivatives(uniform_curve, 1),
                                  (_shift(k_u, 1) - _shift(k_u, -1)) / (2.0 * hu))
            assert np.array_equal(curvature_derivatives(uniform_curve, 2),
                                  (_shift(k_u, 1) - 2.0 * k_u + _shift(k_u, -1))
                                  / (hu * hu))

        # the turning angles reach arctan2 bitwise as the shifted edges give them
        seen = []
        arctan2 = np.arctan2
        monkeypatch.setattr(
            np, "arctan2", lambda y, x: seen.append((y, x)) or arctan2(y, x))
        assert turning_number(curve) == 1
        e = _shift(pts, 1) - pts
        prev = _shift(e, -1)
        (cross, dot), = seen
        assert np.array_equal(cross, prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0])
        assert np.array_equal(dot, prev[:, 0] * e[:, 0] + prev[:, 1] * e[:, 1])

        x = np.random.default_rng(n + 1).standard_normal((n, 2))
        for c in (0.0, 0.3, 1e6 * n ** 4):
            want = x + c * (_shift(x, -2) - 4.0 * _shift(x, -1) + 6.0 * x
                            - 4.0 * _shift(x, 1) + _shift(x, 2))
            assert np.array_equal(_apply_cyclic_pentadiagonal(c, x), want)


class TestCurveCache:
    """A curve computes its frames, area, metrics and k_s on first use and
    keeps them read-only, outside the constructor, repr and ==."""

    def test_kept_values_equal_a_fresh_computation_and_are_read_only(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 128)
        h = curve.length() / curve.n
        fresh = geometry._frames(curve.vertices, h)
        m, ks = geometry._metrics(curve, fresh[2])
        assert metrics(curve) == m
        assert np.array_equal(curvature_derivatives(curve, 1), ks)
        assert np.array_equal(curvature_profile(curve), fresh[2])
        assert curve._area == geometry.signed_area(curve)
        assert curve.length() == float(geometry._chord_lengths(curve.vertices).sum())
        kept = (*curve._frames_h, curve._measured[1], curvature_profile(curve),
                curvature_derivatives(curve, 1))
        for got, want in zip(curve._frames_h, fresh):
            assert np.array_equal(got, want)
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # repeated queries return the kept objects themselves
        assert metrics(curve) is metrics(curve)
        assert curvature_profile(curve) is curve._frames_h[2]

    def test_cache_stays_out_of_repr_and_equality(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 32)
        twin = SampledCurve(curve.vertices, param=curve.param)
        before = repr(curve)
        metrics(curve)
        assert repr(curve) == before == repr(twin)
        assert "_measured" in vars(curve) and "_measured" not in vars(twin)
        # == and repr read only these fields, and the constructor takes
        # only them and the chords
        fields = dataclasses.fields(SampledCurve)
        assert [f.name for f in fields if f.compare] == ["vertices", "param"]
        assert [f.name for f in fields if f.repr] == ["vertices", "param"]
        assert [f.name for f in fields if f.init] == ["vertices", "param"]


class TestHausdorff:
    @staticmethod
    def direct(pts, poly):
        # one point at a time, no blocking
        d = np.roll(poly, -1, axis=0) - poly
        len2 = np.einsum("ij,ij->i", d, d)
        best = []
        for q in pts:
            t = np.clip(np.einsum("mi,mi->m", q - poly, d) / len2, 0.0, 1.0)
            best.append(np.linalg.norm(q - (poly + t[:, None] * d), axis=1).min())
        return max(best)

    @pytest.mark.parametrize("block", [7, 128])
    def test_row_blocks_match_per_point_loop(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "_DIST_ROW_BLOCK", block)
        a = generate(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 300)
        b = generate(ShapeSpec("limacon", offset=1.3, scale=1.1), 200)
        expected = max(self.direct(a.vertices, b.vertices),
                       self.direct(b.vertices, a.vertices))
        assert hausdorff_distance(a, b) == expected


class TestQuadratureAndProfiles:
    def test_integral_of_one_is_length(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        assert abs(curve_integral(curve, np.ones(curve.n)) - curve.length()) <= 1e-12

    def test_total_turning(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 512)
        total = curve_integral(curve, curvature_profile(curve))
        assert abs(total - 2.0 * math.pi) / (2.0 * math.pi) <= 1e-4

    def test_curvature_derivative_scale(self):
        # k_s on a circle vanishes to rounding; k_ss likewise
        curve = uniform(ShapeSpec("circle", radius=1.0), 256)
        assert float(np.max(np.abs(curvature_derivatives(curve, 1)))) <= 1e-8
        assert float(np.max(np.abs(curvature_derivatives(curve, 2)))) <= 1e-6

    def test_rejects_parameter_uniform_input(self):
        raw = generate(ShapeSpec("lemniscate", scale=1.0), 256)
        with pytest.raises(NonUniformParametrizationError):
            curvature_profile(raw)
        with pytest.raises(NonUniformParametrizationError):
            metrics(raw)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(RejectedInputError):
            ShapeSpec("astroid")

    def test_nonpositive_dimensions(self):
        with pytest.raises(RejectedInputError):
            ShapeSpec("circle", radius=0.0)
        with pytest.raises(RejectedInputError):
            ShapeSpec("ellipse", a=1.0, b=-1.0)
        with pytest.raises(RejectedInputError):
            ShapeSpec("limacon", offset=0.0)

    def test_mode_frequencies_must_be_positive_integers(self):
        with pytest.raises(RejectedInputError):
            ShapeSpec("fourier-perturbed-circle", modes=((0, 0.1, 0.0),))

    def test_minimum_vertex_count(self):
        with pytest.raises(RejectedInputError):
            generate(ShapeSpec("circle", radius=1.0), 8)

    def test_curve_constructor_rejects_bad_vertices(self):
        with pytest.raises(RejectedInputError):
            SampledCurve(np.zeros((4, 2)))
        bad = np.ones((32, 2))
        bad[3] = np.nan
        with pytest.raises(RejectedInputError):
            SampledCurve(bad)

    def test_overflowing_chords_rejected(self):
        # squared chords of a radius-1e200 polygon overflow; the curve must
        # not be accepted with an infinite length and a NaN chord spread
        t = 2.0 * np.pi * np.arange(64) / 64
        pts = 1e200 * np.column_stack([np.cos(t), np.sin(t)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectedInputError, match="chord lengths overflow"):
                SampledCurve(pts, param=UNIFORM_IN_ARCLENGTH)
            with pytest.raises(RejectedInputError, match="chord lengths overflow"):
                generate(ShapeSpec("circle", radius=1e200), 64)

    def test_chord_cache(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=0.5), 64)
        seg = curve.segment_lengths()
        assert np.array_equal(seg, geometry._chord_lengths(curve.vertices))
        with pytest.raises(ValueError):
            seg[0] = 1.0
        # same vertices and label, another cache array: still equal
        twin = copy.copy(curve)
        object.__setattr__(twin, "_chords", seg.copy())
        assert twin == curve
        assert "_chords" not in repr(curve)

    def test_handed_over_chords_are_validated(self):
        # resample_uniform builds its curve from the chords it measured; they
        # go through the checks that measured chords go through
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=0.5), 64)
        seg = curve.segment_lengths()
        for bad, match in ((0.0, "must not coincide"), (np.inf, "overflow"),
                           (2.0 * seg[0], "chord spread")):
            chords = seg.copy()
            chords[3] = bad
            with pytest.raises(RejectedInputError, match=match):
                SampledCurve(curve.vertices, param=UNIFORM_IN_ARCLENGTH,
                             chords=chords)


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        curve = uniform(ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                  modes=((2, 0.03, 0.4),)), 128)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert np.array_equal(back.vertices, curve.vertices)
        assert back.param == curve.param

    def test_csv_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\nnot,numbers\n")
        with pytest.raises((RejectedInputError, ValueError)):
            read_curve_csv(path)
