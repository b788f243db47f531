"""Curve construction, metrics, and resampling against closed-form oracles."""

import copy
import dataclasses
import math
import re
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
    SampledCurve,
    ShapeSpec,
    curvature_derivatives,
    curvature_profile,
    generate,
    metrics,
    read_curve_csv,
    resample_uniform,
    turning_number,
    write_curve_csv,
)
import references
from conftest import NOT_DEFAULT, READ_NUMBERS, SHAPE_READS, UNREAD_PAIRS
from references import hausdorff_distance


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
        m = metrics(SampledCurve(pts))
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
        m = metrics(SampledCurve(pts))
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
        scaled = SampledCurve(scale * curve.vertices)
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
        reversed_curve = SampledCurve(curve.vertices[::-1].copy())
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


def balance_integrals(d1, d2, omega):
    """The integrals of (k - kbar) k_s^2 and (k - kbar)^2 k_s^2 over a curve
    given by its first and second derivatives at N equispaced parameters,
    with k_s from the spectral derivative of k: exact to rounding for N in
    the thousands, independent of the lab's stencils."""
    n = d1.shape[0]
    speed = np.hypot(d1[:, 0], d1[:, 1])
    k = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    freq = np.fft.rfftfreq(n, 1.0 / n)
    ks = np.fft.irfft(1j * freq * np.fft.rfft(k), n) / speed
    dt = 2.0 * math.pi / n
    dev = k - 2.0 * math.pi * omega / (float(speed.sum()) * dt)
    return (float((dev * ks * ks * speed).sum()) * dt,
            float((dev * dev * ks * ks * speed).sum()) * dt)


def polar_balance_integrals(r, r1, r2, n=1 << 14):
    """balance_integrals of the once-winding polar graph r(theta), from r
    and its first two derivatives."""
    t = 2.0 * math.pi * np.arange(n) / n
    r, r1, r2, c, s = r(t), r1(t), r2(t), np.cos(t), np.sin(t)
    return balance_integrals(
        np.column_stack([r1 * c - r * s, r1 * s + r * c]),
        np.column_stack([r2 * c - 2.0 * r1 * s - r * c,
                         r2 * s + 2.0 * r1 * c - r * s]), 1)


_BALANCE_SHAPES = {
    "ellipse": ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0),
    "limacon": ShapeSpec("limacon", offset=1.5, scale=1.0),
    "fourier": ShapeSpec("fourier-perturbed-circle", r0=1.0,
                         modes=((3, 0.08, 0.3),)),
}


def _exact_balance_integrals(shape):
    if shape == "ellipse":
        a, b = 1.5, 2.0 / 3.0
        t = 2.0 * math.pi * np.arange(1 << 14) / (1 << 14)
        return balance_integrals(
            np.column_stack([-a * np.sin(t), b * np.cos(t)]),
            np.column_stack([-a * np.cos(t), -b * np.sin(t)]), 1)
    if shape == "limacon":
        return polar_balance_integrals(lambda t: 1.5 + np.cos(t),
                                       lambda t: -np.sin(t),
                                       lambda t: -np.cos(t))
    return polar_balance_integrals(
        lambda t: 1.0 + 0.08 * np.cos(3.0 * t + 0.3),
        lambda t: -0.24 * np.sin(3.0 * t + 0.3),
        lambda t: -0.72 * np.cos(3.0 * t + 0.3))


class TestBalanceIntegrals:
    """The oscillation-balance integrals int_dev_ks2 and int_dev2_ks2 of
    CurveMetrics against closed forms, their bounds and their symmetries."""

    @pytest.mark.parametrize("n", [16, 17, 256, 4096])
    def test_circle_integrals_vanish(self, n):
        # a regular polygon's curvature is constant up to rounding
        m = metrics(uniform(ShapeSpec("circle", radius=1.0), n))
        assert abs(m.int_dev_ks2) <= 1e-20
        assert 0.0 <= m.int_dev2_ks2 <= 1e-25

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("shape", ["ellipse", "limacon", "fourier"])
    def test_integrals_converge_at_second_order(self, shape, n):
        exact = _exact_balance_integrals(shape)
        got = [metrics(uniform(_BALANCE_SHAPES[shape], m)) for m in (n, 2 * n)]
        for i, name in enumerate(("int_dev_ks2", "int_dev2_ks2")):
            errs = [abs(getattr(m, name) - exact[i]) / abs(exact[i]) for m in got]
            assert errs[0] <= 0.06
            assert TestRefinement._order(errs) >= 1.9

    @pytest.mark.parametrize("spec", [
        ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0),
        ShapeSpec("limacon", offset=0.5, scale=1.0),
        ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((4, 0.05, 0.3),)),
        ShapeSpec("lemniscate", scale=1.0),
    ], ids=["ellipse", "limacon-twice", "fourier", "lemniscate"])
    def test_integrals_are_bounded_by_the_ks_norm(self, spec):
        # |sum dev ks^2 h| <= max|dev| sum ks^2 h, and likewise with dev^2
        curve = uniform(spec, 256)
        m = metrics(curve)
        dev = float(np.max(np.abs(curvature_profile(curve) - m.average_curvature)))
        assert abs(m.int_dev_ks2) <= dev * m.ks_norm_sq * (1.0 + 1e-12)
        assert 0.0 < m.int_dev2_ks2 <= dev * dev * m.ks_norm_sq * (1.0 + 1e-12)

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_scaling_covariance(self, scale):
        # k and kbar scale as 1/scale, k_s as 1/scale^2, ds as scale
        curve = uniform(_BALANCE_SHAPES["fourier"], 256)
        m0, m1 = metrics(curve), metrics(SampledCurve(scale * curve.vertices))
        assert m1.int_dev_ks2 == pytest.approx(m0.int_dev_ks2 / scale**4, rel=1e-9)
        assert m1.int_dev2_ks2 == pytest.approx(m0.int_dev2_ks2 / scale**5, rel=1e-9)

    @pytest.mark.parametrize("shape", ["ellipse", "limacon"])
    def test_orientation_reversal(self, shape):
        # reversing the vertices negates k - kbar and keeps k_s
        curve = uniform(_BALANCE_SHAPES[shape], 256)
        m = metrics(curve)
        mr = metrics(SampledCurve(curve.vertices[::-1].copy()))
        assert mr.int_dev_ks2 == pytest.approx(-m.int_dev_ks2, rel=1e-9)
        assert mr.int_dev2_ks2 == pytest.approx(m.int_dev2_ks2, rel=1e-9)


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
        # at n = 4096 rounding keeps the spread above 1e-12, so the iteration
        # stops at the rounding-aware target 4 n eps = 3.6e-12: the spread
        # reads 3.9e-9, then 2.5e-12
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

    @pytest.mark.parametrize("spec, n, evaluations", [
        # target: the spread falls under 4 n eps on the second evaluation
        (ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((2, 0.01, 0.0),)),
         16384, 2),
        (ShapeSpec("ellipse", a=2.0, b=1.0), 8192, 2),
        # cap: the spread still contracts about 12x per evaluation and reads
        # 1.04e-11 after the tenth, above the 1e-12 target
        (ShapeSpec("limacon", offset=0.9, scale=1.0), 512, 10),
    ], ids=["target-ripple-16384", "target-ellipse-8192", "cap-limacon-512"])
    def test_stops_at_its_target_or_its_cap(self, monkeypatch, spec, n, evaluations):
        evals = []
        evaluate = geometry._evaluate_spline

        def counting(*args):
            evals.append(1)
            return evaluate(*args)

        curve = generate(spec, n)
        monkeypatch.setattr(geometry, "_evaluate_spline", counting)
        resampled = resample_uniform(curve)
        target = max(1e-12, 4 * n * np.finfo(float).eps)
        assert len(evals) == evaluations
        if evaluations < 10:
            assert resampled.chord_spread() < target
        else:
            # a capped spread within half the tolerance is accepted
            assert target <= resampled.chord_spread() <= 0.5 * SPREAD_TOL

    def test_nonconverging_spread_raises(self):
        # the periodic spline through a random point cloud loops back on
        # itself, and no placement of 16 vertices on it has equal chords
        pts = np.random.default_rng(0).standard_normal((16, 2))
        with pytest.raises(DegenerateGeometryError, match="did not converge"):
            resample_uniform(SampledCurve(pts))


class TestSplineKernel:
    """The private periodic Hermite interpolant on chordal knots."""

    @staticmethod
    def hermite(x, y):
        """Coefficients through the points y (m, 2) at the knots x[0] .. x[m],
        padded periodically as the resample pads them."""
        period = x[-1]
        xp = np.concatenate((x[-3:-1] - period, x, x[1:3] + period))
        yr = np.asarray(y).T
        return geometry._hermite_spline(
            xp, np.concatenate((yr[:, -2:], yr, yr[:, :3]), axis=1))

    @staticmethod
    def uneven_knots(m, seed):
        """m + 1 random knots on [0, 2 pi], neighbouring steps up to 3x apart."""
        steps = np.random.default_rng(seed).uniform(0.5, 1.5, m)
        x = np.concatenate([[0.0], np.cumsum(steps)]) * (2.0 * np.pi / steps.sum())
        x[-1] = 2.0 * np.pi
        return x

    @staticmethod
    def smooth(t):
        return np.column_stack([np.cos(t) + 0.3 * np.sin(2.0 * t),
                                np.sin(t) - 0.2 * np.cos(3.0 * t)])

    def errors(self, m):
        """Largest error of the kernel and of scipy's periodic CubicSpline
        through the smooth data at m random uneven knots."""
        from scipy.interpolate import CubicSpline

        x = self.uneven_knots(m, m)
        y = self.smooth(x[:-1])
        u = np.linspace(0.0, 2.0 * np.pi, 20001)[:-1]
        exact = self.smooth(u)
        ours = geometry._evaluate_spline(x, self.hermite(x, y), u)
        reference = CubicSpline(x, np.concatenate([y, y[:1]]), bc_type="periodic")
        return np.abs(ours - exact).max(), np.abs(reference(u) - exact).max()

    @pytest.mark.parametrize("m", [16, 17, 256, 4096])
    def test_knots_return_their_vertices(self, m):
        x = self.uneven_knots(m, m)
        y = np.random.default_rng(m + 1).standard_normal((m, 2))
        values = geometry._evaluate_spline(x, self.hermite(x, y), x[:-1])
        assert values.flags.f_contiguous
        assert np.array_equal(values, y)

    @pytest.mark.parametrize("m", [16, 256])
    def test_first_derivative_continuous_at_every_knot(self, m):
        x = self.uneven_knots(m, m)
        c = self.hermite(x, self.smooth(x[:-1]))
        h = np.diff(x)
        end = (3.0 * c[0] + 2.0 * c[1] + c[2]) / h   # d/dx at f = 1 of edge i
        start = c[2] / h                              # d/dx at f = 0 of edge i
        gap = np.abs(end - np.concatenate((start[:, 1:], start[:, :1]), axis=1))
        assert gap.max() <= 1e-13 * np.abs(start).max()

    def test_fourth_order_on_uneven_knots(self):
        errors = [self.errors(m)[0] for m in (32, 64, 128, 256)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 10.0

    @pytest.mark.parametrize("m", [32, 64, 128, 256])
    def test_error_within_twice_scipy_periodic_cubic_spline(self, m):
        ours, reference = self.errors(m)
        assert ours <= 2.0 * reference

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("sampling", ["jump-10", "jump-100", "jitter-45"])
    def test_resamples_unevenly_sampled_circle(self, sampling, n):
        # chordal knots follow the trace however the parameter was spaced;
        # knots at the vertex index miss all six cases
        if sampling.startswith("jump"):
            steps = np.where(np.arange(n) < n // 2, 1.0, float(sampling[5:]))
            theta = np.concatenate([[0.0], np.cumsum(steps)[:-1]]) * (
                2.0 * np.pi / steps.sum())
        else:
            jitter = np.random.default_rng(n).uniform(-0.45, 0.45, n)
            theta = 2.0 * np.pi * (np.arange(n) + jitter) / n
        raw = SampledCurve(np.column_stack([np.cos(theta), np.sin(theta)]))
        curve = resample_uniform(raw)
        radius = np.hypot(curve.vertices[:, 0], curve.vertices[:, 1])
        assert curve.chord_spread() <= 0.5 * SPREAD_TOL
        assert np.abs(radius - 1.0).max() <= (1e-5 if n == 64 else 1e-7)

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
        ks, kss = curve._ks_kss
        m = geometry._metrics(curve)
        want_ks = (_shift(k, 1) - _shift(k, -1)) / (2.0 * hk)
        want_kss = (_shift(k, 1) - 2.0 * k + _shift(k, -1)) / (hk * hk)
        assert np.array_equal(ks, want_ks)
        assert np.array_equal(kss, want_kss)
        assert m.ks_norm_sq == float(np.sum(want_ks * want_ks)) * hk
        assert m.kss_norm_sq == float(np.sum(want_kss * want_kss)) * hk
        if kind == "circle":
            k_u = curvature_profile(curve)
            hu = curve.length() / n
            assert np.array_equal(curvature_derivatives(curve, 1),
                                  (_shift(k_u, 1) - _shift(k_u, -1)) / (2.0 * hu))
            assert np.array_equal(curvature_derivatives(curve, 2),
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


def _same(got, want):
    """Bitwise equality of kernel results: arrays, floats, records, tuples."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, np.ndarray):
        return got.shape == want.shape and np.array_equal(got, want)
    return got == want


def _kernel_cases(kind, m):
    """Each rewritten step kernel, its expression-form oracle in references
    and the array arguments both take, on a polygon of m vertices."""
    from curvediffusion import flow

    pts = np.asfortranarray(TestPaddedStencils.polygon(kind, m))
    seg = references.chord_lengths(pts)
    h = float(seg.sum()) / m
    cum = np.cumsum(seg)
    period = cum[-1]
    xp = np.concatenate((cum[-3:-1] - period, [0.0], cum, cum[:2] + period))
    yr = pts.T
    yp = np.concatenate((yr[:, -2:], yr, yr[:, :3]), axis=1)
    u = np.sort(np.random.default_rng(m).uniform(0.0, period, m))
    u[0], u[-1] = 0.0, period
    rhs = np.asfortranarray(np.random.default_rng(m + 1).standard_normal((m, 2)))
    target = references.signed_area(pts) * (1.0 + 1e-6)
    theta = 2.0 * np.pi * np.arange(m) / m
    if kind == "jittered":
        theta += np.random.default_rng(m + 2).uniform(-0.45, 0.45, m) * (
            2.0 * np.pi / m)
    arc = np.asfortranarray(np.column_stack([np.cos(theta), np.sin(theta)]))
    dt = 1e-3 * h ** 4
    return {
        "_row_norms": (geometry._row_norms, references.row_norms, (pts,)),
        "_chord_lengths": (geometry._chord_lengths, references.chord_lengths, (pts,)),
        "_hermite_spline": (geometry._hermite_spline, references.hermite_spline,
                            (xp, yp)),
        "_evaluate_spline": (geometry._evaluate_spline, references.evaluate_spline,
                             (xp[2:-2], references.hermite_spline(xp, yp), u)),
        # a radius jittered vertex by vertex has no uniform resample from
        # m = 256 on; jittered angles keep the trace a circle
        "_resample_points": (lambda p, s: geometry._resample_points(p, s, m),
                             lambda p, s: references.resample_points(p, s, m),
                             (arc, references.chord_lengths(arc))),
        "_tangents": (lambda p: geometry._tangents(p, h),
                      lambda p: references.tangents(p, h),
                      (np.concatenate((pts[-1:], pts, pts[:1])),)),
        "_frames": (lambda p: geometry._frames(p, h),
                    lambda p: references.frames(p, h), (pts,)),
        "_ks_kss": (lambda p: SampledCurve(p)._ks_kss,
                    lambda p: references.curve_frames(p)[3:], (pts,)),
        "signed_area": (lambda p: geometry.signed_area(SampledCurve(p)),
                        references.signed_area, (pts,)),
        "_metrics": (lambda p: geometry._metrics(SampledCurve(p)),
                     references.metrics, (pts,)),
        "_solve_cyclic_pentadiagonal": (
            lambda x: tuple(flow._solve_cyclic_pentadiagonal(c, x)
                            for c in (0.0, 0.3, 1e6 * m ** 4)),
            lambda x: tuple(references.solve_cyclic_pentadiagonal(c, x)
                            for c in (0.0, 0.3, 1e6 * m ** 4)), (rhs,)),
        "_apply_cyclic_pentadiagonal": (
            lambda x: tuple(flow._apply_cyclic_pentadiagonal(c, x)
                            for c in (0.0, 0.3, 1e6 * m ** 4)),
            lambda x: tuple(references.apply_cyclic_pentadiagonal(c, x)
                            for c in (0.0, 0.3, 1e6 * m ** 4)), (rhs,)),
        "_implicit_advance": (
            lambda p: flow._implicit_advance(SampledCurve(p), dt),
            lambda p: references.implicit_advance(p, dt), (pts,)),
        "_project_area": (lambda p, s: flow._project_area(p, s, target),
                          lambda p, s: references.project_area(p, s, target),
                          (pts, seg)),
    }


_KERNELS = tuple(_kernel_cases("circle", 16))


class TestInPlaceKernels:
    """The step kernels update their temporaries in place, with the same
    operations on every element in the same order as the expression forms
    kept in references, so they are bitwise those forms; and they write
    into no input."""

    @pytest.mark.parametrize("kind", ["circle", "jittered"])
    @pytest.mark.parametrize("m", [16, 17, 256, 4096])
    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_kernel_is_bitwise_its_expression_form(self, kernel, m, kind):
        fn, oracle, args = _kernel_cases(kind, m)[kernel]
        assert _same(fn(*args), oracle(*args))

    @pytest.mark.parametrize("kind", ["circle", "jittered"])
    @pytest.mark.parametrize("m", [16, 17, 256, 4096])
    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_kernel_leaves_its_inputs_untouched(self, kernel, m, kind):
        fn, _, args = _kernel_cases(kind, m)[kernel]
        writable = tuple(a.copy(order="K") for a in args)
        frozen = tuple(a.copy(order="K") for a in args)
        for a in frozen:
            a.setflags(write=False)
        # a write into a frozen input, or a view of one, raises ValueError
        assert _same(fn(*frozen), fn(*writable))
        for a, before in zip(writable + frozen, args + args):
            assert np.array_equal(a, before)

    def test_evaluation_does_not_keep_the_gather_alive(self):
        fn, _, args = _kernel_cases("jittered", 256)["_evaluate_spline"]
        values = fn(*args)
        assert values.base is None or values.base.size <= values.size


class TestCurveCache:
    """A curve computes its frames, area, metrics, k_s and k_ss on first use
    and keeps them read-only, outside the constructor, repr and ==."""

    def test_kept_values_equal_a_fresh_computation_and_are_read_only(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 128)
        h = curve.length() / curve.n
        fresh = geometry._frames(curve.vertices, h)
        ks = (_shift(fresh[2], 1) - _shift(fresh[2], -1)) / (2.0 * h)
        kss = (_shift(fresh[2], 1) - 2.0 * fresh[2] + _shift(fresh[2], -1)) / (h * h)
        m = geometry._metrics(curve)
        assert metrics(curve) == m
        assert np.array_equal(curvature_derivatives(curve, 1), ks)
        assert np.array_equal(curvature_derivatives(curve, 2), kss)
        assert np.array_equal(curvature_profile(curve), fresh[2])
        assert curve._area == geometry.signed_area(curve)
        assert curve.length() == float(geometry._chord_lengths(curve.vertices).sum())
        kept = (*curve._frames_h, *curve._ks_kss, curvature_profile(curve),
                curvature_derivatives(curve, 1), curvature_derivatives(curve, 2))
        for got, want in zip(curve._frames_h, fresh):
            assert np.array_equal(got, want)
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # repeated queries return the kept objects themselves
        assert metrics(curve) is metrics(curve)
        assert curvature_profile(curve) is curve._frames_h[2]
        assert curvature_derivatives(curve, 2) is curve._ks_kss[1]

    def test_cache_stays_out_of_repr_and_equality(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 32)
        twin = SampledCurve(curve.vertices)
        before = repr(curve)
        metrics(curve)
        assert repr(curve) == before == repr(twin)
        assert "_measured" in vars(curve) and "_measured" not in vars(twin)
        assert curve == twin
        # repr reads only the vertices, and the constructor takes only them
        # and the chords
        fields = dataclasses.fields(SampledCurve)
        assert [f.name for f in fields if f.repr] == ["vertices"]
        assert [f.name for f in fields if f.init] == ["vertices"]


class TestColumnMajorLayout:
    """Vertex arrays are column-major, each coordinate contiguous, from every
    constructor through the frames, the resample and the solve."""

    def test_curves_from_every_source_are_column_major(self, tmp_path):
        raw = generate(ShapeSpec("limacon", offset=1.2), 128)
        resampled = resample_uniform(raw)
        path = tmp_path / "curve.csv"
        write_curve_csv(resampled, path)
        for curve in (raw, resampled, read_curve_csv(path)):
            assert curve.vertices.flags.f_contiguous
            tau, nu, _ = curve._frames_h
            assert tau.flags.f_contiguous and nu.flags.f_contiguous
            # the bytes are still those of the row-major array
            rows = np.array(curve.vertices.tolist())
            assert rows.flags.c_contiguous
            assert curve.vertices.tobytes() == rows.tobytes()

    def test_every_state_of_a_run_is_column_major(self):
        layouts = []
        run(uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 64),
            FlowConfig(n=64, dt=1e-4, max_steps=5),
            on_record=lambda state, _: layouts.append(
                state.curve.vertices.flags.f_contiguous))
        assert layouts == [True] * 5

    def test_solve_returns_column_major(self):
        from curvediffusion.flow import _solve_cyclic_pentadiagonal

        rhs = generate(ShapeSpec("circle", radius=1.0), 64).vertices
        assert _solve_cyclic_pentadiagonal(0.3, rhs).flags.f_contiguous


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
        monkeypatch.setattr(references, "_DIST_ROW_BLOCK", block)
        a = generate(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 300)
        b = generate(ShapeSpec("limacon", offset=1.3, scale=1.1), 200)
        expected = max(self.direct(a.vertices, b.vertices),
                       self.direct(b.vertices, a.vertices))
        assert hausdorff_distance(a, b) == expected


class TestQuadratureAndProfiles:
    def test_total_turning(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 512)
        total = float(curvature_profile(curve).sum()) * (curve.length() / curve.n)
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

    def test_the_pairs_are_counted(self):
        assert (len(UNREAD_PAIRS), len(READ_NUMBERS)) == (27, 7)

    @pytest.mark.parametrize("kind, field", UNREAD_PAIRS)
    def test_a_field_the_kind_does_not_read_is_refused(self, kind, field):
        # shape = ellipse with radius = 5 used to run a plain 1 x 1 ellipse
        reads = ", ".join(SHAPE_READS[kind])
        with pytest.raises(RejectedInputError,
                           match=f"^shape '{kind}' reads {reads}, not {field}$"):
            ShapeSpec(kind, **{field: NOT_DEFAULT[field]})

    @pytest.mark.parametrize("field, value, message", [
        ("radius", np.float64(2.0), "shape 'ellipse' reads a, b, not radius"),
        ("offset", 2, "shape 'ellipse' reads a, b, not offset"),
        ("modes", [(3, 0.1, 0.0)], "shape 'ellipse' reads a, b, not modes"),
        ("modes", np.zeros((1, 3)), "modes must be a tuple or list of triples"),
        ("radius", np.ones(2), "radius must be finite"),
    ])
    def test_unread_values_of_any_type_are_refused_by_name(self, field, value,
                                                           message):
        # compared after validation, so no value reaches a numpy broadcast
        with pytest.raises(RejectedInputError, match=f"^{re.escape(message)}"):
            ShapeSpec("ellipse", **{field: value})

    def test_unread_fields_at_their_defaults_are_accepted(self):
        # echoes written before the refusal hold every unread key at its default
        defaults = {f.name: f.default for f in dataclasses.fields(ShapeSpec)[1:]}
        for kind in SHAPE_READS:
            assert ShapeSpec(kind, **defaults) == ShapeSpec(kind)
        assert ShapeSpec("circle", radius=1, modes=[]) == ShapeSpec("circle")

    @pytest.mark.parametrize("kind, field", READ_NUMBERS)
    def test_each_read_number_is_refused_at_zero(self, kind, field):
        with pytest.raises(RejectedInputError, match=(
                f"^{field} must be a positive finite number, got 0.0$")):
            ShapeSpec(kind, **{field: 0.0})

    def test_mode_frequencies_must_be_positive_integers(self):
        with pytest.raises(RejectedInputError):
            ShapeSpec("fourier-perturbed-circle", modes=((0, 0.1, 0.0),))

    @pytest.mark.parametrize("m, eps", [(128, 0.01), (200, 0.01), (4096, 1.5)])
    def test_mode_at_or_above_half_n_is_refused_by_frequency(self, m, eps):
        # 256 points used to draw mode 200 as mode 56, and 1 + 1.5 cos 4096 t
        # as a circle of radius 2.5
        spec = ShapeSpec("fourier-perturbed-circle",
                         modes=((2, 0.01, 0.0), (m, eps, 0.0)))
        with pytest.raises(RejectedInputError,
                           match=f"^mode frequency {m} is at or above n/2 = 128: "):
            generate(spec, 256)
        assert generate(ShapeSpec("fourier-perturbed-circle",
                                  modes=((127, 0.01, 0.0),)), 256).n == 256

    def test_positivity_is_checked_between_the_crests_of_the_top_mode(self):
        # 1 + 1.5 cos 4096 t is negative on half its period, and a grid of
        # 4096 points sees only its crests, where it is 2.5
        with pytest.raises(RejectedInputError, match="through zero"):
            generate(ShapeSpec("fourier-perturbed-circle",
                               modes=((4096, 1.5, 0.0),)), 8194)
        assert generate(ShapeSpec("fourier-perturbed-circle",
                                  modes=((4096, 0.5, 0.0),)), 8194).n == 8194

    @pytest.mark.parametrize("kind, field, value", [
        ("circle", "radius", math.nan),
        ("ellipse", "a", math.inf),
        ("ellipse", "b", -math.inf),
        ("fourier-perturbed-circle", "r0", math.nan),
        ("limacon", "offset", math.nan),
        ("limacon", "scale", math.inf),
        ("lemniscate", "scale", math.inf),
        ("circle", "radius", "1"),
        ("circle", "radius", True),
        ("ellipse", "b", None),
    ])
    def test_non_finite_fields_are_named(self, kind, field, value):
        # a NaN compares false with every bound, and an infinite lemniscate
        # scale reaches numpy as inf * 0; both are rejected by name up front
        with pytest.raises(RejectedInputError, match=f"^{field} must be finite"):
            ShapeSpec(kind, **{field: value})

    @pytest.mark.parametrize("mode", [
        (2, math.nan, 0.0), (2, 0.01, math.inf), (2, 0.1), (2, "0.1", 0.0),
        (True, 0.01, 0.0), 2, (2.0, 0.01, 0.0),
    ])
    def test_non_finite_mode_entries_are_named(self, mode):
        with pytest.raises(RejectedInputError, match="^modes: "):
            ShapeSpec("fourier-perturbed-circle", modes=(mode,))

    @pytest.mark.parametrize("order", [1.0, True])
    def test_derivative_order_is_an_integer(self, order):
        # 1.0 used to end in a bare TypeError, and True to read as 1
        curve = uniform(ShapeSpec("circle", radius=1.0), 32)
        with pytest.raises(RejectedInputError, match="^order must be "):
            curvature_derivatives(curve, order)

    @pytest.mark.parametrize("big", [10 ** 400, 10 ** 5000],
                             ids=["401-digits", "5001-digits"])
    def test_ints_beyond_float_range_are_refused_by_name(self, big):
        # the fields and the frequency used to end in a bare OverflowError,
        # and n to pass and fail inside numpy
        with pytest.raises(RejectedInputError, match="^radius must be finite, got "):
            ShapeSpec("circle", radius=big)
        with pytest.raises(RejectedInputError, match="^modes: "):
            ShapeSpec("fourier-perturbed-circle", modes=((big, 0.1, 0.0),))
        with pytest.raises(RejectedInputError, match="^n must be an integer, got "):
            generate(ShapeSpec("circle", radius=1.0), big)

    def test_messages_do_not_print_an_int_beyond_4300_digits(self):
        # Python refuses that repr with a ValueError
        with pytest.raises(RejectedInputError, match=(
                "^scale must be finite, got <int too large to print>$")):
            ShapeSpec("lemniscate", scale=10 ** 5000)
        with pytest.raises(RejectedInputError,
                           match="got <tuple too large to print>$"):
            ShapeSpec("fourier-perturbed-circle", modes=((10 ** 5000, 0.1, 0.0),))
        with pytest.raises(RejectedInputError, match=(
                "^modes must be a tuple or list of triples, "
                "got <int too large to print>$")):
            ShapeSpec("circle", modes=10 ** 5000)

    @pytest.mark.parametrize("modes", [3, None, "abc"])
    def test_modes_must_be_a_sequence(self, modes):
        # 3 used to end in a bare TypeError, and "abc" to be read as entries
        with pytest.raises(RejectedInputError, match="^modes must be a tuple"):
            ShapeSpec("fourier-perturbed-circle", modes=modes)

    def test_minimum_vertex_count(self):
        with pytest.raises(RejectedInputError):
            generate(ShapeSpec("circle", radius=1.0), 8)

    @pytest.mark.parametrize("n", [64.5, 64.0, True, "64"])
    def test_generate_takes_an_integer_count(self, n):
        # 64.5 used to give 65 vertices with a last chord of half the others
        with pytest.raises(RejectedInputError,
                           match=f"^n must be an integer, got {n!r}$"):
            generate(ShapeSpec("circle", radius=1.0), n)

    @pytest.mark.parametrize("n", [70.5, 70.0, True, "70"])
    def test_resample_takes_an_integer_count(self, n):
        # 70.5 used to fail late, as a resample that did not converge
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=0.5), 64)
        with pytest.raises(RejectedInputError,
                           match=f"^n must be an integer, got {n!r}$"):
            resample_uniform(curve, n)

    def test_curve_constructor_rejects_bad_vertices(self):
        with pytest.raises(RejectedInputError):
            SampledCurve(np.zeros((4, 2)))
        bad = np.ones((32, 2))
        bad[3] = np.nan
        with pytest.raises(RejectedInputError):
            SampledCurve(bad)

    @pytest.mark.parametrize("entry, shown", [
        ("1.0", "'1.0'"),
        (True, "True"),
        (10 ** 400, "1" + "0" * 400),
    ], ids=["string", "bool", "401-digits"])
    def test_vertices_obey_the_number_rule(self, entry, shown):
        # np.asarray(..., dtype=float) used to read strings and True as
        # coordinates, and to raise a bare OverflowError on 10**400
        pts = uniform(ShapeSpec("circle", radius=1.0), 32).vertices.tolist()
        pts[1][1] = entry
        with pytest.raises(RejectedInputError,
                           match=f"^vertices\\[3\\] must be finite, got {shown}$"):
            SampledCurve(pts)

    def test_bool_vertex_array_is_refused(self):
        # a square traced eight times used to be read as 0.0 and 1.0
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]] * 8, dtype=bool)
        with pytest.raises(RejectedInputError,
                           match="^vertices must hold only ints and floats"):
            SampledCurve(square)

    def test_overflowing_chords_rejected(self):
        # squared chords of a radius-1e200 polygon overflow; the curve must
        # not be accepted with an infinite length and a NaN chord spread
        t = 2.0 * np.pi * np.arange(64) / 64
        pts = 1e200 * np.column_stack([np.cos(t), np.sin(t)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectedInputError, match="chord lengths overflow"):
                SampledCurve(pts)
            with pytest.raises(RejectedInputError, match="chord lengths overflow"):
                generate(ShapeSpec("circle", radius=1e200), 64)

    def test_chord_cache(self):
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=0.5), 64)
        seg = curve.segment_lengths()
        assert np.array_equal(seg, geometry._chord_lengths(curve.vertices))
        with pytest.raises(ValueError):
            seg[0] = 1.0
        # same vertices, another cache array: still equal
        twin = copy.copy(curve)
        object.__setattr__(twin, "_chords", seg.copy())
        assert twin == curve
        assert "_chords" not in repr(curve)

    def test_handed_over_chords_are_validated(self):
        # resample_uniform hands the constructor its points, not its chords;
        # the curve measures them again and keeps, bit for bit, the chords
        # the resample measured, and they go through the usual checks
        curve = generate(ShapeSpec("ellipse", a=1.5, b=0.5), 64)
        pts, seg = geometry._resample_points(curve.vertices, curve.segment_lengths(), 64)
        resampled = resample_uniform(curve)
        assert resampled.vertices.tobytes() == pts.tobytes()
        assert resampled.segment_lengths().tobytes() == seg.tobytes()
        assert resampled.length() == float(seg.sum())
        doubled = np.insert(resampled.vertices, 3, resampled.vertices[3], axis=0)
        with pytest.raises(RejectedInputError, match="must not coincide"):
            SampledCurve(doubled)

    def test_handed_over_chords_need_one_per_vertex(self):
        # a 64-gon of length about 2 pi must not take the length and the
        # uniformity of three unit chords: the constructor takes no chords
        curve = uniform(ShapeSpec("circle", radius=1.0), 64)
        for shape in ((3,), (65,), (64, 1), ()):
            with pytest.raises(TypeError):
                SampledCurve(curve.vertices, chords=np.ones(shape))
        assert curve.segment_lengths().shape == (64,)
        # the inscribed 64-gon's perimeter, 128 sin(pi / 64)
        assert curve.length() == pytest.approx(128.0 * math.sin(math.pi / 64), rel=1e-12)

    def test_uniformity_is_measured(self):
        t = 2.0 * np.pi * np.arange(64) / 64
        pts = np.column_stack([np.cos(t), np.sin(t)])
        assert SampledCurve(pts).is_uniform()
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = SampledCurve(pts @ rot.T + np.array([1e3, -2.0]))
        assert moved.is_uniform()
        assert SampledCurve(np.roll(pts, 17, axis=0)).is_uniform()
        assert not generate(ShapeSpec("ellipse", a=1.5, b=0.5), 64).is_uniform()
        # the constructor always measures; no caller can declare the chords
        ellipse = generate(ShapeSpec("ellipse", a=2.0, b=0.5), 64)
        with pytest.raises(TypeError):
            SampledCurve(ellipse.vertices, chords=np.full(64, ellipse.length() / 64))

    def test_spread_is_measured_once(self):
        # chord_spread() returns the spread the constructor measured, and
        # is_uniform() compares that same value with SPREAD_TOL
        for curve in (generate(ShapeSpec("ellipse", a=1.5, b=0.5), 64),
                      uniform(ShapeSpec("ellipse", a=1.5, b=0.5), 64)):
            seg = curve.segment_lengths()
            spread = float((seg.max() - seg.min()) / (curve.length() / curve.n))
            assert curve._spread == spread
            assert curve.chord_spread() is curve._spread
            assert curve.is_uniform() == (spread <= SPREAD_TOL)

    def test_equality_compares_vertices(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 32)
        assert curve == SampledCurve(curve.vertices.copy())
        moved = curve.vertices.copy()
        moved[5, 0] += 1e-3
        assert curve != SampledCurve(moved)
        assert curve != SampledCurve(curve.vertices[:16].copy())
        with pytest.raises(TypeError):
            hash(curve)


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        curve = uniform(ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                  modes=((2, 0.03, 0.4),)), 128)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert back == curve
        assert back.is_uniform() and curve.is_uniform()

    def test_csv_reads_past_a_byte_order_mark(self, tmp_path):
        # the BOM used to be read as part of the header 'x,y'
        path = tmp_path / "curve.csv"
        write_curve_csv(uniform(ShapeSpec("ellipse", a=1.5, b=1.0), 64), path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_curve_csv(bom) == read_curve_csv(path)

    def test_csv_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\nnot,numbers\n")
        with pytest.raises((RejectedInputError, ValueError)):
            read_curve_csv(path)
