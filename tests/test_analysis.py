"""Thresholds, inequality checks, trajectory diagnostics, and their oracles."""

import itertools
import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvediffusion import analysis
from curvediffusion.analysis import (
    DECAY_KOSC,
    DECAY_KSS2,
    EMBEDDED_CERTIFIED,
    EMBEDDED_INCONCLUSIVE,
    KSTAR_DIGITS,
    DecayFit,
    HypothesisReport,
    Report,
    check_hypotheses,
    decay_fit,
    density_integral,
    embeddedness_certificate,
    general_smallness_threshold,
    harmonic_sum_bound_check,
    hypothesis_as_report,
    isoperimetric_limit,
    kss2_rate_floor,
    kstar,
    l1_energy_check,
    multiplicity_bound,
    newton_ratio_check,
    positivity_waiting_measure,
    report_to_json,
    smallness_propagation_check,
    waiting_time_bound,
    wirtinger_check,
)
from curvediffusion.errors import (
    NonUniformParametrizationError,
    RejectedInputError,
)
from curvediffusion.geometry import ShapeSpec, generate, metrics, resample_uniform


def uniform(spec: ShapeSpec, n: int):
    return resample_uniform(generate(spec, n))


class TestThresholdConstants:
    def test_kstar_against_frozen_digits(self):
        # reference value computed once at 50 digits and frozen; the
        # conjugate-form float evaluation must sit on top of it
        getcontext().prec = 60
        reference = Decimal(KSTAR_DIGITS)
        assert len(KSTAR_DIGITS.split(".")[1]) >= 50
        rel = abs(Decimal(repr(kstar())) - reference) / reference
        assert rel <= Decimal("1e-12")

    def test_kstar_digits_recompute(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(70):
            pi = mpmath.pi
            direct = (2 * pi + 12 * pi ** 2
                      - 4 * pi * mpmath.sqrt(3 * pi) * mpmath.sqrt(1 + 3 * pi)) / 3
            frozen = mpmath.mpf(KSTAR_DIGITS)
            assert abs(direct - frozen) / frozen < mpmath.mpf("1e-49")

    def test_doubled_kstar_stays_small(self):
        assert 2.0 * kstar() <= 0.106

    def test_general_threshold_matches_kstar_at_one(self):
        assert general_smallness_threshold(1) == 2.0 * kstar()
        assert general_smallness_threshold(-1) == general_smallness_threshold(1)

    def test_general_threshold_decreases_with_winding(self):
        values = [general_smallness_threshold(w) for w in (1, 2, 3, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_general_threshold_rejects_degenerate_winding(self):
        with pytest.raises(RejectedInputError):
            general_smallness_threshold(0)
        with pytest.raises(RejectedInputError):
            general_smallness_threshold(1.5)

    def test_isoperimetric_limit_value(self):
        assert isoperimetric_limit() == math.exp(kstar() / (8.0 * math.pi ** 2))
        assert abs(isoperimetric_limit() - 1.00066881978) <= 1e-9

    def test_kss2_rate_floor(self):
        assert kss2_rate_floor(2.0 * math.pi) == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(RejectedInputError):
            kss2_rate_floor(0.0)


class TestWaitingBound:
    def test_round_circle_bound_is_zero(self):
        L = 2.0 * math.pi * 1.7
        A = math.pi * 1.7 ** 2
        assert abs(waiting_time_bound(L, A)) <= 1e-14 * (L / (2.0 * math.pi)) ** 4

    def test_inconsistent_inputs_warn(self):
        with pytest.warns(RuntimeWarning):
            bound = waiting_time_bound(1.0, 10.0)
        assert bound < 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(RejectedInputError):
            waiting_time_bound(-1.0, 1.0)
        with pytest.raises(RejectedInputError):
            waiting_time_bound(1.0, math.nan)

    @given(
        length=st.floats(min_value=0.1, max_value=100.0),
        area_frac=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_isoperimetrically_valid_pairs_give_nonnegative_bound(
            self, length, area_frac):
        # area_frac = 1 sits exactly on the equality case, where rounding
        # may tip the bound a hair negative and trip the advisory warning
        area = area_frac * length * length / (4.0 * math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            bound = waiting_time_bound(length, area)
        assert bound >= -1e-9 * (length / (2.0 * math.pi)) ** 4


class TestWirtinger:
    def test_first_harmonic_saturates(self):
        x = np.arange(8192) / 8192.0
        period = 2.0 * math.pi
        report = wirtinger_check(np.sin(2.0 * math.pi * x), period)
        assert report.verdicts["l2_holds"]
        assert report.verdicts["sup_holds"]
        assert abs(report.values["equality_gap"]) <= 1e-6

    def test_second_harmonic_ratio(self):
        x = np.arange(4096) / 4096.0
        report = wirtinger_check(np.cos(4.0 * math.pi * x), 1.0)
        assert report.values["ratio_to_bound"] == pytest.approx(0.25, abs=1e-3)

    def test_parseval_oracle_on_random_trig(self):
        # closed-form l2 and derivative-l2 from the coefficients; quadrature
        # must reproduce them before the inequality verdict means anything
        rng = np.random.default_rng(11)
        period = 3.0
        x = np.arange(4096) / 4096.0 * period
        for _ in range(20):
            freqs = rng.integers(1, 7, size=3)
            amps = rng.normal(size=3)
            f = np.zeros_like(x)
            for m, a in zip(freqs, amps):
                f += a * np.sin(2.0 * math.pi * m * x / period)
            report = wirtinger_check(f, period)
            coeff = {}
            for m, a in zip(freqs, amps):
                coeff[m] = coeff.get(m, 0.0) + a
            l2 = 0.5 * period * sum(a * a for a in coeff.values())
            dl2 = 0.5 * period * sum(
                (2.0 * math.pi * m / period) ** 2 * a * a
                for m, a in coeff.items())
            assert report.verdicts["l2_holds"]
            assert report.values["l2"] == pytest.approx(l2, rel=1e-10, abs=1e-12)
            assert report.values["l2_derivative"] == pytest.approx(dl2, rel=1e-4,
                                                                  abs=1e-12)

    def test_zero_input_is_trivial_equality(self):
        report = wirtinger_check(np.zeros(64), 1.0)
        assert report.verdicts["l2_holds"]
        assert report.verdicts["sup_holds"]
        assert report.values["ratio_to_bound"] == 1.0

    def test_rejections(self):
        good = np.sin(np.arange(64) / 64.0 * 2.0 * math.pi)
        with pytest.raises(RejectedInputError):
            wirtinger_check(good[:8], 1.0)
        with pytest.raises(RejectedInputError):
            wirtinger_check(good, 0.0)
        with pytest.raises(RejectedInputError):
            wirtinger_check(good, 1.0, guard=1.5)
        with pytest.raises(RejectedInputError):
            wirtinger_check(np.ones((8, 8)), 1.0)
        bad = good.copy()
        bad[3] = math.inf
        with pytest.raises(RejectedInputError):
            wirtinger_check(bad, 1.0)


class TestSymmetricFunctionInequalities:
    def test_uniform_entries_touch_equality(self):
        for n in (2, 3, 7):
            entries = [2.5] * n
            for i in range(n - 1):
                assert newton_ratio_check(entries, i)
            assert harmonic_sum_bound_check(entries)

    def test_elementary_symmetric_against_enumeration(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(size=7)
        e = analysis._elementary_symmetric(values)
        for j in range(values.size + 1):
            brute = sum(
                math.prod(c) for c in itertools.combinations(values, j))
            assert e[j] == pytest.approx(brute, rel=1e-12)

    def test_random_positive_entries_hold(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            entries = rng.lognormal(sigma=1.5, size=int(rng.integers(2, 9)))
            for i in range(entries.size - 1):
                assert newton_ratio_check(entries, i)
            assert harmonic_sum_bound_check(entries)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2,
                    max_size=8))
    def test_property_over_positive_lists(self, entries):
        for i in range(len(entries) - 1):
            assert newton_ratio_check(entries, i)
        assert harmonic_sum_bound_check(entries)

    def test_rejections(self):
        with pytest.raises(RejectedInputError):
            newton_ratio_check([], 0)
        with pytest.raises(RejectedInputError):
            newton_ratio_check([1.0, -2.0], 0)
        with pytest.raises(RejectedInputError):
            newton_ratio_check([1.0, 2.0, 3.0], 2)
        with pytest.raises(RejectedInputError):
            newton_ratio_check([1.0], 0)
        with pytest.raises(RejectedInputError):
            harmonic_sum_bound_check([0.0, 1.0])


class TestDensityIntegral:
    def test_circle_through_point_counts_one_visit(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 1024)
        value = density_integral(curve, (1.0, 0.0))
        assert abs(value - 8.0) <= 1e-2

    def test_cutoff_extrapolation_converges(self):
        errs = {}
        for n in (512, 1024):
            curve = uniform(ShapeSpec("circle", radius=1.0), n)
            errs[n] = abs(density_integral(curve, (1.0, 0.0)) - 8.0)
        assert errs[512] / errs[1024] >= 2.0

    def test_figure_eight_double_point_counts_two(self):
        curve = uniform(ShapeSpec("lemniscate", scale=1.0), 1024)
        value = density_integral(curve, (0.0, 0.0))
        assert abs(value - 16.0) <= 0.8

    def test_rejects_point_off_trace(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 256)
        with pytest.raises(RejectedInputError):
            density_integral(curve, (0.0, 0.0))

    def test_requires_uniform_parametrization(self):
        curve = generate(ShapeSpec("ellipse", a=2.0, b=1.0), 256)
        with pytest.raises(NonUniformParametrizationError):
            density_integral(curve, (2.0, 0.0))


class TestHypotheses:
    def test_circle_is_admissible(self, circle_run):
        report = check_hypotheses(circle_run.initial)
        assert report.admissible
        assert report.kosc0 <= 1e-6
        assert report.iso0 is not None
        assert report.iso0 < isoperimetric_limit()
        assert report.kstar == kstar()

    def test_perturbed_circle_is_admissible(self, perturbed_run):
        report = check_hypotheses(perturbed_run.initial)
        assert report.admissible
        assert report.kosc0 < kstar()

    def test_third_mode_fails_the_energy_gate(self, mode3_run):
        report = check_hypotheses(mode3_run.initial)
        assert not report.kosc_ok
        assert not report.admissible

    def test_figure_eight_fails_on_winding_and_ratio(self, lemniscate_run):
        # the signed area cancels only to rounding, so the load-bearing
        # rejections are the winding number and the undefined ratio
        report = check_hypotheses(lemniscate_run.initial)
        assert not report.admissible
        assert not report.winding_ok
        assert not report.iso_ok
        assert report.iso0 is None

    def test_report_conversion_carries_verdicts(self, circle_run):
        report = hypothesis_as_report(check_hypotheses(circle_run.initial))
        assert isinstance(report, Report)
        assert report.verdicts["admissible"]
        assert "kosc0" in report.values

    def test_inconsistent_conjunction_rejected(self):
        with pytest.raises(RejectedInputError):
            HypothesisReport(kosc0=0.0, iso0=1.0, kstar=kstar(),
                             kosc_ok=True, iso_ok=True, winding_ok=True,
                             area_ok=True, admissible=False)


class TestEmbeddednessCertificate:
    def test_circle_certified_by_energy_alone(self, circle_run):
        assert embeddedness_certificate(circle_run.initial) == EMBEDDED_CERTIFIED

    def test_wrong_winding_defers(self):
        curve = uniform(ShapeSpec("limacon", offset=0.5), 512)
        assert embeddedness_certificate(curve) == EMBEDDED_INCONCLUSIVE

    def test_figure_eight_defers(self, lemniscate_run):
        assert embeddedness_certificate(lemniscate_run.initial) == EMBEDDED_INCONCLUSIVE

    def test_certificate_threshold_value(self):
        assert multiplicity_bound(2, 1) == pytest.approx(64.0 - 4.0 * math.pi ** 2)
        assert multiplicity_bound(1, 1) < 0.0
        with pytest.raises(RejectedInputError):
            multiplicity_bound(0, 1)
        with pytest.raises(RejectedInputError):
            multiplicity_bound(2.5, 1)


class TestOneComputationPerCurve:
    def test_corpus_curve_runs_frames_and_turning_number_once(self, monkeypatch):
        # the per-curve work of verify multiplicity-corpus and of the
        # corpus benchmark, on one curve of each of the four families
        from curvediffusion import geometry
        from curvediffusion.cli import _corpus_spec

        counts = {"_frames": 0, "turning_number": 0}
        for name in counts:
            fn = getattr(geometry, name)

            def counting(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(geometry, name, counting)
        rng = np.random.default_rng(0)
        for index in range(4):
            curve = uniform(_corpus_spec(rng, index), 512)
            counts.update({name: 0 for name in counts})
            met = metrics(curve)
            embeddedness_certificate(curve)
            density_integral(curve, curve.vertices[0])
            check_hypotheses(curve)
            assert met is metrics(curve)
            assert counts == {"_frames": 1, "turning_number": 1}, index


class TestTrajectoryChecks:
    def test_smallness_propagates_on_admissible_run(self, perturbed_run):
        report = smallness_propagation_check(perturbed_run.result.records)
        assert report.verdicts["kosc_within_threshold"]
        assert report.verdicts["lyapunov_nonincreasing"]
        assert report.values["kosc_max"] <= report.values["threshold"]

    def test_smallness_rejects_inadmissible_start(self, lemniscate_run):
        with pytest.raises(RejectedInputError):
            smallness_propagation_check(lemniscate_run.result.records)

    def test_l1_energy_under_cap(self, perturbed_run, lemniscate_run):
        for scenario in (perturbed_run, lemniscate_run):
            report = l1_energy_check(scenario.result.records)
            assert report.verdicts["within_bound"]
            assert report.values["integral"] < report.values["bound"]

    def test_waiting_measure_zero_for_convex_run(self, circle_run):
        records = circle_run.result.records
        assert positivity_waiting_measure(records) == 0.0
        m0 = circle_run.result.initial_metrics
        bound = waiting_time_bound(m0.length, m0.signed_area)
        assert 0.0 <= bound <= 1.1e-4

    def test_waiting_measure_positive_but_bounded(self, wave_run):
        records = wave_run.result.records
        measure = positivity_waiting_measure(records)
        assert 0.0 < measure <= 5e-5
        m0 = wave_run.result.initial_metrics
        assert measure <= waiting_time_bound(m0.length, m0.signed_area)

    def test_waiting_measure_degenerate_cases(self, circle_run):
        assert positivity_waiting_measure(circle_run.result.records[:1]) == 0.0
        with pytest.raises(RejectedInputError):
            positivity_waiting_measure([])


class TestDecayFits:
    def test_perturbed_circle_rate_matches_linearization(self, perturbed_run):
        # second-mode energy on the unit circle relaxes at rate 24; the
        # early window is where the prediction applies
        fit = decay_fit(perturbed_run.result.records, DECAY_KOSC, (0.0, 0.5))
        assert 18.0 <= fit.rate <= 30.0
        assert fit.rms_log_residual < 1.0

    def test_wide_circle_rate_scales_with_radius(self, wide_perturbed_run):
        # radius 3 slows the same mode by 3^4
        fit = decay_fit(wide_perturbed_run.result.records, DECAY_KOSC, (1.0, 5.0))
        assert 0.25 <= fit.rate <= 0.34

    def test_kss2_rate_clears_advisory_floor(self, wide_perturbed_run):
        records = wide_perturbed_run.result.records
        L0 = wide_perturbed_run.result.initial_metrics.length
        fit = decay_fit(records, DECAY_KSS2, (1.0, 5.0))
        assert fit.rate >= 0.9 * kss2_rate_floor(L0)

    def test_flat_window_rejected(self, circle_run):
        # the circle's oscillation energy sits at the quadrature floor and
        # never decays; fitting it would report noise as a rate
        with pytest.raises(RejectedInputError):
            decay_fit(circle_run.result.records, DECAY_KOSC, (0.2, 0.8))

    def test_window_and_quantity_validation(self, perturbed_run):
        records = perturbed_run.result.records
        with pytest.raises(RejectedInputError):
            decay_fit(records, "unknown", (0.0, 0.5))
        with pytest.raises(RejectedInputError):
            decay_fit(records, DECAY_KOSC, (0.5, 0.5))
        with pytest.raises(RejectedInputError):
            decay_fit(records, DECAY_KOSC, (0.0, 5e-4))
        with pytest.raises(RejectedInputError):
            decay_fit([], DECAY_KOSC, (0.0, 0.5))

    def test_fit_dataclass_validation(self):
        with pytest.raises(RejectedInputError):
            DecayFit(quantity="nope", window=(0.0, 1.0), rate=1.0,
                     amplitude=1.0, rms_log_residual=0.0)
        with pytest.raises(RejectedInputError):
            DecayFit(quantity=DECAY_KOSC, window=(1.0, 0.0), rate=1.0,
                     amplitude=1.0, rms_log_residual=0.0)
        with pytest.raises(RejectedInputError):
            DecayFit(quantity=DECAY_KOSC, window=(0.0, 1.0), rate=math.nan,
                     amplitude=1.0, rms_log_residual=0.0)


class TestReportSerialization:
    def test_json_is_deterministic_and_sorted(self):
        report = Report(verdicts={"b": True, "a": False},
                        values={"z": 1.5, "y": 2.5})
        text = report_to_json(report)
        assert text == report_to_json(report)
        assert text.index('"a"') < text.index('"b"')
        assert '"values"' in text and '"verdicts"' in text
