"""Thresholds, inequality checks, trajectory diagnostics, and their oracles."""

import dataclasses
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
    DECAY_KS2,
    DECAY_KSS2,
    EMBEDDED_CERTIFIED,
    EMBEDDED_INCONCLUSIVE,
    KSTAR_DIGITS,
    Report,
    check_hypotheses,
    decay_fit,
    density_integral,
    embeddedness_certificate,
    harmonic_sum_bound_check,
    isoperimetric_limit,
    kss2_rate_floor,
    kstar,
    l1_energy_check,
    multiplicity_bound,
    multiplicity_check,
    newton_ratio_check,
    positivity_waiting_measure,
    smallness_propagation_check,
    waiting_time_bound,
    wirtinger_check,
)
from curvediffusion.errors import (
    NonUniformParametrizationError,
    RejectedInputError,
)
from curvediffusion.geometry import ShapeSpec, generate, metrics, resample_uniform
from references import two_pass_density


def uniform(spec: ShapeSpec, n: int):
    return resample_uniform(generate(spec, n))


# ints beyond float range: Python refuses the repr of the second, which has
# more than 4300 digits
OVERSIZED = pytest.mark.parametrize("big", [10 ** 400, 10 ** 5000],
                                    ids=["401-digits", "5001-digits"])


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

    def test_general_threshold_matches_kstar_at_one(self, perturbed_run):
        # the paper's winding-dependent threshold
        # (4 pi + 24 pi^2 w^2 - 8 pi sqrt(3 pi) sqrt(w^2 + 3 pi w^4)) / 3
        # at w = +-1 is the ceiling the smallness report applies, 2 kstar()
        mpmath = pytest.importorskip("mpmath")
        report = smallness_propagation_check(perturbed_run.result.records)
        threshold = report.values["threshold"]
        assert threshold == 2.0 * kstar()
        with mpmath.workdps(50):
            pi = mpmath.pi
            for w in (1, -1):
                general = (4 * pi + 24 * pi ** 2 * w ** 2
                           - 8 * pi * mpmath.sqrt(3 * pi)
                           * mpmath.sqrt(w ** 2 + 3 * pi * w ** 4)) / 3
                assert abs(mpmath.mpf(threshold) - general) / general < mpmath.mpf("1e-15")

    @OVERSIZED
    @pytest.mark.parametrize("call, name", [
        (lambda big: kss2_rate_floor(big), "L0"),
        (lambda big: waiting_time_bound(big, 1.0), "L0"),
        (lambda big: waiting_time_bound(1.0, big), "A0"),
        (lambda big: multiplicity_bound(big, 1), "multiplicity"),
        (lambda big: multiplicity_bound(2, big), "winding number"),
        (lambda big: wirtinger_check([0.0] * 16, big), "period"),
        (lambda big: newton_ratio_check([big, 1.0], 0), r"entries\[0\]"),
        (lambda big: harmonic_sum_bound_check([1.0, big]), r"entries\[1\]"),
    ], ids=["kss2-floor", "waiting-L0", "waiting-A0",
            "multiplicity", "multiplicity-winding", "wirtinger-period",
            "newton-entry", "harmonic-entry"])
    def test_ints_beyond_float_range_are_refused_by_name(self, call, name, big):
        # each used to end in a bare OverflowError
        with pytest.raises(RejectedInputError, match=f"^{name} must be"):
            call(big)

    @pytest.mark.parametrize("m, omega, name", [
        (10 ** 200, 1, "multiplicity"),
        (2, 10 ** 200, "winding number"),
    ], ids=["multiplicity", "winding"])
    def test_multiplicity_bound_beyond_float_range_is_refused_by_name(
            self, m, omega, name):
        # 10**200 obeys the real rule, but 16 m^2 and 4 w^2 pi^2 overflow;
        # the bound used to come out as inf and -inf
        with pytest.raises(RejectedInputError,
                           match=f"^{name} must keep .* within float range"):
            multiplicity_bound(m, omega)

    def test_isoperimetric_limit_value(self):
        assert isoperimetric_limit() == math.exp(kstar() / (8.0 * math.pi ** 2))
        assert abs(isoperimetric_limit() - 1.00066881978) <= 1e-9

    def test_kss2_rate_floor(self):
        assert kss2_rate_floor(2.0 * math.pi) == pytest.approx(0.25, rel=1e-15)
        for L0 in (0.0, None, "1", True):
            with pytest.raises(RejectedInputError, match="L0"):
                kss2_rate_floor(L0)

    @pytest.mark.parametrize("L0", [1e-100, 1e100])
    def test_kss2_rate_floor_beyond_float_range_is_refused_by_name(self, L0):
        # L0 ** 4 used to underflow into a bare ZeroDivisionError or to
        # overflow into a bare OverflowError
        with pytest.raises(RejectedInputError,
                           match=r"^L0 must keep 4 pi\^4 / L0\^4 within float range"):
            kss2_rate_floor(L0)


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
        # True used to read as L0 = 1, and a string to end in a bare TypeError
        for L0, A0, name in ((-1.0, 1.0, "L0"), (1.0, math.nan, "A0"),
                             ("1", 1.0, "L0"), (True, 0.1, "L0"),
                             (None, 1.0, "L0"), (1.0, "1", "A0")):
            with pytest.raises(RejectedInputError, match=name):
                waiting_time_bound(L0, A0)

    def test_bound_beyond_float_range_is_refused_by_name(self):
        # (L0 / 2 pi)^4 used to raise a bare OverflowError
        with pytest.raises(RejectedInputError,
                           match=r"^L0 must keep \(L0 / 2 pi\)\^4 within float range"):
            waiting_time_bound(1e100, 1.0)

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

    def test_verdict_does_not_depend_on_the_period_scale(self):
        # a subnormal spacing used to overflow the derivative: l2_holds read
        # False on a NaN bound, with a RuntimeWarning
        samples = [0.0, 1.0] * 8
        unit = wirtinger_check(samples, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = wirtinger_check(samples, 1e-320)
        assert tiny.verdicts == unit.verdicts == {"l2_holds": True,
                                                   "sup_holds": True}
        assert tiny.values["ratio_to_bound"] == unit.values["ratio_to_bound"]
        assert 0.0 < tiny.values["l2_bound"] < math.inf

    def test_zero_input_is_trivial_equality(self):
        report = wirtinger_check(np.zeros(64), 1.0)
        assert report.verdicts["l2_holds"]
        assert report.verdicts["sup_holds"]
        assert report.values["ratio_to_bound"] == 1.0

    def test_rejections(self):
        good = np.sin(np.arange(64) / 64.0 * 2.0 * math.pi)
        with pytest.raises(RejectedInputError):
            wirtinger_check(good[:8], 1.0)
        for period in (0.0, "1", None, True, math.nan):
            with pytest.raises(RejectedInputError, match="^period"):
                wirtinger_check(good, period)
        with pytest.raises(RejectedInputError):
            wirtinger_check(np.ones((8, 8)), 1.0)
        bad = good.copy()
        bad[3] = math.inf
        with pytest.raises(RejectedInputError):
            wirtinger_check(bad, 1.0)
        for samples in ("a" * 16, [True] * 16, np.ones(16, dtype=bool),
                        list(good[:15]) + ["x"]):
            with pytest.raises(RejectedInputError, match="^samples"):
                wirtinger_check(samples, 1.0)


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
        for entries in ("abc", [1.0, {"a": 1}], [True, 2.0], np.array([1.0, 2.0j])):
            with pytest.raises(RejectedInputError, match="^entries"):
                newton_ratio_check(entries, 0)
        for entries in ("xy", [True, 2.0], [1.0, None]):
            with pytest.raises(RejectedInputError, match="^entries"):
                harmonic_sum_bound_check(entries)

    @pytest.mark.parametrize("i", [None, True, 0.0])
    def test_index_must_be_an_integer(self, i):
        # None used to end in a bare TypeError, True to index numpy as a
        # mask and end in a ValueError, and 0.0 in an IndexError
        with pytest.raises(RejectedInputError,
                           match=f"^index must be an integer, got {i!r}$"):
            newton_ratio_check([1.0, 2.0, 3.0], i)

    def test_integer_entries_still_accepted(self):
        assert newton_ratio_check([1, 2, 3], 0)
        assert harmonic_sum_bound_check(np.array([1, 2], dtype=np.int32))


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

    def test_rejects_malformed_points(self):
        curve = uniform(ShapeSpec("circle", radius=1.0), 256)
        for point in ("ab", {"x": 1}, (1 + 0j, 0.0), (True, 0.0),
                      np.array([True, False]), ("1", "0")):
            with pytest.raises(RejectedInputError, match="^point"):
                density_integral(curve, point)
        assert density_integral(curve, (1, 0)) == density_integral(curve, (1.0, 0.0))

    @OVERSIZED
    def test_rejects_coordinates_beyond_float_range(self, big):
        # used to end in a bare OverflowError
        curve = uniform(ShapeSpec("circle", radius=1.0), 256)
        with pytest.raises(RejectedInputError, match=r"^point\[0\] must be finite"):
            density_integral(curve, (big, 0))

    def test_requires_uniform_parametrization(self):
        curve = generate(ShapeSpec("ellipse", a=2.0, b=1.0), 256)
        with pytest.raises(NonUniformParametrizationError):
            density_integral(curve, (2.0, 0.0))

    def test_row_norms_match_linalg_norm(self, monkeypatch):
        # the vertex distances come from _row_norms; np.linalg.norm(q, axis=1)
        # forms the same sum of squares, so the integral is bitwise unchanged
        from curvediffusion.cli import _corpus_spec

        rng = np.random.default_rng(0)
        curves = [uniform(_corpus_spec(rng, index), 512) for index in range(4)]
        values = [density_integral(c, c.vertices[0]) for c in curves]
        monkeypatch.setattr(analysis, "_row_norms",
                            lambda q: np.linalg.norm(q, axis=1))
        assert [density_integral(c, c.vertices[0]) for c in curves] == values

    def test_one_integrand_equals_two_cutoff_passes(self):
        # both cutoffs sum one integrand; each pass of the reference builds
        # its own, so equal bits mean the same values in the same order
        from curvediffusion.cli import _corpus_spec

        rng = np.random.default_rng(0)
        for index in range(200):
            curve = uniform(_corpus_spec(rng, index), 512)
            v = curve.vertices
            for point in (v[0], 0.5 * (v[7] + v[8])):
                got = density_integral(curve, point)
                assert got == two_pass_density(curve, point), index
        for n in (512, 1024):
            for spec, point in ((ShapeSpec("circle", radius=1.0), (1.0, 0.0)),
                                (ShapeSpec("lemniscate", scale=1.0), (0.0, 0.0))):
                curve = uniform(spec, n)
                assert density_integral(curve, point) == two_pass_density(curve, point)


class TestHypotheses:
    def test_circle_is_admissible(self, circle_run):
        report = check_hypotheses(metrics(circle_run.initial))
        assert report.verdicts["admissible"]
        assert report.values["kosc0"] <= 1e-6
        assert "iso0" in report.values
        assert report.values["iso0"] < isoperimetric_limit()
        assert report.values["kstar"] == kstar()

    def test_perturbed_circle_is_admissible(self, perturbed_run):
        report = check_hypotheses(metrics(perturbed_run.initial))
        assert report.verdicts["admissible"]
        assert report.values["kosc0"] < kstar()

    def test_third_mode_fails_the_energy_gate(self, mode3_run):
        report = check_hypotheses(metrics(mode3_run.initial))
        assert not report.verdicts["kosc_ok"]
        assert not report.verdicts["admissible"]

    def test_figure_eight_fails_on_winding_and_ratio(self, lemniscate_run):
        # the signed area cancels only to rounding, so the load-bearing
        # rejections are the winding number and the undefined ratio
        report = check_hypotheses(metrics(lemniscate_run.initial))
        assert not report.verdicts["admissible"]
        assert not report.verdicts["winding_ok"]
        assert not report.verdicts["iso_ok"]
        assert "iso0" not in report.values

    def test_admissible_is_the_conjunction_on_every_fixture(self, all_scenarios):
        # the keys are those run.json and analyze reports carry; iso0 is
        # present exactly when the isoperimetric ratio is defined
        for name, fixture in all_scenarios.items():
            m = fixture.result.initial_metrics
            report = check_hypotheses(m)
            assert isinstance(report, Report)
            verdicts = dict(report.verdicts)
            admissible = verdicts.pop("admissible")
            assert set(verdicts) == {"kosc_ok", "iso_ok", "winding_ok", "area_ok"}
            assert admissible == all(verdicts.values()), name
            keys = {"kosc0", "kstar", "iso_limit"}
            if m.isoperimetric_ratio is not None:
                keys.add("iso0")
            assert set(report.values) == keys, name
            assert report.values["kosc0"] == m.osc_energy
            assert report.values["iso_limit"] == isoperimetric_limit()


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
        for m, omega, name in ((0, 1, "multiplicity"), (2.5, 1, "multiplicity"),
                               (None, 1, "multiplicity"), (True, 1, "multiplicity"),
                               (2, math.nan, "winding number"),
                               (2, None, "winding number"),
                               (2.0, 1, "multiplicity"),
                               (2, 1.0, "winding number")):
            with pytest.raises(RejectedInputError, match=f"^{name}"):
                multiplicity_bound(m, omega)


class TestMultiplicityCheck:
    @pytest.mark.parametrize("shortfall, holds", [
        (0.0, True), (0.5e-9, True), (2e-9, False),
    ])
    def test_verdict_at_its_rounding_slack(self, shortfall, holds):
        # a double point on a curve of winding one: a bound of 64 - 4 pi^2,
        # above 1, so the slack is relative to it
        bound = multiplicity_bound(2, 1)
        assert bound > 1.0
        m = dataclasses.replace(
            metrics(uniform(ShapeSpec("circle"), 64)),
            osc_energy=bound - shortfall * bound)
        report = multiplicity_check(m, 2)
        assert report.verdicts == {"osc_energy_at_least_bound": holds}
        assert report.values == {"bound": bound, "osc_energy": m.osc_energy,
                                 "multiplicity": 2.0}


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
            check_hypotheses(metrics(curve))
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

    @pytest.mark.parametrize("report", [
        positivity_waiting_measure, l1_energy_check, smallness_propagation_check,
        lambda records: decay_fit(records, DECAY_KOSC, (0.0, 0.5)),
    ], ids=["waiting", "l1-energy", "smallness", "decay"])
    def test_empty_trajectory_refused(self, report):
        with pytest.raises(RejectedInputError, match="^empty trajectory$"):
            report([])


class TestDecayFits:
    def test_perturbed_circle_rate_matches_linearization(self, perturbed_run):
        # second-mode energy on the unit circle relaxes at rate 24; the
        # early window is where the prediction applies
        fit = decay_fit(perturbed_run.result.records, DECAY_KOSC, (0.0, 0.5))
        assert 18.0 <= fit.rate <= 30.0
        assert fit.rms_log_residual < 1.0

    def test_perturbed_circle_rate_is_the_linearised_rate(self, perturbed_run):
        # a mode-m ripple of the radius-r circle decays at 2 m^2 (m^2 - 1) / r^4,
        # 24 for m = 2, r = 1; before t = 0.25 the oscillation energy is still
        # far above its quadrature floor, so the fit reads that rate closely
        fit = decay_fit(perturbed_run.result.records, DECAY_KOSC, (0.0, 0.25))
        assert abs(fit.rate - 24.0) <= 0.2

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

    @pytest.mark.parametrize("window", [
        (0, 10 ** 400), (0, 10 ** 5000), None, ("0", "0.004"), (False, True),
    ], ids=["401-digits", "5001-digits", "none", "strings", "bools"])
    def test_window_bounds_are_numbers(self, perturbed_run, window):
        # the oversized ints used to end in a bare OverflowError and None in
        # a TypeError, while strings and bools were read as numbers
        with pytest.raises(RejectedInputError, match=r"^window\[[01]\] must be finite"):
            decay_fit(perturbed_run.result.records, DECAY_KOSC, window)


def _raising(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return fail


def _polyfit_rate_and_amplitude(records, quantity_field, window):
    # the straight line decay_fit fits, taken from numpy's least squares
    t = np.array([rec.time for rec in records])
    q = np.array([getattr(rec.metrics, quantity_field) for rec in records])
    keep = (t >= window[0]) & (t <= window[1])
    slope, intercept = np.polyfit(t[keep], np.log(q[keep]), 1)
    return -slope, math.exp(intercept)


class TestPlainNumpyFits:
    WINDOWS = ((0.0, 0.5), (0.0, 0.25), (0.25, 0.5), (0.1, 0.4))

    def test_reports_need_neither_polyfit_nor_median(self, monkeypatch,
                                                     perturbed_run, wave_run):
        # np.polyfit starts LAPACK and np.median imports numpy.ma; the
        # reports fit a line and take a median without either
        for name in ("polyfit", "median"):
            monkeypatch.setattr(np, name, _raising(f"np.{name}"))
        monkeypatch.setattr(np.linalg, "lstsq", _raising("np.linalg.lstsq"))
        fit = decay_fit(perturbed_run.result.records, DECAY_KOSC, (0.0, 0.5))
        assert fit.rate > 0.0
        assert positivity_waiting_measure(wave_run.result.records) > 0.0

    def test_fit_agrees_with_polyfit_on_the_ripple(self, perturbed_run):
        records = perturbed_run.result.records
        for window in self.WINDOWS:
            fit = decay_fit(records, DECAY_KOSC, window)
            rate, amplitude = _polyfit_rate_and_amplitude(records, "osc_energy", window)
            assert fit.rate == pytest.approx(rate, rel=1e-13, abs=0.0), window
            assert fit.amplitude == pytest.approx(amplitude, rel=1e-13, abs=0.0), window

    @pytest.mark.parametrize("quantity, field", [
        (DECAY_KOSC, "osc_energy"),
        (DECAY_KS2, "ks_norm_sq"),
        (DECAY_KSS2, "kss_norm_sq"),
    ], ids=["kosc", "ks2", "kss2"])
    def test_each_quantity_is_fitted_from_its_own_field(self, perturbed_run,
                                                        quantity, field):
        # decay_fit reads a quantity through the trajectory schema's getter
        # for the key of the same name
        records = perturbed_run.result.records
        fit = decay_fit(records, quantity, (0.0, 0.5))
        rate, amplitude = _polyfit_rate_and_amplitude(records, field, (0.0, 0.5))
        assert fit.rate == pytest.approx(rate, rel=1e-13, abs=0.0)
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-13, abs=0.0)

    def test_fit_agrees_with_polyfit_on_a_noisy_exponential(self, perturbed_run):
        rng = np.random.default_rng(7)
        template = perturbed_run.result.records[0]
        times = 1e-3 * np.arange(1, 801)
        values = 3.0 * np.exp(-4.0 * times + 0.05 * rng.normal(size=times.size))
        records = [
            dataclasses.replace(
                template, time=float(t),
                metrics=dataclasses.replace(template.metrics, osc_energy=float(v)))
            for t, v in zip(times, values)
        ]
        window = (0.1, 0.7)
        fit = decay_fit(records, DECAY_KOSC, window)
        rate, amplitude = _polyfit_rate_and_amplitude(records, "osc_energy", window)
        assert fit.rate == pytest.approx(rate, rel=1e-13, abs=0.0)
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-13, abs=0.0)
        assert abs(fit.rate - 4.0) < 0.2

    @pytest.mark.parametrize("times", [
        1e-4 * np.arange(1, 9),                 # 7 intervals
        1e-4 * np.arange(1, 10),                # 8 intervals
        np.cumsum(np.random.default_rng(3).uniform(1e-5, 1e-3, 40)),
        np.cumsum(np.random.default_rng(4).uniform(1e-5, 1e-3, 41)),
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0, 1.5]),
    ])
    def test_median_interval_is_np_median(self, times):
        assert analysis._median_interval(times) == float(np.median(np.diff(times)))
