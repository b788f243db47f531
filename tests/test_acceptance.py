"""End-to-end acceptance battery.

Twelve checks, one test each, every one printing a single
``criterion NN: PASS/FAIL`` line with the measured numbers next to the
tolerance it is held to.  The scenario runs come from the session fixtures
in conftest.py; everything here consumes their records and snapshots.
"""

import math
from decimal import Decimal, getcontext

import numpy as np

from curvediffusion.analysis import (
    DECAY_KOSC,
    EMBEDDED_CERTIFIED,
    KSTAR_DIGITS,
    check_hypotheses,
    decay_fit,
    density_integral,
    embeddedness_certificate,
    isoperimetric_limit,
    kstar,
    l1_energy_check,
    multiplicity_bound,
    newton_ratio_check,
    harmonic_sum_bound_check,
    positivity_waiting_measure,
    smallness_propagation_check,
    waiting_time_bound,
    wirtinger_check,
)
from curvediffusion.flow import identity_residuals
from curvediffusion.geometry import (
    SampledCurve,
    ShapeSpec,
    generate,
    metrics,
    resample_uniform,
)
from curvediffusion.intersections import find_crossings


def _line(index: int, ok: bool, detail: str) -> None:
    print(f"criterion {index:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _uniform(spec: ShapeSpec, n: int) -> SampledCurve:
    return resample_uniform(generate(spec, n))


def _corpus_spec(rng: np.random.Generator, index: int) -> ShapeSpec:
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


def test_criterion_01_round_curve_is_a_fixed_point(circle_run):
    drift = float(np.max(np.linalg.norm(
        circle_run.result.final_state.curve.vertices
        - circle_run.initial.vertices, axis=1)))
    kosc_max = max(r.metrics.osc_energy for r in circle_run.result.records)
    ok = drift <= 1e-5 and kosc_max <= 1e-6
    _line(1, ok, f"vertex drift {drift:.3e} (<= 1e-5), "
                 f"max osc energy {kosc_max:.3e} (<= 1e-6)")
    assert ok


def test_criterion_02_area_held_length_and_ratio_fall(ellipse_run):
    first = ellipse_run.result.initial_metrics
    records = ellipse_run.result.records
    area_dev = max(abs(r.metrics.signed_area - first.signed_area)
                   for r in records) / first.signed_area
    lengths = [first.length] + [r.metrics.length for r in records]
    length_ok = all(b <= a + 1e-10 * first.length
                    for a, b in zip(lengths, lengths[1:]))
    ratios = [first.isoperimetric_ratio]
    ratios += [r.metrics.isoperimetric_ratio for r in records]
    ratio_ok = all(b <= a + 1e-10 for a, b in zip(ratios, ratios[1:]))
    ok = area_dev <= 1e-4 and length_ok and ratio_ok
    _line(2, ok, f"area drift {area_dev:.3e} (<= 1e-4), "
                 f"length nonincreasing {length_ok}, "
                 f"ratio nonincreasing {ratio_ok}")
    assert ok


def test_criterion_03_length_rate_equals_dissipation(ellipse_run):
    records = ellipse_run.result.records
    t = np.array([r.time for r in records])
    L = np.array([r.metrics.length for r in records])
    ks2 = np.array([r.metrics.ks_norm_sq for r in records])
    # centered differences kill the one-sided O(dt) bias; the first records
    # still carry the mesh settling in, so they are burned off
    dLdt = (L[2:] - L[:-2]) / (t[2:] - t[:-2])
    denom = np.maximum(ks2[1:-1], 1e-8 * ks2[0])
    ratio = np.abs(dLdt + ks2[1:-1]) / denom
    worst = float(ratio[50:].max())
    ok = worst <= 0.02
    _line(3, ok, f"max |dL/dt + |k_s|^2| / |k_s|^2 = {worst:.4f} (<= 0.02)")
    assert ok


def test_criterion_04_osc_energy_balance_closes(perturbed_run):
    res = identity_residuals(perturbed_run.result.records)
    worst = res.osc_energy.rel_max
    ok = worst <= 0.05
    _line(4, ok, f"osc-energy identity residual {worst:.3e} (<= 0.05), "
                 f"{res.record_count} records")
    assert ok


def test_criterion_05_time_integrated_energy_capped(all_scenarios):
    worst_frac = 0.0
    worst_name = ""
    ok = True
    for name, scenario in all_scenarios.items():
        report = l1_energy_check(scenario.result.records)
        frac = report.values["integral"] / report.values["bound"]
        if frac > worst_frac:
            worst_frac, worst_name = frac, name
        ok = ok and report.verdicts["within_bound"] \
            and report.values["integral"] < report.values["bound"]
    _line(5, ok, f"integral/bound worst {worst_frac:.4f} on {worst_name!r} "
                 f"(< 1 strictly, {len(all_scenarios)} scenarios)")
    assert ok


def test_criterion_06_small_data_relaxes_to_round(perturbed_run):
    result = perturbed_run.result
    hyp = check_hypotheses(metrics(perturbed_run.initial))
    admissible = hyp.verdicts["admissible"] and hyp.values["kosc0"] < kstar() \
        and hyp.values["iso0"] < isoperimetric_limit()
    completed = result.reason == "max-time" \
        and abs(result.final_state.time - 5.0) <= 1e-9
    threshold = 2.0 * kstar()
    kosc_ok = all(r.metrics.osc_energy <= threshold for r in result.records)
    smallness = smallness_propagation_check(result.records)
    lyapunov_ok = smallness.verdicts["lyapunov_nonincreasing"] \
        and smallness.verdicts["kosc_within_threshold"]
    fit = decay_fit(result.records, DECAY_KOSC, (0.0, 0.5))
    pts = result.final_state.curve.vertices
    target = math.sqrt(result.initial_metrics.signed_area / math.pi)
    radii = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    raddev = float(np.max(np.abs(radii - target)))
    round_ok = raddev <= 1e-3 * target
    ok = admissible and completed and kosc_ok and lyapunov_ok \
        and fit.rate > 0.0 and round_ok
    _line(6, ok, f"admissible {admissible}, ran to t=5 {completed}, "
                 f"osc energy under {threshold:.4f} {kosc_ok}, "
                 f"monotone {lyapunov_ok}, decay rate {fit.rate:.2f} (> 0), "
                 f"radius deviation {raddev:.2e} (<= {1e-3 * target:.2e})")
    assert ok


def test_criterion_07_nonconvex_time_is_bounded(all_scenarios):
    ok = True
    rows = []
    for name, scenario in all_scenarios.items():
        first = scenario.result.initial_metrics
        if first.winding_number != 1 or first.signed_area <= 0.0:
            continue
        measure = positivity_waiting_measure(scenario.result.records)
        bound = waiting_time_bound(first.length, first.signed_area)
        ok = ok and measure <= bound + 1e-15
        rows.append((name, measure, bound))
    circle = dict((n, (m, b)) for n, m, b in rows)["circle"]
    ok = ok and circle[0] == 0.0 and circle[1] <= 1.1e-4
    wave = dict((n, (m, b)) for n, m, b in rows)["wave"]
    ok = ok and wave[0] > 0.0
    _line(7, ok, f"{len(rows)} runs within bound; circle measure {circle[0]} "
                 f"(= 0), wave measure {wave[0]:.1e} <= bound {wave[1]:.3e}")
    assert ok


def test_criterion_08_crossing_count_pays_in_energy():
    rng = np.random.default_rng(0)
    violations = 0
    worst_margin = math.inf
    for index in range(500):
        curve = _uniform(_corpus_spec(rng, index), 512)
        m = metrics(curve)
        crossings = find_crossings(curve)
        bound = multiplicity_bound(crossings.multiplicity, m.winding_number)
        margin = m.osc_energy - bound
        worst_margin = min(worst_margin, margin)
        if margin < -1e-9 * max(1.0, abs(bound)):
            violations += 1
    eight = metrics(_uniform(ShapeSpec("lemniscate", scale=1.0), 512))
    eight_margin = eight.osc_energy - 64.0
    ok = violations == 0 and eight_margin > 0.0
    _line(8, ok, f"500 curves, {violations} violations, worst margin "
                 f"{worst_margin:.3f}; figure-eight energy {eight.osc_energy:.2f} "
                 f"- 64 = {eight_margin:.2f} (> 0)")
    assert ok


def test_criterion_09_relaxing_run_stays_embedded(perturbed_run):
    certificate_bound = multiplicity_bound(2, 1)
    embedded_all = True
    certified_all = True
    for _, _, curve in perturbed_run.snapshots:
        embedded_all = embedded_all and not find_crossings(curve).crossings
        if metrics(curve).osc_energy < certificate_bound:
            certified_all = certified_all and (
                embeddedness_certificate(curve) == EMBEDDED_CERTIFIED)
    ok = embedded_all and certified_all
    _line(9, ok, f"{len(perturbed_run.snapshots)} snapshots embedded "
                 f"{embedded_all}, certificates below {certificate_bound:.2f} "
                 f"all certified {certified_all}")
    assert ok


def test_criterion_10_point_multiplicity_from_curvature():
    circle = _uniform(ShapeSpec("circle", radius=1.0), 1024)
    through_origin = SampledCurve(circle.vertices + np.array([1.0, 0.0]))
    single = density_integral(through_origin, (0.0, 0.0))
    eight = density_integral(_uniform(ShapeSpec("lemniscate", scale=1.0), 1024),
                             (0.0, 0.0))
    ok = abs(single - 8.0) <= 1e-2 and abs(eight - 16.0) <= 0.8
    _line(10, ok, f"circle through origin {single:.4f} (8 +- 1e-2), "
                  f"figure-eight node {eight:.3f} (16 +- 0.8)")
    assert ok


def test_criterion_11_inequality_corpus_is_clean():
    rng = np.random.default_rng(0)
    poincare_bad = 0
    for _ in range(1000):
        period = float(rng.uniform(0.5, 5.0))
        x = np.arange(2048) / 2048.0 * period
        f = np.zeros_like(x)
        for _ in range(3):
            f += float(rng.normal()) * np.sin(
                2.0 * math.pi * int(rng.integers(1, 7)) * x / period
                + float(rng.uniform(0.0, 2.0 * math.pi)))
        report = wirtinger_check(f, period)
        if not (report.verdicts["l2_holds"] and report.verdicts["sup_holds"]):
            poincare_bad += 1
    symmetric_bad = 0
    for _ in range(1000):
        entries = rng.lognormal(sigma=1.5, size=int(rng.integers(2, 11)))
        held = all(newton_ratio_check(entries, i)
                   for i in range(entries.size - 1))
        if not (held and harmonic_sum_bound_check(entries)):
            symmetric_bad += 1
    x = np.arange(8192) / 8192.0
    gap = wirtinger_check(np.sin(2.0 * math.pi * x), 1.0).values["equality_gap"]
    ok = poincare_bad == 0 and symmetric_bad == 0 and abs(gap) <= 1e-6
    _line(11, ok, f"poincare violations {poincare_bad}/1000, symmetric-function "
                  f"violations {symmetric_bad}/1000, first-harmonic equality "
                  f"gap {gap:.1e} (<= 1e-6)")
    assert ok


def test_criterion_12_threshold_constant_is_right():
    getcontext().prec = 60
    reference = Decimal(KSTAR_DIGITS)
    rel = float(abs(Decimal(repr(kstar())) - reference) / reference)
    doubled = 2.0 * kstar()
    ok = rel <= 1e-12 and doubled <= 0.106
    _line(12, ok, f"kstar vs 50-digit reference rel {rel:.1e} (<= 1e-12), "
                  f"2 kstar = {doubled:.6f} (<= 0.106)")
    assert ok
