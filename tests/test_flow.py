"""Stepping, stop conditions, conservation, and the RK4 cross-validation."""

import dataclasses
import json
import math
import platform
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvediffusion import flow, geometry
from curvediffusion.errors import DegenerateGeometryError, RejectedInputError
from curvediffusion.flow import (
    FlowConfig,
    FlowState,
    TrajectoryRecord,
    identity_residuals,
    read_trajectory_jsonl,
    record_to_json,
    run,
    _advance,
    _apply_cyclic_pentadiagonal,
    _project_area,
    _solve_cyclic_pentadiagonal,
    write_trajectory_jsonl,
)
from curvediffusion.geometry import (
    SPREAD_TOL,
    CurveMetrics,
    SampledCurve,
    ShapeSpec,
    curvature_profile,
    generate,
    metrics,
    resample_uniform,
    signed_area,
)
from conftest import scenario_names
from references import _rk4_advance, hausdorff_distance


RIPPLE = ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((2, 0.01, 0.0),))

# how each run of tests/scenarios stops: reason, final step index and the
# prefix of the blow-up detail
SESSION_STOPS = {
    "circle": ("max-time", 10000, ""),
    "ellipse": ("max-time", 20000, ""),
    "perturbed": ("max-time", 50000, ""),
    "wide-perturbed": ("max-time", 5000, ""),
    "strong-perturbed": ("max-time", 10000, ""),
    "mode3": ("max-time", 5000, ""),
    "lemniscate": ("blow-up", 3308, "curvature energy"),
    "wave": ("max-steps", 30, ""),
}


def uniform(spec: ShapeSpec, n: int):
    return resample_uniform(generate(spec, n))


# ints beyond float range: Python refuses the repr of the second, which has
# more than 4300 digits
OVERSIZED = pytest.mark.parametrize("big", [10 ** 400, 10 ** 5000],
                                    ids=["401-digits", "5001-digits"])


def rk4_advance(curve, dt):
    """The RK4 reference step in the place of flow._implicit_advance; RK4
    has no linear solve, so its residual is 0."""
    return _rk4_advance(curve.vertices, dt), 0.0


class TestSingleStep:
    def test_advances_time_and_counter(self):
        initial = uniform(ShapeSpec("circle", radius=1.0), 64)
        vertices = initial.vertices.copy()
        after = run(initial, FlowConfig(n=64, dt=1e-4, max_steps=1)).final_state
        assert after.step_index == 1
        assert abs(after.time - 1e-4) <= 1e-18
        assert after.curve.is_uniform()
        assert np.array_equal(initial.vertices, vertices)  # input curve untouched

    def test_step_resamples_to_config_n_like_run(self):
        # a uniform curve at the wrong vertex count is resampled first, to
        # the same curve as one at config.n
        curve = uniform(ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                  modes=((2, 0.01, 0.0),)), 128)
        config = FlowConfig(n=256, dt=1e-4, max_steps=1)
        after = run(curve, config).final_state
        ran = run(resample_uniform(curve, 256), config).final_state
        assert after.curve.n == 256
        assert np.array_equal(after.curve.vertices, ran.curve.vertices)

    @pytest.mark.parametrize("offset, config, reason", [
        (1.2, FlowConfig(n=256, dt=1e-4, max_steps=20), "max-steps"),
        (0.5, FlowConfig(n=256, dt=1e-4, max_steps=3000), "blow-up"),
    ], ids=["limacon-1.2", "limacon-0.5"])
    def test_every_carried_state_is_uniform_in_arclength(self, offset, config,
                                                         reason):
        # the area projection after the resample shifts every vertex along
        # its normal by the same amount, which stretches chords in proportion
        # to the curvature; on these limacons the chord spread can end above
        # 1e-6, and the step must resample and project again until it is not
        seen = []
        result = run(uniform(ShapeSpec("limacon", offset=offset), 256), config,
                     on_record=lambda *args: seen.append(args))
        assert result.reason == reason
        assert len(seen) == len(result.records) > 0
        for state, _ in seen:
            assert state.curve.is_uniform()
            assert state.curve.chord_spread() <= SPREAD_TOL
        state, record = seen[0]
        assert record.metrics == metrics(state.curve)

    def test_pass_cap_ends_the_run_with_the_last_good_state(self, monkeypatch):
        # a projection that leaves one chord stretched on every pass never
        # reaches a uniform curve: the step must give up after the capped
        # number of passes instead of carrying that curve on
        project = flow._project_area
        armed = []

        def stretching(pts, *args):
            out = project(pts, *args)
            if armed:
                out[0] += 1e-4 * (out[1] - out[0])
            return out

        monkeypatch.setattr(flow, "_project_area", stretching)
        seen = []

        def hook(state, record):
            seen.append(state)
            if state.step_index == 3:
                armed.append(True)

        result = run(uniform(RIPPLE, 256),
                     FlowConfig(n=256, dt=1e-4, max_steps=20), on_record=hook)
        assert result.reason == "blow-up"
        assert result.detail.startswith("redistribution failed")
        assert "extra resample-project passes" in result.detail
        assert len(result.records) == 3
        assert result.final_state is seen[-1]

    def test_failed_projection_ends_the_run_with_the_last_good_state(self,
                                                                    monkeypatch):
        # the step's one area projection runs inside the redistribution, so a
        # projection that cannot reach the area fails the redistribution
        project = flow._project_area
        armed = []

        def failing(*args):
            if armed:
                raise DegenerateGeometryError("area projection: unreachable")
            return project(*args)

        monkeypatch.setattr(flow, "_project_area", failing)
        seen = []

        def hook(state, record):
            seen.append(state)
            if state.step_index == 4:
                armed.append(True)

        result = run(uniform(RIPPLE, 256),
                     FlowConfig(n=256, dt=1e-4, max_steps=20), on_record=hook)
        assert result.reason == "blow-up"
        assert result.detail.startswith("redistribution failed: area projection:")
        assert len(result.records) == 4
        assert result.final_state.step_index == 4
        assert result.final_state is seen[-1]

    @pytest.mark.parametrize("poison, detail", [
        (math.nan, "non-finite coordinates after the step"),
        (math.inf, "non-finite coordinates after the step"),
        # finite, but it misses the system by far more than rounding
        (1e-3, "implicit step residual"),
    ], ids=["nan", "inf", "residual"])
    def test_failed_step_ends_the_run_with_the_last_good_state(
            self, monkeypatch, poison, detail):
        # the finiteness check runs before the residual, which a non-finite
        # solution makes NaN; a residual above RESIDUAL_TOL used to escape
        # run() as an exception, which lost the accepted records
        solve = flow._solve_cyclic_pentadiagonal
        calls = []

        def poisoned(*args):
            x = solve(*args)
            calls.append(1)
            if len(calls) == 3:
                x[0, 0] += poison
            return x

        monkeypatch.setattr(flow, "_solve_cyclic_pentadiagonal", poisoned)
        seen = []
        result = run(uniform(RIPPLE, 256),
                     FlowConfig(n=256, dt=1e-4, max_steps=20),
                     on_record=lambda state, record: seen.append(state))
        assert result.reason == "blow-up"
        assert result.detail.startswith(detail)
        assert len(result.records) == 2
        assert result.final_state is seen[-1]

    def test_length_rate_matches_dissipation_at_small_dt(self):
        # one backward-difference step reproduces dL/dt = -|k_s|^2;
        # the mismatch shrinks with dt and is well under 2% at dt=1e-6
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        m = metrics(curve)
        after = run(curve, FlowConfig(n=256, dt=1e-6, max_steps=1)).final_state
        rate = (after.curve.length() - m.length) / 1e-6
        assert abs(rate + m.ks_norm_sq) / m.ks_norm_sq <= 0.02

    def test_length_rate_bias_at_reference_dt(self):
        # at the reference step size the one-step backward difference
        # carries a first-order bias near 25%; pin its band so regressions
        # in the splitting are visible
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        m = metrics(curve)
        after = run(curve, FlowConfig(n=256, dt=1e-4, max_steps=1)).final_state
        rate = (after.curve.length() - m.length) / 1e-4
        bias = abs(rate + m.ks_norm_sq) / m.ks_norm_sq
        assert 0.2 <= bias <= 0.3


class TestCarriedValues:
    """Each quantity a step or a record reads of a curve is computed once,
    by the curve, and kept; a loop that rebuilds every curve without its
    kept values must give the same run."""

    @staticmethod
    def rebuilt(state):
        # the same vertices in a new curve, which has computed nothing yet
        curve = SampledCurve(state.curve.vertices)
        return FlowState(curve, time=state.time, step_index=state.step_index)

    @classmethod
    def uncached_run(cls, initial, config):
        state, records = FlowState(initial), []
        while state.step_index < config.max_steps:
            state, residual = _advance(cls.rebuilt(state), config)
            state = cls.rebuilt(state)
            records.append(TrajectoryRecord(state.time, state.curve._measured,
                                            residual))
        return records, state

    @pytest.mark.parametrize("spec, config, advance", [
        (RIPPLE, FlowConfig(n=256, dt=1e-4, max_steps=50), None),
        (RIPPLE, FlowConfig(n=1024, dt=1e-4, max_steps=10), None),
        # step 1 needs an extra resample-project pass to reach a uniform grid
        (ShapeSpec("limacon", offset=1.2), FlowConfig(n=256, dt=1e-4, max_steps=20),
         None),
        (ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0),
         FlowConfig(n=32, dt=1e-6, max_steps=20), rk4_advance),
    ], ids=["ripple", "ripple-1024", "limacon-1.2", "rk4"])
    def test_run_is_bitwise_the_uncarried_loop(self, monkeypatch, spec, config,
                                               advance):
        if advance is not None:
            monkeypatch.setattr(flow, "_implicit_advance", advance)
        initial = uniform(spec, config.n)
        result = run(initial, config)
        records, state = self.uncached_run(initial, config)
        assert result.reason == "max-steps"
        # every field, the oscillation-balance integrals included
        assert list(result.records) == records
        assert np.array_equal(result.final_state.curve.vertices,
                              state.curve.vertices)

    def test_call_budget_per_step(self, monkeypatch):
        # the quantities one step needs are computed once; counted between
        # consecutive records, so the set-up is outside the count
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        budget = {
            geometry._chord_lengths: 4,
            geometry._frames: 1,
            geometry._metrics: 1,
            geometry.signed_area: 1,
            geometry.turning_number: 1,
            scipy.linalg.solve_banded: 0,
            # every caller, numpy's own stacking functions included
            np.concatenate: 8,
            np.column_stack: 0,
            np.stack: 0,
            np.searchsorted: 0,
            np.vstack: 0,
            np.sum: 0,
            np.clip: 0,
            np.diff: 0,
            np.append: 0,
        }
        numpy_modules = [module for name, module in list(sys.modules.items())
                         if name == "numpy" or name.startswith("numpy.")]
        for fn in budget:
            wrapper = counting(fn.__name__, fn)
            for module in (flow, geometry, scipy.linalg, *numpy_modules):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
        seen = []
        run(uniform(RIPPLE, 256), FlowConfig(n=256, dt=1e-4, max_steps=20),
            on_record=lambda *args: seen.append(Counter(counts)))
        assert len(seen) == 20
        for before, after in zip(seen, seen[1:]):
            for fn, bound in budget.items():
                assert after[fn.__name__] - before[fn.__name__] <= bound, fn.__name__

    def test_flow_resample_takes_two_spline_evaluations_at_4096(self, monkeypatch):
        # at n = 4096 the second evaluation reaches a spread of 2.0e-12 to
        # 2.6e-12, under the rounding-aware target 4 n eps = 3.6e-12, so the
        # iteration stops there
        evaluate, resample = geometry._evaluate_spline, flow._resample_points
        evals, per_call = Counter(), []

        def counting_evaluate(*args):
            evals["spline"] += 1
            return evaluate(*args)

        def counting_resample(*args):
            before = evals["spline"]
            out = resample(*args)
            per_call.append(evals["spline"] - before)
            return out

        initial = uniform(RIPPLE, 4096)
        monkeypatch.setattr(geometry, "_evaluate_spline", counting_evaluate)
        monkeypatch.setattr(flow, "_resample_points", counting_resample)
        result = run(initial, FlowConfig(n=4096, dt=1e-4, max_steps=5))
        assert result.reason == "max-steps"
        assert len(per_call) >= 5
        assert max(per_call) <= 2


class TestStopConditions:
    def test_max_steps_exact(self):
        result = run(uniform(ShapeSpec("circle", radius=1.0), 64),
                     FlowConfig(n=64, dt=1e-4, max_steps=25))
        assert result.reason == "max-steps"
        assert len(result.records) == 25
        assert result.final_state.step_index == 25

    def test_max_time_exact(self):
        result = run(uniform(ShapeSpec("circle", radius=1.0), 64),
                     FlowConfig(n=64, dt=1e-4, max_time=0.01))
        assert result.reason == "max-time"
        assert len(result.records) == 100
        assert abs(result.final_state.time - 0.01) <= 1e-12

    def test_blow_up_reports_last_good_state(self, lemniscate_run):
        result = lemniscate_run.result
        assert result.reason == "blow-up"
        assert result.detail != ""
        assert len(result.records) > 0
        final = result.final_state.curve.vertices
        assert np.isfinite(final).all()
        assert result.final_state.step_index == len(result.records)

    def test_lemniscate_stops_at_the_curvature_ceiling(self, lemniscate_run):
        # the figure-eight's blow-up is its curvature energy reaching the
        # ceiling; a failed step would also end the run as a blow-up
        result = lemniscate_run.result
        assert result.reason == "blow-up"
        assert result.detail.startswith("curvature energy")
        assert abs(result.final_state.time - 0.04135) <= 0.01 * 0.04135

    def test_lemniscate_stops_at_its_first_rise_in_length(self):
        # at the default ceiling the figure-eight passes its singular time;
        # step 3382 raised L by 48% and the run went on to max-time
        initial = uniform(ShapeSpec("lemniscate", scale=1.0), 256)
        result = run(initial, FlowConfig(n=256, dt=1.25e-5, max_time=0.05))
        assert result.reason == "blow-up"
        assert result.detail.startswith("length increased: unstable step")
        assert len(result.records) == 3381
        lengths = [initial.length()] + [r.metrics.length for r in result.records]
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("spec, config, records, unresolved", [
        # 256 points do not resolve the inner dimple: the first step raises
        # L by 12%
        (ShapeSpec("limacon", offset=1.05),
         FlowConfig(n=256, dt=2.5e-5, max_steps=10),
         0, "; unresolved: max|k|·h = 1.63"),
        # past its singular time the figure-eight is still resolved, at
        # max|k|·h = 0.10: its step fails, so the message blames the step alone
        (ShapeSpec("lemniscate", scale=1.0),
         FlowConfig(n=128, dt=5e-5, max_time=0.05),
         873, None),
    ], ids=["limacon-1.05", "lemniscate-128"])
    def test_length_stop_names_an_unresolved_curve(self, spec, config, records,
                                                    unresolved):
        result = run(uniform(spec, config.n), config)
        assert result.reason == "blow-up"
        assert result.detail.startswith("length increased: unstable step took L")
        assert len(result.records) == records
        # the final state is the curve the failed step started from
        curve = result.final_state.curve
        kh = float(np.abs(curvature_profile(curve)).max()) * curve.length() / curve.n
        assert (kh > flow.UNRESOLVED_KH) == (unresolved is not None)
        if unresolved is None:
            assert "unresolved" not in result.detail
        else:
            assert result.detail.endswith(unresolved)

    def test_ceiling_below_the_initial_energy_stops_before_any_record(self):
        # the first step's curve already reaches the ceiling: no step is
        # accepted and the final state is the initial curve, untouched
        initial = uniform(RIPPLE, 64)
        k = curvature_profile(initial)
        energy = float((k * k).sum()) * (initial.length() / initial.n)
        result = run(initial, FlowConfig(n=64, dt=1e-4, max_steps=10,
                                         curvature_energy_ceiling=0.5 * energy))
        assert result.reason == "blow-up"
        assert result.detail.startswith("curvature energy")
        assert result.records == ()
        assert result.final_state.curve is initial
        assert result.final_state.step_index == 0
        assert result.final_state.time == 0.0

    @pytest.mark.parametrize("name", sorted(SESSION_STOPS))
    def test_session_runs_stop_where_measured(self, request, name):
        reason, final_step, detail = SESSION_STOPS[name]
        result = request.getfixturevalue(name.replace("-", "_") + "_run").result
        assert result.reason == reason
        assert result.final_state.step_index == final_step
        assert len(result.records) == final_step
        assert result.detail.startswith(detail)
        assert (result.detail == "") == (reason != "blow-up")

    def test_every_scenario_has_its_stop_pinned(self):
        # a new manifest in tests/scenarios cannot skip the pin above
        assert sorted(SESSION_STOPS) == scenario_names()

    def test_config_requires_a_stop_condition(self):
        with pytest.raises(RejectedInputError):
            FlowConfig(n=64, dt=1e-4)

    @pytest.mark.parametrize("name", ["max_time", "curvature_energy_ceiling"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, "1", True])
    def test_limits_must_be_positive_and_finite(self, name, value):
        # a NaN limit never compares true, so a NaN max_time never ends a run;
        # a string used to end in a bare TypeError, and True to read as 1.0
        with pytest.raises(RejectedInputError, match=name):
            FlowConfig(n=64, dt=1e-4, max_steps=10, **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("n", 64.5), ("n", 64.0), ("n", True), ("n", "64"),
        ("max_steps", 2.5), ("max_steps", 3.0), ("max_steps", True),
    ])
    def test_sizes_must_be_integers(self, name, value):
        # max_steps = 2.5 used to run 3 steps, and n = 64.5 to fail late
        fields = {"n": 64, "dt": 1e-4, "max_steps": 10, name: value}
        with pytest.raises(RejectedInputError,
                           match=f"^{name} must be an integer, got {value!r}$"):
            FlowConfig(**fields)

    @pytest.mark.parametrize("name, value", [
        ("dt", "1e-4"), ("dt", True), ("dt", None),
        ("curvature_energy_ceiling", None),
    ])
    def test_set_limits_must_be_numbers(self, name, value):
        # only max_time may be None; a None ceiling used to pass and end the
        # first step in a bare TypeError
        fields = {"n": 64, "dt": 1e-4, "max_steps": 10, name: value}
        with pytest.raises(RejectedInputError, match=re.escape(
                f"{name} must be a positive finite number, got {value!r}")):
            FlowConfig(**fields)


    @OVERSIZED
    @pytest.mark.parametrize("name", [
        "dt", "max_time", "curvature_energy_ceiling", "n", "max_steps"])
    def test_ints_beyond_float_range_are_refused_by_name(self, name, big):
        # the limits used to end in a bare OverflowError, and the sizes to
        # pass and fail inside numpy
        fields = {"n": 64, "dt": 1e-4, "max_steps": 10, name: big}
        with pytest.raises(RejectedInputError, match=f"^{name} must be "):
            FlowConfig(**fields)


# Prints the minor page faults per step of MEASURED steps after WARM_UP steps
# at n = 4096, in a fresh interpreter: glibc adapts its thresholds to the
# frees a process has made, so a count taken here would depend on the tests
# that ran before.
_FAULTS_PER_STEP = """
import resource
from curvediffusion.flow import FlowConfig, run
from curvediffusion.geometry import ShapeSpec, generate, resample_uniform

N, WARM_UP, MEASURED = 4096, 5, 20
faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
spec = ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((2, 0.01, 0.0),))
initial = resample_uniform(generate(spec, N))
counts = {}
def count(state, record):
    counts[state.step_index] = faults()
run(initial, FlowConfig(n=N, dt=1e-4, max_steps=WARM_UP + MEASURED),
    on_record=count)
print((counts[WARM_UP + MEASURED] - counts[WARM_UP]) / MEASURED)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_steps_keep_the_freed_heap():
    # at n = 4096 a step's (n, 2) arrays are 64 KiB, so glibc's default trim
    # hands the heap top back on every step: about 140 faults per step
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 20


def test_run_without_mallopt_is_unchanged(monkeypatch):
    # where the C library has no mallopt the setting is skipped, and the
    # trajectory never depended on it
    initial = uniform(RIPPLE, 128)
    config = FlowConfig(n=128, dt=1e-4, max_steps=40)
    expected = run(initial, config)
    opened = []

    def no_mallopt(name, *args, **kwargs):
        opened.append(name)
        return object()

    monkeypatch.setattr(flow.ctypes, "CDLL", no_mallopt)
    flow._retain_freed_heap.cache_clear()
    try:
        result = run(initial, config)
    finally:
        monkeypatch.undo()
        flow._retain_freed_heap.cache_clear()
    assert opened == ([None] if sys.platform.startswith("linux") else [])
    assert ([record_to_json(r) for r in result.records]
            == [record_to_json(r) for r in expected.records])
    assert (result.final_state.curve.vertices.tobytes()
            == expected.final_state.curve.vertices.tobytes())


class TestConservation:
    def test_area_projection_pins_area(self):
        initial = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        result = run(initial, FlowConfig(n=256, dt=1e-4, max_steps=100))
        drift = abs(result.records[-1].metrics.signed_area
                    - result.initial_metrics.signed_area)
        assert drift <= 1e-12

    def test_unprojected_truncation_drift_is_visible(self, monkeypatch):
        # an identity projection leaves the step's leak and the resample's
        # own area change in place
        monkeypatch.setattr(flow, "_project_area", lambda pts, seg, target: pts)
        initial = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        result = run(initial, FlowConfig(n=256, dt=1e-4, max_steps=100))
        drift = abs(result.records[-1].metrics.signed_area
                    - result.initial_metrics.signed_area)
        assert drift >= 1e-5

    def test_unreachable_area_raises(self):
        # a circle cannot reach a negative area by a normal translation
        curve = uniform(ShapeSpec("circle", radius=1.0), 64)
        with pytest.raises(DegenerateGeometryError, match="area projection"):
            _project_area(curve.vertices, curve.segment_lengths(), -10.0)

    @pytest.mark.parametrize("radius", [1e-14, 1.0, 1e6])
    def test_projection_is_scale_invariant(self, radius):
        curve = generate(ShapeSpec("circle", radius=radius), 64)
        target = signed_area(curve) * (1.0 + 1e-6)
        projected = type(curve)(_project_area(curve.vertices,
                                              curve.segment_lengths(), target))
        assert abs(signed_area(projected) - target) <= 1e-12 * abs(target)

    def test_monotonicity_and_winding(self, ellipse_run):
        records = ellipse_run.result.records
        L0 = ellipse_run.result.initial_metrics.length
        lengths = [ellipse_run.result.initial_metrics.length]
        lengths += [r.metrics.length for r in records]
        for older, newer in zip(lengths, lengths[1:]):
            assert newer <= older + 1e-10 * L0
        ratios = [r.metrics.isoperimetric_ratio for r in records]
        for older, newer in zip(ratios, ratios[1:]):
            assert newer <= older + 1e-10
        assert all(r.metrics.winding_number == 1 for r in records)

    def test_area_rate_residual_per_record(self, ellipse_run):
        # the one-step backward difference of A between consecutive records
        result = ellipse_run.result
        A0 = result.initial_metrics.signed_area
        times = [0.0] + [r.time for r in result.records]
        areas = [A0] + [r.metrics.signed_area for r in result.records]
        worst = max(abs((a1 - a0) / (t1 - t0)) for a0, a1, t0, t1
                    in zip(areas, areas[1:], times, times[1:]))
        assert worst <= 1e-6 * A0


class TestCyclicSolve:
    @staticmethod
    def dense(n, c):
        matrix = np.eye(n)
        for offset, weight in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)):
            for i in range(n):
                matrix[i, (i + offset) % n] += c * weight
        return matrix

    @pytest.mark.parametrize("n", [16, 17, 255, 256])
    @pytest.mark.parametrize("c", [1e-2, 1e2, 1e10])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_matches_dense_solve(self, n, c, columns):
        rhs = np.random.default_rng(n).standard_normal((n, columns))
        x = _solve_cyclic_pentadiagonal(c, rhs)
        assert x.shape == rhs.shape
        # normalized backward residual, as the implicit step checks it
        gap = _apply_cyclic_pentadiagonal(c, x) - rhs
        scale = float(np.abs(rhs).max()) + (1.0 + 16.0 * c) * float(np.abs(x).max())
        assert float(np.abs(gap).max()) / scale <= 1e-14
        if c <= 1e2:
            want = np.linalg.solve(self.dense(n, c), rhs)
            assert float(np.abs(x - want).max()) <= 1e-12 * float(np.abs(want).max())


class TestGaugeAndSchemes:
    def test_explicit_rk4_cross_validates_implicit(self, monkeypatch):
        initial = uniform(ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                    modes=((2, 0.05, 0.0),)), 64)
        implicit = run(initial, FlowConfig(n=64, dt=1e-6, max_steps=2000))
        monkeypatch.setattr(flow, "_implicit_advance", rk4_advance)
        explicit = run(initial, FlowConfig(n=64, dt=1e-6, max_steps=2000))
        distance = hausdorff_distance(implicit.final_state.curve,
                                      explicit.final_state.curve)
        assert distance <= 5e-5


class TestRelaxation:
    def test_strong_mode2_returns_to_round(self, strong_perturbed_run):
        result = strong_perturbed_run.result
        kosc0 = result.initial_metrics.osc_energy
        assert result.reason == "max-time"
        assert result.records[-1].metrics.osc_energy <= kosc0 / 10.0
        pts = result.final_state.curve.vertices
        target = math.sqrt(result.initial_metrics.signed_area / math.pi)
        radii = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        assert float(np.max(np.abs(radii - target))) <= 1e-3 * target

    def test_mode3_energy_burns_off(self, mode3_run):
        result = mode3_run.result
        kosc0 = result.initial_metrics.osc_energy
        assert result.records[-1].metrics.osc_energy <= kosc0 / 10.0

    def test_wave_curvature_recovers_positivity(self, wave_run):
        kmins = [r.metrics.min_curvature for r in wave_run.result.records]
        assert kmins[0] < 0.0
        assert kmins[-1] > 0.0


class TestResiduals:
    def test_identity_residuals_on_ellipse(self, ellipse_run):
        res = identity_residuals(ellipse_run.result.records)
        # centered differences exist at interior records only
        assert res.record_count == len(ellipse_run.result.records) - 2
        assert res.area.abs_max <= 1e-9
        assert res.length.rel_max <= 0.15
        assert res.osc_energy.rel_max <= 0.15

    def test_identity_residuals_on_perturbed(self, perturbed_run):
        res = identity_residuals(perturbed_run.result.records)
        assert res.length.rel_max <= 0.05
        assert res.osc_energy.rel_max <= 0.05

    # four hand-built records with round values; each row holds t, L, A,
    # kbar, kosc, ks2, kss2, int_dev_ks2 and int_dev2_ks2
    ORACLE_KEYS = ("t", "L", "A", "kbar", "kosc", "ks2", "kss2", "int_dev_ks2",
                   "int_dev2_ks2")
    ORACLE_ROWS = (
        (0.0, 4.0 + 2.0 ** -38, 1.5, 0.5, 9.0, 1.0, 1.0, 0.0, 0.0),
        (1.0, 4.0, 2.0, 0.5, 2.0, 2.0 ** -40, 0.5, -0.125, 0.25),
        (2.0, 4.0, 2.0, 0.25, 1.0, 0.375, 0.25, -0.25, 0.125),
        (3.0, 3.0, 3.0, 0.5, 0.5, 1.0, 1.0, 0.0, 0.0),
    )

    def test_identity_residuals_of_hand_built_records(self, tmp_path):
        # the records are read from trajectory lines, so the test does not
        # depend on which dataclass holds each field
        lines = [json.dumps({**dict(zip(self.ORACLE_KEYS, row)), "I": None,
                             "omega": 1, "kmin": -0.5, "residual": 0.0})
                 for row in self.ORACLE_ROWS]
        path = tmp_path / "trajectory.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        res = identity_residuals(read_trajectory_jsonl(path))
        # interior record t = 1, differenced over t = 0 .. 2:
        #   area    dA = (2 - 1.5) / 2 = 0.25, over |A| = 2: 0.125
        #   length  dL = -2^-38 / 2 = -2^-39 and ks2 = 2^-40: residual 2^-40,
        #           largest term 2^-39, below the floor 1e-7 * 0.5 set by
        #           t = 2's largest term, so its rel residual reads 0
        #   osc     dkosc = (1 - 9) / 2 = -4;
        #           gain = 3*4*0.25 + 6*0.5*4*(-0.125) + 2*0.25*4*2^-40
        #                = 3 - 1.5 + 2^-39;
        #           loss = 2*2^-40/4 + 2*4*0.5 = 2^-41 + 4;
        #           residual |-4 + 4 + 2^-41 - 1.5 - 2^-39| = 1.5 + 3*2^-41,
        #           largest term 4 (|dkosc| and 2*4*0.5), rel 0.375 + ...
        # interior record t = 2, differenced over t = 1 .. 3:
        #   area    dA = (3 - 2) / 2 = 0.5, over |A| = 2: 0.25
        #   length  dL = (3 - 4) / 2 = -0.5 and ks2 = 0.375: residual 0.125,
        #           largest term 0.5, rel 0.25
        #   osc     dkosc = (0.5 - 2) / 2 = -0.75;
        #           gain = 3*4*0.125 + 6*0.25*4*(-0.25) + 2*0.0625*4*0.375
        #                = 1.5 - 1.5 + 0.1875;
        #           loss = 1*0.375/4 + 2*4*0.25 = 0.09375 + 2;
        #           residual |-0.75 + 2.09375 - 0.1875| = 1.15625,
        #           largest term 2 (2*4*0.25), rel 0.578125
        # every rel residual of the area divides by 1
        assert res == flow.IdentityResiduals(
            area=flow.ResidualStat(abs_max=0.25, rel_max=0.25),
            length=flow.ResidualStat(abs_max=0.125, rel_max=0.25),
            osc_energy=flow.ResidualStat(abs_max=1.5 + 3 * 2.0 ** -41,
                                         rel_max=0.578125),
            record_count=2)


    @pytest.mark.parametrize("order", [(0, 0, 1), (2, 1, 0)],
                             ids=["repeated", "backwards"])
    def test_times_must_increase(self, order):
        # both used to return residuals; the backwards list read rel_max 1.0
        records = run(uniform(ShapeSpec("circle", radius=1.0), 64),
                      FlowConfig(n=64, dt=1e-4, max_steps=3)).records
        with pytest.raises(RejectedInputError, match="strictly increasing"):
            identity_residuals([records[i] for i in order])


class TestTrajectorySerialization:
    def test_jsonl_round_trip(self, perturbed_run, tmp_path):
        records = perturbed_run.result.records[:50]
        path = tmp_path / "trajectory.jsonl"
        write_trajectory_jsonl(records, path)
        back = read_trajectory_jsonl(path)
        assert back == list(records)

    def test_saved_run_rechecks_like_the_live_records(self, ellipse_run,
                                                      tmp_path):
        records = ellipse_run.result.records[:500]
        path = tmp_path / "trajectory.jsonl"
        write_trajectory_jsonl(records, path)
        assert (identity_residuals(read_trajectory_jsonl(path))
                == identity_residuals(records))

    def test_schema_writes_every_record_field_once(self):
        record_fields = [f.name for f in dataclasses.fields(TrajectoryRecord)]
        want = [name for name in record_fields if name != "metrics"]
        want += [f"metrics.{f.name}" for f in dataclasses.fields(CurveMetrics)]
        attrs = [attr for _, attr, _ in flow._TRAJECTORY_SCHEMA]
        assert len(attrs) == len(set(attrs))
        assert sorted(attrs) == sorted(want)

    def test_line_without_the_balance_integrals_rejected(self, tmp_path):
        # the format that wrote backward-difference rates in place of the
        # oscillation-balance integrals
        old = ('{"t":0.25,"L":6.5,"A":3.0,"I":1.125,"omega":1,"kbar":0.96875,'
               '"kosc":0.125,"ks2":2.5,"kss2":40.0,"kmin":-0.5,"dL_dt":-2.5,'
               '"dA_dt":1e-12,"residual":3e-16}')
        path = tmp_path / "trajectory.jsonl"
        path.write_text(old + "\n", encoding="utf-8")
        lacking = r"line 1 lacks fields \['int_dev_ks2', 'int_dev2_ks2'\]"
        with pytest.raises(RejectedInputError, match=lacking):
            read_trajectory_jsonl(path)

    # every key in file order, each holding a distinct value; the second
    # record has no isoperimetric ratio
    FIXED_LINES = (
        '{"t":0.25,"L":6.5,"A":3.0,"I":1.125,"omega":1,"kbar":0.96875,'
        '"kosc":0.125,"ks2":2.5,"kss2":40.0,"kmin":-0.5,"int_dev_ks2":-0.75,'
        '"int_dev2_ks2":0.375,"residual":3e-16}',
        '{"t":0.5,"L":6.25,"A":0.0,"I":null,"omega":0,"kbar":0.0,'
        '"kosc":7.75,"ks2":31.5,"kss2":51.5,"kmin":-3.0,"int_dev_ks2":2.25,'
        '"int_dev2_ks2":12.5,"residual":0.0}',
    )

    @staticmethod
    def fixed_records():
        return [
            TrajectoryRecord(
                time=0.25,
                metrics=CurveMetrics(
                    length=6.5, signed_area=3.0, isoperimetric_ratio=1.125,
                    winding_number=1, average_curvature=0.96875,
                    osc_energy=0.125, ks_norm_sq=2.5, kss_norm_sq=40.0,
                    min_curvature=-0.5, int_dev_ks2=-0.75, int_dev2_ks2=0.375),
                solver_residual=3e-16),
            TrajectoryRecord(
                time=0.5,
                metrics=CurveMetrics(
                    length=6.25, signed_area=0.0, isoperimetric_ratio=None,
                    winding_number=0, average_curvature=0.0,
                    osc_energy=7.75, ks_norm_sq=31.5, kss_norm_sq=51.5,
                    min_curvature=-3.0, int_dev_ks2=2.25, int_dev2_ks2=12.5),
                solver_residual=0.0),
        ]

    def test_fixed_records_serialize_to_their_literals(self):
        got = tuple(record_to_json(r) for r in self.fixed_records())
        assert got == self.FIXED_LINES

    def test_fixed_lines_read_back_to_the_records(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        path.write_text("\n".join(self.FIXED_LINES) + "\n", encoding="utf-8")
        back = read_trajectory_jsonl(path)
        assert back == self.fixed_records()
        assert type(back[0].metrics.winding_number) is int

    def test_record_json_is_deterministic(self, perturbed_run):
        record = perturbed_run.result.records[0]
        assert record_to_json(record) == record_to_json(record)

    @pytest.mark.parametrize("later", [1, 0], ids=["repeated", "backwards"])
    def test_time_must_increase(self, tmp_path, later):
        result = run(uniform(ShapeSpec("circle", radius=1.0), 64),
                     FlowConfig(n=64, dt=1e-4, max_steps=3))
        lines = [record_to_json(r) for r in result.records]
        lines.insert(2, lines[later])
        path = tmp_path / "trajectory.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RejectedInputError, match="line 3"):
            read_trajectory_jsonl(path)

    def test_reads_past_a_byte_order_mark(self, circle_run, tmp_path):
        # the BOM used to make line 1 malformed JSON
        path = tmp_path / "trajectory.jsonl"
        write_trajectory_jsonl(circle_run.result.records[:5], path)
        bom = tmp_path / "bom.jsonl"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_trajectory_jsonl(bom) == read_trajectory_jsonl(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        path.write_bytes(b'{"t": 1.0\xff}\n')
        with pytest.raises(RejectedInputError, match="not UTF-8"):
            read_trajectory_jsonl(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        path.write_text("5\n", encoding="utf-8")
        with pytest.raises(RejectedInputError, match="line 1 is not a JSON object"):
            read_trajectory_jsonl(path)

    @pytest.mark.parametrize("field, value", [
        ("t", "abc"), ("kosc", None), ("omega", "one"), ("I", [1.0]),
        ("L", {"v": 1.0}), ("omega", 1e400),
        ("L", "6.5"), ("omega", 2.7), ("kosc", True),
        ("L", float("nan")), ("kbar", float("inf")), ("omega", 1.0),
    ])
    def test_non_numeric_field_names_line_and_field(self, tmp_path, field, value):
        result = run(uniform(ShapeSpec("circle", radius=1.0), 64),
                     FlowConfig(n=64, dt=1e-4, max_steps=2))
        lines = [record_to_json(r) for r in result.records]
        obj = json.loads(lines[1])
        obj[field] = value
        lines[1] = json.dumps(obj)
        path = tmp_path / "trajectory.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RejectedInputError, match=f"line 2: field '{field}'"):
            read_trajectory_jsonl(path)


    def test_int_too_long_to_parse_names_the_line(self, tmp_path):
        # json refuses an int of more than 4300 digits with a bare ValueError
        line = self.FIXED_LINES[1].replace('"t":0.5', '"t":1' + "0" * 5000)
        path = tmp_path / "trajectory.jsonl"
        path.write_text(self.FIXED_LINES[0] + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(RejectedInputError, match="line 2"):
            read_trajectory_jsonl(path)

    @OVERSIZED
    @pytest.mark.parametrize("name", [
        "time", "solver_residual", "int_dev_ks2", "int_dev2_ks2"])
    def test_record_fields_are_refused_by_name(self, name, big):
        # each used to end in a bare OverflowError
        record = self.fixed_records()[0]
        changes = {name: big}
        if name.startswith("int_"):  # the integrals are fields of the metrics
            changes = {"metrics": dataclasses.replace(record.metrics, **changes)}
        with pytest.raises(RejectedInputError, match=f"^{name} must be finite"):
            dataclasses.replace(record, **changes)


class TestShortRunProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        freq=st.integers(min_value=2, max_value=4),
        amplitude=st.floats(min_value=0.005, max_value=0.02),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_any_small_perturbation_keeps_the_books(self, freq, amplitude, phase):
        spec = ShapeSpec("fourier-perturbed-circle", r0=1.0,
                         modes=((freq, amplitude, phase),))
        result = run(uniform(spec, 64), FlowConfig(n=64, dt=1e-4, max_steps=20))
        first = result.initial_metrics
        for record in result.records:
            m = record.metrics
            assert abs(m.signed_area - first.signed_area) <= 1e-6 * first.signed_area
            assert m.winding_number == first.winding_number
            assert m.length <= first.length + 1e-10 * first.length
