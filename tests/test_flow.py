"""Stepping, stop conditions, conservation, and scheme cross-validation."""

import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvediffusion import flow, geometry
from curvediffusion.errors import (
    DegenerateGeometryError,
    RejectedInputError,
    SolverError,
)
from curvediffusion.flow import (
    SCHEME_EXPLICIT_RK4,
    FlowConfig,
    FlowState,
    identity_residuals,
    read_trajectory_jsonl,
    record_to_json,
    run,
    step,
    _advance,
    _apply_cyclic_pentadiagonal,
    _project_area,
    _record_for,
    _solve_cyclic_pentadiagonal,
    write_trajectory_jsonl,
)
from curvediffusion.geometry import (
    SPREAD_TOL,
    SampledCurve,
    ShapeSpec,
    generate,
    hausdorff_distance,
    metrics,
    resample_uniform,
    signed_area,
)


RIPPLE = ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((2, 0.01, 0.0),))


def uniform(spec: ShapeSpec, n: int):
    return resample_uniform(generate(spec, n))


class TestSingleStep:
    def test_advances_time_and_counter(self):
        state = FlowState(uniform(ShapeSpec("circle", radius=1.0), 64))
        config = FlowConfig(n=64, dt=1e-4, max_steps=10)
        after = step(state, config)
        assert after.step_index == 1
        assert abs(after.time - 1e-4) <= 1e-18
        assert after.curve.is_uniform()
        assert state.step_index == 0  # input state untouched

    def test_step_resamples_to_config_n_like_run(self):
        # a uniform curve at the wrong vertex count is resampled first
        curve = uniform(ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                  modes=((2, 0.01, 0.0),)), 128)
        config = FlowConfig(n=256, dt=1e-4, max_steps=1)
        after = step(FlowState(curve), config)
        ran = run(curve, config).final_state
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

    def test_length_rate_matches_dissipation_at_small_dt(self):
        # one backward-difference step reproduces dL/dt = -|k_s|^2;
        # the mismatch shrinks with dt and is well under 2% at dt=1e-6
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        m = metrics(curve)
        after = step(FlowState(curve), FlowConfig(n=256, dt=1e-6, max_time=1.0))
        rate = (after.curve.length() - m.length) / 1e-6
        assert abs(rate + m.ks_norm_sq) / m.ks_norm_sq <= 0.02

    def test_length_rate_bias_at_reference_dt(self):
        # at the reference step size the one-step backward difference
        # carries a first-order bias near 25%; pin its band so regressions
        # in the splitting are visible
        curve = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        m = metrics(curve)
        after = step(FlowState(curve), FlowConfig(n=256, dt=1e-4, max_time=1.0))
        rate = (after.curve.length() - m.length) / 1e-4
        bias = abs(rate + m.ks_norm_sq) / m.ks_norm_sq
        assert 0.2 <= bias <= 0.3


class TestCarriedValues:
    """Each quantity a step or a record reads of a curve is computed once,
    by the curve, and kept; a loop that rebuilds every curve without its
    kept values, and a loop of step(), must give the same run."""

    @staticmethod
    def rebuilt(state):
        # the same vertices in a new curve, which has computed nothing yet
        curve = SampledCurve(state.curve.vertices, param=state.curve.param)
        return FlowState(curve, time=state.time, step_index=state.step_index)

    @classmethod
    def uncached_run(cls, initial, config):
        state = FlowState(initial)
        prev, prev_time, records = metrics(cls.rebuilt(state).curve), 0.0, []
        while state.step_index < config.max_steps:
            state, residual = _advance(cls.rebuilt(state), config)
            state = cls.rebuilt(state)
            record = _record_for(state, residual, prev, prev_time)
            records.append(record)
            prev, prev_time = record.metrics, state.time
        return records, state

    @pytest.mark.parametrize("spec, config", [
        (RIPPLE, FlowConfig(n=256, dt=1e-4, max_steps=50)),
        (RIPPLE, FlowConfig(n=1024, dt=1e-4, max_steps=10)),
        # step 1 needs an extra resample-project pass to reach a uniform grid
        (ShapeSpec("limacon", offset=1.2), FlowConfig(n=256, dt=1e-4, max_steps=20)),
        (ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0),
         FlowConfig(n=32, dt=1e-6, max_steps=20, scheme=SCHEME_EXPLICIT_RK4)),
    ], ids=["ripple", "ripple-1024", "limacon-1.2", "rk4"])
    def test_run_is_bitwise_the_uncarried_loop(self, spec, config):
        initial = uniform(spec, config.n)
        result = run(initial, config)
        records, state = self.uncached_run(initial, config)
        assert result.reason == "max-steps"
        # every field, the oscillation-balance integrals included
        assert list(result.records) == records
        assert np.array_equal(result.final_state.curve.vertices,
                              state.curve.vertices)

    @pytest.mark.parametrize("spec, config", [
        (RIPPLE, FlowConfig(n=256, dt=1e-4, max_steps=30)),
        (ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0),
         FlowConfig(n=32, dt=1e-6, max_steps=10, scheme=SCHEME_EXPLICIT_RK4)),
    ], ids=["ripple", "rk4"])
    def test_step_loop_is_bitwise_run(self, spec, config):
        initial = uniform(spec, config.n)
        ran = []
        result = run(initial, config, on_record=lambda *args: ran.append(args))
        state, prev, prev_time = FlowState(initial), metrics(initial), 0.0
        for ran_state, ran_record in ran:
            state = step(state, config)
            assert np.array_equal(state.curve.vertices, ran_state.curve.vertices)
            # step() does not return the solve residual; every other field
            # of the record is built from the stepped curve
            record = _record_for(state, ran_record.solver_residual, prev, prev_time)
            assert record == ran_record
            prev, prev_time = record.metrics, state.time
        assert state.step_index == config.max_steps == len(result.records)
        assert np.array_equal(state.curve.vertices,
                              result.final_state.curve.vertices)

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
            geometry._chord_lengths: 5,
            geometry._frames: 1,
            geometry._metrics: 1,
            geometry.signed_area: 1,
            geometry.turning_number: 1,
            scipy.linalg.solve_banded: 0,
            # every caller, numpy's own stacking functions included
            np.concatenate: 24,
            np.sum: 0,
            np.clip: 0,
        }
        # without the area projection the resampled chords go to the curve
        # as they are, and no projection measures them
        unprojected = {geometry._chord_lengths: 3}
        numpy_modules = [module for name, module in list(sys.modules.items())
                         if name == "numpy" or name.startswith("numpy.")]
        for fn in budget:
            wrapper = counting(fn.__name__, fn)
            for module in (flow, geometry, scipy.linalg, *numpy_modules):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
        for conserve_area, bounds in ((True, budget), (False, {**budget, **unprojected})):
            counts.clear()
            seen = []
            run(uniform(RIPPLE, 256),
                FlowConfig(n=256, dt=1e-4, max_steps=20, conserve_area=conserve_area),
                on_record=lambda *args: seen.append(Counter(counts)))
            assert len(seen) == 20
            for before, after in zip(seen, seen[1:]):
                for fn, bound in bounds.items():
                    assert after[fn.__name__] - before[fn.__name__] <= bound, (
                        fn.__name__, conserve_area)

    def test_flow_resample_takes_two_spline_evaluations_at_4096(self, monkeypatch):
        # at n = 4096 the second evaluation reaches a spread of about 1.5e-12,
        # under the rounding-aware target 4 n eps = 3.6e-12, so no third
        # evaluation is spent detecting the stall
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

    def test_osc_energy_threshold_fires_immediately(self, mode3_run):
        initial = mode3_run.initial
        kosc0 = metrics(initial).osc_energy
        result = run(initial, FlowConfig(n=256, dt=1e-4, max_steps=1000,
                                         stop_when_kosc_exceeds=kosc0 / 2.0))
        assert result.reason == "kosc-threshold"
        assert len(result.records) == 1

    def test_blow_up_reports_last_good_state(self, lemniscate_run):
        result = lemniscate_run.result
        assert result.reason == "blow-up"
        assert result.detail != ""
        assert len(result.records) > 0
        final = result.final_state.curve.vertices
        assert np.isfinite(final).all()
        assert result.final_state.step_index == len(result.records)

    def test_config_requires_a_stop_condition(self):
        with pytest.raises(RejectedInputError):
            FlowConfig(n=64, dt=1e-4)


class TestConservation:
    def test_area_projection_pins_area(self):
        initial = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        result = run(initial, FlowConfig(n=256, dt=1e-4, max_steps=100))
        drift = abs(result.records[-1].metrics.signed_area
                    - result.initial_metrics.signed_area)
        assert drift <= 1e-12

    def test_unprojected_truncation_drift_is_visible(self):
        initial = uniform(ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0), 256)
        result = run(initial, FlowConfig(n=256, dt=1e-4, max_steps=100,
                                         conserve_area=False))
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
        A0 = ellipse_run.result.initial_metrics.signed_area
        worst = max(abs(r.dA_dt_measured) for r in ellipse_run.result.records)
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

    def test_residual_above_tolerance_raises(self):
        state = FlowState(uniform(ShapeSpec("circle", radius=1.0), 64))
        config = FlowConfig(n=64, dt=1e-4, max_steps=1, solve_tolerance=1e-300)
        with pytest.raises(SolverError, match="residual"):
            step(state, config)


class TestGaugeAndSchemes:
    def test_explicit_rk4_cross_validates_implicit(self):
        initial = uniform(ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                    modes=((2, 0.05, 0.0),)), 64)
        implicit = run(initial, FlowConfig(n=64, dt=1e-6, max_steps=2000))
        explicit = run(initial, FlowConfig(n=64, dt=1e-6, max_steps=2000,
                                           scheme=SCHEME_EXPLICIT_RK4))
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
        assert res.average_curvature.rel_max <= 0.15
        assert res.osc_energy.rel_max <= 0.15

    def test_identity_residuals_on_perturbed(self, perturbed_run):
        res = identity_residuals(perturbed_run.result.records)
        assert res.length.rel_max <= 0.05
        assert res.osc_energy.rel_max <= 0.05


class TestTrajectorySerialization:
    def test_jsonl_round_trip(self, perturbed_run, tmp_path):
        records = perturbed_run.result.records[:50]
        path = tmp_path / "trajectory.jsonl"
        write_trajectory_jsonl(records, path)
        back = read_trajectory_jsonl(path)
        assert len(back) == len(records)
        for original, parsed in zip(records, back):
            assert parsed.time == original.time
            assert parsed.metrics.length == original.metrics.length
            assert parsed.metrics.signed_area == original.metrics.signed_area
            assert parsed.metrics.osc_energy == original.metrics.osc_energy
            assert parsed.metrics.winding_number == original.metrics.winding_number
            assert parsed.dL_dt_measured == original.dL_dt_measured
            assert parsed.solver_residual == original.solver_residual

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
