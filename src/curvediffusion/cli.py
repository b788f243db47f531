"""Command-line front end: scenario runs, curve analysis, verification suites.

Three subcommands::

    curvediffusion simulate <manifest>    run the flow described by a manifest
    curvediffusion analyze <curve.csv>    metrics, admissibility, crossings
    curvediffusion verify <suite>         property suites with pass/fail rows

A manifest is a flat text file of ``key = value`` lines; ``#`` starts a
comment, keys may appear in any order, and every key except ``shape`` has a
default.  Floats are written with ``repr`` so a written manifest reads back
to exactly the same configuration.  An empty value clears an optional field,
booleans are ``true``/``false``, and perturbation modes are
``frequency:amplitude:phase`` triples joined by commas.

Relative output paths resolve against ``$CURVEDIFFUSION_OUTPUT_ROOT`` when
that variable is set, else against the working directory.  Every output file
is written to a temporary name in its final directory and renamed into
place, so readers never observe a half-written file.

Exit codes: 0 on success, 1 for usage errors or rejected input, 2 when a
simulated run ends on a blow-up signal (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis
from .analysis import (
    DECAY_KOSC,
    DECAY_KSS2,
    Report,
    check_hypotheses,
    decay_fit,
    density_integral,
    embeddedness_certificate,
    kss2_rate_floor,
    l1_energy_check,
    multiplicity_bound,
    positivity_waiting_measure,
    smallness_propagation_check,
    waiting_time_bound,
    wirtinger_check,
)
from .errors import CurveDiffusionError, RejectedInputError
from .flow import (
    LENGTH_RISE_TOL,
    FlowConfig,
    FlowState,
    RunResult,
    TrajectoryRecord,
    identity_residuals,
    run,
    write_trajectory_jsonl,
)
from .geometry import (
    SampledCurve,
    ShapeSpec,
    _integer_arg,
    generate,
    metrics,
    read_curve_csv,
    resample_uniform,
    write_curve_csv,
)
from .intersections import crossing_set_dict, find_crossings

_OUTPUT_ROOT_VAR = "CURVEDIFFUSION_OUTPUT_ROOT"

_DEFAULT_REPORTS = ("hypotheses", "smallness", "l1-energy", "waiting")

@dataclass(frozen=True)
class RunManifest:
    """Everything one simulation run needs: shape, stepping, outputs."""

    shape: ShapeSpec
    flow: FlowConfig
    output_dir: str = "run-output"
    snapshot_interval: int = 1000
    svg: bool = False
    reports: Tuple[str, ...] = _DEFAULT_REPORTS

    def __post_init__(self):
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise RejectedInputError(
                f"output_dir must be a nonempty string, got {self.output_dir!r}")
        if _integer_arg("snapshot_interval", self.snapshot_interval) < 1:
            raise RejectedInputError("snapshot_interval must be >= 1")
        if not isinstance(self.svg, bool):
            raise RejectedInputError(f"svg must be a bool, got {self.svg!r}")
        if not isinstance(self.reports, tuple):
            raise RejectedInputError(f"reports must be a tuple, got {self.reports!r}")
        for name in self.reports:
            if name not in REPORT_SECTIONS:
                raise RejectedInputError(
                    f"unknown report section {name!r}; "
                    f"expected one of {REPORT_SECTIONS}"
                )


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise RejectedInputError(f"{key}: expected a number, got {text!r}")
    return value


def _parse_int(text: str, key: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise RejectedInputError(f"{key}: expected an integer, got {text!r}")
    return value


def _parse_opt_float(text: str, key: str) -> Optional[float]:
    return None if text == "" else _parse_float(text, key)


def _parse_opt_int(text: str, key: str) -> Optional[int]:
    return None if text == "" else _parse_int(text, key)


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise RejectedInputError(f"{key}: expected true or false, got {text!r}")


def _parse_modes(text: str, key: str) -> tuple:
    if text == "":
        return ()
    modes = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise RejectedInputError(
                f"{key}: each mode is frequency:amplitude:phase, got {part!r}"
            )
        modes.append((
            _parse_int(fields[0], key),
            _parse_float(fields[1], key),
            _parse_float(fields[2], key),
        ))
    return tuple(modes)


def _parse_reports(text: str, key: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_str(text: str, key: str) -> str:
    return text


_SHAPE_PARSERS: Dict[str, Callable] = {
    "radius": _parse_float, "a": _parse_float, "b": _parse_float,
    "r0": _parse_float, "modes": _parse_modes,
    "offset": _parse_float, "scale": _parse_float,
}
_FLOW_PARSERS: Dict[str, Callable] = {
    "n": _parse_int, "dt": _parse_float,
    "max_time": _parse_opt_float, "max_steps": _parse_opt_int,
    "curvature_energy_ceiling": _parse_float,
}
_OUTPUT_PARSERS: Dict[str, Callable] = {
    "output_dir": _parse_str, "snapshot_interval": _parse_int,
    "svg": _parse_bool, "reports": _parse_reports,
}
# every key a manifest may set; each is listed once, in its parser table
_MANIFEST_KEYS = ("shape", *_SHAPE_PARSERS, *_FLOW_PARSERS, *_OUTPUT_PARSERS)


def read_manifest(path) -> RunManifest:
    """Parse a ``key = value`` manifest file into a RunManifest."""
    entries: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"{path}: manifest is not UTF-8 text") from exc
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise RejectedInputError(
                f"{path}:{lineno}: expected key = value, got {line!r}"
            )
        key = key.strip()
        if key not in _MANIFEST_KEYS:
            raise RejectedInputError(
                f"{path}:{lineno}: unknown key {key!r}"
            )
        if key in entries:
            raise RejectedInputError(
                f"{path}:{lineno}: duplicate key {key!r}"
            )
        entries[key] = value.strip()
    if "shape" not in entries:
        raise RejectedInputError(f"{path}: missing required key 'shape'")

    def collect(parsers: Dict[str, Callable]) -> Dict[str, object]:
        return {
            key: parse(entries[key], key)
            for key, parse in parsers.items() if key in entries
        }

    spec = ShapeSpec(kind=entries["shape"], **collect(_SHAPE_PARSERS))
    config = FlowConfig(**collect(_FLOW_PARSERS))
    return RunManifest(shape=spec, flow=config, **collect(_OUTPUT_PARSERS))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):  # report names or mode triples
        return ",".join(
            _format_mode(*item) if isinstance(item, tuple) else item
            for item in value
        )
    return str(value)


def _format_mode(m, amp, phase) -> str:
    return f"{int(m)}:{_format_value(float(amp))}:{_format_value(float(phase))}"


def write_manifest(manifest: RunManifest, path) -> None:
    """Write a manifest that read_manifest parses back to an equal value."""
    groups = [
        ("shape", [("shape", manifest.shape.kind)]
         + [(key, getattr(manifest.shape, key)) for key in _SHAPE_PARSERS]),
        ("stepping", [(key, getattr(manifest.flow, key)) for key in _FLOW_PARSERS]),
        ("outputs", [(key, getattr(manifest, key)) for key in _OUTPUT_PARSERS]),
    ]
    lines = ["# flow run manifest: key = value per line, '#' starts a comment"]
    for title, pairs in groups:
        lines.append("")
        lines.append(f"# {title}")
        for key, value in pairs:
            text = _format_value(value)
            lines.append(f"{key} ={' ' + text if text else ''}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _atomic_file(path: str, write: Callable[[str], None]) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + "."
    )
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _atomic_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w") as fh:
            fh.write(text)
    _atomic_file(path, write)


def _resolve_output(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(_OUTPUT_ROOT_VAR, "."), path)


# --- SVG frames ---------------------------------------------------------

def _svg_viewbox(curves: Sequence[SampledCurve]) -> Tuple[float, float, float, float]:
    """One viewport covering every frame, so motion is visible across files."""
    pts = np.vstack([c.vertices for c in curves])
    xs, ys = pts[:, 0], -pts[:, 1]
    width = float(xs.max() - xs.min())
    height = float(ys.max() - ys.min())
    pad = 0.05 * max(width, height, 1e-9)
    return (float(xs.min()) - pad, float(ys.min()) - pad,
            width + 2 * pad, height + 2 * pad)


def _svg_frame(curve: SampledCurve, viewbox: Tuple[float, float, float, float],
               time: float) -> str:
    x0, y0, width, height = viewbox
    # SVG y points down; vertices are emitted with y negated to compensate.
    points = " ".join(f"{x:.6g},{-y:.6g}" for x, y in curve.vertices)
    stroke = 0.004 * max(width, height)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6g} {y0:.6g} {width:.6g} {height:.6g}">\n'
        f"  <title>t = {time:.6g}</title>\n"
        f'  <polygon points="{points}" fill="none" stroke="#1b4a6b" '
        f'stroke-width="{stroke:.6g}" stroke-linejoin="round"/>\n'
        "</svg>\n"
    )


# --- simulate -----------------------------------------------------------

def _summary_report(result: RunResult) -> Report:
    first = result.initial_metrics
    lengths = [first.length] + [rec.metrics.length for rec in result.records]
    last = result.records[-1].metrics if result.records else first
    values = {
        "initial_length": first.length,
        "initial_area": first.signed_area,
        "initial_osc_energy": first.osc_energy,
        "final_length": last.length,
        "final_area": last.signed_area,
        "final_osc_energy": last.osc_energy,
        "final_time": result.final_state.time,
    }
    verdicts = {
        "area_within_rel_1e-6": (
            abs(last.signed_area - first.signed_area)
            <= 1e-6 * max(1.0, abs(first.signed_area))
        ),
        # holds by construction for a result flow.run made, whose every
        # accepted step passed the same comparison; it re-checks records
        # that were saved and read back or spliced together
        "length_nonincreasing": all(
            after <= before * (1.0 + LENGTH_RISE_TOL)
            for before, after in zip(lengths, lengths[1:])
        ),
    }
    if first.signed_area > 0.0:
        # row-major, so the centroid is summed row by row, not pairwise
        pts = np.ascontiguousarray(result.final_state.curve.vertices)
        radii = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        values["round_radius_target"] = math.sqrt(first.signed_area / math.pi)
        values["final_radius_mean"] = float(radii.mean())
        values["final_radius_spread"] = float(radii.max() - radii.min())
    return Report(verdicts=verdicts, values=values)


def _waiting_section(result: RunResult) -> Report:
    first = result.initial_metrics
    measure = positivity_waiting_measure(result.records)
    bound = waiting_time_bound(first.length, first.signed_area)
    return Report(
        verdicts={"measure_within_bound": measure <= bound + 1e-15},
        values={"measure": measure, "bound": bound},
    )


def _decay_section(result: RunResult) -> Report:
    records = result.records
    if not records:
        raise RejectedInputError("no records to fit")
    t_end = records[-1].time
    window = (0.5 * t_end, t_end)
    fit = decay_fit(records, DECAY_KOSC, window)
    values = {
        "rate": fit.rate,
        "amplitude": fit.amplitude,
        "rms_log_residual": fit.rms_log_residual,
        "window_start": window[0],
        "window_end": window[1],
    }
    verdicts = {"fitted": True, "rate_positive": fit.rate > 0.0}
    try:
        tail = decay_fit(records, DECAY_KSS2, window)
    except RejectedInputError:
        pass
    else:
        floor = kss2_rate_floor(result.initial_metrics.length)
        values["kss2_rate"] = tail.rate
        values["kss2_advisory_floor"] = floor
        verdicts["kss2_rate_at_least_floor"] = tail.rate >= floor
    return Report(verdicts=verdicts, values=values)


# each run.json section, built from the run's result alone
_SECTION_BUILDERS: Dict[str, Callable[[RunResult], Report]] = {
    "hypotheses": lambda result: check_hypotheses(result.initial_metrics),
    "smallness": lambda result: smallness_propagation_check(result.records),
    "l1-energy": lambda result: l1_energy_check(result.records),
    "waiting": _waiting_section,
    "decay": _decay_section,
}
REPORT_SECTIONS = tuple(_SECTION_BUILDERS)


def _simulation_report(manifest: RunManifest,
                       result: RunResult) -> Dict[str, object]:
    sections: Dict[str, object] = {"summary": asdict(_summary_report(result))}
    for name in manifest.reports:
        try:
            sections[name] = asdict(_SECTION_BUILDERS[name](result))
        except RejectedInputError as exc:
            sections[name] = {
                "verdicts": {"applicable": False},
                "values": {},
                "note": str(exc),
            }
    return {
        "run": {
            "reason": result.reason,
            "detail": result.detail,
            "records": len(result.records),
            "final_step": result.final_state.step_index,
            "final_time": result.final_state.time,
        },
        "sections": sections,
    }


def run_with_snapshots(initial: SampledCurve, config: FlowConfig, interval: int
                       ) -> Tuple[RunResult, List[Tuple[int, float, SampledCurve]]]:
    """Run the flow; snapshot the initial curve, every interval-th step, the end."""
    snapshots: List[Tuple[int, float, SampledCurve]] = [(0, 0.0, initial)]
    def capture(state: FlowState, record: TrajectoryRecord) -> None:
        if state.step_index % interval == 0:
            snapshots.append((state.step_index, state.time, state.curve))
    result = run(initial, config, on_record=capture)
    final = result.final_state
    if final.step_index != snapshots[-1][0]:
        snapshots.append((final.step_index, final.time, final.curve))
    return result, snapshots


def cmd_simulate(manifest_path: str) -> int:
    manifest = read_manifest(manifest_path)
    initial = resample_uniform(generate(manifest.shape, manifest.flow.n),
                               manifest.flow.n)
    # a shape generate refuses leaves no output directory behind
    out_dir = _resolve_output(manifest.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    result, snapshots = run_with_snapshots(initial, manifest.flow,
                                           manifest.snapshot_interval)
    final = result.final_state

    _atomic_file(os.path.join(out_dir, "manifest.txt"),
                 lambda tmp: write_manifest(manifest, tmp))
    _atomic_file(os.path.join(out_dir, "trajectory.jsonl"),
                 lambda tmp: write_trajectory_jsonl(result.records, tmp))
    for step, _, curve in snapshots:
        _atomic_file(os.path.join(out_dir, f"snapshot_{step:08d}.csv"),
                     lambda tmp, c=curve: write_curve_csv(c, tmp))
    if manifest.svg:
        viewbox = _svg_viewbox([curve for _, _, curve in snapshots])
        for step, time, curve in snapshots:
            _atomic_text(os.path.join(out_dir, f"snapshot_{step:08d}.svg"),
                         _svg_frame(curve, viewbox, time))

    payload = _simulation_report(manifest, result)
    _atomic_text(os.path.join(out_dir, "run.json"),
                 json.dumps(payload, sort_keys=True, indent=2) + "\n")

    last = result.records[-1].metrics if result.records else result.initial_metrics
    detail = f" ({result.detail})" if result.detail else ""
    print(f"run finished: {result.reason}{detail}")
    print(f"  steps {final.step_index}, time {final.time:.6g}, "
          f"records {len(result.records)}, snapshots {len(snapshots)}")
    print(f"  length {last.length:.9g}  area {last.signed_area:.9g}  "
          f"osc energy {last.osc_energy:.6g}")
    print(f"  outputs in {out_dir}")
    return 2 if result.reason == "blow-up" else 0


# --- analyze ------------------------------------------------------------

def _print_report_rows(report: Report) -> None:
    for key in sorted(report.verdicts):
        print(f"  {key:<34} {'yes' if report.verdicts[key] else 'no'}")
    for key in sorted(report.values):
        print(f"  {key:<34} {report.values[key]:.12g}")


def cmd_analyze(curve_path: str) -> int:
    curve = read_curve_csv(curve_path)
    work = curve if curve.is_uniform() else resample_uniform(curve)
    met = metrics(work)
    hypotheses = check_hypotheses(met)
    crossings = find_crossings(work)
    certificate = embeddedness_certificate(work)
    bound = multiplicity_bound(crossings.multiplicity, met.winding_number)
    bound_report = Report(
        verdicts={"osc_energy_at_least_bound": met.osc_energy >= bound},
        values={"bound": bound, "osc_energy": met.osc_energy,
                "multiplicity": float(crossings.multiplicity)},
    )

    metric_values = {key: float(value) for key, value in asdict(met).items()
                     if value is not None}

    payload = {
        "curve": {
            "path": str(curve_path),
            "n": curve.n,
            "uniform": bool(curve.is_uniform()),
        },
        "metrics": metric_values,
        "hypotheses": asdict(hypotheses),
        "crossings": crossing_set_dict(crossings),
        "embeddedness": {"certificate": certificate},
        "multiplicity_bound": asdict(bound_report),
    }
    stem = os.path.splitext(os.path.basename(str(curve_path)))[0]
    report_path = _resolve_output(f"{stem}_report.json")
    _atomic_text(report_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    print(f"curve {curve_path} (n = {curve.n}, "
          f"{'uniform' if curve.is_uniform() else 'resampled for metrics'})")
    print("metrics")
    for key in sorted(metric_values):
        print(f"  {key:<34} {metric_values[key]:.12g}")
    print("hypotheses")
    _print_report_rows(hypotheses)
    print("crossings")
    print(f"  {'contacts':<34} {len(crossings.crossings)}")
    print(f"  {'clusters':<34} {len(crossings.clusters)}")
    print(f"  {'multiplicity':<34} {crossings.multiplicity}")
    print("embeddedness")
    print(f"  {'certificate':<34} {certificate}")
    print("multiplicity bound")
    _print_report_rows(bound_report)
    print(f"report written to {report_path}")
    return 0


# --- verify -------------------------------------------------------------

Row = Tuple[str, bool, str]


def _suite_wirtinger(seed: int) -> List[Row]:
    rng = np.random.default_rng(seed)
    rows: List[Row] = []

    n, period = 8192, 2.0
    x = np.arange(n) * (period / n)
    first = wirtinger_check(np.sin(2.0 * math.pi * x / period + 0.3), period)
    ratio = first.values["ratio_to_bound"]
    rows.append((
        "first harmonic saturates the mean-free bound",
        abs(ratio - 1.0) <= 1e-6 and first.verdicts["l2_holds"],
        f"ratio {ratio:.9f}",
    ))

    second = wirtinger_check(np.sin(4.0 * math.pi * x / period), period)
    ratio2 = second.values["ratio_to_bound"]
    rows.append((
        "second harmonic sits at a quarter of the bound",
        abs(ratio2 - 0.25) <= 1e-3,
        f"ratio {ratio2:.6f}",
    ))

    holds = True
    worst_ratio = 0.0
    worst_quad = 0.0
    for _ in range(200):
        size = int(rng.integers(64, 1025))
        p = float(rng.uniform(0.5, 8.0))
        t = np.arange(size) * (p / size)
        f = np.full(size, float(rng.normal()))
        exact_l2 = 0.0
        for freq in range(1, 7):
            a = float(rng.normal(scale=1.0 / freq))
            b = float(rng.normal(scale=1.0 / freq))
            f = f + a * np.cos(2.0 * math.pi * freq * t / p)
            f = f + b * np.sin(2.0 * math.pi * freq * t / p)
            exact_l2 += 0.5 * p * (a * a + b * b)
        rep = wirtinger_check(f, p)
        holds = holds and rep.verdicts["l2_holds"] and rep.verdicts["sup_holds"]
        worst_ratio = max(worst_ratio, rep.values["ratio_to_bound"])
        worst_quad = max(worst_quad, abs(rep.values["l2"] - exact_l2) / exact_l2)
    rows.append((
        "random trigonometric corpus obeys both inequalities (200 inputs)",
        holds,
        f"worst ratio {worst_ratio:.6f}",
    ))
    rows.append((
        "quadrature matches closed-form mean-free energy",
        worst_quad <= 1e-10,
        f"max rel deviation {worst_quad:.2e}",
    ))
    return rows


def _suite_newton(seed: int) -> List[Row]:
    rng = np.random.default_rng(seed)
    rows: List[Row] = []

    uniform_ok = all(
        analysis.newton_ratio_check(np.ones(size), i)
        for size in range(2, 9) for i in range(size - 1)
    )
    rows.append(("uniform vectors sit on the equality case", uniform_ok, ""))

    random_ok = True
    for _ in range(500):
        size = int(rng.integers(2, 10))
        values = rng.lognormal(0.0, 1.0, size)
        for i in range(size - 1):
            random_ok = random_ok and analysis.newton_ratio_check(values, i)
    rows.append((
        "random positive vectors obey every ratio inequality (500 draws)",
        random_ok, "",
    ))

    worst_dev = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 8))
        values = rng.lognormal(0.0, 1.0, size)
        fast = analysis._elementary_symmetric(values)
        for i in range(size + 1):
            slow = sum(
                float(np.prod(combo))
                for combo in itertools.combinations(values, i)
            )
            worst_dev = max(worst_dev, abs(fast[i] - slow) / max(slow, 1e-300))
    rows.append((
        "product recurrence matches subset enumeration (100 draws)",
        worst_dev <= 1e-12,
        f"max rel deviation {worst_dev:.2e}",
    ))

    harmonic_ok = analysis.harmonic_sum_bound_check(np.ones(7))
    for _ in range(500):
        size = int(rng.integers(1, 12))
        values = rng.lognormal(0.0, 1.0, size)
        harmonic_ok = harmonic_ok and analysis.harmonic_sum_bound_check(values)
    rows.append((
        "harmonic sums dominate m^2 over the total (500 draws)",
        harmonic_ok, "",
    ))
    return rows


def _corpus_spec(rng: np.random.Generator, index: int) -> ShapeSpec:
    kind = index % 4
    if kind == 0:
        count = int(rng.integers(1, 3))
        modes = tuple(
            (int(rng.integers(2, 7)),
             float(rng.uniform(0.0, 0.08)),
             float(rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(count)
        )
        return ShapeSpec("fourier-perturbed-circle",
                         r0=float(rng.uniform(0.7, 1.5)), modes=modes)
    if kind == 1:
        return ShapeSpec("limacon", offset=float(rng.uniform(0.3, 1.7)),
                         scale=float(rng.uniform(0.5, 2.0)))
    if kind == 2:
        return ShapeSpec("lemniscate", scale=float(rng.uniform(0.5, 2.0)))
    return ShapeSpec("circle", radius=float(rng.uniform(0.5, 2.0)))


def _suite_multiplicity(seed: int) -> List[Row]:
    rng = np.random.default_rng(seed)
    violations = 0
    consistency_ok = True
    crossed = 0
    min_margin = math.inf
    total = 500
    for index in range(total):
        curve = resample_uniform(generate(_corpus_spec(rng, index), 512))
        met = metrics(curve)
        crossings = find_crossings(curve)
        consistency_ok = consistency_ok and (
            (crossings.multiplicity == 1) == (not crossings.crossings)
        )
        if crossings.crossings:
            crossed += 1
        bound = multiplicity_bound(crossings.multiplicity, met.winding_number)
        margin = met.osc_energy - bound
        min_margin = min(min_margin, margin)
        if margin < -1e-9 * max(1.0, abs(bound)):
            violations += 1
    return [
        (
            f"oscillation energy pays for every measured multiplicity "
            f"({total} curves)",
            violations == 0,
            f"min margin {min_margin:.3f}, {crossed} self-intersecting",
        ),
        (
            "multiplicity 1 coincides with an empty crossing list",
            consistency_ok, "",
        ),
    ]


_IDENTITY_SCENARIOS = (
    ("circle", ShapeSpec("circle", radius=1.0),
     dict(n=128, dt=1e-4, max_steps=300)),
    ("ellipse", ShapeSpec("ellipse", a=2.0, b=1.0),
     dict(n=256, dt=1e-4, max_steps=2000)),
    ("perturbed circle", ShapeSpec("fourier-perturbed-circle", r0=1.0,
                                   modes=((2, 0.01, 0.0),)),
     dict(n=256, dt=1e-4, max_steps=2000)),
)

# rel_max ceilings per scenario and identity; the circle rows use abs_max
# because every term in its balances is numerically zero.
_IDENTITY_LIMITS = {
    "circle": dict(area=1e-9, length=1e-8, osc_energy=1e-6, absolute=True),
    "ellipse": dict(area=1e-9, length=0.15, osc_energy=0.15, absolute=False),
    "perturbed circle": dict(area=1e-9, length=0.05, osc_energy=0.05,
                             absolute=False),
}


def _suite_flow_identities(seed: int) -> List[Row]:
    del seed  # reference scenarios are deterministic
    rows: List[Row] = []
    for name, spec, options in _IDENTITY_SCENARIOS:
        config = FlowConfig(**options)
        result = run(generate(spec, config.n), config)
        residuals = identity_residuals(result.records)
        limits = _IDENTITY_LIMITS[name]
        absolute = limits["absolute"]
        for field in ("area", "length", "osc_energy"):
            kind = "abs" if (absolute or field == "area") else "rel"
            value = getattr(getattr(residuals, field), f"{kind}_max")
            limit = limits[field]
            rows.append((
                f"{name}: {field.replace('_', ' ')} balance",
                value <= limit,
                f"{kind} max {value:.2e} (limit {limit:g})",
            ))
    return rows


def _suite_density(seed: int) -> List[Row]:
    del seed
    rows: List[Row] = []

    def circle_density(n: int) -> float:
        curve = resample_uniform(generate(ShapeSpec("circle", radius=1.0), n))
        return density_integral(curve, (1.0, 0.0))

    at_1024 = circle_density(1024)
    rows.append((
        "circle through the evaluation point integrates to 8",
        abs(at_1024 - 8.0) <= 1e-2,
        f"value {at_1024:.6f}",
    ))

    lemniscate = resample_uniform(
        generate(ShapeSpec("lemniscate", scale=1.0), 1024)
    )
    double = density_integral(lemniscate, (0.0, 0.0))
    rows.append((
        "double point of the figure-eight integrates to 16",
        abs(double - 16.0) <= 0.8,
        f"value {double:.4f}",
    ))

    coarse = abs(circle_density(512) - 8.0)
    fine = abs(at_1024 - 8.0)
    rows.append((
        "error shrinks under refinement",
        fine < coarse and coarse / max(fine, 1e-300) >= 2.5,
        f"error ratio {coarse / max(fine, 1e-300):.2f} from n=512 to n=1024",
    ))
    return rows


SUITES: Dict[str, Callable[[int], List[Row]]] = {
    "wirtinger": _suite_wirtinger,
    "newton": _suite_newton,
    "multiplicity-corpus": _suite_multiplicity,
    "flow-identities": _suite_flow_identities,
    "density": _suite_density,
}


def cmd_verify(suite: Optional[str], seed: int) -> int:
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        target = sys.stderr if suite is not None else sys.stdout
        if suite is not None:
            print(f"unknown suite {suite!r}", file=target)
        print(f"available suites: {known}", file=target)
        return 1
    if seed < 0:
        raise RejectedInputError(f"--seed must be a non-negative integer, got {seed}")
    rows = SUITES[suite](seed)
    width = max(len(name) for name, _, _ in rows)
    passed = 0
    for name, ok, detail in rows:
        passed += ok
        tail = f"  {detail}" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}{tail}")
    print(f"{suite}: {passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 1


# --- entry point --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors exit with 1; 2 is reserved for blow-up runs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _Parser(
        prog="curvediffusion",
        description="Simulate and analyze the fourth-order curve flow "
                    "that moves a closed plane curve against the second "
                    "arclength derivative of its curvature.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    simulate = sub.add_parser(
        "simulate", help="run the flow described by a manifest file"
    )
    simulate.add_argument("manifest", help="path to a key = value manifest")
    analyze = sub.add_parser(
        "analyze", help="metrics, admissibility, and crossings of a saved curve"
    )
    analyze.add_argument("curve", help="path to a curve CSV (x,y rows)")
    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("suite", nargs="?", default=None,
                        help="one of: " + ", ".join(sorted(SUITES)))
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized suites (default 0)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse help or usage error
        code = exit_.code
        return code if isinstance(code, int) else 1

    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "simulate":
            return cmd_simulate(args.manifest)
        if args.command == "analyze":
            return cmd_analyze(args.curve)
        return cmd_verify(args.suite, args.seed)
    except CurveDiffusionError as exc:
        print(f"curvediffusion: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"curvediffusion: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
