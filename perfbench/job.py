"""One benchmark job in a fresh process: set up, run, check, report.

Usage::

    python3 perfbench/job.py '<spec json>'

The spec names the workload, the seed, the job index, whether to trace, the
size preset (``full`` or ``smoke``), the checkout root and a scratch
directory inside it.  The job prints one JSON object on its last stdout line:
set-up time, job wall time, per-operation times, gate outcomes, a digest of
the outputs (equal across jobs of one run), the environment and, when
traced, the raw span and counter totals.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Work per job.  A flow step or a corpus curve is one operation.
SIZES = {
    "full": {
        "relax-256": {"n": 256, "max_time": 0.05, "snapshot_interval": 50},
        "fine-4096": {"n": 4096, "steps": 100},
        "corpus-512": {"n": 512, "curves": 200},
    },
    "smoke": {
        "relax-256": {"n": 128, "max_time": 0.003, "snapshot_interval": 10},
        "fine-4096": {"n": 1024, "steps": 10},
        "corpus-512": {"n": 512, "curves": 8},
    },
}

DT = 1e-4
RIPPLE = {"r0": 1.0, "modes": ((2, 0.01, 0.0),)}   # the README manifest shape
RELAX_MANIFEST = """\
shape = fourier-perturbed-circle
r0 = 1.0
modes = 2:0.01:0
n = {n}
dt = {dt!r}
max_time = {max_time!r}
output_dir = {output_dir}
snapshot_interval = {snapshot_interval}
svg = true
reports = hypotheses, smallness, l1-energy, waiting, decay
"""

# Final-state goldens (golden.json, written by the code they gate) are
# compared with these relative tolerances.  Swapping the banded solve for an
# FFT solve, or stopping the resample iteration at a spread of 1e-9, moves
# the final values by at most 2.4e-10 (L), 5e-15 (A) and 5.1e-6 (kosc, which
# amplifies position rounding by 1/h^2 at n = 4096); a wrong term in the
# scheme moves kosc by percents.
GOLDEN_RTOL = {"L": 1e-8, "A": 1e-9, "kosc": 1e-4}


def _environment():
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --- workloads ------------------------------------------------------------

def _check_golden(key, final, failures):
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh).get(key)
    if golden is None:
        failures.append(f"no golden values recorded for {key}")
        return
    for name, rtol in GOLDEN_RTOL.items():
        want, got = golden[name], final[name]
        if not abs(got - want) <= rtol * abs(want):
            failures.append(f"{key}: final {name} {got!r} differs from golden "
                            f"{want!r} by more than {rtol:g} relative")


def _final(metrics):
    return {"L": metrics.length, "A": metrics.signed_area, "kosc": metrics.osc_energy}


def _step_times(stamps):
    return [b - a for a, b in zip(stamps, stamps[1:])]


def prepare_relax(size, seed, workdir, job):
    del seed, job  # fixed shape
    from curvediffusion import cli
    # Every job of a run uses the same paths, so the manifest echoed into the
    # outputs, and with it the output size, is the same in each job.
    out_dir = os.path.join(workdir, "relax-out")
    manifest = os.path.join(workdir, "relax.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(RELAX_MANIFEST.format(dt=DT, output_dir=out_dir, **size))
    return {"cli": cli, "manifest": manifest, "out_dir": out_dir}


def run_relax(inputs):
    """``curvediffusion simulate`` through ``cli.main``, steps clocked by on_record."""
    cli = inputs["cli"]
    clock = time.perf_counter
    stamps, results = [], []
    inner = cli.run

    def run_with_clock(initial, config, on_record=None):
        def hook(state, record):
            stamps.append(clock())
            if on_record is not None:
                on_record(state, record)
        stamps.append(clock())
        results.append(inner(initial, config, on_record=hook))
        return results[-1]

    cli.run = run_with_clock
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            code = cli.main(["simulate", inputs["manifest"]])
            wall = clock() - start
    finally:
        cli.run = inner

    failures = []
    if code != 0:
        failures.append(f"simulate exited with {code}")
    out_dir = inputs["out_dir"]
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    output_bytes = sum(os.path.getsize(os.path.join(out_dir, f)) for f in names)
    digest, final, steps, residual = "", None, 0, 0.0
    try:
        with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as fh:
            verdicts = json.load(fh)["sections"]["summary"]["verdicts"]
        for verdict in ("area_within_rel_1e-6", "length_nonincreasing"):
            if verdicts.get(verdict) is not True:
                failures.append(f"run.json verdict {verdict} is not true")
        with open(os.path.join(out_dir, "trajectory.jsonl"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except (OSError, KeyError, ValueError) as exc:
        failures.append(f"reading simulate outputs: {exc}")
    if results and results[0].records:
        result = results[0]
        steps = result.final_state.step_index
        residual = max(r.solver_residual for r in result.records)
        final = _final(result.records[-1].metrics)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "wall_s": wall, "ops": steps, "steps": steps,
        "op_times": _step_times(stamps), "attempted": 1,
        "failures": failures, "digest": digest, "final": final,
        "residual_max": residual, "crossings": 0,
        "output_bytes": output_bytes, "files_written": len(names),
    }


def prepare_fine(size, seed, workdir, job):
    del seed, workdir, job  # fixed shape, no files
    from curvediffusion.flow import FlowConfig
    from curvediffusion.geometry import ShapeSpec, generate, resample_uniform
    spec = ShapeSpec("fourier-perturbed-circle", **RIPPLE)
    return {
        "initial": resample_uniform(generate(spec, size["n"])),
        "config": FlowConfig(n=size["n"], dt=DT, max_steps=size["steps"]),
    }


def run_fine(inputs):
    """``flow.run`` called as a library; each step clocked by on_record."""
    from curvediffusion import flow

    clock = time.perf_counter
    stamps = [clock()]

    def hook(state, record):
        stamps.append(clock())

    result = flow.run(inputs["initial"], inputs["config"], on_record=hook)
    wall = clock() - stamps[0]

    failures = []
    if result.reason != "max-steps":
        failures.append(f"run stopped for {result.reason}, not max-steps")
    first = result.initial_metrics
    lengths = [first.length] + [r.metrics.length for r in result.records]
    drift = max(abs(r.metrics.signed_area - first.signed_area)
                for r in result.records) / abs(first.signed_area)
    if not drift <= 1e-10:
        failures.append(f"relative area drift {drift:.3e} above 1e-10")
    if any(b > a for a, b in zip(lengths, lengths[1:])):
        failures.append("length increased during the run")
    final = _final(result.records[-1].metrics)
    vertices = result.final_state.curve.vertices
    return {
        "wall_s": wall, "ops": len(result.records),
        "steps": result.final_state.step_index,
        "op_times": _step_times(stamps), "attempted": 1,
        "failures": failures,
        "digest": hashlib.sha256(vertices.tobytes()).hexdigest(),
        "final": final,
        "residual_max": max(r.solver_residual for r in result.records),
        "crossings": 0, "output_bytes": 0, "files_written": 0,
    }


def corpus_specs(seed, count):
    """The four shape families and parameter ranges of ``verify multiplicity-corpus``."""
    import numpy as np
    from curvediffusion.geometry import ShapeSpec

    rng = np.random.default_rng(seed)
    specs = []
    for index in range(count):
        kind = index % 4
        if kind == 0:
            modes = tuple(
                (int(rng.integers(2, 7)), float(rng.uniform(0.0, 0.08)),
                 float(rng.uniform(0.0, 2.0 * math.pi)))
                for _ in range(int(rng.integers(1, 3)))
            )
            spec = ShapeSpec("fourier-perturbed-circle",
                             r0=float(rng.uniform(0.7, 1.5)), modes=modes)
        elif kind == 1:
            spec = ShapeSpec("limacon", offset=float(rng.uniform(0.3, 1.7)),
                             scale=float(rng.uniform(0.5, 2.0)))
        elif kind == 2:
            spec = ShapeSpec("lemniscate", scale=float(rng.uniform(0.5, 2.0)))
        else:
            spec = ShapeSpec("circle", radius=float(rng.uniform(0.5, 2.0)))
        specs.append(spec)
    return specs


def prepare_corpus(size, seed, workdir, job):
    del workdir, job
    from curvediffusion.geometry import generate
    return {"curves": [generate(spec, size["n"])
                       for spec in corpus_specs(seed, size["curves"])]}


def run_corpus(inputs):
    """Resample, measure, search crossings, certify and integrate each curve."""
    from curvediffusion import analysis, geometry, intersections

    clock = time.perf_counter
    rows, times = [], []
    start = clock()
    for raw in inputs["curves"]:
        t = clock()
        curve = geometry.resample_uniform(raw)
        met = geometry.metrics(curve)
        crossings = intersections.find_crossings(curve)
        certificate = analysis.embeddedness_certificate(curve)
        density = analysis.density_integral(curve, curve.vertices[0])
        times.append(clock() - t)
        rows.append((met, crossings, certificate, density))
    wall = clock() - start

    failures, found, digest = [], 0, hashlib.sha256()
    for index, (met, crossings, certificate, density) in enumerate(rows):
        found += len(crossings.crossings)
        bound = analysis.multiplicity_bound(crossings.multiplicity, met.winding_number)
        problems = []
        if met.osc_energy - bound < -1e-9 * max(1.0, abs(bound)):
            problems.append(f"osc energy {met.osc_energy:.6g} below bound {bound:.6g}")
        if (crossings.multiplicity == 1) != (not crossings.crossings):
            problems.append("multiplicity 1 does not match an empty crossing list")
        if certificate == analysis.EMBEDDED_CERTIFIED and crossings.crossings:
            problems.append("certified embedded but crossings were found")
        if not abs(density - 8.0) <= 0.1:
            problems.append(f"density {density:.6f} at vertex 0 is not 8 +- 0.1")
        if problems:
            failures.append(f"curve {index}: " + "; ".join(problems))
        digest.update(repr((len(crossings.crossings), crossings.multiplicity,
                            certificate, met.osc_energy, density)).encode())
    return {
        "wall_s": wall, "ops": len(rows), "steps": 0,
        "op_times": times, "attempted": len(rows), "failures": failures,
        "digest": digest.hexdigest(), "final": None, "residual_max": 0.0,
        "crossings": found, "output_bytes": 0, "files_written": 0,
    }


WORKLOADS = {
    "relax-256": (prepare_relax, run_relax),
    "fine-4096": (prepare_fine, run_fine),
    "corpus-512": (prepare_corpus, run_corpus),
}


# --- tracing --------------------------------------------------------------

def instrument(tracer):
    """Wrap the layer entry points named in the benchmark README."""
    import numpy
    import scipy.interpolate
    import scipy.linalg
    from curvediffusion import analysis, cli, flow, geometry, intersections

    package = [m for name, m in list(sys.modules.items())
               if name == "curvediffusion" or name.startswith("curvediffusion.")]
    for name, fn in (
        ("flow.run", flow.run),
        ("flow.solve_banded", scipy.linalg.solve_banded),
        ("geometry.resample_uniform", geometry.resample_uniform),
        ("geometry.metrics", geometry.metrics),
        ("intersections.find_crossings", intersections.find_crossings),
        ("analysis.density_integral", analysis.density_integral),
    ):
        tracer.rebind(package, fn, tracer.spanned(name, fn))
    # cli internals: every output file passes through _atomic_file, SVG text
    # is built by _svg_frame, and run.json sections by _simulation_report
    for attr, name in (("_atomic_file", "cli.write"), ("_svg_frame", "cli.write"),
                       ("_simulation_report", "analysis.reports")):
        fn = getattr(cli, attr, None)
        if fn is not None:
            tracer.rebind([cli], fn, tracer.spanned(name, fn))
    tracer.rebind([numpy], numpy.roll,
                  tracer.counted("flow.np_roll", numpy.roll, inside="flow.run"))

    base = scipy.interpolate.CubicSpline
    counts, open_ = tracer.counts, tracer.open

    class CountingSpline(base):
        def __call__(self, *args, **kwargs):
            if open_["geometry.resample_uniform"]:
                counts["geometry.spline_evals"] += 1
            return super().__call__(*args, **kwargs)

    tracer.rebind(package, base, CountingSpline)


# --- entry point ----------------------------------------------------------

def main(argv):
    spec = json.loads(argv[1])
    root = spec["root"]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import curvediffusion
    if not os.path.abspath(curvediffusion.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"curvediffusion imported from {curvediffusion.__file__}, "
                         f"not from {src}")

    prepare, run = WORKLOADS[spec["workload"]]
    size = SIZES[spec["size"]][spec["workload"]]
    inputs = prepare(size, spec["seed"], spec["workdir"], spec["job"])
    setup_s = time.perf_counter() - _T0

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, HERE)
        from spans import Tracer
        tracer = Tracer()
        instrument(tracer)
    try:
        out = run(inputs)
    finally:
        if tracer is not None:
            tracer.restore()

    if out["final"] is not None:
        _check_golden(f"{spec['workload']}/{spec['size']}", out["final"],
                      out["failures"])
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = _environment()
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
