"""curvediffusion benchmark: one workload, timed end to end or traced by layer.

Usage::

    python3 perfbench/run.py --workload relax-256 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each job runs in a fresh process (``job.py``) with BLAS pinned to one thread,
and jobs run one after another until ``--seconds`` have passed (a closed loop
with one client).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced jobs and prints the per-layer metrics.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs every workload once untraced
and once traced at tiny sizes and checks the printed metric names against
BENCHMARK.json; it is the benchmark's self-test.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("relax-256", "fine-4096", "corpus-512")
MIN_JOBS = 3          # per mode, so best-of and cross-job repeats mean something
JOB_TIMEOUT_S = 120
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class JobError(RuntimeError):
    pass


def run_job(workload, seed, job, trace, size, workdir):
    spec = {"workload": workload, "seed": seed, "job": job, "trace": trace,
            "size": size, "root": ROOT, "workdir": workdir}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINNED_THREADS)
    env.pop("CURVEDIFFUSION_OUTPUT_ROOT", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"{workload} job {job} timed out after {JOB_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobError(f"{workload} job {job} exited with {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _per(num, den):
    return num / den if den else 0.0


def best_of(jobs):
    """Each operation's best time over the jobs of a run, and the best job wall.

    Every job of a run repeats the same operations.  The wall time is the sum
    of the per-operation minima plus the least time a job spent outside its
    operations (set-up inside the job, writing, reports).
    """
    best = [min(times) for times in zip(*(j["op_times"] for j in jobs))]
    outside = min(j["wall_s"] - sum(j["op_times"]) for j in jobs)
    return best, sum(best) + outside


def end_to_end(jobs):
    # Interference from other tenants of the machine only ever slows an
    # operation, and it comes in spells of seconds to minutes, so the fastest
    # operation of the run is the timing that repeats between runs.
    return {
        "setup_s": (statistics.median(j["setup_s"] for j in jobs), "s"),
        "op_ms_min": (1e3 * min(t for j in jobs for t in j["op_times"]), "ms"),
        "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in jobs), "MB"),
    }


def per_layer(untraced, traced):
    spans, counts = {}, {}
    for j in traced:
        for name, row in j["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for name, value in j["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def span(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outer_s": 0.0})

    steps = sum(j["steps"] for j in traced)
    ops = sum(j["ops"] for j in traced)
    wall = sum(j["wall_s"] for j in traced)
    jobs = len(traced)
    resample = span("geometry.resample_uniform")
    banded = span("flow.solve_banded")
    crossings = span("intersections.find_crossings")
    op_times = sorted(t for j in untraced for t in j["op_times"])
    best, best_wall = best_of(untraced)
    return {
        "flow.run.self_ms_per_step": (1e3 * _per(span("flow.run")["self_s"], steps), "ms"),
        "flow.np_roll.calls_per_step": (_per(counts.get("flow.np_roll", 0), steps), "count"),
        "flow.solve_banded.calls_per_step": (_per(banded["calls"], steps), "count"),
        "flow.solve_banded.us_per_call": (1e6 * _per(banded["total_s"], banded["calls"]), "us"),
        "flow.solver_residual_max": (max(j["residual_max"] for j in traced), "1"),
        "geometry.resample_uniform.calls_per_op": (_per(resample["calls"], ops), "count"),
        "geometry.resample_uniform.us_per_call":
            (1e6 * _per(resample["total_s"], resample["calls"]), "us"),
        "geometry.resample_uniform.spline_evals_per_call":
            (_per(counts.get("geometry.spline_evals", 0), resample["calls"]), "count"),
        "geometry.resample_uniform.share": (_per(resample["outer_s"], wall), "frac"),
        "geometry.metrics.us_per_call":
            (1e6 * _per(span("geometry.metrics")["total_s"], span("geometry.metrics")["calls"]), "us"),
        "intersections.find_crossings.us_per_call":
            (1e6 * _per(crossings["total_s"], crossings["calls"]), "us"),
        "intersections.find_crossings.share": (_per(crossings["outer_s"], wall), "frac"),
        "intersections.crossings_found": (traced[0]["crossings"], "count"),
        "analysis.density_integral.us_per_call":
            (1e6 * _per(span("analysis.density_integral")["total_s"],
                        span("analysis.density_integral")["calls"]), "us"),
        "analysis.reports_ms": (1e3 * _per(span("analysis.reports")["outer_s"], jobs), "ms"),
        "cli.write_ms": (1e3 * _per(span("cli.write")["outer_s"], jobs), "ms"),
        "cli.output_bytes": (traced[0]["output_bytes"], "bytes"),
        "cli.files_written": (traced[0]["files_written"], "count"),
        "trace.overhead_frac": (best_of(traced)[1] / best_wall - 1.0, "frac"),
        "job.wall_s_best": (best_wall, "s"),
        "job.ops_per_s_best": (len(best) / sum(best), "1/s"),
        "job.op_ms_best_p50": (1e3 * statistics.median(best), "ms"),
        "job.op_ms_p50": (1e3 * statistics.median(op_times), "ms"),
        "job.op_ms_p90": (1e3 * statistics.quantiles(op_times, n=10)[-1], "ms"),
        "job.op_samples": (len(op_times), "count"),
    }


def gate(jobs):
    """attempted, failed and failure messages over jobs; outputs must repeat."""
    attempted = sum(j["attempted"] for j in jobs)
    messages = [m for j in jobs for m in j["failures"]]
    failed = sum(min(len(j["failures"]), j["attempted"]) for j in jobs)
    for field in ("digest", "crossings", "output_bytes", "files_written", "steps"):
        if any(j[field] != jobs[0][field] for j in jobs):
            messages.append(f"{field} differs between jobs of one run")
            failed += 1
    return attempted, failed, messages


def measure(workload, seed, seconds, trace, size, workdir, min_jobs=MIN_JOBS):
    """Run jobs until ``seconds`` pass; return (result dict, environment)."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while (time.perf_counter() < deadline or len(untraced) < min_jobs
           or (trace and len(traced) < min_jobs)):
        traced_job = bool(trace) and index % 2 == 1
        result = run_job(workload, seed, index, traced_job, size, workdir)
        (traced if traced_job else untraced).append(result)
        index += 1
    attempted, failed, messages = gate(untraced + traced)
    for message in messages:
        print(f"gate: {message}", file=sys.stderr)
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
    if not trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "frac")
    return {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, untraced[0]["env"]


def smoke():
    """Every workload, gate and the traced path at tiny sizes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    want = {0: {m["name"] for m in declared["end_to_end"]},
            1: {m["name"] for m in declared["per_layer"]}}
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from the benchmark's", file=sys.stderr)
        return 1
    ok = True
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, _ = measure(workload, 0, 0, trace, "smoke", workdir, min_jobs=1)
                names = set(result["metrics"])
                good = result["correct"] and names == want[trace]
                ok = ok and good
                print(f"smoke {workload} trace={trace}: "
                      f"{'ok' if good else 'FAIL'} ({result['attempted']} attempted, "
                      f"{result['failed']} failed, metrics {sorted(names ^ want[trace]) or 'match'})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: every workload at tiny sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "curvediffusion", "__init__.py")):
        print(f"no curvediffusion sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
        try:
            result, job_env = measure(args.workload, args.seed, args.seconds,
                                      args.trace, "full", workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except JobError as exc:
        print(f"benchmark job failed: {exc}", file=sys.stderr)
        return 1
    env = dict(job_env, nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
               seed=args.seed, workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
