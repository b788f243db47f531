"""Command-line surface: manifests, subcommands, exit codes, artifacts."""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvediffusion import cli
from curvediffusion.cli import (
    REPORT_SECTIONS,
    RunManifest,
    main,
    read_manifest,
    write_manifest,
)
from curvediffusion.errors import RejectedInputError
from curvediffusion.flow import FlowConfig
from curvediffusion.geometry import (
    ShapeSpec,
    generate,
    resample_uniform,
    write_curve_csv,
)

CIRCLE_MANIFEST = """\
# short round run, all report sections
shape = circle
radius = 1.0
n = 128
dt = 1e-4
max_steps = 300
output_dir = {out}
snapshot_interval = 100
svg = true
reports = hypotheses, smallness, l1-energy, waiting, decay
"""

BLOWUP_MANIFEST = """\
# n = 64 is below the resolution envelope here: its discrete length cap
# undershoots the time integral by 6e-4 relative, an artifact that is gone
# from n = 128 up
shape = lemniscate
scale = 1.0
n = 128
dt = 1.25e-5
max_steps = 100000
curvature_energy_ceiling = 60.0
output_dir = {out}
reports = l1-energy
"""


class TestManifest:
    def test_round_trip_preserves_everything(self, tmp_path):
        manifest = RunManifest(
            shape=ShapeSpec("fourier-perturbed-circle", r0=1.2,
                            modes=((2, 0.01, 0.0), (5, 0.002, 1.25))),
            flow=FlowConfig(n=192, dt=5e-5, max_time=0.25,
                            stop_when_kosc_exceeds=0.5,
                            conserve_area=False),
            output_dir="somewhere",
            snapshot_interval=123,
            svg=True,
            reports=("hypotheses", "decay"),
        )
        path = tmp_path / "m.txt"
        write_manifest(manifest, path)
        back = read_manifest(path)
        assert back.shape == manifest.shape
        assert back.flow == manifest.flow
        assert back.output_dir == manifest.output_dir
        assert back.snapshot_interval == manifest.snapshot_interval
        assert back.svg == manifest.svg
        assert back.reports == manifest.reports

    def test_minimal_manifest_uses_defaults(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("shape = circle\nmax_steps = 10\n")
        manifest = read_manifest(path)
        assert manifest.shape == ShapeSpec("circle")
        assert manifest.flow.n == 256
        assert manifest.flow.max_steps == 10
        assert manifest.output_dir == "run-output"
        assert manifest.svg is False

    def test_comments_and_blanks_are_ignored(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "# header\n\nshape = circle  # inline note\n\nmax_steps = 5\n")
        assert read_manifest(path).flow.max_steps == 5

    @pytest.mark.parametrize("body", [
        "shape = circle\nmax_steps = 10\nwhatever = 3\n",
        "shape = circle\nmax_steps = 10\nshape = ellipse\n",
        "max_steps = 10\n",
        "shape = circle\nmax_steps\n",
        "shape = circle\nmax_steps = 10\ndt = fast\n",
        "shape = circle\nmax_steps = 10\nsvg = yes\n",
        "shape = circle\nmax_steps = 10\nmodes = 2:0.01\n",
        "shape = circle\nmax_steps = 10\nreports = hypotheses, bogus\n",
        "shape = circle\nmax_steps = 10\ngeometry_epsilon = 1e-9\n",
        "shape = circle\nmax_steps = 10\nredistribution = resample-every-step\n",
        "shape = circle\nmax_steps = 10\nspread_threshold = 0.01\n",
    ])
    def test_malformed_manifests_rejected(self, tmp_path, body):
        path = tmp_path / "m.txt"
        path.write_text(body)
        with pytest.raises(RejectedInputError):
            read_manifest(path)


@pytest.fixture(scope="module")
def circle_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    out = root / "out"
    manifest = root / "m.txt"
    manifest.write_text(CIRCLE_MANIFEST.format(out=out))
    code = main(["simulate", str(manifest)])
    return code, out


class TestSimulate:
    def test_exit_zero_and_artifacts(self, circle_outputs):
        code, out = circle_outputs
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "manifest.txt" in names
        assert "trajectory.jsonl" in names
        assert "run.json" in names
        for step in (0, 100, 200, 300):
            assert f"snapshot_{step:08d}.csv" in names
            assert f"snapshot_{step:08d}.svg" in names

    def test_report_schema(self, circle_outputs):
        _, out = circle_outputs
        payload = json.loads((out / "run.json").read_text())
        assert payload["run"]["reason"] == "max-steps"
        assert payload["run"]["records"] == 300
        sections = payload["sections"]
        assert set(sections) == {"summary"} | set(REPORT_SECTIONS)
        assert sections["hypotheses"]["verdicts"]["admissible"]
        assert sections["summary"]["verdicts"]["length_nonincreasing"]
        assert sections["waiting"]["values"]["measure"] == 0.0
        # nothing decays on a resolution-floor circle; the section must say
        # so rather than fit noise
        assert sections["decay"]["verdicts"] == {"applicable": False}
        assert "note" in sections["decay"]

    def test_trajectory_lines_match_record_count(self, circle_outputs):
        _, out = circle_outputs
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 300

    def test_repeat_runs_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            manifest = tmp_path / f"{name}.txt"
            body = ("shape = circle\nn = 128\ndt = 1e-4\nmax_steps = 50\n"
                    f"output_dir = {out}\n")
            manifest.write_text(body)
            assert main(["simulate", str(manifest)]) == 0
            outputs.append((out / "trajectory.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_relative_output_honors_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path))
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "shape = circle\nn = 128\ndt = 1e-4\nmax_steps = 20\n"
            "output_dir = nested/run\n")
        assert main(["simulate", str(manifest)]) == 0
        assert (tmp_path / "nested" / "run" / "run.json").exists()

    def test_blow_up_exits_two_with_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        manifest = tmp_path / "m.txt"
        manifest.write_text(BLOWUP_MANIFEST.format(out=out))
        code = main(["simulate", str(manifest)])
        assert code == 2
        captured = capsys.readouterr()
        assert "blow-up" in captured.out
        payload = json.loads((out / "run.json").read_text())
        assert payload["run"]["reason"] == "blow-up"
        assert payload["run"]["detail"] != ""
        assert payload["run"]["records"] > 0
        assert payload["sections"]["l1-energy"]["verdicts"]["within_bound"]
        assert (out / "trajectory.jsonl").stat().st_size > 0

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.txt")]) == 1
        assert capsys.readouterr().err != ""


class TestAnalyze:
    def test_report_and_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path))
        curve = resample_uniform(generate(ShapeSpec("lemniscate", scale=1.0), 256))
        path = tmp_path / "eight.csv"
        write_curve_csv(curve, path)
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert "multiplicity" in captured.out
        assert "certificate" in captured.out
        payload = json.loads((tmp_path / "eight_report.json").read_text())
        assert set(payload) == {"curve", "metrics", "hypotheses", "crossings",
                                "embeddedness", "multiplicity_bound"}
        assert payload["crossings"]["multiplicity"] == 2
        assert payload["metrics"]["winding_number"] == 0.0
        assert not payload["hypotheses"]["verdicts"]["admissible"]
        assert payload["multiplicity_bound"]["verdicts"]["osc_energy_at_least_bound"]

    def test_metrics_computed_once(self, tmp_path, monkeypatch):
        # metrics, hypotheses and the certificate all read the curve's kept
        # metrics
        from curvediffusion import geometry

        calls = []
        measure = geometry._metrics
        monkeypatch.setattr(geometry, "_metrics",
                            lambda *args: calls.append(1) or measure(*args))
        monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path))
        path = tmp_path / "ellipse.csv"
        write_curve_csv(generate(ShapeSpec("ellipse", a=1.5, b=1.0), 128), path)
        assert main(["analyze", str(path)]) == 0
        assert len(calls) == 1

    def test_missing_curve_is_usage_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.csv")]) == 1

    @pytest.mark.parametrize("radius, code, message", [
        (1.0, 0, ""),
        (1e150, 0, ""),
        (1e200, 1, "too large"),   # squared chords overflow
        (1e-150, 1, "collapsed"),  # below MIN_TOTAL_LENGTH
        (1e-200, 1, "collapsed"),  # squared chords underflow to 0
    ])
    def test_curve_scale(self, tmp_path, monkeypatch, capsys, radius, code,
                         message):
        monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path))
        angles = [2.0 * math.pi * i / 32 for i in range(32)]
        rows = [f"{radius * math.cos(a)!r},{radius * math.sin(a)!r}"
                for a in angles]
        path = tmp_path / "c.csv"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        assert main(["analyze", str(path)]) == code
        assert message in capsys.readouterr().err


_MANIFEST_LINES = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(sorted(cli._MANIFEST_KEYS)), st.text(max_size=12)),
    st.text(max_size=24),
)
_CSV_CELLS = st.one_of(st.floats().map(repr), st.text(max_size=8))
_CSV_ROWS = st.builds("{},{}".format, _CSV_CELLS, _CSV_CELLS)


def _splice(case) -> bytes:
    text, at, raw = case
    at %= len(text) + 1
    return text[:at] + raw + text[at:]


def _with_bytes(lines: st.SearchStrategy, header: str = "") -> st.SearchStrategy:
    """Files of generated text lines, some with raw bytes spliced in, and
    random bytes."""
    text = st.lists(lines, max_size=40).map(
        lambda rows: (header + "\n".join(rows) + "\n").encode("utf-8"))
    spliced = st.tuples(text, st.integers(min_value=0),
                        st.binary(min_size=1, max_size=2)).map(_splice)
    return st.one_of(text, spliced, st.binary(max_size=300))


def _main_on_bytes(command: str, name: str, data: bytes):
    """Run one subcommand on a file holding data; return its code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        path = Path(root) / name
        path.write_bytes(data)
        mp.setenv("CURVEDIFFUSION_OUTPUT_ROOT", root)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    return code, err.getvalue()


class TestMalformedInput:
    def test_non_utf8_manifest_exits_one(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"shape = circle\xff\nmax_steps = 10\n")
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "not UTF-8" in err and str(path) in err

    def test_non_utf8_curve_exits_one(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_bytes(b"x,y\n1.0,0.0\xff\n")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "not UTF-8" in err and str(path) in err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=_with_bytes(_MANIFEST_LINES))
    def test_simulate_fuzz_exits_one_with_message(self, data):
        # stop once the manifest is parsed: the reader is under test, and a
        # parsed manifest may ask for any output path or resolution
        def parsed(_path):
            raise RejectedInputError("manifest parsed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_resolve_output", parsed)
            code, err = _main_on_bytes("simulate", "m.txt", data)
        assert code == 1
        assert err.strip() != ""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=_with_bytes(_CSV_ROWS, header="x,y\n"))
    def test_analyze_fuzz_exits_zero_or_one_with_message(self, data):
        code, err = _main_on_bytes("analyze", "c.csv", data)
        assert code in (0, 1)
        if code == 1:
            assert err.strip() != ""


class TestVerify:
    @pytest.mark.parametrize("args", [
        ["verify", "wirtinger"],
        ["verify", "newton"],
        ["verify", "density"],
        ["verify", "multiplicity-corpus", "--seed", "7"],
    ])
    def test_fast_suites_pass(self, args, capsys):
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_flow_identity_suite_passes(self, capsys):
        assert main(["verify", "flow-identities"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 12

    def test_unknown_suite_lists_options(self, capsys):
        assert main(["verify", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "unknown suite" in err
        assert "wirtinger" in err

    def test_bare_verify_lists_options(self, capsys):
        assert main(["verify"]) == 1
        assert "available suites" in capsys.readouterr().out


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["bogus"]) == 1

    def test_help_exits_zero(self):
        assert main(["-h"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "curvediffusion", "verify", "wirtinger"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    def test_import_leaves_scipy_interpolate_unloaded(self):
        # the package carries its own spline kernel; importing
        # scipy.interpolate would add start-up time and memory to every run
        proc = subprocess.run(
            [sys.executable, "-c",
             "import curvediffusion.cli, sys; "
             "sys.exit('scipy.interpolate' in sys.modules)"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
