"""Command-line surface: manifests, subcommands, exit codes, artifacts."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curvediffusion import cli, flow
from curvediffusion.cli import (
    REPORT_SECTIONS,
    RunManifest,
    main,
    read_manifest,
    write_manifest,
)
from curvediffusion.errors import RejectedInputError
from curvediffusion.flow import FlowConfig, record_to_json, run
from curvediffusion.geometry import (
    ShapeSpec,
    generate,
    read_curve_csv,
    resample_uniform,
    write_curve_csv,
)
from conftest import NOT_DEFAULT, SCENARIO_DIR, SHAPE_READS, UNREAD_PAIRS

README = Path(__file__).resolve().parents[1] / "README.md"

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

# a ripple that decays well above the quadrature floor, so the decay
# section fits a rate
RIPPLE_MANIFEST = """\
shape = fourier-perturbed-circle
modes = 2:0.01:0
n = 128
dt = 1e-4
max_steps = 200
output_dir = {out}
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


ELLIPSE_MANIFEST = """\
shape = ellipse
a = 1.5
b = 1.0
n = 64
dt = 1e-4
max_steps = 200
output_dir = ellipse-run
svg = true
reports = hypotheses, smallness, l1-energy, waiting, decay
"""

# the echo of ELLIPSE_MANIFEST as versions before the shape table wrote it:
# every shape key, the unread ones at their defaults
SEVEN_KEY_ECHO = """\
# flow run manifest: key = value per line, '#' starts a comment

# shape
shape = ellipse
radius = 1.0
a = 1.5
b = 1.0
r0 = 1.0
modes =
offset = 0.5
scale = 1.0

# stepping
n = 64
dt = 0.0001
max_time =
max_steps = 200
curvature_energy_ceiling = 100000.0

# outputs
output_dir = ellipse-run
snapshot_interval = 1000
svg = true
reports = hypotheses,smallness,l1-energy,waiting,decay
"""


class TestManifest:
    def test_round_trip_preserves_everything(self, tmp_path):
        manifest = RunManifest(
            shape=ShapeSpec("fourier-perturbed-circle", r0=1.2,
                            modes=((2, 0.01, 0.0), (5, 0.002, 1.25))),
            flow=FlowConfig(n=192, dt=5e-5, max_time=0.25),
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

    @pytest.mark.parametrize("kind", SHAPE_READS)
    def test_echo_holds_only_the_keys_the_kind_reads(self, kind, tmp_path):
        # the echo used to list all seven shape keys, whatever the kind
        path = tmp_path / "m.txt"
        write_manifest(RunManifest(shape=ShapeSpec(kind),
                                   flow=FlowConfig(max_steps=10)), path)
        keys = [line.split(" =")[0] for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        assert keys == ["shape", *SHAPE_READS[kind], *cli._FLOW_PARSERS,
                        *cli._OUTPUT_PARSERS]

    def test_numpy_scalars_echo_as_plain_numbers(self, tmp_path):
        # numpy >= 2 writes repr(np.float64(2.0)) as "np.float64(2.0)", which
        # the echo used to write and the reader then refused
        manifest = RunManifest(
            ShapeSpec("circle", radius=np.float64(2.0)),
            FlowConfig(n=np.int64(64), dt=np.float64(1e-4),
                       max_steps=np.int64(5)))
        path = tmp_path / "m.txt"
        write_manifest(manifest, path)
        assert "radius = 2.0\n" in path.read_text()
        assert read_manifest(path) == manifest

    def test_seven_key_echo_reads_as_the_short_manifest(self, tmp_path):
        # an echo written by earlier versions still reads, and so reruns
        short, echo = tmp_path / "short.txt", tmp_path / "echo.txt"
        short.write_text(ELLIPSE_MANIFEST)
        echo.write_text(SEVEN_KEY_ECHO)
        assert read_manifest(echo) == read_manifest(short)

    def test_reads_past_a_byte_order_mark(self, tmp_path):
        # the BOM used to be read as part of the first key, '\ufeffshape'
        path = SCENARIO_DIR / "ellipse.txt"
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_manifest(bom) == read_manifest(path)

    def test_readme_manifest_is_the_perturbed_scenario(self, tmp_path):
        # the README's simulate example rebuilds the flagship session fixture
        block = README.read_text(encoding="utf-8").split("```ini\n")[1]
        path = tmp_path / "readme.txt"
        path.write_text(block.split("```")[0])
        readme = read_manifest(path)
        scenario = read_manifest(SCENARIO_DIR / "perturbed.txt")
        assert readme.shape == scenario.shape
        assert readme.flow == scenario.flow
        assert readme.snapshot_interval == scenario.snapshot_interval

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
        "shape = circle\nmax_steps = 10\nsolve_tolerance = 1e-8\n",
        "shape = circle\nmax_steps = 10\nmin_segment_factor = 1e-3\n",
        "shape = circle\nmax_steps = 10\nstop_when_kosc_exceeds = 0.5\n",
        "shape = circle\nmax_time = nan\n",
        "shape = circle\nmax_steps = 10\ncurvature_energy_ceiling = nan\n",
        "shape = circle\nmax_steps = 10\nscheme = explicit-rk4\n",
        "shape = circle\nmax_steps = 10\nconserve_area = false\n",
    ])
    def test_malformed_manifests_rejected(self, tmp_path, body):
        path = tmp_path / "m.txt"
        path.write_text(body)
        with pytest.raises(RejectedInputError):
            read_manifest(path)

    def test_flow_keys_are_the_config_fields(self):
        fields = [f.name for f in dataclasses.fields(FlowConfig)]
        assert fields == list(cli._FLOW_PARSERS)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_snapshot_interval_must_be_an_integer(self, value):
        # 2.5 and True used to pass, and "3" to end in a bare TypeError
        with pytest.raises(RejectedInputError, match=(
                f"^snapshot_interval must be an integer, got {value!r}$")):
            RunManifest(shape=ShapeSpec("circle"),
                        flow=FlowConfig(max_steps=10), snapshot_interval=value)

    @pytest.mark.parametrize("field, value", [
        ("svg", "no"),
        ("svg", 1),
        ("reports", "hypotheses"),
        ("reports", ["hypotheses"]),
        ("output_dir", 5),
        ("output_dir", ""),
        # the echo used to read these back as 'runs/' and 'padded', and to
        # write 'a\nb' as a line that read_manifest refuses
        ("output_dir", "runs/#1"),
        ("output_dir", " padded "),
        ("output_dir", "a\nb"),
        ("output_dir", "a\rb"),
    ])
    def test_output_fields_are_typed(self, field, value):
        # "no" used to be a truthy svg flag, "hypotheses" to be read by
        # character, and 5 to fail only when the run wrote
        with pytest.raises(RejectedInputError, match=f"^{field} must be "):
            RunManifest(shape=ShapeSpec("circle"),
                        flow=FlowConfig(max_steps=10), **{field: value})


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

    def test_length_verdict_checks_every_step(self):
        # a 1e-9 relative rise between two records fails the verdict, though
        # the last length is below the first
        spec = ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0)
        initial = resample_uniform(generate(spec, 64))
        result = run(initial, FlowConfig(n=64, dt=1e-4, max_steps=6))
        assert cli._summary_report(result).verdicts["length_nonincreasing"]
        records = list(result.records)
        risen = dataclasses.replace(
            records[3].metrics, length=records[2].metrics.length * (1.0 + 1e-9))
        records[3] = dataclasses.replace(records[3], metrics=risen)
        assert records[-1].metrics.length < result.initial_metrics.length
        spliced = dataclasses.replace(result, records=tuple(records))
        assert not cli._summary_report(spliced).verdicts["length_nonincreasing"]

    def test_trajectory_lines_match_record_count(self, circle_outputs):
        _, out = circle_outputs
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 300

    def test_repeat_runs_byte_identical(self, tmp_path, monkeypatch):
        # one manifest with a relative output_dir, run under two output
        # roots, so even the manifest echo must match
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "shape = fourier-perturbed-circle\nmodes = 2:0.01:0\n"
            "n = 128\ndt = 1e-4\nmax_steps = 200\noutput_dir = run\n"
            "snapshot_interval = 100\nsvg = true\n"
            f"reports = {', '.join(REPORT_SECTIONS)}\n")
        outputs = []
        for name in ("a", "b"):
            monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path / name))
            assert main(["simulate", str(manifest)]) == 0
            out = tmp_path / name / "run"
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        names = set(outputs[0])
        assert {"manifest.txt", "trajectory.jsonl", "run.json"} <= names
        for step in (0, 100, 200):
            assert {f"snapshot_{step:08d}.csv", f"snapshot_{step:08d}.svg"} <= names
        sections = json.loads(outputs[0]["run.json"])["sections"]
        assert set(sections) == {"summary"} | set(REPORT_SECTIONS)
        assert sections["decay"]["verdicts"]["fitted"]

    def test_echo_reruns_to_the_same_bytes(self, tmp_path, monkeypatch):
        # manifest.txt is the run: simulated under another output root it
        # writes every file again, manifest.txt included
        manifest = tmp_path / "m.txt"
        manifest.write_text(ELLIPSE_MANIFEST.replace("max_steps = 200",
                                                     "max_steps = 40"))
        trees = []
        for name, source in (("a", manifest),
                             ("b", tmp_path / "a" / "ellipse-run" / "manifest.txt")):
            monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path / name))
            assert main(["simulate", str(source)]) == 0
            out = tmp_path / name / "ellipse-run"
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert trees[0] == trees[1]
        assert {"manifest.txt", "snapshot_00000040.svg"} <= set(trees[0])

    def test_files_take_the_umask(self, tmp_path, monkeypatch):
        # mkstemp used to leave every output file -rw------- under umask 022
        monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path))
        manifest = tmp_path / "m.txt"
        manifest.write_text(ELLIPSE_MANIFEST.replace("max_steps = 200",
                                                     "max_steps = 10"))
        old = os.umask(0o022)
        try:
            assert main(["simulate", str(manifest)]) == 0
            out = tmp_path / "ellipse-run"
            assert main(["analyze", str(out / "snapshot_00000010.csv")]) == 0
        finally:
            os.umask(old)
        written = [*out.iterdir(), tmp_path / "snapshot_00000010_report.json"]
        assert len(written) == 8
        assert {oct(p.stat().st_mode & 0o777) for p in written} == {"0o644"}
        assert not [p for p in tmp_path.rglob(".*")]

    def test_scenario_manifest_rebuilds_its_fixture(self, tmp_path, monkeypatch,
                                                     wave_run):
        # simulate on a scenario manifest writes the session fixture's run
        monkeypatch.setenv("CURVEDIFFUSION_OUTPUT_ROOT", str(tmp_path))
        assert main(["simulate", str(SCENARIO_DIR / "wave.txt")]) == 0
        out = tmp_path / "run-output"
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert lines == [record_to_json(r) for r in wave_run.result.records]
        files = sorted(out.glob("snapshot_*.csv"))
        assert [f.name for f in files] == [f"snapshot_{step:08d}.csv"
                                           for step, _, _ in wave_run.snapshots]
        for path, (_, _, curve) in zip(files, wave_run.snapshots):
            assert np.array_equal(read_curve_csv(path).vertices, curve.vertices)
        assert np.array_equal(read_curve_csv(files[-1]).vertices,
                              wave_run.result.final_state.curve.vertices)

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

    def test_failed_residual_check_exits_two_with_partial_outputs(
            self, tmp_path, monkeypatch, capsys):
        # the tenth solve misses its system; that used to end simulate with
        # exit 1 and an empty output directory
        apply = flow._apply_cyclic_pentadiagonal
        calls = []

        def missed(c, x):
            calls.append(1)
            return apply(c, x) + (1.0 if len(calls) == 10 else 0.0)

        monkeypatch.setattr(flow, "_apply_cyclic_pentadiagonal", missed)
        out = tmp_path / "out"
        manifest = tmp_path / "m.txt"
        manifest.write_text("shape = circle\nn = 64\ndt = 1e-4\nmax_steps = 20\n"
                            f"output_dir = {out}\n")
        assert main(["simulate", str(manifest)]) == 2
        assert "blow-up (implicit step residual" in capsys.readouterr().out
        assert len((out / "trajectory.jsonl").read_text().splitlines()) == 9
        payload = json.loads((out / "run.json").read_text())
        assert payload["run"]["reason"] == "blow-up"
        assert payload["run"]["detail"].startswith("implicit step residual")

    def test_length_rise_exits_two(self, tmp_path):
        # past its singular time the figure-eight's length rises, first at
        # step 874; the run used to go on to max-time and exit 0
        out = tmp_path / "out"
        manifest = tmp_path / "m.txt"
        manifest.write_text("shape = lemniscate\nn = 128\ndt = 5e-5\n"
                            f"max_time = 0.05\noutput_dir = {out}\n")
        assert main(["simulate", str(manifest)]) == 2
        payload = json.loads((out / "run.json").read_text())
        assert payload["run"]["reason"] == "blow-up"
        assert payload["run"]["detail"].startswith("length increased")
        assert payload["run"]["records"] == 873
        assert payload["sections"]["summary"]["verdicts"]["length_nonincreasing"]

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.txt")]) == 1
        assert capsys.readouterr().err != ""

    def test_reports_need_neither_polyfit_nor_median(self, tmp_path, monkeypatch):
        def raising(*args, **kwargs):
            raise AssertionError("np.polyfit, np.linalg.lstsq or np.median called")

        for module, name in ((np, "polyfit"), (np, "median"), (np.linalg, "lstsq")):
            monkeypatch.setattr(module, name, raising)
        out = tmp_path / "out"
        manifest = tmp_path / "m.txt"
        manifest.write_text(RIPPLE_MANIFEST.format(out=out))
        assert main(["simulate", str(manifest)]) == 0
        sections = json.loads((out / "run.json").read_text())["sections"]
        assert set(sections) == {"summary"} | set(REPORT_SECTIONS)
        assert sections["decay"]["verdicts"]["fitted"]
        assert sections["waiting"]["values"]["measure"] == 0.0

    def test_non_finite_shape_field_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "shape = circle\nradius = nan\nmax_steps = 10\n"
            f"output_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "curvediffusion: radius must be finite, got nan"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, field", UNREAD_PAIRS)
    def test_unread_shape_key_exits_one(self, kind, field, tmp_path, capsys):
        # shape = ellipse with radius = 5 used to run a 1 x 1 ellipse, exit 0
        # and echo radius = 5.0
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            f"shape = {kind}\n{field} = {cli._format_value(NOT_DEFAULT[field])}\n"
            f"max_steps = 10\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", str(manifest)]) == 1
        reads = ", ".join(SHAPE_READS[kind])
        assert capsys.readouterr().err.splitlines() == [
            f"curvediffusion: shape '{kind}' reads {reads}, not {field}"
        ]
        assert not (tmp_path / "out").exists()

    def test_shape_generate_refuses_leaves_no_output_dir(self, tmp_path, capsys):
        # the manifest reads, but 256 points would alias mode 200
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "shape = fourier-perturbed-circle\nmodes = 200:0.01:0\nn = 256\n"
            f"max_steps = 10\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("curvediffusion: mode frequency 200 is at or above")
        assert not (tmp_path / "out").exists()


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
        for key in ("int_dev_ks2", "int_dev2_ks2"):
            assert key in payload["metrics"]
            assert f"  {key} " in captured.out
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


# a mode frequency of 401 digits, beyond float range; the fuzz's text
# strategy stops at 12 characters
OVERSIZED_MODE_MANIFEST = (
    "shape = fourier-perturbed-circle\nmax_steps = 10\n"
    f"modes = {10 ** 400}:0.01:0\n")


class TestMalformedInput:
    def test_oversized_mode_frequency_exits_one(self, tmp_path, capsys):
        # used to end in a bare OverflowError traceback
        path = tmp_path / "m.txt"
        path.write_text(OVERSIZED_MODE_MANIFEST, encoding="utf-8")
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("curvediffusion: modes: ")
        assert err.count("\n") == 1 and "Traceback" not in err

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

    @pytest.mark.parametrize("read, kind, data", [
        (read_manifest, "manifest", b"shape = circle\xff\n"),
        (read_curve_csv, "curve CSV", b"x,y\n1.0,0.0\xff\n"),
        (flow.read_trajectory_jsonl, "trajectory", b'{"t": 1.0\xff}\n'),
    ], ids=["manifest", "curve", "trajectory"])
    def test_readers_refuse_non_utf8_alike(self, read, kind, data, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(data)
        with pytest.raises(RejectedInputError) as info:
            read(path)
        assert str(info.value) == f"{kind} {path} is not UTF-8 text"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=_with_bytes(_MANIFEST_LINES))
    @example(data=OVERSIZED_MODE_MANIFEST.encode("utf-8"))
    @example(data=OVERSIZED_MODE_MANIFEST.replace(
        "modes = ", "modes = 2:0.01:0, ").encode("utf-8"))
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
        assert out.count("PASS") == 9

    def test_flow_identity_rows_name_the_limits_they_apply(self, monkeypatch, capsys):
        # five steps a scenario: the rows' text is under test, not their verdicts
        short = tuple((name, spec, dataclasses.replace(config, max_steps=5), limits)
                      for name, spec, config, limits in cli._IDENTITY_SCENARIOS)
        monkeypatch.setattr(cli, "_IDENTITY_SCENARIOS", short)
        main(["verify", "flow-identities"])
        rows = {line[6:].split("  ")[0]: line
                for line in capsys.readouterr().out.splitlines()
                if line.startswith(("PASS", "FAIL"))}
        assert rows["ellipse: length balance"].endswith("(limit 0.15)")
        assert rows["perturbed circle: osc energy balance"].endswith("(limit 0.05)")
        assert rows["circle: area balance"].endswith("(limit 1e-09)")

    def test_certificate_row_fails_when_a_crossed_curve_is_certified(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "embeddedness_certificate",
                            lambda curve: cli.EMBEDDED_CERTIFIED)
        assert main(["verify", "multiplicity-corpus"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  no curve the energy certificate certifies crosses itself" in out
        assert "multiplicity-corpus: 1/2 checks passed" in out

    def test_unknown_suite_lists_options(self, capsys):
        assert main(["verify", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "unknown suite" in err
        assert "wirtinger" in err

    def test_bare_verify_lists_options(self, capsys):
        assert main(["verify"]) == 1
        assert "available suites" in capsys.readouterr().out

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert main(["verify", "wirtinger", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "curvediffusion: --seed must be a non-negative integer, got -1"
        ]


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

    @pytest.mark.parametrize("module", [
        "curvediffusion", "curvediffusion.cli", "curvediffusion.flow",
        "curvediffusion.geometry", "curvediffusion.analysis",
        "curvediffusion.intersections",
    ])
    def test_import_leaves_scipy_unloaded(self, module):
        # the package needs numpy only; any scipy module would add start-up
        # time and memory to every run
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import {module}, sys; "
             "sys.exit(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy') or None)"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_only_what_it_needs(self):
        def submodules_after(module):
            proc = subprocess.run(
                [sys.executable, "-c",
                 f"import {module}, sys; print(*sorted(m for m in sys.modules "
                 "if m.startswith('curvediffusion.')))"],
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return set(proc.stdout.split())

        # the package root re-exports nothing, and the step needs neither
        # the reports nor the crossing search
        assert submodules_after("curvediffusion") == set()
        assert not submodules_after("curvediffusion.flow") & {
            "curvediffusion.analysis", "curvediffusion.intersections"}

    def test_simulate_leaves_numpy_ma_unloaded(self, tmp_path):
        # the reports fit their line and take their median with plain numpy;
        # np.median alone would import numpy.ma
        out = tmp_path / "out"
        manifest = tmp_path / "m.txt"
        manifest.write_text(RIPPLE_MANIFEST.format(out=out))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from curvediffusion.cli import main; "
             f"code = main(['simulate', {str(manifest)!r}]); "
             "sys.exit(code or sorted(m for m in sys.modules "
             "if m == 'numpy.ma' or m.startswith('numpy.ma.')) or None)"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        sections = json.loads((out / "run.json").read_text())["sections"]
        assert sections["decay"]["verdicts"]["fitted"]
