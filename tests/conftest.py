"""Session fixtures: the reference runs shared across test modules.

Each run is computed once per session.  The heaviest scenario (the t=5
perturbed-circle run) dominates the suite's runtime; everything downstream
reuses its records.  Each run is the manifest tests/scenarios/<name>.txt,
run as `curvediffusion simulate` runs it, so a fixture is rebuilt bit for
bit by

    curvediffusion simulate tests/scenarios/<name>.txt

tests/make_golden.py and tests/fixture_digest.py read the same manifests.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from curvediffusion.cli import read_manifest, run_with_snapshots
from curvediffusion.geometry import generate, resample_uniform

SCENARIO_DIR = Path(__file__).parent / "scenarios"


def scenario_names():
    """The stems of the manifests in tests/scenarios, sorted."""
    return sorted(path.stem for path in SCENARIO_DIR.glob("*.txt"))


def scenario(name):
    """Run tests/scenarios/<name>.txt from its resampled initial curve."""
    manifest = read_manifest(SCENARIO_DIR / f"{name}.txt")
    spec, config = manifest.shape, manifest.flow
    initial = resample_uniform(generate(spec, config.n), config.n)
    result, snapshots = run_with_snapshots(initial, config,
                                           manifest.snapshot_interval)
    return SimpleNamespace(
        spec=spec, config=config, initial=initial,
        result=result, snapshots=snapshots,
    )


@pytest.fixture(scope="session")
def circle_run():
    return scenario("circle")


@pytest.fixture(scope="session")
def ellipse_run():
    return scenario("ellipse")


@pytest.fixture(scope="session")
def perturbed_run():
    return scenario("perturbed")


@pytest.fixture(scope="session")
def wide_perturbed_run():
    """Radius-3 variant: decay is slow enough to stay live on late windows."""
    return scenario("wide-perturbed")


@pytest.fixture(scope="session")
def strong_perturbed_run():
    return scenario("strong-perturbed")


@pytest.fixture(scope="session")
def mode3_run():
    return scenario("mode3")


@pytest.fixture(scope="session")
def lemniscate_run():
    """Figure-eight driven into the blow-up guard at a ceiling its
    oscillation-energy history can sustain without breaching the L1 budget."""
    return scenario("lemniscate")


@pytest.fixture(scope="session")
def wave_run():
    """Short-wavelength ripple whose curvature starts negative somewhere and
    turns positive within a few steps: a run with nonzero waiting measure."""
    return scenario("wave")


@pytest.fixture(scope="session")
def all_scenarios(request):
    """Every scenario's session fixture, by scenario name; a manifest with no
    fixture named <name>_run (dashes as underscores) fails here."""
    return {name: request.getfixturevalue(name.replace("-", "_") + "_run")
            for name in scenario_names()}
