"""Session fixtures: the reference runs shared across test modules.

Each run is computed once per session.  The heaviest scenario (the t=5
perturbed-circle run) dominates the suite's runtime; everything downstream
reuses its records.
"""

import math
from types import SimpleNamespace

import pytest

from curvediffusion.flow import FlowConfig, run
from curvediffusion.geometry import ShapeSpec, generate, resample_uniform


def _scenario(spec, config, snapshot_every=None):
    initial = resample_uniform(generate(spec, config.n))
    snapshots = [(0, 0.0, initial)]

    hook = None
    if snapshot_every is not None:
        def hook(state, record):
            if state.step_index % snapshot_every == 0:
                snapshots.append((state.step_index, state.time, state.curve))

    result = run(initial, config, on_record=hook)
    final = result.final_state
    if final.step_index != snapshots[-1][0]:
        snapshots.append((final.step_index, final.time, final.curve))
    return SimpleNamespace(
        spec=spec, config=config, initial=initial,
        result=result, snapshots=snapshots,
    )


@pytest.fixture(scope="session")
def circle_run():
    return _scenario(
        ShapeSpec("circle", radius=1.0),
        FlowConfig(n=256, dt=1e-4, max_time=1.0),
    )


@pytest.fixture(scope="session")
def ellipse_run():
    return _scenario(
        ShapeSpec("ellipse", a=1.5, b=2.0 / 3.0),
        FlowConfig(n=256, dt=1e-4, max_time=2.0),
    )


@pytest.fixture(scope="session")
def perturbed_run():
    return _scenario(
        ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((2, 0.01, 0.0),)),
        FlowConfig(n=256, dt=1e-4, max_time=5.0),
        snapshot_every=5000,
    )


@pytest.fixture(scope="session")
def wide_perturbed_run():
    """Radius-3 variant: decay is slow enough to stay live on late windows."""
    return _scenario(
        ShapeSpec("fourier-perturbed-circle", r0=3.0, modes=((2, 0.01, 0.0),)),
        FlowConfig(n=256, dt=1e-3, max_time=5.0),
    )


@pytest.fixture(scope="session")
def strong_perturbed_run():
    return _scenario(
        ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((2, 0.05, 0.0),)),
        FlowConfig(n=256, dt=1e-4, max_time=1.0),
    )


@pytest.fixture(scope="session")
def mode3_run():
    return _scenario(
        ShapeSpec("fourier-perturbed-circle", r0=1.0, modes=((3, 0.01, 0.0),)),
        FlowConfig(n=256, dt=1e-4, max_time=0.5),
    )


@pytest.fixture(scope="session")
def lemniscate_run():
    """Figure-eight driven into the blow-up guard at a ceiling its
    oscillation-energy history can sustain without breaching the L1 budget."""
    return _scenario(
        ShapeSpec("lemniscate", scale=1.0),
        FlowConfig(n=256, dt=1.25e-5, max_time=1.0,
                   curvature_energy_ceiling=60.0),
    )


@pytest.fixture(scope="session")
def wave_run():
    """Short-wavelength ripple whose curvature starts negative somewhere and
    turns positive within a few steps: a run with nonzero waiting measure."""
    return _scenario(
        ShapeSpec("fourier-perturbed-circle", r0=1.0,
                  modes=((12, 2.0 / 143.0, 0.0),)),
        FlowConfig(n=256, dt=1e-5, max_steps=30),
    )


@pytest.fixture(scope="session")
def all_scenarios(circle_run, ellipse_run, perturbed_run, wide_perturbed_run,
                  strong_perturbed_run, mode3_run, lemniscate_run, wave_run):
    return {
        "circle": circle_run,
        "ellipse": ellipse_run,
        "perturbed": perturbed_run,
        "wide-perturbed": wide_perturbed_run,
        "strong-perturbed": strong_perturbed_run,
        "mode3": mode3_run,
        "lemniscate": lemniscate_run,
        "wave": wave_run,
    }
