"""Watch a wobbly loop settle back into a circle.

A unit circle with a small two-lobed radial perturbation is below the
smallness threshold, so the flow must carry it all the way back to round:
the enclosed area never moves, the length can only fall, and the curvature
oscillation energy drains at the rate the linearization predicts (24 per
unit time for this mode on the unit circle).

Run it:  python3 demos/relax_to_round.py
"""

import math

import numpy as np

from curvediffusion.analysis import check_hypotheses, decay_fit, kstar
from curvediffusion.flow import FlowConfig, run
from curvediffusion.geometry import ShapeSpec, generate, metrics, resample_uniform


def main() -> None:
    spec = ShapeSpec("fourier-perturbed-circle", r0=1.0,
                     modes=((2, 0.01, 0.0),))
    initial = resample_uniform(generate(spec, 128))

    hyp = check_hypotheses(metrics(initial))
    print(f"initial oscillation energy {hyp.values['kosc0']:.5f} "
          f"vs threshold {kstar():.5f} -> admissible: {hyp.verdicts['admissible']}")
    print()

    result = run(initial, FlowConfig(n=128, dt=1e-4, max_time=0.5))
    first = result.initial_metrics

    print(f"{'time':>6} {'length':>10} {'area drift':>12} {'osc energy':>12}")
    for record in result.records[::500]:
        m = record.metrics
        print(f"{record.time:>6.2f} {m.length:>10.6f} "
              f"{m.signed_area - first.signed_area:>12.2e} "
              f"{m.osc_energy:>12.4e}")

    fit = decay_fit(result.records, "kosc", (0.0, 0.3))
    print()
    print(f"fitted decay rate {fit.rate:.2f} (prediction: 24)")

    pts = result.final_state.curve.vertices
    radii = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    target = math.sqrt(first.signed_area / math.pi)
    print(f"final radius {radii.mean():.6f} +- {radii.max() - radii.min():.2e} "
          f"(round target {target:.6f})")


if __name__ == "__main__":
    main()
