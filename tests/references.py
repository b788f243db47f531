"""Reference computations the tests check the package against.

Explicit RK4 on the plain normal velocity, which the tests substitute for
flow._implicit_advance to cross-validate the step; it needs dt of order
(L/n)^4 and is only practical at coarse resolution. And the symmetric
Hausdorff distance between two closed polygonal traces.
"""

import math

import numpy as np

from curvediffusion import geometry
from curvediffusion.errors import DegenerateGeometryError


def _rk4_velocity(pts: np.ndarray) -> np.ndarray:
    h = float(geometry._chord_lengths(pts).sum()) / len(pts)
    if h <= 0 or not math.isfinite(h):
        raise DegenerateGeometryError("collapsed polygon inside RK4 stage")
    _, nu, k = geometry._frames(pts, h)
    kp = np.concatenate((k[-1:], k, k[:1]))
    kss = (kp[2:] - 2.0 * k + kp[:-2]) / (h * h)
    return -kss[:, None] * nu


def _rk4_advance(pts: np.ndarray, dt: float) -> np.ndarray:
    k1 = _rk4_velocity(pts)
    k2 = _rk4_velocity(pts + 0.5 * dt * k1)
    k3 = _rk4_velocity(pts + 0.5 * dt * k2)
    k4 = _rk4_velocity(pts + dt * k3)
    return pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between the vertex polygons of a and b."""
    return max(geometry._max_dist_to_polyline(a.vertices, b.vertices),
               geometry._max_dist_to_polyline(b.vertices, a.vertices))
