"""Reference computations the tests check the package against.

Explicit RK4 on the plain normal velocity, which the tests substitute for
flow._implicit_advance to cross-validate the step; it needs dt of order
(L/n)^4 and is only practical at coarse resolution. The symmetric
Hausdorff distance between two closed polygonal traces, from a blocked
many-point distance to a polyline. And the density integral as two
separate cutoff passes, which analysis.density_integral must equal bitwise.
"""

import math

import numpy as np

from curvediffusion import geometry
from curvediffusion.errors import DegenerateGeometryError

_DIST_ROW_BLOCK = 128         # points per block in the point-to-polyline distance


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


def _max_dist_to_polyline(pts: np.ndarray, poly: np.ndarray) -> float:
    """Largest distance from a point of pts to the closed polyline poly.

    Points are taken in row blocks so the (rows, m, 2) temporaries stay
    bounded; min and max are exact, so the blocking does not change the result.
    """
    starts = poly
    d = geometry._shift(poly, 1) - starts  # (m, 2)
    len2 = np.einsum("ij,ij->i", d, d)
    worst = -math.inf
    for row0 in range(0, pts.shape[0], _DIST_ROW_BLOCK):
        block = pts[row0:row0 + _DIST_ROW_BLOCK]
        # project every point on every segment, clamp to [0, 1]
        diff = block[:, None, :] - starts[None, :, :]          # (rows, m, 2)
        tproj = np.einsum("pmi,mi->pm", diff, d) / len2[None, :]
        tproj = np.clip(tproj, 0.0, 1.0)
        closest = starts[None, :, :] + tproj[:, :, None] * d[None, :, :]
        dist = np.linalg.norm(block[:, None, :] - closest, axis=2)
        worst = max(worst, float(dist.min(axis=1).max()))
    return worst


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between the vertex polygons of a and b."""
    return max(_max_dist_to_polyline(a.vertices, b.vertices),
               _max_dist_to_polyline(b.vertices, a.vertices))


def two_pass_density(curve, point) -> float:
    """The density integral with each cutoff's integrand built in its own pass.

    No input checks: point is a pair on the trace of a uniform curve.
    """
    p = np.asarray(point, dtype=float)
    h = curve.length() / curve.n
    _, nu, k = curve._frames_h
    q = curve.vertices - p[None, :]
    r = np.linalg.norm(q, axis=1)
    proj = np.einsum("ij,ij->i", q, nu)

    def partial(cut: float) -> float:
        keep = r >= cut
        rr = r[keep]
        k0 = 2.0 * proj[keep] / (rr * rr) + k[keep]
        integrand = (k[keep] * k[keep] - k0 * k0) * rr
        return float(integrand.sum()) * h

    cut = 3.0 * h
    return 2.0 * partial(cut) - partial(2.0 * cut)
