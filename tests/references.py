"""Reference computations the tests check the package against.

Explicit RK4 on the plain normal velocity, which the tests substitute for
flow._implicit_advance to cross-validate the step; it needs dt of order
(L/n)^4 and is only practical at coarse resolution. The symmetric
Hausdorff distance between two closed polygonal traces, from a blocked
many-point distance to a polyline. The density integral as two separate
cutoff passes, which analysis.density_integral must equal bitwise. And the
step's array kernels written as plain expressions, a fresh temporary for
every operation, which the kernels that update their temporaries in place
must equal bitwise.
"""

import math

import numpy as np

from curvediffusion import flow, geometry
from curvediffusion.errors import BlowUpSignal, DegenerateGeometryError

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


# The step's kernels as plain expressions.  Each takes arrays where the
# package kernel takes a curve, and builds the curve's kept values from the
# expressions too.

def shift(a, k):
    """Row i of the result is row i + k of a (periodic)."""
    return np.concatenate((a[k:], a[:k]))


def row_norms(v):
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])


def chord_lengths(pts):
    return row_norms(shift(pts, 1) - pts)


def hermite_spline(xp, yp):
    h = xp[1:] - xp[:-1]
    if not (h > 0.0).all():
        raise DegenerateGeometryError("spline knots must increase strictly")
    m = len(xp) - 5
    dy = yp[:, 1:] - yp[:, :-1]
    d1 = dy / h
    d2 = (d1[:, 1:] - d1[:, :-1]) / (xp[2:] - xp[:-2])
    d3 = (d2[:, 1:] - d2[:, :-1]) / (xp[3:] - xp[:-3])
    d4 = (d3[:, 1:] - d3[:, :-1]) / (xp[4:] - xp[:-4])
    hi, hm, hp = h[2:m + 3], h[1:m + 2], h[3:m + 4]
    s = d1[:, 2:m + 3] - hi * (d2[:, 1:m + 2] + hm * (d3[:, 1:m + 2] - (hi + hp) * d4))
    t0 = s[:, :-1] * hi[:-1]
    t1 = s[:, 1:] * hi[:-1]
    delta = dy[:, 2:m + 2]
    c = np.empty((4, yp.shape[0], m))
    c[0] = t0 + t1 - 2.0 * delta
    c[1] = 3.0 * delta - 2.0 * t0 - t1
    c[2], c[3] = t0, yp[:, 2:m + 2]
    return c


def evaluate_spline(x, c, u):
    t = np.interp(u, x, np.arange(len(x), dtype=float))
    i = t.astype(np.intp)
    np.minimum(i, len(x) - 2, out=i)
    f = t - i
    c0, c1, c2, c3 = np.take(c, i, axis=2)
    return (((c0 * f + c1) * f + c2) * f + c3).T


def resample_points(pts, seg, n):
    """geometry._resample_points without its input checks."""
    total = float(seg.sum())
    cum = np.cumsum(seg)
    period = cum[-1]
    xp = np.concatenate((cum[-3:-1] - period, [0.0], cum, cum[:2] + period))
    knots = xp[2:-2]
    yr = pts.T
    coeffs = hermite_spline(xp, np.concatenate((yr[:, -2:], yr, yr[:, :3]), axis=1))
    u = np.arange(n) * (total / n)
    target = max(geometry._RESAMPLE_TARGET_SPREAD, 4 * n * geometry._FLOAT_EPS)
    for _ in range(geometry._RESAMPLE_MAX_ITERS):
        out = evaluate_spline(knots, coeffs, u)
        chords = chord_lengths(out)
        mean = chords.sum() / n
        spread = (chords.max() - chords.min()) / mean
        if spread < target:
            break
        cum = np.concatenate([[0.0], np.cumsum(chords)])
        u = np.interp(np.arange(n) * (cum[-1] / n), cum, np.concatenate((u, (period,))))
    return out, chords


def tangents(p, h):
    d1 = (p[2:] - p[:-2]) / (2.0 * h)
    tau = d1 / row_norms(d1)[:, None]
    nu = np.empty_like(tau)
    nu[:, 0], nu[:, 1] = -tau[:, 1], tau[:, 0]
    return tau, nu


def frames(pts, h):
    p = np.concatenate((pts[-1:], pts, pts[:1]))
    tau, nu = tangents(p, h)
    d2 = (p[2:] - 2.0 * pts + p[:-2]) / (h * h)
    k = d2[:, 0] * nu[:, 0] + d2[:, 1] * nu[:, 1]
    return tau, nu, k


def curve_frames(pts):
    """Frames and k_s, k_ss at h = L/n, as SampledCurve keeps them."""
    h = float(chord_lengths(pts).sum()) / len(pts)
    tau, nu, k = frames(pts, h)
    kp = np.concatenate((k[-1:], k, k[:1]))
    ks = (kp[2:] - kp[:-2]) / (2.0 * h)
    kss = (kp[2:] - 2.0 * k + kp[:-2]) / (h * h)
    return tau, nu, k, ks, kss


def signed_area(pts):
    nxt = shift(pts, 1)
    return 0.5 * float((pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]).sum())


def metrics(pts):
    _, _, k, ks, kss = curve_frames(pts)
    L = float(chord_lengths(pts).sum())
    A = signed_area(pts)
    omega = geometry.turning_number(geometry.SampledCurve(pts))
    h = L / len(pts)
    kbar = 2.0 * omega * np.pi / L
    dev = k - kbar
    iso = None if abs(A) < geometry._AREA_UNDEFINED_REL * L * L else (
        L * L / (4.0 * np.pi * A))
    return geometry.CurveMetrics(
        length=L, signed_area=A, isoperimetric_ratio=iso, winding_number=omega,
        average_curvature=kbar, osc_energy=L * float((dev * dev).sum()) * h,
        ks_norm_sq=float((ks * ks).sum()) * h,
        kss_norm_sq=float((kss * kss).sum()) * h, min_curvature=float(k.min()),
        int_dev_ks2=float((dev * ks * ks).sum()) * h,
        int_dev2_ks2=float((dev * dev * ks * ks).sum()) * h)


def solve_cyclic_pentadiagonal(c, rhs):
    n = rhs.shape[0]
    symbol = 1.0 + 16.0 * c * flow._sin4(n)
    return np.fft.irfft(np.fft.rfft(rhs.T) / symbol, n=n).T


def apply_cyclic_pentadiagonal(c, x):
    p = np.concatenate((x[-2:], x, x[:2]))
    return x + c * (p[:-4] - 4.0 * p[1:-3] + 6.0 * x - 4.0 * p[3:-1] + p[4:])


def implicit_advance(pts, dt):
    h = float(chord_lengths(pts).sum()) / len(pts)
    tau, nu, k, ks, _ = curve_frames(pts)
    explicit = (k ** 3)[:, None] * nu + (3.0 * k * ks)[:, None] * tau
    b = pts - dt * explicit
    c = dt / h ** 4
    x = solve_cyclic_pentadiagonal(c, b)
    gap = apply_cyclic_pentadiagonal(c, x) - b
    scale = float(np.abs(b).max()) + (1.0 + 16.0 * c) * float(np.abs(x).max())
    residual = float(np.abs(gap).max()) / max(scale, 1e-30)
    if not residual <= flow.RESIDUAL_TOL:
        raise BlowUpSignal(f"implicit step residual {residual:.3e}")
    return x, residual


def project_area(pts, seg, target):
    """flow._project_area without its checks."""
    length = float(seg.sum())
    p = np.concatenate((pts[-1:], pts, pts[:1]))
    _, nu = tangents(p, length / len(seg))
    nxt_p = p[2:]
    nxt_n = shift(nu, 1)
    area = 0.5 * float((pts[:, 0] * nxt_p[:, 1] - nxt_p[:, 0] * pts[:, 1]).sum())
    delta = target - area
    lin = 0.5 * float(
        (pts[:, 0] * nxt_n[:, 1] - nxt_n[:, 0] * pts[:, 1]).sum()
        + (nu[:, 0] * nxt_p[:, 1] - nxt_p[:, 0] * nu[:, 1]).sum()
    )
    quad = 0.5 * float((nu[:, 0] * nxt_n[:, 1] - nxt_n[:, 0] * nu[:, 1]).sum())
    disc = lin * lin + 4.0 * quad * delta
    alpha = 2.0 * delta / (lin + math.copysign(math.sqrt(disc), lin))
    return pts + alpha * nu
