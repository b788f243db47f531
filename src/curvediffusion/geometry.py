"""Discrete closed plane curves: sampling, resampling, curvature, scalar metrics.

A curve is a closed polygon with N >= 16 vertices and periodic indexing.  The
working parametrization is uniform-in-arclength, meaning all chord lengths
agree to a relative spread of 1e-6; every differential operator in this
package assumes that grid.  Curvature and its arclength derivatives come from
second-order centered periodic differences, the signed area from the shoelace
formula, the winding number from the exterior turning angles, and all curve
integrals from the composite midpoint rule on the uniform grid (identical to
the periodic trapezoid rule up to a half-cell shift).

Orientation convention: the unit normal is the tangent rotated by +90 degrees,
so a counterclockwise circle has curvature +1 and positive signed area.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (
    DegenerateGeometryError,
    NonUniformParametrizationError,
    RejectedInputError,
)

UNIFORM_IN_PARAMETER = "uniform-in-parameter"
UNIFORM_IN_ARCLENGTH = "uniform-in-arclength"

MIN_VERTICES = 16
SPREAD_TOL = 1e-6          # relative chord spread defining uniform-in-arclength
WINDING_ABORT_TOL = 0.1    # max distance of total turning / 2 pi from an integer
MIN_TOTAL_LENGTH = 1e-9    # below this a curve counts as collapsed

_RESAMPLE_MAX_ITERS = 10
_RESAMPLE_TARGET_SPREAD = 1e-12
_FLOAT_EPS = 2.220446049250313e-16  # float64 machine epsilon, 2**-52
_AREA_UNDEFINED_REL = 1e-10  # |A| < this * L^2 leaves the isoperimetric ratio undefined
_DIST_ROW_BLOCK = 128         # points per block in the point-to-polyline distance

SHAPE_KINDS = (
    "circle",
    "ellipse",
    "fourier-perturbed-circle",
    "limacon",
    "lemniscate",
)


def _shift(a: np.ndarray, k: int) -> np.ndarray:
    """Periodic shift along axis 0: row i of the result is row i + k of a."""
    return np.concatenate((a[k:], a[:k]))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Length of each row of an (n, 2) array.

    The sum of squares is the one np.linalg.norm(v, axis=1) forms, so the
    result is bitwise equal to it, without its strided two-element reduction.
    """
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])


def _chord_lengths(pts: np.ndarray) -> np.ndarray:
    """Length of edge i, from vertex i to vertex i + 1 (periodic)."""
    return _row_norms(_shift(pts, 1) - pts)


@dataclass(frozen=True)
class SampledCurve:
    """Closed polygon in the plane with a declared parametrization quality.

    Parameters
    ----------
    vertices : (n, 2) array
        Vertex coordinates, traversed once; the edge from the last vertex back
        to the first closes the polygon.
    param : str
        Either ``uniform-in-parameter`` (no spacing promise) or
        ``uniform-in-arclength`` (chord lengths within 1e-6 relative spread).

    The validated chord lengths, measured here or passed as ``chords``, are
    kept, read-only, with their sum, and every length query reads them.  The
    quantities the flow and the analysis read of a curve are computed on
    first use and kept the same way, outside the constructor, ``repr`` and
    ``==``: the frames at h = L/n (``_frames_h``), the signed area
    (``_area``) and the metrics with the k_s they compute (``_measured``).
    """

    vertices: np.ndarray
    param: str = UNIFORM_IN_PARAMETER
    _chords: np.ndarray = field(init=False, compare=False, repr=False)
    _length: float = field(init=False, compare=False, repr=False)
    chords: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, chords):
        pts = np.asarray(self.vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise RejectedInputError("vertices must be an (n, 2) array")
        if pts.shape[0] < MIN_VERTICES:
            raise RejectedInputError(
                f"need at least {MIN_VERTICES} vertices, got {pts.shape[0]}"
            )
        if not np.isfinite(pts).all():
            raise RejectedInputError("vertex coordinates must be finite")
        if self.param not in (UNIFORM_IN_PARAMETER, UNIFORM_IN_ARCLENGTH):
            raise RejectedInputError(f"unknown parametrization {self.param!r}")
        # squared chords overflow beyond about 1e154: a wrong scale, rejected
        # before it turns into an infinite length or a NaN spread
        with np.errstate(over="ignore"):
            seg = _chord_lengths(pts) if chords is None else chords
            total = float(seg.sum())
        if not math.isfinite(total):
            raise RejectedInputError(
                "coordinates are too large: the chord lengths overflow"
            )
        if (seg == 0.0).any():
            raise RejectedInputError("consecutive vertices must not coincide")
        seg.setflags(write=False)
        object.__setattr__(self, "_chords", seg)
        object.__setattr__(self, "_length", total)
        if self.param == UNIFORM_IN_ARCLENGTH:
            spread = self.chord_spread()
            if not spread <= SPREAD_TOL:
                raise RejectedInputError(
                    f"chord spread {spread:.3e} exceeds the uniform-in-arclength "
                    f"tolerance {SPREAD_TOL:.0e}"
                )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "vertices", pts)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    def segment_lengths(self) -> np.ndarray:
        """Chord lengths, edge i from vertex i to vertex i+1 (read-only)."""
        return self._chords

    def length(self) -> float:
        return self._length

    def chord_spread(self) -> float:
        """Relative spread (max - min)/mean of the chord lengths."""
        seg = self._chords
        return float((seg.max() - seg.min()) / (self._length / len(seg)))

    def is_uniform(self) -> bool:
        return self.param == UNIFORM_IN_ARCLENGTH

    @functools.cached_property
    def _frames_h(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only unit tangent, unit normal and curvature of :func:`_frames`
        at h = L/n."""
        frames = _frames(self.vertices, self.length() / self.n)
        for a in frames:
            a.setflags(write=False)
        return frames

    @functools.cached_property
    def _area(self) -> float:
        return signed_area(self)

    @functools.cached_property
    def _measured(self) -> Tuple["CurveMetrics", np.ndarray]:
        """:func:`_metrics` of the curve, with its k_s read-only."""
        m, ks = _metrics(self, self._frames_h[2])
        ks.setflags(write=False)
        return m, ks


def _classified(pts: np.ndarray, chords: Optional[np.ndarray] = None) -> SampledCurve:
    """A curve on pts, labelled uniform-in-arclength exactly when its chord
    spread is within SPREAD_TOL, from the chords its validation computed or
    from chords, when given, which must be those of pts."""
    curve = SampledCurve(pts, chords=chords)
    if curve.chord_spread() <= SPREAD_TOL:
        # the label the constructor would have accepted, set without
        # measuring the chords a second time; curve has not escaped yet
        object.__setattr__(curve, "param", UNIFORM_IN_ARCLENGTH)
    return curve


@dataclass(frozen=True)
class CurveMetrics:
    """Scalar state of a curve: the quantities the evolution identities relate."""

    length: float
    signed_area: float
    isoperimetric_ratio: Optional[float]
    winding_number: int
    average_curvature: float
    osc_energy: float
    ks_norm_sq: float
    kss_norm_sq: float
    min_curvature: float


@dataclass(frozen=True)
class ShapeSpec:
    """Parametric initial shape.

    kind-specific fields: ``radius`` (circle); ``a``, ``b`` (ellipse);
    ``r0`` and ``modes`` as (frequency, amplitude, phase) triples
    (fourier-perturbed-circle, r(theta) = r0 * (1 + sum eps cos(m theta + phi)));
    ``offset`` and ``scale`` (limacon, r(theta) = scale * (offset + cos theta));
    ``scale`` (lemniscate of Bernoulli). Unused fields are ignored.
    """

    kind: str
    radius: float = 1.0
    a: float = 1.0
    b: float = 1.0
    r0: float = 1.0
    modes: tuple = ()
    offset: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise RejectedInputError(
                f"unknown shape kind {self.kind!r}; expected one of {SHAPE_KINDS}"
            )
        if self.kind == "circle" and self.radius <= 0:
            raise RejectedInputError("circle radius must be positive")
        if self.kind == "ellipse" and (self.a <= 0 or self.b <= 0):
            raise RejectedInputError("ellipse semi-axes must be positive")
        if self.kind == "fourier-perturbed-circle":
            if self.r0 <= 0:
                raise RejectedInputError("base radius must be positive")
            norm = []
            for entry in self.modes:
                m, eps, phase = entry
                if int(m) != m or int(m) < 1:
                    raise RejectedInputError("mode frequencies must be integers >= 1")
                norm.append((int(m), float(eps), float(phase)))
            object.__setattr__(self, "modes", tuple(norm))
        if self.kind in ("limacon", "lemniscate") and self.scale <= 0:
            raise RejectedInputError("scale must be positive")
        if self.kind == "limacon" and self.offset <= 0:
            raise RejectedInputError("limacon offset must be positive")


def generate(spec: ShapeSpec, n: int) -> SampledCurve:
    """Sample a parametric shape at n parameter-uniform points.

    The curve is traced once, counterclockwise for the radial graphs, so the
    circle encloses positive area. The result has param = uniform-in-parameter;
    resample before calling any curvature operation.
    """
    if n < MIN_VERTICES:
        raise RejectedInputError(f"need n >= {MIN_VERTICES}, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    if spec.kind == "circle":
        pts = spec.radius * np.column_stack([np.cos(t), np.sin(t)])
    elif spec.kind == "ellipse":
        pts = np.column_stack([spec.a * np.cos(t), spec.b * np.sin(t)])
    elif spec.kind == "fourier-perturbed-circle":
        r = _fourier_radius(spec, t)
        dense = _fourier_radius(spec, 2.0 * np.pi * np.arange(4096) / 4096)
        if dense.min() <= 0:
            raise RejectedInputError(
                "fourier perturbation drives the radial graph through zero"
            )
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    elif spec.kind == "limacon":
        r = spec.scale * (spec.offset + np.cos(t))
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    elif spec.kind == "lemniscate":
        denom = 1.0 + np.sin(t) ** 2
        pts = spec.scale * np.column_stack(
            [np.cos(t) / denom, np.sin(t) * np.cos(t) / denom]
        )
    else:  # pragma: no cover - kinds validated by ShapeSpec
        raise RejectedInputError(f"unknown shape kind {spec.kind!r}")
    return SampledCurve(pts, param=UNIFORM_IN_PARAMETER)


def _fourier_radius(spec: ShapeSpec, t: np.ndarray) -> np.ndarray:
    r = np.ones_like(t)
    for m, eps, phase in spec.modes:
        r += eps * np.cos(m * t + phase)
    return spec.r0 * r


def resample_uniform(curve: SampledCurve, n: Optional[int] = None) -> SampledCurve:
    """Redistribute vertices to uniform chord spacing on the same trace.

    The trace is taken to be the periodic cubic spline through the current
    vertices (chordal parametrization), built and evaluated by the private
    kernel below, which repeats scipy's ``CubicSpline(..., bc_type="periodic")``
    operation by operation and so matches it bitwise. New vertices are placed
    on that spline and nudged, by a fixed-point iteration on the cumulative
    chord length, until all chords agree to machine-level spread. Vertex 0
    stays anchored, so an already-uniform curve is a fixed point of the map.

    The iteration stops once the spread is below max(1e-12, 4 n eps), with
    eps the float64 machine epsilon, or once it is within the
    uniform-in-arclength tolerance and fell by less than half since the
    previous evaluation.  Rounding in the chord lengths grows with n, and
    4 n eps lies above the spread the iteration reaches at large n (above
    1e-12 from n = 1126 on), so the second rule is only a backstop.  A
    spread still above half that tolerance after the last iteration raises
    DegenerateGeometryError.

    Interpolating with a spline rather than along the polygon keeps the
    chord-length deficit of the inscribed polygon consistent between input and
    output; resampling then perturbs the measured length at O(h^4), not O(h^2).
    """
    if n is None:
        n = curve.n
    pts, seg = _resample_points(curve.vertices, curve.segment_lengths(), n)
    return SampledCurve(pts, param=UNIFORM_IN_ARCLENGTH, chords=seg)


def _resample_points(pts: np.ndarray, seg: np.ndarray,
                     n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The vertex array of :func:`resample_uniform`, taking points and their
    chord lengths seg, and returning the new points and their chord lengths."""
    if n < MIN_VERTICES:
        raise RejectedInputError(f"need n >= {MIN_VERTICES}, got {n}")
    total = float(seg.sum())
    if total < MIN_TOTAL_LENGTH:
        raise DegenerateGeometryError(
            f"total length {total:.3e} below threshold {MIN_TOTAL_LENGTH:.0e}"
        )
    knots = np.concatenate([[0.0], np.cumsum(seg)])
    coeffs = _periodic_spline(knots, np.vstack([pts, pts[:1]]))

    u = np.interp(np.arange(n) * (total / n), knots, knots)
    target = max(_RESAMPLE_TARGET_SPREAD, 4 * n * _FLOAT_EPS)
    prev_spread = math.inf
    for _ in range(_RESAMPLE_MAX_ITERS):
        out = _evaluate_spline(knots, coeffs, u)
        chords = _chord_lengths(out)
        mean = chords.sum() / n
        if mean <= 0 or not np.isfinite(mean):
            raise DegenerateGeometryError("resampling produced a collapsed polygon")
        spread = (chords.max() - chords.min()) / mean
        stalled = spread > 0.5 * prev_spread and spread <= 0.5 * SPREAD_TOL
        if spread < target or stalled:
            break
        prev_spread = spread
        cum = np.concatenate([[0.0], np.cumsum(chords)])
        u = np.interp(np.arange(n) * (cum[-1] / n), cum, np.append(u, knots[-1]))
    if spread > 0.5 * SPREAD_TOL:
        raise DegenerateGeometryError(
            f"uniform resampling did not converge (spread {spread:.3e})"
        )
    return out, chords


def _periodic_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the periodic cubic spline through (x, y), y[-1] == y[0].

    Returns c of shape (4, len(x) - 1, y.shape[1]); on [x[i], x[i+1]] the
    spline is sum_k c[k, i] (t - x[i])^(3 - k).  The arithmetic is scipy's
    ``CubicSpline(x, y, axis=0, bc_type="periodic")``, step for step: the
    slopes s solve a cyclic tridiagonal system, condensed to a tridiagonal
    one in the first len(x) - 2 unknowns plus a scalar back-substitution for
    the last; the coefficients follow from the Hermite formulas.  scipy
    solves the tridiagonal system twice through ``solve_banded``, which
    hands a (1, 1) band to LAPACK ``gtsv``.  Here ``gtsv`` is called once,
    directly, on the same three diagonals, with the right-hand sides
    stacked in Fortran order (the corner system, whose columns scipy
    repeats, as one column).  ``gtsv`` eliminates every column with the
    same operations, so the result is bitwise scipy's.
    """
    dx = np.diff(x)
    if not (dx > 0.0).all():
        raise DegenerateGeometryError("spline knots must increase strictly")
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    m = len(x) - 2
    cols = y.shape[1]
    # row i of the periodic system: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i]
    # + dx[i-1] s[i+1] = 3 (dx[i] slope[i-1] + dx[i-1] slope[i])
    dx_prev = np.concatenate((dx[-1:], dx))  # row i is dx[i - 1]
    rhs = 3 * (dxr * _shift(slope, -1) + dx_prev[:-1, None] * slope)
    diag = np.empty(m)
    diag[0] = 2 * (dx[-1] + dx[0])
    diag[1:] = 2 * (dx[:m - 1] + dx[1:m])
    upper = dx_prev[:m - 1]
    # s = s1 + s[-2] s2 on the first m unknowns; s2 carries the corner terms
    b = np.zeros((m, cols + 1), order="F")
    b[:, :cols] = rhs[:m]
    b[0, cols] = -dx[0]
    b[-1, cols] = -dx[-3]
    _, _, _, both, info = dgtsv(dx[1:m], diag, upper, b, overwrite_d=1,
                                overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise DegenerateGeometryError(
            f"periodic spline system is singular (LAPACK gtsv info {info})"
        )
    s1, s2 = both[:, :cols], both[:, cols:]
    s_m1 = ((rhs[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
            / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    s = np.empty_like(y)
    s[:-2] = s1 + s_m1 * s2
    s[-2] = s_m1
    s[-1] = s[0]
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _evaluate_spline(x: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Values at u in [x[0], x[-1]) of the spline with coefficients c.

    Intervals are closed on the left and the polynomial is summed in the
    order scipy's ``PPoly`` uses, so the values match it bitwise.
    """
    i = np.searchsorted(x, u, side="right") - 1
    np.minimum(np.maximum(i, 0, out=i), len(x) - 2, out=i)
    s = (u - x[i])[:, None]
    s2 = s * s
    c0, c1, c2, c3 = np.take(c, i, axis=1)
    return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


def _require_uniform(curve: SampledCurve, op: str) -> None:
    if not curve.is_uniform():
        raise NonUniformParametrizationError(
            f"{op} needs a uniform-in-arclength curve; call resample_uniform first"
        )


def _tangents(p: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unit tangent and normal of :func:`_frames`, from points padded by a row."""
    d1 = (p[2:] - p[:-2]) / (2.0 * h)
    tnorm = _row_norms(d1)
    if (tnorm == 0.0).any() or not np.isfinite(tnorm).all():
        raise DegenerateGeometryError("degenerate tangent (folded polygon)")
    tau = d1 / tnorm[:, None]
    return tau, np.column_stack([-tau[:, 1], tau[:, 0]])


def _frames(pts: np.ndarray, h: float):
    """Unit tangent, unit normal and curvature of a near-uniform closed polygon.

    Centered periodic differences with spacing h: the tangent is the first
    difference normalized, the normal is the tangent rotated by +90 degrees,
    and the curvature is the second difference projected on the normal.
    """
    p = np.concatenate((pts[-1:], pts, pts[:1]))
    tau, nu = _tangents(p, h)
    d2 = (p[2:] - 2.0 * pts + p[:-2]) / (h * h)
    k = d2[:, 0] * nu[:, 0] + d2[:, 1] * nu[:, 1]
    return tau, nu, k


def curvature_profile(curve: SampledCurve) -> np.ndarray:
    """Signed curvature at each vertex by centered periodic differences.

    k_i = <second difference of position, unit normal>, with the normal taken
    as the centered tangent rotated by +90 degrees. Exact for a uniformly
    sampled circle with the chord spacing used as h.
    """
    _require_uniform(curve, "curvature_profile")
    return curve._frames_h[2]


def curvature_derivatives(curve: SampledCurve, order: int) -> np.ndarray:
    """First or second arclength derivative of the curvature profile; the
    first is the curve's k_s, read-only."""
    if order not in (1, 2):
        raise RejectedInputError("order must be 1 or 2")
    _require_uniform(curve, "curvature_derivatives")
    if order == 1:
        return curve._measured[1]
    k = curve._frames_h[2]
    h = curve.length() / curve.n
    kp = np.concatenate((k[-1:], k, k[:1]))
    return (kp[2:] - 2.0 * k + kp[:-2]) / (h * h)


def turning_number(curve: SampledCurve) -> int:
    """Winding number from the exterior turning angles, validated as integer."""
    p = np.concatenate((curve.vertices[-1:], curve.vertices, curve.vertices[:1]))
    d = p[1:] - p[:-1]  # row i + 1 is edge i, row 0 is edge n - 1
    e, prev = d[1:], d[:-1]
    cross = prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0]
    dot = prev[:, 0] * e[:, 0] + prev[:, 1] * e[:, 1]
    total = float(np.arctan2(cross, dot).sum()) / (2.0 * np.pi)
    omega = round(total)
    if abs(total - omega) > WINDING_ABORT_TOL:
        raise DegenerateGeometryError(
            f"total turning {total:.6f} is not within {WINDING_ABORT_TOL} of an integer"
        )
    return int(omega)


def signed_area(curve: SampledCurve) -> float:
    """Shoelace area of the vertex polygon (exact for polygons)."""
    pts = curve.vertices
    nxt = _shift(pts, 1)
    return 0.5 * float((pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]).sum())


def metrics(curve: SampledCurve) -> CurveMetrics:
    """All scalar metrics of a uniform-in-arclength curve.

    The average curvature is defined through the winding number, kbar =
    2 omega pi / L, so the identity kbar * L = 2 omega pi holds exactly as
    computed. The isoperimetric ratio is None when the signed area vanishes
    (figure-eights are legal inputs).
    """
    _require_uniform(curve, "metrics")
    return curve._measured[0]


def _metrics(curve: SampledCurve, k: np.ndarray) -> Tuple[CurveMetrics, np.ndarray]:
    """:func:`metrics` given the curve's curvature profile k, and the
    arclength derivative k_s it computes on the way."""
    L = curve.length()
    A = curve._area
    omega = turning_number(curve)
    h = L / curve.n
    kbar = 2.0 * omega * np.pi / L
    dev = k - kbar
    kosc = L * float((dev * dev).sum()) * h
    kp = np.concatenate((k[-1:], k, k[:1]))
    ks = (kp[2:] - kp[:-2]) / (2.0 * h)
    kss = (kp[2:] - 2.0 * k + kp[:-2]) / (h * h)
    ks2 = float((ks * ks).sum()) * h
    kss2 = float((kss * kss).sum()) * h
    if abs(A) < _AREA_UNDEFINED_REL * L * L:
        iso = None
    else:
        iso = L * L / (4.0 * np.pi * A)
    return CurveMetrics(
        length=L,
        signed_area=A,
        isoperimetric_ratio=iso,
        winding_number=omega,
        average_curvature=kbar,
        osc_energy=kosc,
        ks_norm_sq=ks2,
        kss_norm_sq=kss2,
        min_curvature=float(k.min()),
    ), ks


def curve_integral(curve: SampledCurve, values: np.ndarray) -> float:
    """Composite midpoint integral of per-vertex samples over arclength."""
    _require_uniform(curve, "curve_integral")
    values = np.asarray(values, dtype=float)
    if values.shape != (curve.n,):
        raise RejectedInputError("need one sample per vertex")
    return float(values.sum()) * (curve.length() / curve.n)


def hausdorff_distance(a: SampledCurve, b: SampledCurve) -> float:
    """Symmetric Hausdorff distance between two closed polygonal traces."""
    da = _max_dist_to_polyline(a.vertices, b.vertices)
    db = _max_dist_to_polyline(b.vertices, a.vertices)
    return max(da, db)


def _max_dist_to_polyline(pts: np.ndarray, poly: np.ndarray) -> float:
    """Largest distance from a point of pts to the closed polyline poly.

    Points are taken in row blocks so the (rows, m, 2) temporaries stay
    bounded; min and max are exact, so the blocking does not change the result.
    """
    starts = poly
    d = _shift(poly, 1) - starts  # (m, 2)
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


def read_curve_csv(path) -> SampledCurve:
    """Read a curve from CSV with header ``x,y``, one vertex per row.

    The polygon closes implicitly. Rows with non-finite values are rejected,
    and so is a polygon whose chord lengths overflow or whose total length
    is below MIN_TOTAL_LENGTH.  The parametrization is classified from the
    measured chord spread.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"curve CSV {path} is not UTF-8 text") from exc
    if not lines or lines[0].replace(" ", "") != "x,y":
        raise RejectedInputError("curve CSV must start with header 'x,y'")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2:
            raise RejectedInputError(f"malformed CSV row {ln!r}")
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError as exc:
            raise RejectedInputError(f"malformed CSV row {ln!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise RejectedInputError(f"non-finite coordinates in row {ln!r}")
        rows.append((x, y))
    pts = np.array(rows, dtype=float)
    if pts.shape[0] < MIN_VERTICES:
        raise RejectedInputError(
            f"curve CSV needs at least {MIN_VERTICES} rows, got {pts.shape[0]}"
        )
    # squared chords overflow beyond about 1e154 and underflow to 0 below
    # about 1e-154; either is a wrong scale, not a wrong polygon
    with np.errstate(over="ignore"):
        seg = _chord_lengths(pts)
        total = float(seg.sum())
    if not math.isfinite(total):
        raise RejectedInputError(
            "curve CSV coordinates are too large: the chord lengths overflow"
        )
    if total < MIN_TOTAL_LENGTH:
        raise RejectedInputError(
            f"curve CSV is collapsed: total length {total:.3e} below "
            f"{MIN_TOTAL_LENGTH:.0e}"
        )
    if (seg == 0.0).any():
        raise RejectedInputError("curve CSV has coinciding consecutive vertices")
    return _classified(pts)


def write_curve_csv(curve: SampledCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in curve.vertices:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
