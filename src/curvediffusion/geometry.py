"""Discrete closed plane curves: sampling, resampling, curvature, scalar metrics.

A curve is a closed polygon with N >= 16 vertices and periodic indexing.  It
measures its chord lengths when it is built, and it is uniform in arclength
when they agree to a relative spread of 1e-6; every differential operator in
this package needs such a curve.  Curvature and its arclength derivatives
come from second-order centered periodic differences, the signed area from
the shoelace formula, the winding number from the exterior turning angles,
and all curve integrals from the composite midpoint rule on the uniform grid
(identical to the periodic trapezoid rule up to a half-cell shift).

Orientation convention: the unit normal is the tangent rotated by +90 degrees,
so a counterclockwise circle has curvature +1 and positive signed area.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DegenerateGeometryError,
    NonUniformParametrizationError,
    RejectedInputError,
)

MIN_VERTICES = 16
SPREAD_TOL = 1e-6          # relative chord spread defining uniform-in-arclength
WINDING_ABORT_TOL = 0.1    # max distance of total turning / 2 pi from an integer
MIN_TOTAL_LENGTH = 1e-9    # below this a curve counts as collapsed

_RESAMPLE_MAX_ITERS = 10
_RESAMPLE_TARGET_SPREAD = 1e-12
_FLOAT_EPS = 2.220446049250313e-16  # float64 machine epsilon, 2**-52
_AREA_UNDEFINED_REL = 1e-10  # |A| < this * L^2 leaves the isoperimetric ratio undefined

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
    r = v[:, 0] * v[:, 0]
    r += v[:, 1] * v[:, 1]
    return np.sqrt(r, out=r)


def _chord_lengths(pts: np.ndarray) -> np.ndarray:
    """Length of edge i, from vertex i to vertex i + 1 (periodic)."""
    edges = np.empty_like(pts)
    np.subtract(pts[1:], pts[:-1], out=edges[:-1])
    np.subtract(pts[:1], pts[-1:], out=edges[-1:])
    return _row_norms(edges)


def _cross_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum over the rows of the cross product a[:, 0] b[:, 1] - b[:, 0] a[:, 1]."""
    cross = a[:, 0] * b[:, 1]
    cross -= b[:, 0] * a[:, 1]
    return float(cross.sum())


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Closed polygon in the plane.

    Parameters
    ----------
    vertices : (n, 2) array
        Vertex coordinates, traversed once; the edge from the last vertex back
        to the first closes the polygon.  Kept as a read-only column-major
        copy, each coordinate contiguous; ``tobytes()`` is still row-major.

    The chord lengths, measured here, are kept, read-only, with their sum
    and their relative spread, and every length query reads them.  The
    curve is uniform in arclength, and ``is_uniform()`` says so, exactly
    when that spread is within SPREAD_TOL.  The quantities the flow and the
    analysis read of a curve are computed on first use and kept the same
    way, outside the constructor and ``repr``: the frames at h = L/n
    (``_frames_h``), the arclength derivatives k_s and k_ss of the curvature
    (``_ks_kss``), the signed area (``_area``) and the metrics
    (``_measured``).  Two curves are equal when their vertices are; a curve
    is not hashable.
    """

    vertices: np.ndarray
    _chords: np.ndarray = field(init=False, repr=False)
    _length: float = field(init=False, repr=False)
    _spread: float = field(init=False, repr=False)

    def __post_init__(self):
        pts = _real_array("vertices", self.vertices)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise RejectedInputError("vertices must be an (n, 2) array")
        if pts.shape[0] < MIN_VERTICES:
            raise RejectedInputError(
                f"need at least {MIN_VERTICES} vertices, got {pts.shape[0]}"
            )
        # squared chords overflow beyond about 1e154: a wrong scale, rejected
        # before it turns into an infinite length or a NaN spread
        with np.errstate(over="ignore"):
            seg = _chord_lengths(pts)
            total = float(seg.sum())
        if not math.isfinite(total):
            raise RejectedInputError(
                "coordinates are too large: the chord lengths overflow"
            )
        seg_min = seg.min()
        if seg_min == 0.0:
            raise RejectedInputError("consecutive vertices must not coincide")
        seg.setflags(write=False)
        object.__setattr__(self, "_chords", seg)
        object.__setattr__(self, "_length", total)
        object.__setattr__(self, "_spread",
                           float((seg.max() - seg_min) / (total / len(seg))))
        pts = np.array(pts, order="F")
        pts.setflags(write=False)
        object.__setattr__(self, "vertices", pts)

    def __eq__(self, other):
        if not isinstance(other, SampledCurve):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices)

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
        return self._spread

    def is_uniform(self) -> bool:
        """Whether the chord spread is within SPREAD_TOL."""
        return self._spread <= SPREAD_TOL

    @functools.cached_property
    def _frames_h(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only unit tangent, unit normal and curvature of :func:`_frames`
        at h = L/n."""
        frames = _frames(self.vertices, self.length() / self.n)
        for a in frames:
            a.setflags(write=False)
        return frames

    @functools.cached_property
    def _ks_kss(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only centred first and second differences of the curvature
        at h = L/n, k_s and k_ss, from one padded copy of it."""
        k = self._frames_h[2]
        h = self.length() / self.n
        kp = np.concatenate((k[-1:], k, k[:1]))
        ks = kp[2:] - kp[:-2]
        ks /= 2.0 * h
        kss = 2.0 * k
        np.subtract(kp[2:], kss, out=kss)
        kss += kp[:-2]
        kss /= h * h
        ks.setflags(write=False)
        kss.setflags(write=False)
        return ks, kss

    @functools.cached_property
    def _area(self) -> float:
        return signed_area(self)

    @functools.cached_property
    def _measured(self) -> "CurveMetrics":
        return _metrics(self)


@dataclass(frozen=True)
class CurveMetrics:
    """Scalar state of a curve: the quantities the evolution identities relate.

    ``int_dev_ks2`` and ``int_dev2_ks2`` are the arclength integrals of
    (k - kbar) k_s^2 and (k - kbar)^2 k_s^2, which enter the
    oscillation-energy balance.
    """

    length: float
    signed_area: float
    isoperimetric_ratio: Optional[float]
    winding_number: int
    average_curvature: float
    osc_energy: float
    ks_norm_sq: float
    kss_norm_sq: float
    min_curvature: float
    int_dev_ks2: float
    int_dev2_ks2: float


@dataclass(frozen=True)
class ShapeSpec:
    """Parametric initial shape.

    kind-specific fields: ``radius`` (circle); ``a``, ``b`` (ellipse);
    ``r0`` and ``modes`` as (frequency, amplitude, phase) triples
    (fourier-perturbed-circle, r(theta) = r0 * (1 + sum eps cos(m theta + phi)));
    ``offset`` and ``scale`` (limacon, r(theta) = scale * (offset + cos theta));
    ``scale`` (lemniscate of Bernoulli). Every number must be finite, the
    amplitudes and phases of ``modes`` too; unused fields are otherwise
    ignored.
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
        for name in ("radius", "a", "b", "r0", "offset", "scale"):
            _real_arg(name, getattr(self, name))
        if self.kind == "circle" and self.radius <= 0:
            raise RejectedInputError("circle radius must be positive")
        if self.kind == "ellipse" and (self.a <= 0 or self.b <= 0):
            raise RejectedInputError("ellipse semi-axes must be positive")
        if self.kind == "fourier-perturbed-circle":
            if self.r0 <= 0:
                raise RejectedInputError("base radius must be positive")
            if not isinstance(self.modes, (tuple, list)):
                raise RejectedInputError(
                    f"modes must be a tuple or list of triples, got {self.modes!r}")
            norm = []
            for entry in self.modes:
                try:
                    m, eps, phase = entry
                except (TypeError, ValueError):
                    m = eps = phase = None  # not a triple
                if not (isinstance(m, numbers.Integral) and m >= 1
                        and all(_is_real(x) for x in (m, eps, phase))):
                    raise RejectedInputError(
                        "modes: each entry is (integer frequency >= 1, finite "
                        f"amplitude, finite phase), got {_shown(entry)}")
                norm.append((int(m), float(eps), float(phase)))
            object.__setattr__(self, "modes", tuple(norm))
        if self.kind in ("limacon", "lemniscate") and self.scale <= 0:
            raise RejectedInputError("scale must be positive")
        if self.kind == "limacon" and self.offset <= 0:
            raise RejectedInputError("limacon offset must be positive")


def _is_real(value) -> bool:
    """The package's rule for a real argument: a numbers.Real that is not a
    bool (an int to Python) and converts to a finite float, so an int beyond
    float range is refused, not raised as OverflowError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _shown(value) -> str:
    """repr(value) for a message; Python refuses the repr of an int of more
    than 4300 digits, which is shown by its type alone."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


def _real_arg(name: str, value, positive: bool = False) -> float:
    """value as a float if it obeys the real rule of :func:`_is_real`, and
    is > 0 when ``positive`` is set; refused by name otherwise."""
    if _is_real(value) and (float(value) > 0.0 or not positive):
        return float(value)
    rule = "a positive finite number" if positive else "finite"
    raise RejectedInputError(f"{name} must be {rule}, got {_shown(value)}")


def _real_array(name: str, value, positive: bool = False) -> np.ndarray:
    """value as a float array whose every entry obeys the real rule of
    :func:`_real_arg`, refused by the name and flat index of the first
    entry that does not.  An ndarray needs an int or float dtype; a sequence
    is read entry by entry, since np.asarray reads [True, 2.0] as floats and
    "12" as a number."""
    if not isinstance(value, np.ndarray):
        for i, x in enumerate(np.asarray(value, dtype=object).flat):
            _real_arg(f"{name}[{i}]", x, positive)
    elif value.dtype.kind not in "iuf":
        raise RejectedInputError(
            f"{name} must hold only ints and floats, got a {value.dtype} array")
    arr = np.asarray(value, dtype=float)
    ok = np.isfinite(arr) & (arr > 0.0) if positive else np.isfinite(arr)
    if not ok.all():
        i = int(np.argmin(ok.ravel()))  # the first entry the rule refuses
        _real_arg(f"{name}[{i}]", float(arr.flat[i]), positive)
    return arr


def _integer_arg(name: str, value) -> int:
    """value as an int if it is an integer that obeys the real rule of
    :func:`_is_real`; a float such as 2.0, a string, a bool or an int beyond
    float range is refused by name."""
    if isinstance(value, numbers.Integral) and _is_real(value):
        return int(value)
    raise RejectedInputError(f"{name} must be an integer, got {_shown(value)}")


def generate(spec: ShapeSpec, n: int) -> SampledCurve:
    """Sample a parametric shape at n parameter-uniform points.

    The curve is traced once, counterclockwise for the radial graphs, so the
    circle encloses positive area. Only where the parameter is proportional
    to arclength, as on the circle, are the chords uniform; resample any
    other shape before calling a curvature operation.  A Fourier mode of
    frequency n/2 or more is refused, since n points would alias it, and the
    perturbed radius must be positive on a grid of at least 4096 points and
    16 per period of its highest mode.
    """
    n = _integer_arg("n", n)
    if n < MIN_VERTICES:
        raise RejectedInputError(f"need n >= {MIN_VERTICES}, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    if spec.kind == "circle":
        pts = spec.radius * np.column_stack([np.cos(t), np.sin(t)])
    elif spec.kind == "ellipse":
        pts = np.column_stack([spec.a * np.cos(t), spec.b * np.sin(t)])
    elif spec.kind == "fourier-perturbed-circle":
        top = max((m for m, _, _ in spec.modes), default=0)
        if 2 * top >= n:
            raise RejectedInputError(
                f"mode frequency {top} is at or above n/2 = {n / 2:g}: "
                f"n = {n} points would draw it as a lower mode")
        r = _fourier_radius(spec, t)
        # never fewer than 4096 points, and at least 16 a period of the top mode
        dense_n = max(4096, 16 * top)
        dense = _fourier_radius(spec, 2.0 * np.pi * np.arange(dense_n) / dense_n)
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
    return SampledCurve(pts)


def _fourier_radius(spec: ShapeSpec, t: np.ndarray) -> np.ndarray:
    r = np.ones_like(t)
    for m, eps, phase in spec.modes:
        r += eps * np.cos(m * t + phase)
    return spec.r0 * r


def resample_uniform(curve: SampledCurve, n: Optional[int] = None) -> SampledCurve:
    """Redistribute vertices to uniform chord spacing on the same trace.

    The trace is taken to be the periodic C^1 cubic Hermite interpolant of
    the current vertices on chordal knots, the cumulative chord lengths, with
    the slope at each knot that of the quartic through the five nearest
    knots (:func:`_hermite_spline`).  New vertices are placed on it and
    nudged, by a fixed-point iteration on the cumulative chord length, until
    all chords agree to machine-level spread; the first guess is the uniform
    grid in chord length.  Vertex 0 stays anchored, so an already-uniform
    curve is a fixed point of the map.

    The iteration stops once the spread is below max(1e-12, 4 n eps), with
    eps the float64 machine epsilon, or after 10 evaluations.  Rounding in
    the chord lengths grows with n, and 4 n eps lies above the spread the
    iteration reaches at large n (above 1e-12 from n = 1126 on).  A curve
    that reaches the cap is accepted when its spread is within half the
    uniform-in-arclength tolerance; otherwise DegenerateGeometryError is
    raised.

    Interpolating with a fourth-order interpolant rather than along the
    polygon keeps the chord-length deficit of the inscribed polygon
    consistent between input and output; resampling then perturbs the
    measured length at O(h^4), not O(h^2).
    """
    n = curve.n if n is None else _integer_arg("n", n)
    pts, _ = _resample_points(curve.vertices, curve.segment_lengths(), n)
    return SampledCurve(pts)


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
    # knots x[-2] .. x[m + 2] of the m points, two periodic images each side
    m = len(seg)
    xp = np.empty(m + 5)
    cum = np.cumsum(seg, out=xp[3:m + 3])
    period = cum[-1]
    np.subtract(cum[-3:-1], period, out=xp[:2])
    xp[2] = 0.0
    np.add(cum[:2], period, out=xp[m + 3:])
    knots = xp[2:-2]
    yr = pts.T
    coeffs = _hermite_spline(xp, np.concatenate((yr[:, -2:], yr, yr[:, :3]), axis=1))

    # u[:n] are the parameters of the new points, u[n] closes the period
    grid = np.arange(n, dtype=float)
    u = np.empty(n + 1)
    np.multiply(grid, total / n, out=u[:n])
    u[n] = period
    cum = np.empty(n + 1)
    cum[0] = 0.0
    target = max(_RESAMPLE_TARGET_SPREAD, 4 * n * _FLOAT_EPS)
    for _ in range(_RESAMPLE_MAX_ITERS):
        out = _evaluate_spline(knots, coeffs, u[:n])
        chords = _chord_lengths(out)
        mean = chords.sum() / n
        if mean <= 0 or not math.isfinite(mean):
            raise DegenerateGeometryError("resampling produced a collapsed polygon")
        spread = (chords.max() - chords.min()) / mean
        if spread < target:
            break
        np.cumsum(chords, out=cum[1:])
        u[:n] = np.interp(grid * (cum[-1] / n), cum, u)
    if spread > 0.5 * SPREAD_TOL:
        raise DegenerateGeometryError(
            f"uniform resampling did not converge (spread {spread:.3e})"
        )
    return out, chords


def _hermite_spline(xp: np.ndarray, yp: np.ndarray) -> np.ndarray:
    """Coefficients of the periodic cubic Hermite interpolant through (x, y).

    xp holds the m + 1 knots x[0] .. x[m] of m points, x[m] closing the
    period, padded with their periodic images x[-2], x[-1], x[m + 1] and
    x[m + 2]; yp holds the coordinate rows of the points at the same m + 5
    knots, (cols, m + 5).  The slope s[i] at knot i is the derivative of
    the quartic through knots i - 2 .. i + 2, in Newton form about x[i] with
    nodes i, i + 1, i - 1, i + 2, i - 2, from divided differences up to
    order 4:

        s[i] = f[i, i+1] - h[i] (f[i-1, i, i+1] + h[i-1] (f[i-1 .. i+2]
               - (h[i] + h[i+1]) f[i-2 .. i+2]))

    with h[i] = x[i + 1] - x[i].  The interpolant is C^1 and fourth-order
    accurate, and each slope reads five knots, so no system is solved.
    Returns c of shape (4, cols, m): on edge i, at x = x[i] + f h[i] with
    f in [0, 1), the cubic is ((c[0] f + c[1]) f + c[2]) f + c[3], its
    tangents scaled by the chord h[i].
    """
    h = xp[1:] - xp[:-1]
    if not (h > 0.0).all():
        raise DegenerateGeometryError("spline knots must increase strictly")
    m = len(xp) - 5
    # column j of xp and yp is knot j - 2, so column j of d_k starts there
    dy = yp[:, 1:] - yp[:, :-1]
    d1 = dy / h                                            # f[j-2, j-1]
    d2 = d1[:, 1:] - d1[:, :-1]                            # f[j-2 .. j]
    d2 /= xp[2:] - xp[:-2]
    d3 = d2[:, 1:] - d2[:, :-1]                            # f[j-2 .. j+1]
    d3 /= xp[3:] - xp[:-3]
    s = d3[:, 1:] - d3[:, :-1]                             # f[j-2 .. j+2]
    s /= xp[4:] - xp[:-4]
    hi, hm, hp = h[2:m + 3], h[1:m + 2], h[3:m + 4]   # h[i], h[i-1], h[i+1]
    # s = d1 - hi (d2 + hm (d3 - (hi + hp) d4)), from the inside out
    s *= hi + hp
    np.subtract(d3[:, 1:m + 2], s, out=s)
    s *= hm
    s += d2[:, 1:m + 2]
    s *= hi
    np.subtract(d1[:, 2:m + 3], s, out=s)
    c = np.empty((4, yp.shape[0], m))
    t0 = np.multiply(s[:, :-1], hi[:-1], out=c[2])   # tangents at f = 0
    t1 = s[:, 1:]                                    # and at f = 1
    t1 *= hi[:-1]
    delta = dy[:, 2:m + 2]
    twice = 2.0 * delta
    np.add(t0, t1, out=c[0])
    c[0] -= twice
    np.multiply(delta, 3.0, out=c[1])
    np.multiply(t0, 2.0, out=twice)
    c[1] -= twice
    c[1] -= t1
    c[3] = yp[:, 2:m + 2]
    return c


def _evaluate_spline(x: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Values at u in [x[0], x[-1]] of the interpolant with coefficients c.

    The piecewise-linear map of the knots x onto the vertex index gives each
    u its edge i and local variable f in [0, 1).  Horner's scheme runs in one
    fresh (cols, len(u)) array of coordinate rows, from the four coefficient
    rows gathered at i; the result is its column-major (len(u), cols)
    transpose, which does not keep the gather alive.
    """
    f = np.interp(u, x, np.arange(len(x), dtype=float))  # i + f
    i = f.astype(np.intp)
    np.minimum(i, len(x) - 2, out=i)  # u = x[-1] is f = 1 on the last edge
    f -= i
    c0, c1, c2, c3 = np.take(c, i, axis=2)
    v = c0 * f
    v += c1
    v *= f
    v += c2
    v *= f
    v += c3
    return v.T


def _require_uniform(curve: SampledCurve, op: str) -> None:
    if not curve.is_uniform():
        raise NonUniformParametrizationError(
            f"{op} needs a uniform-in-arclength curve; call resample_uniform first"
        )


def _tangents(p: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unit tangent and normal of :func:`_frames`, from points padded by a row."""
    tau = p[2:] - p[:-2]
    tau /= 2.0 * h
    tnorm = _row_norms(tau)
    # a norm is never negative, so this rejects zero, NaN and inf alike
    if not (tnorm.min() > 0.0 and math.isfinite(tnorm.max())):
        raise DegenerateGeometryError("degenerate tangent (folded polygon)")
    tau /= tnorm[:, None]
    nu = np.empty_like(tau)
    np.negative(tau[:, 1], out=nu[:, 0])
    nu[:, 1] = tau[:, 0]
    return tau, nu


def _frames(pts: np.ndarray, h: float):
    """Unit tangent, unit normal and curvature of a near-uniform closed polygon.

    Centered periodic differences with spacing h: the tangent is the first
    difference normalized, the normal is the tangent rotated by +90 degrees,
    and the curvature is the second difference projected on the normal.
    """
    p = np.concatenate((pts[-1:], pts, pts[:1]))
    tau, nu = _tangents(p, h)
    d2 = 2.0 * pts
    np.subtract(p[2:], d2, out=d2)
    d2 += p[:-2]
    d2 /= h * h
    k = d2[:, 0] * nu[:, 0]
    d2[:, 1] *= nu[:, 1]
    k += d2[:, 1]
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
    """First or second arclength derivative of the curvature profile: the
    curve's kept k_s or k_ss, both read-only."""
    if _integer_arg("order", order) not in (1, 2):
        raise RejectedInputError(f"order must be 1 or 2, got {order!r}")
    _require_uniform(curve, "curvature_derivatives")
    return curve._ks_kss[order - 1]


def turning_number(curve: SampledCurve) -> int:
    """Winding number from the exterior turning angles, validated as integer."""
    p = np.concatenate((curve.vertices[-1:], curve.vertices, curve.vertices[:1]))
    d = p[1:] - p[:-1]  # row i + 1 is edge i, row 0 is edge n - 1
    e, prev = d[1:], d[:-1]
    cross = prev[:, 0] * e[:, 1]
    cross -= prev[:, 1] * e[:, 0]
    dot = prev[:, 0] * e[:, 0]
    dot += prev[:, 1] * e[:, 1]
    total = float(np.arctan2(cross, dot).sum()) / (2.0 * np.pi)
    omega = round(total)
    if abs(total - omega) > WINDING_ABORT_TOL:
        raise DegenerateGeometryError(
            f"total turning {total:.6f} is not within {WINDING_ABORT_TOL} of an integer"
        )
    return int(omega)


def signed_area(curve: SampledCurve) -> float:
    """Shoelace area of the vertex polygon (exact for polygons)."""
    return 0.5 * _cross_sum(curve.vertices, _shift(curve.vertices, 1))


def metrics(curve: SampledCurve) -> CurveMetrics:
    """All scalar metrics of a uniform-in-arclength curve.

    The average curvature is defined through the winding number, kbar =
    2 omega pi / L, so the identity kbar * L = 2 omega pi holds exactly as
    computed. The isoperimetric ratio is None when the signed area vanishes
    (figure-eights are legal inputs).
    """
    _require_uniform(curve, "metrics")
    return curve._measured


def _metrics(curve: SampledCurve) -> CurveMetrics:
    """:func:`metrics` from the curve's kept curvature profile, k_s and k_ss."""
    k = curve._frames_h[2]
    ks, kss = curve._ks_kss
    L = curve.length()
    A = curve._area
    omega = turning_number(curve)
    h = L / curve.n
    kbar = 2.0 * omega * np.pi / L
    dev = k - kbar
    dev_ks2 = dev * ks
    dev_ks2 *= ks
    dev *= dev
    kosc = L * float(dev.sum()) * h
    dev *= ks
    dev *= ks
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
        int_dev_ks2=float(dev_ks2.sum()) * h,
        int_dev2_ks2=float(dev.sum()) * h,
    )


def read_curve_csv(path) -> SampledCurve:
    """Read a curve from CSV with header ``x,y``, one vertex per row.

    The polygon closes implicitly. Rows with non-finite values are rejected,
    and so is a polygon whose chord lengths overflow or whose total length
    is below MIN_TOTAL_LENGTH.  The curve is uniform when its chords are.
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
    # squared chords underflow to 0 below about 1e-154: a wrong scale, not a
    # wrong polygon; the curve rejects chords that overflow or vanish
    with np.errstate(over="ignore"):
        total = float(_chord_lengths(pts).sum())
    if total < MIN_TOTAL_LENGTH:
        raise RejectedInputError(
            f"curve CSV is collapsed: total length {total:.3e} below "
            f"{MIN_TOTAL_LENGTH:.0e}"
        )
    return SampledCurve(pts)


def write_curve_csv(curve: SampledCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in curve.vertices:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
