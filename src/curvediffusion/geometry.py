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

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

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
_AREA_UNDEFINED_REL = 1e-10  # |A| < this * L^2 leaves the isoperimetric ratio undefined

SHAPE_KINDS = (
    "circle",
    "ellipse",
    "fourier-perturbed-circle",
    "limacon",
    "lemniscate",
)


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
    generation : int
        Resample counter, incremented by :func:`resample_uniform`.
    """

    vertices: np.ndarray
    param: str = UNIFORM_IN_PARAMETER
    generation: int = 0
    closed: bool = True

    def __post_init__(self):
        pts = np.asarray(self.vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise RejectedInputError("vertices must be an (n, 2) array")
        if pts.shape[0] < MIN_VERTICES:
            raise RejectedInputError(
                f"need at least {MIN_VERTICES} vertices, got {pts.shape[0]}"
            )
        if not np.isfinite(pts).all():
            raise RejectedInputError("vertex coordinates must be finite")
        if not self.closed:
            raise RejectedInputError("only closed curves are supported")
        if self.param not in (UNIFORM_IN_PARAMETER, UNIFORM_IN_ARCLENGTH):
            raise RejectedInputError(f"unknown parametrization {self.param!r}")
        if self.generation < 0:
            raise RejectedInputError("generation counter must be >= 0")
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if (seg == 0.0).any():
            raise RejectedInputError("consecutive vertices must not coincide")
        if self.param == UNIFORM_IN_ARCLENGTH:
            spread = (seg.max() - seg.min()) / seg.mean()
            if spread > SPREAD_TOL:
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

    def segment_vectors(self) -> np.ndarray:
        """Edge vectors, edge i running from vertex i to vertex i+1 (periodic)."""
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.segment_vectors(), axis=1)

    def length(self) -> float:
        return float(self.segment_lengths().sum())

    def chord_spread(self) -> float:
        """Relative spread (max - min)/mean of the chord lengths."""
        seg = self.segment_lengths()
        return float((seg.max() - seg.min()) / seg.mean())

    def is_uniform(self) -> bool:
        return self.param == UNIFORM_IN_ARCLENGTH


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
    return SampledCurve(pts, param=UNIFORM_IN_PARAMETER, generation=0)


def _fourier_radius(spec: ShapeSpec, t: np.ndarray) -> np.ndarray:
    r = np.ones_like(t)
    for m, eps, phase in spec.modes:
        r += eps * np.cos(m * t + phase)
    return spec.r0 * r


def resample_uniform(curve: SampledCurve, n: Optional[int] = None) -> SampledCurve:
    """Redistribute vertices to uniform chord spacing on the same trace.

    The trace is taken to be the periodic cubic spline through the current
    vertices (chordal parametrization). New vertices are placed on that spline
    and nudged, by a fixed-point iteration on the cumulative chord length,
    until all chords agree to machine-level spread. Vertex 0 stays anchored,
    so an already-uniform curve is a fixed point of the map.

    The iteration stops once the spread is below 1e-12, or once it is within
    the uniform-in-arclength tolerance and fell by less than half since the
    previous evaluation: it has then reached rounding level, which at large
    n lies above 1e-12.  A spread still above half that tolerance after the
    last iteration raises DegenerateGeometryError.

    Interpolating with a spline rather than along the polygon keeps the
    chord-length deficit of the inscribed polygon consistent between input and
    output; resampling then perturbs the measured length at O(h^4), not O(h^2).
    """
    if n is None:
        n = curve.n
    if n < MIN_VERTICES:
        raise RejectedInputError(f"need n >= {MIN_VERTICES}, got {n}")
    pts = curve.vertices
    seg = curve.segment_lengths()
    total = float(seg.sum())
    if total < MIN_TOTAL_LENGTH:
        raise DegenerateGeometryError(
            f"total length {total:.3e} below threshold {MIN_TOTAL_LENGTH:.0e}"
        )
    knots = np.concatenate([[0.0], np.cumsum(seg)])
    closed = np.vstack([pts, pts[:1]])
    spline = CubicSpline(knots, closed, axis=0, bc_type="periodic")

    u = np.interp(np.arange(n) * (total / n), knots, knots)
    out = None
    prev_spread = math.inf
    for _ in range(_RESAMPLE_MAX_ITERS):
        out = spline(u)
        chords = np.linalg.norm(
            np.vstack([out[1:], out[:1]]) - out, axis=1
        )
        mean = chords.mean()
        if mean <= 0 or not np.isfinite(mean):
            raise DegenerateGeometryError("resampling produced a collapsed polygon")
        spread = (chords.max() - chords.min()) / mean
        stalled = spread > 0.5 * prev_spread and spread <= 0.5 * SPREAD_TOL
        if spread < _RESAMPLE_TARGET_SPREAD or stalled:
            break
        prev_spread = spread
        cum = np.concatenate([[0.0], np.cumsum(chords)])
        u = np.interp(np.arange(n) * (cum[-1] / n), cum, np.append(u, knots[-1]))
    if spread > 0.5 * SPREAD_TOL:
        raise DegenerateGeometryError(
            f"uniform resampling did not converge (spread {spread:.3e})"
        )
    return SampledCurve(
        np.asarray(out), param=UNIFORM_IN_ARCLENGTH, generation=curve.generation + 1
    )


def _require_uniform(curve: SampledCurve, op: str) -> None:
    if not curve.is_uniform():
        raise NonUniformParametrizationError(
            f"{op} needs a uniform-in-arclength curve; call resample_uniform first"
        )


def curvature_profile(curve: SampledCurve) -> np.ndarray:
    """Signed curvature at each vertex by centered periodic differences.

    k_i = <second difference of position, unit normal>, with the normal taken
    as the centered tangent rotated by +90 degrees. Exact for a uniformly
    sampled circle with the chord spacing used as h.
    """
    _require_uniform(curve, "curvature_profile")
    pts = curve.vertices
    h = curve.length() / curve.n
    fwd = np.roll(pts, -1, axis=0)
    bwd = np.roll(pts, 1, axis=0)
    d1 = (fwd - bwd) / (2.0 * h)
    d2 = (fwd - 2.0 * pts + bwd) / (h * h)
    tnorm = np.linalg.norm(d1, axis=1)
    if (tnorm == 0.0).any():
        raise DegenerateGeometryError("degenerate tangent (folded polygon)")
    tx = d1[:, 0] / tnorm
    ty = d1[:, 1] / tnorm
    # normal = J tangent = (-ty, tx)
    return d2[:, 0] * (-ty) + d2[:, 1] * tx


def curvature_derivatives(curve: SampledCurve, order: int) -> np.ndarray:
    """First or second arclength derivative of the curvature profile."""
    if order not in (1, 2):
        raise RejectedInputError("order must be 1 or 2")
    _require_uniform(curve, "curvature_derivatives")
    k = curvature_profile(curve)
    h = curve.length() / curve.n
    if order == 1:
        return (np.roll(k, -1) - np.roll(k, 1)) / (2.0 * h)
    return (np.roll(k, -1) - 2.0 * k + np.roll(k, 1)) / (h * h)


def turning_number(curve: SampledCurve) -> int:
    """Winding number from the exterior turning angles, validated as integer."""
    e = curve.segment_vectors()
    prev = np.roll(e, 1, axis=0)
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
    nxt = np.roll(pts, -1, axis=0)
    return 0.5 * float(np.sum(pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]))


def metrics(curve: SampledCurve) -> CurveMetrics:
    """All scalar metrics of a uniform-in-arclength curve.

    The average curvature is defined through the winding number, kbar =
    2 omega pi / L, so the identity kbar * L = 2 omega pi holds exactly as
    computed. The isoperimetric ratio is None when the signed area vanishes
    (figure-eights are legal inputs).
    """
    _require_uniform(curve, "metrics")
    L = curve.length()
    A = signed_area(curve)
    omega = turning_number(curve)
    h = L / curve.n
    k = curvature_profile(curve)
    kbar = 2.0 * omega * np.pi / L
    dev = k - kbar
    kosc = L * float(np.sum(dev * dev)) * h
    ks = (np.roll(k, -1) - np.roll(k, 1)) / (2.0 * h)
    kss = (np.roll(k, -1) - 2.0 * k + np.roll(k, 1)) / (h * h)
    ks2 = float(np.sum(ks * ks)) * h
    kss2 = float(np.sum(kss * kss)) * h
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
    )


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
    starts = poly
    ends = np.roll(poly, -1, axis=0)
    d = ends - starts  # (m, 2)
    len2 = np.einsum("ij,ij->i", d, d)
    # project every point on every segment, clamp to [0, 1]
    diff = pts[:, None, :] - starts[None, :, :]          # (p, m, 2)
    tproj = np.einsum("pmi,mi->pm", diff, d) / len2[None, :]
    tproj = np.clip(tproj, 0.0, 1.0)
    closest = starts[None, :, :] + tproj[:, :, None] * d[None, :, :]
    dist = np.linalg.norm(pts[:, None, :] - closest, axis=2)
    return float(dist.min(axis=1).max())


def read_curve_csv(path) -> SampledCurve:
    """Read a curve from CSV with header ``x,y``, one vertex per row.

    The polygon closes implicitly. Rows with non-finite values are rejected.
    The parametrization is classified from the measured chord spread.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
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
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    if (seg == 0.0).any():
        raise RejectedInputError("curve CSV has coinciding consecutive vertices")
    spread = (seg.max() - seg.min()) / seg.mean()
    param = UNIFORM_IN_ARCLENGTH if spread <= SPREAD_TOL else UNIFORM_IN_PARAMETER
    return SampledCurve(pts, param=param, generation=0)


def write_curve_csv(curve: SampledCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in curve.vertices:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
