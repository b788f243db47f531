"""Threshold constants, admissibility checks, and inequality verdicts.

Pure functions over sampled curves and recorded trajectories.  Ops that
return a :class:`Report` carry named boolean verdicts together with the
numbers they were decided on, so callers can serialize or render either.
"""

import json
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import RejectedInputError
from .flow import TrajectoryRecord
from .geometry import SampledCurve, CurveMetrics, metrics
from .geometry import _max_dist_to_polyline, _require_uniform, _shift

# Decimal expansion of the oscillation smallness threshold, frozen from a
# 50-digit evaluation of the defining formula before the double-precision
# implementation below was written.  Tests compare kstar() against this.
KSTAR_DIGITS = "0.052790241611740826827382611170886892775976535487578"

DECAY_KOSC = "kosc"
DECAY_KS2 = "ks2"
DECAY_KSS2 = "kss2"
DECAY_QUANTITIES = (DECAY_KOSC, DECAY_KS2, DECAY_KSS2)

EMBEDDED_CERTIFIED = "certified embedded"
EMBEDDED_INCONCLUSIVE = "inconclusive"

_EXACT_INEQUALITY_GUARD = 1e-12   # rounding slack for exact algebraic inequalities
_DISCRETE_BIAS_GUARD = 1e-2       # slack for O(h^2) finite-difference bias in verdicts
_FLAT_WINDOW_REL = 1e-6           # below this relative variation there is no decay to fit


@dataclass(frozen=True)
class Report:
    """Boolean verdicts plus the numeric evidence behind them."""

    verdicts: Dict[str, bool]
    values: Dict[str, float]


def report_to_json(report: Report) -> str:
    payload = {
        "verdicts": {k: bool(v) for k, v in report.verdicts.items()},
        "values": {k: float(v) for k, v in report.values.items()},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class HypothesisReport:
    """Admissibility of an initial curve for the global-existence checks.

    ``iso0`` is None when the enclosed area is too small to define an
    isoperimetric ratio; that also forces ``iso_ok`` false.
    """

    kosc0: float
    iso0: Optional[float]
    kstar: float
    kosc_ok: bool
    iso_ok: bool
    winding_ok: bool
    area_ok: bool
    admissible: bool

    def __post_init__(self):
        expected = self.kosc_ok and self.iso_ok and self.winding_ok and self.area_ok
        if self.admissible != expected:
            raise RejectedInputError(
                "admissible must equal the conjunction of the four sub-verdicts"
            )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit A exp(-rate t) to one trajectory quantity."""

    quantity: str
    window: Tuple[float, float]
    rate: float
    amplitude: float
    rms_log_residual: float

    def __post_init__(self):
        if self.quantity not in DECAY_QUANTITIES:
            raise RejectedInputError(
                f"unknown decay quantity {self.quantity!r}; expected one of {DECAY_QUANTITIES}"
            )
        t0, t1 = self.window
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise RejectedInputError("window must be a finite interval with t1 > t0")
        if not math.isfinite(self.rate):
            raise RejectedInputError("fitted rate must be finite")


def kstar() -> float:
    """Smallness threshold for the normalized curvature oscillation energy.

    Defined as (2 pi + 12 pi^2 - 4 pi sqrt(3 pi) sqrt(1 + 3 pi)) / 3, but the
    direct difference cancels eleven digits, so this evaluates the conjugate
    form 4 pi^2 / (3 (2 pi + 12 pi^2 + 4 pi sqrt(3 pi + 9 pi^2))), which is
    algebraically identical and accurate to the last bit.  The leading digits
    are 0.0527902416117408..., frozen in KSTAR_DIGITS; roughly 1/18.
    """
    pi = math.pi
    root = math.sqrt(3.0 * pi + 9.0 * pi * pi)
    return 4.0 * pi * pi / (3.0 * (2.0 * pi + 12.0 * pi * pi + 4.0 * pi * root))


def general_smallness_threshold(omega: int) -> float:
    """Winding-dependent ceiling under which the oscillation energy propagates.

    (4 pi + 24 pi^2 w^2 - 8 pi sqrt(3 pi) sqrt(w^2 + 3 pi w^4)) / 3, evaluated
    in the same conjugate form as kstar(); equals 2 kstar() at w = 1 and
    depends on w only through w^2.
    """
    if omega == 0:
        raise RejectedInputError("winding number zero degenerates the threshold")
    if int(omega) != omega:
        raise RejectedInputError("winding number must be an integer")
    pi = math.pi
    w2 = float(omega) * float(omega)
    root = math.sqrt(3.0 * pi * w2 + 9.0 * pi * pi * w2 * w2)
    return 16.0 * pi * pi / (3.0 * (4.0 * pi + 24.0 * pi * pi * w2 + 8.0 * pi * root))


def isoperimetric_limit() -> float:
    """Isoperimetric-ratio ceiling exp(kstar() / 8 pi^2) for admissibility."""
    return math.exp(kstar() / (8.0 * math.pi * math.pi))


def _hypothesis_report(m: CurveMetrics) -> HypothesisReport:
    ks = kstar()
    kosc_ok = m.osc_energy < ks
    iso_ok = m.isoperimetric_ratio is not None and m.isoperimetric_ratio < isoperimetric_limit()
    winding_ok = m.winding_number == 1
    area_ok = m.signed_area > 0.0
    return HypothesisReport(
        kosc0=m.osc_energy,
        iso0=m.isoperimetric_ratio,
        kstar=ks,
        kosc_ok=kosc_ok,
        iso_ok=iso_ok,
        winding_ok=winding_ok,
        area_ok=area_ok,
        admissible=kosc_ok and iso_ok and winding_ok and area_ok,
    )


def check_hypotheses(curve: SampledCurve) -> HypothesisReport:
    """Decide whether an initial curve qualifies for the circle-convergence result.

    Requires oscillation energy below kstar(), isoperimetric ratio below
    exp(kstar()/8 pi^2), winding number one, and positive enclosed area.
    """
    return _hypothesis_report(metrics(curve))


def hypothesis_as_report(report: HypothesisReport) -> Report:
    verdicts = {
        "kosc_ok": report.kosc_ok,
        "iso_ok": report.iso_ok,
        "winding_ok": report.winding_ok,
        "area_ok": report.area_ok,
        "admissible": report.admissible,
    }
    values = {"kosc0": report.kosc0, "kstar": report.kstar,
              "iso_limit": isoperimetric_limit()}
    if report.iso0 is not None:
        values["iso0"] = report.iso0
    return Report(verdicts=verdicts, values=values)


def waiting_time_bound(L0: float, A0: float) -> float:
    """(L0 / 2 pi)^4 - (A0 / pi)^2: a cap on how long curvature can dip nonpositive.

    Zero exactly for a round circle.  Negative only when (L0, A0) violate the
    isoperimetric inequality, which no plane curve can; such inputs are let
    through with a warning so callers can see the inconsistency.
    """
    if not (math.isfinite(L0) and L0 > 0.0):
        raise RejectedInputError("need finite L0 > 0")
    if not math.isfinite(A0):
        raise RejectedInputError("need finite A0")
    bound = (L0 / (2.0 * math.pi)) ** 4 - (A0 / math.pi) ** 2
    if bound < 0.0:
        warnings.warn(
            "negative waiting bound: inputs violate the isoperimetric inequality",
            RuntimeWarning, stacklevel=2,
        )
    return bound


def _record_times(trajectory: Sequence[TrajectoryRecord]) -> np.ndarray:
    times = np.array([rec.time for rec in trajectory], dtype=float)
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise RejectedInputError("record times must be strictly increasing")
    return times


def positivity_waiting_measure(trajectory: Sequence[TrajectoryRecord]) -> float:
    """Total time the recorded minimum curvature spends at or below zero.

    Each record stands for one interval of the run's fixed step, so the
    measure is the step size times the number of nonpositive-minimum records.
    A single record carries no interval and contributes zero.
    """
    if len(trajectory) == 0:
        raise RejectedInputError("empty trajectory")
    if len(trajectory) == 1:
        return 0.0
    times = _record_times(trajectory)
    dt = float(np.median(np.diff(times)))
    hits = sum(1 for rec in trajectory if rec.metrics.min_curvature <= 0.0)
    return dt * hits


def l1_energy_check(trajectory: Sequence[TrajectoryRecord]) -> Report:
    """Trapezoid integral of the oscillation energy against its a-priori cap.

    The cap is L^4 / 16 pi^2 with L taken from the first record; length only
    decreases along the flow, so this is the conservative side.  Holds for
    any initial data, including runs cut short by a blow-up signal.
    """
    if len(trajectory) == 0:
        raise RejectedInputError("empty trajectory")
    times = _record_times(trajectory)
    kosc = np.array([rec.metrics.osc_energy for rec in trajectory], dtype=float)
    if times.size == 1:
        integral = 0.0
    else:
        integral = float(np.sum(0.5 * (kosc[1:] + kosc[:-1]) * np.diff(times)))
    L0 = trajectory[0].metrics.length
    bound = L0 ** 4 / (16.0 * math.pi * math.pi)
    return Report(
        verdicts={"within_bound": integral <= bound},
        values={"integral": integral, "bound": bound, "initial_length": L0},
    )


def smallness_propagation_check(trajectory: Sequence[TrajectoryRecord],
                                slack: float = 1e-9) -> Report:
    """Check the two consequences of admissible initial data along a run.

    The oscillation energy must stay at or below twice kstar() at every
    record, and the Lyapunov quantity K_osc + 8 pi^2 log L must never
    increase between records.  ``slack`` scales the absolute tolerance for
    the monotonicity comparison; the default absorbs rounding in runs whose
    Lyapunov value is order one while staying far below any real violation.
    Inadmissible first records are rejected.
    """
    if len(trajectory) == 0:
        raise RejectedInputError("empty trajectory")
    if slack < 0.0 or not math.isfinite(slack):
        raise RejectedInputError("slack must be finite and nonnegative")
    first = _hypothesis_report(trajectory[0].metrics)
    if not first.admissible:
        raise RejectedInputError(
            "first record is not admissible; the propagation bound does not apply"
        )
    times = _record_times(trajectory)
    kosc = np.array([rec.metrics.osc_energy for rec in trajectory], dtype=float)
    length = np.array([rec.metrics.length for rec in trajectory], dtype=float)
    threshold = 2.0 * kstar()
    lyapunov = kosc + 8.0 * math.pi * math.pi * np.log(length)
    tol = slack * max(1.0, float(np.max(np.abs(lyapunov))))

    kosc_bad = np.nonzero(kosc > threshold)[0]
    increases = np.diff(lyapunov)
    mono_bad = np.nonzero(increases > tol)[0]

    verdicts = {
        "kosc_within_threshold": kosc_bad.size == 0,
        "lyapunov_nonincreasing": mono_bad.size == 0,
    }
    values = {
        "kosc_max": float(np.max(kosc)),
        "threshold": threshold,
        "max_lyapunov_increase": float(np.max(increases)) if increases.size else 0.0,
        "slack": tol,
    }
    if kosc_bad.size:
        values["first_kosc_violation_time"] = float(times[kosc_bad[0]])
    if mono_bad.size:
        values["first_lyapunov_violation_time"] = float(times[mono_bad[0] + 1])
    return Report(verdicts=verdicts, values=values)


def multiplicity_bound(m: int, omega: int) -> float:
    """Oscillation energy a curve must pay for a point of multiplicity m: 16 m^2 - 4 w^2 pi^2.

    Negative values (such as m = 1, w = 1) constrain nothing.
    """
    if int(m) != m or m < 1:
        raise RejectedInputError("multiplicity must be an integer >= 1")
    if int(omega) != omega:
        raise RejectedInputError("winding number must be an integer")
    w = float(omega)
    return 16.0 * float(m) * float(m) - 4.0 * w * w * math.pi * math.pi


def embeddedness_certificate(curve: SampledCurve) -> str:
    """Energy-only embeddedness verdict.

    A double point costs oscillation energy at least 64 - 4 pi^2 when the
    winding number is +-1, so energy below that certifies an embedded curve
    without any crossing search.  Anything else is inconclusive and defers
    to the geometric crossing test.
    """
    m = metrics(curve)
    if m.winding_number not in (1, -1):
        return EMBEDDED_INCONCLUSIVE
    if m.osc_energy < multiplicity_bound(2, m.winding_number):
        return EMBEDDED_CERTIFIED
    return EMBEDDED_INCONCLUSIVE


def density_integral(curve: SampledCurve, point, epsilon: Optional[float] = None) -> float:
    """Multiplicity of a point on the trace, read off a curvature integral.

    After translating ``point`` to the origin, the integral of
    (k^2 - k0^2) |p| over arclength, with k0 = |2 <p, normal> / |p|^2 + k|,
    equals 8 times the number of preimages of the point.  The integrand is
    continuous through the origin but its discrete evaluation is noisy where
    |p| is a few vertex spacings, so samples inside a cutoff of 3 L / n are
    dropped and the cutoff is extrapolated to zero by evaluating at the
    cutoff and at twice it (Richardson in the cutoff radius).

    ``epsilon`` is the on-trace tolerance for ``point``; defaults to 1e-6 L.
    """
    _require_uniform(curve, "density_integral")
    p = np.asarray(point, dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise RejectedInputError("point must be a finite pair of coordinates")
    L = curve.length()
    if epsilon is None:
        epsilon = 1e-6 * L
    gap = _max_dist_to_polyline(p[None, :], curve.vertices)
    if gap > epsilon:
        raise RejectedInputError(
            f"point is {gap:.3e} from the trace, beyond the tolerance {epsilon:.3e}"
        )

    h = L / curve.n
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


def _elementary_symmetric(values: np.ndarray) -> np.ndarray:
    # e[j] accumulates the degree-j elementary symmetric function of the
    # entries seen so far; the product recurrence stays exact to rounding
    # where subset enumeration would blow up combinatorially.
    e = np.zeros(values.size + 1)
    e[0] = 1.0
    for x in values:
        e[1:] = e[1:] + x * e[:-1]
    return e


def _positive_entries(l) -> np.ndarray:
    arr = np.asarray(l, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise RejectedInputError("need a nonempty flat list of entries")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise RejectedInputError("entries must be positive and finite")
    return arr


def newton_ratio_check(l, i: int) -> bool:
    """Ratio monotonicity of elementary symmetric functions of positive reals.

    With e_j the degree-j symmetric function of the entries and binomials of
    the entry count n, checks e_{i+1}^2 C(n,i) C(n,i+2) >= e_i e_{i+2}
    C(n,i+1)^2, which holds for every positive vector with equality when all
    entries coincide.  A 1e-12 relative guard absorbs rounding.
    """
    arr = _positive_entries(l)
    n = arr.size
    if n < 2:
        raise RejectedInputError("need at least two entries")
    if int(i) != i or not 0 <= i <= n - 2:
        raise RejectedInputError(f"index must be an integer in [0, {n - 2}]")
    e = _elementary_symmetric(arr)
    lhs = e[i + 1] ** 2 * math.comb(n, i) * math.comb(n, i + 2)
    rhs = e[i] * e[i + 2] * math.comb(n, i + 1) ** 2
    return bool(lhs >= rhs * (1.0 - _EXACT_INEQUALITY_GUARD))


def harmonic_sum_bound_check(l) -> bool:
    """Sum of reciprocals against m^2 over the sum: the endpoint of iterating
    the symmetric-function ratio inequality, with m the number of entries."""
    arr = _positive_entries(l)
    m = arr.size
    lhs = float(np.sum(1.0 / arr))
    rhs = m * m / float(np.sum(arr))
    return bool(lhs >= rhs * (1.0 - _EXACT_INEQUALITY_GUARD))


def wirtinger_check(samples, period: float, guard: float = _DISCRETE_BIAS_GUARD) -> Report:
    """Periodic Poincare inequalities for a zero-mean sample vector.

    The mean is removed, derivatives are forward differences at midpoints,
    and integrals are uniform-grid quadrature over one period.  Checks
    int f^2 <= (P^2 / 4 pi^2) int f_x^2 and max f^2 <= (P / 2 pi) int f_x^2.
    The forward-difference derivative underestimates int f_x^2 by O(h^2), so
    the verdicts allow ``guard`` relative slack; the reported ratio and gap
    are raw.  Equality in the first inequality picks out the first harmonic.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1:
        raise RejectedInputError("need a flat list of samples")
    if f.size < 16:
        raise RejectedInputError("need at least 16 samples per period")
    if not np.all(np.isfinite(f)):
        raise RejectedInputError("samples must be finite")
    if not (math.isfinite(period) and period > 0.0):
        raise RejectedInputError("period must be positive")
    if not (0.0 <= guard < 1.0):
        raise RejectedInputError("guard must lie in [0, 1)")

    f = f - f.mean()
    h = period / f.size
    df = (_shift(f, 1) - f) / h
    l2 = float(np.sum(f * f)) * h
    dl2 = float(np.sum(df * df)) * h
    sup2 = float(np.max(np.abs(f))) ** 2
    l2_bound = period * period / (4.0 * math.pi * math.pi) * dl2
    sup_bound = period / (2.0 * math.pi) * dl2
    if l2_bound > 0.0:
        ratio = l2 / l2_bound
    else:
        ratio = 1.0  # identically zero input: equality holds trivially
    return Report(
        verdicts={
            "l2_holds": l2 <= l2_bound * (1.0 + guard),
            "sup_holds": sup2 <= sup_bound * (1.0 + guard),
        },
        values={
            "l2": l2,
            "l2_derivative": dl2,
            "sup_sq": sup2,
            "l2_bound": l2_bound,
            "sup_bound": sup_bound,
            "ratio_to_bound": ratio,
            "equality_gap": 1.0 - ratio,
        },
    )


def kss2_rate_floor(L0: float) -> float:
    """Slowest admissible decay rate for the squared curvature-second-derivative
    energy on a run of initial length L0: 4 pi^4 / L0^4.  Advisory; the true
    rate only settles after an initial transient."""
    if not (math.isfinite(L0) and L0 > 0.0):
        raise RejectedInputError("need finite L0 > 0")
    return 4.0 * math.pi ** 4 / L0 ** 4


_DECAY_FIELDS = {
    DECAY_KOSC: "osc_energy",
    DECAY_KS2: "ks_norm_sq",
    DECAY_KSS2: "kss_norm_sq",
}


def decay_fit(trajectory: Sequence[TrajectoryRecord], quantity: str,
              window: Tuple[float, float]) -> DecayFit:
    """Fit A exp(-rate t) to one recorded quantity over a time window.

    Straight-line least squares on the logarithm.  Rejected when the window
    is shorter than ten record intervals, holds fewer than two records, the
    quantity is not strictly positive there, or it varies by less than one
    part in 1e6 across the window (a resolution-limited plateau has no decay
    to fit).
    """
    if quantity not in DECAY_QUANTITIES:
        raise RejectedInputError(
            f"unknown decay quantity {quantity!r}; expected one of {DECAY_QUANTITIES}"
        )
    if len(trajectory) == 0:
        raise RejectedInputError("empty trajectory")
    t0, t1 = float(window[0]), float(window[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise RejectedInputError("window must be a finite interval with t1 > t0")
    times = _record_times(trajectory)
    if times.size > 1:
        dt = float(np.median(np.diff(times)))
        if t1 - t0 <= 10.0 * dt:
            raise RejectedInputError("window must span more than ten record intervals")
    keep = (times >= t0) & (times <= t1)
    if int(keep.sum()) < 2:
        raise RejectedInputError("window holds fewer than two records")
    field = _DECAY_FIELDS[quantity]
    q = np.array([getattr(rec.metrics, field) for rec in trajectory], dtype=float)[keep]
    if np.any(q <= 0.0):
        raise RejectedInputError("quantity must be strictly positive on the window")
    if float(q.max()) <= float(q.min()) * (1.0 + _FLAT_WINDOW_REL):
        raise RejectedInputError(
            "quantity is flat on the window (resolution floor); nothing to fit"
        )
    x = times[keep]
    y = np.log(q)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return DecayFit(
        quantity=quantity,
        window=(t0, t1),
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        rms_log_residual=float(np.sqrt(np.mean(resid * resid))),
    )
