"""Threshold constants, admissibility checks, and inequality verdicts.

Pure functions over sampled curves and recorded trajectories.  Ops that
return a :class:`Report` carry named boolean verdicts together with the
numbers they were decided on, so callers can serialize or render either.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import RejectedInputError
from .flow import _TRAJECTORY_GETTERS, TrajectoryRecord, _record_times
from .geometry import SampledCurve, CurveMetrics, _integer_arg, _real_arg, metrics
from .geometry import _real_array, _require_uniform, _row_norms, _shift

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
_LYAPUNOV_SLACK = 1e-9            # rounding slack for an order-one Lyapunov value
_ON_TRACE_REL = 1e-6              # on-trace tolerance for a point, relative to L


@dataclass(frozen=True)
class Report:
    """Boolean verdicts plus the numeric evidence behind them."""

    verdicts: Dict[str, bool]
    values: Dict[str, float]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit A exp(-rate t) to one trajectory quantity."""

    quantity: str
    window: Tuple[float, float]
    rate: float
    amplitude: float
    rms_log_residual: float


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


def isoperimetric_limit() -> float:
    """Isoperimetric-ratio ceiling exp(kstar() / 8 pi^2) for admissibility."""
    return math.exp(kstar() / (8.0 * math.pi * math.pi))


def check_hypotheses(m: CurveMetrics) -> Report:
    """Decide whether an initial curve qualifies for the circle-convergence result.

    Requires oscillation energy below kstar(), isoperimetric ratio below
    exp(kstar()/8 pi^2), winding number one, and positive enclosed area;
    ``admissible`` is the conjunction of those four verdicts.  The values
    are ``kosc0``, ``kstar``, ``iso_limit`` and, when the enclosed area is
    large enough to define the ratio, ``iso0``.  Pass ``metrics(curve)`` for
    a curve, which must be uniform in arclength.
    """
    ks = kstar()
    iso_limit = isoperimetric_limit()
    verdicts = {
        "kosc_ok": m.osc_energy < ks,
        "iso_ok": (m.isoperimetric_ratio is not None
                   and m.isoperimetric_ratio < iso_limit),
        "winding_ok": m.winding_number == 1,
        "area_ok": m.signed_area > 0.0,
    }
    verdicts["admissible"] = all(verdicts.values())
    values = {"kosc0": m.osc_energy, "kstar": ks, "iso_limit": iso_limit}
    if m.isoperimetric_ratio is not None:
        values["iso0"] = m.isoperimetric_ratio
    return Report(verdicts=verdicts, values=values)


def _in_range(name: str, value: float, formula: str,
              evaluate: Callable[[], float]) -> float:
    """evaluate(), the value of ``formula`` at the argument ``name``, refused
    by that name where it leaves float range: an overflow, or a division by
    a power that underflows."""
    try:
        result = evaluate()
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    if math.isinf(result):  # a subnormal divisor gives inf, not an error
        raise RejectedInputError(
            f"{name} must keep {formula} within float range, got {value!r}")
    return result


def waiting_time_bound(L0: float, A0: float) -> float:
    """(L0 / 2 pi)^4 - (A0 / pi)^2: a cap on how long curvature can dip nonpositive.

    Zero exactly for a round circle.  Negative only when (L0, A0) violate the
    isoperimetric inequality, which no plane curve can; such inputs are let
    through with a warning so callers can see the inconsistency.
    """
    L0, A0 = _real_arg("L0", L0, positive=True), _real_arg("A0", A0)
    lead = _in_range("L0", L0, "(L0 / 2 pi)^4", lambda: (L0 / (2.0 * math.pi)) ** 4)
    bound = lead - _in_range("A0", A0, "(A0 / pi)^2", lambda: (A0 / math.pi) ** 2)
    if bound < 0.0:
        warnings.warn(
            "negative waiting bound: inputs violate the isoperimetric inequality",
            RuntimeWarning, stacklevel=2,
        )
    return bound


def _median_interval(times: np.ndarray) -> float:
    """Median of the intervals between two or more record times: the middle
    sorted interval, or the mean of the two middle ones for an even count."""
    gaps = np.sort(times[1:] - times[:-1])
    mid = gaps.size // 2
    if gaps.size % 2:
        return float(gaps[mid])
    return float((gaps[mid - 1] + gaps[mid]) / 2.0)


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
    dt = _median_interval(_record_times(trajectory))
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


def smallness_propagation_check(trajectory: Sequence[TrajectoryRecord]) -> Report:
    """Check the two consequences of admissible initial data along a run.

    The oscillation energy must stay at or below twice kstar() at every
    record, and the Lyapunov quantity K_osc + 8 pi^2 log L must never
    increase between records.  _LYAPUNOV_SLACK scales the absolute tolerance
    for the monotonicity comparison; it absorbs rounding in runs whose
    Lyapunov value is order one while staying far below any real violation.
    Inadmissible first records are rejected.
    """
    if len(trajectory) == 0:
        raise RejectedInputError("empty trajectory")
    if not check_hypotheses(trajectory[0].metrics).verdicts["admissible"]:
        raise RejectedInputError(
            "first record is not admissible; the propagation bound does not apply"
        )
    times = _record_times(trajectory)
    kosc = np.array([rec.metrics.osc_energy for rec in trajectory], dtype=float)
    length = np.array([rec.metrics.length for rec in trajectory], dtype=float)
    threshold = 2.0 * kstar()
    lyapunov = kosc + 8.0 * math.pi * math.pi * np.log(length)
    tol = _LYAPUNOV_SLACK * max(1.0, float(np.max(np.abs(lyapunov))))

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

    Negative values (such as m = 1, w = 1) constrain nothing.  A term beyond
    float range is refused by the name of its argument.
    """
    if _integer_arg("multiplicity", m) < 1:
        raise RejectedInputError(f"multiplicity must be an integer >= 1, got {m!r}")
    w = float(_integer_arg("winding number", omega))
    lead = _in_range("multiplicity", m, "16 m^2", lambda: 16.0 * float(m) * float(m))
    return lead - _in_range("winding number", omega, "4 w^2 pi^2",
                            lambda: 4.0 * w * w * math.pi * math.pi)


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


def density_integral(curve: SampledCurve, point) -> float:
    """Multiplicity of a point on the trace, read off a curvature integral.

    After translating ``point`` to the origin, the integral of
    (k^2 - k0^2) |p| over arclength, with k0 = |2 <p, normal> / |p|^2 + k|,
    equals 8 times the number of preimages of the point.  The integrand is
    continuous through the origin but its discrete evaluation is noisy where
    |p| is a few vertex spacings, so samples inside a cutoff of 3 L / n are
    dropped and the cutoff is extrapolated to zero by evaluating at the
    cutoff and at twice it (Richardson in the cutoff radius).

    ``point`` must lie within _ON_TRACE_REL times L of the trace.
    """
    _require_uniform(curve, "density_integral")
    p = _real_array("point", point)
    if p.shape != (2,):
        raise RejectedInputError("point must be a finite pair of coordinates")
    L = curve.length()
    epsilon = _ON_TRACE_REL * L
    v = curve.vertices
    q = v - p[None, :]
    # distance to the polyline through the point's clamped foot on each edge
    edge = _shift(v, 1) - v
    t = -np.einsum("ij,ij->i", q, edge) / np.einsum("ij,ij->i", edge, edge)
    t = np.clip(t, 0.0, 1.0)
    gap = float(_row_norms(p - (v + t[:, None] * edge)).min())
    if gap > epsilon:
        raise RejectedInputError(
            f"point is {gap:.3e} from the trace, beyond the tolerance {epsilon:.3e}"
        )

    h = L / curve.n
    _, nu, k = curve._frames_h
    r = _row_norms(q)
    proj = np.einsum("ij,ij->i", q, nu)
    cut = 3.0 * h
    keep = r >= cut
    rr, kk = r[keep], k[keep]
    k0 = 2.0 * proj[keep] / (rr * rr) + kk
    integrand = (kk * kk - k0 * k0) * rr
    # r >= 2 cut keeps a subset of these values in order, so its sum is the
    # one a pass built at that cutoff would give
    near = float(integrand.sum()) * h
    far = float(integrand[rr >= 2.0 * cut].sum()) * h
    return 2.0 * near - far


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
    arr = _real_array("entries", l, positive=True)
    if arr.ndim != 1 or arr.size == 0:
        raise RejectedInputError("need a nonempty flat list of entries")
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
    if not 0 <= _integer_arg("index", i) <= n - 2:
        raise RejectedInputError(
            f"index must be an integer in [0, {n - 2}], got {i!r}")
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


def wirtinger_check(samples, period: float) -> Report:
    """Periodic Poincare inequalities for a zero-mean sample vector.

    The mean is removed, derivatives are forward differences at midpoints,
    and integrals are uniform-grid quadrature over one period.  Checks
    int f^2 <= (P^2 / 4 pi^2) int f_x^2 and max f^2 <= (P / 2 pi) int f_x^2.
    The forward-difference derivative underestimates int f_x^2 by O(h^2), so
    the verdicts allow _DISCRETE_BIAS_GUARD relative slack; the reported
    ratio and gap are raw.  Equality in the first inequality picks out the
    first harmonic.  Neither inequality depends on the period's scale, so
    the verdicts are decided at unit spacing.
    """
    f = _real_array("samples", samples)
    if f.ndim != 1:
        raise RejectedInputError("need a flat list of samples")
    if f.size < 16:
        raise RejectedInputError("need at least 16 samples per period")
    period = _real_arg("period", period, positive=True)

    f = f - f.mean()
    n = f.size
    df = _shift(f, 1) - f
    # at unit spacing; the spacing h = period / n scales l2 and l2_bound by
    # h and dl2 by 1 / h, and leaves sup_bound as it is
    l2 = float(np.sum(f * f))
    dl2 = float(np.sum(df * df))
    sup2 = float(np.max(np.abs(f))) ** 2
    l2_bound = n * n / (4.0 * math.pi * math.pi) * dl2
    sup_bound = n / (2.0 * math.pi) * dl2
    if l2_bound > 0.0:
        ratio = l2 / l2_bound
    else:
        ratio = 1.0  # identically zero input: equality holds trivially
    h = period / n
    return Report(
        verdicts={
            "l2_holds": l2 <= l2_bound * (1.0 + _DISCRETE_BIAS_GUARD),
            "sup_holds": sup2 <= sup_bound * (1.0 + _DISCRETE_BIAS_GUARD),
        },
        values={
            "l2": l2 * h,
            "l2_derivative": dl2 / h,
            "sup_sq": sup2,
            "l2_bound": l2_bound * h,
            "sup_bound": sup_bound,
            "ratio_to_bound": ratio,
            "equality_gap": 1.0 - ratio,
        },
    )


def kss2_rate_floor(L0: float) -> float:
    """Slowest admissible decay rate for the squared curvature-second-derivative
    energy on a run of initial length L0: 4 pi^4 / L0^4.  Advisory; the true
    rate only settles after an initial transient."""
    L0 = _real_arg("L0", L0, positive=True)
    return _in_range("L0", L0, "4 pi^4 / L0^4", lambda: 4.0 * math.pi ** 4 / L0 ** 4)


def decay_fit(trajectory: Sequence[TrajectoryRecord], quantity: str,
              window: Tuple[float, float]) -> DecayFit:
    """Fit A exp(-rate t) to one recorded quantity over a time window.

    Straight-line least squares on the logarithm, in closed form about the
    means: slope = sum (x - xbar)(y - ybar) / sum (x - xbar)^2 and
    intercept = ybar - slope xbar, so no solver is called.  Rejected when
    the window is shorter than ten record intervals, holds fewer than two
    records, the quantity is not strictly positive there, or it varies by
    less than one part in 1e6 across the window (a resolution-limited
    plateau has no decay to fit).
    """
    if quantity not in DECAY_QUANTITIES:
        raise RejectedInputError(
            f"unknown decay quantity {quantity!r}; expected one of {DECAY_QUANTITIES}"
        )
    if len(trajectory) == 0:
        raise RejectedInputError("empty trajectory")
    w = _real_array("window", window)
    if w.shape != (2,) or not w[1] > w[0]:
        raise RejectedInputError("window must be a finite interval with t1 > t0")
    t0, t1 = float(w[0]), float(w[1])
    times = _record_times(trajectory)
    if times.size > 1:
        dt = _median_interval(times)
        if t1 - t0 <= 10.0 * dt:
            raise RejectedInputError("window must span more than ten record intervals")
    keep = (times >= t0) & (times <= t1)
    if int(keep.sum()) < 2:
        raise RejectedInputError("window holds fewer than two records")
    get = dict(_TRAJECTORY_GETTERS)[quantity]
    q = np.array([get(rec) for rec in trajectory], dtype=float)[keep]
    if np.any(q <= 0.0):
        raise RejectedInputError("quantity must be strictly positive on the window")
    if float(q.max()) <= float(q.min()) * (1.0 + _FLAT_WINDOW_REL):
        raise RejectedInputError(
            "quantity is flat on the window (resolution floor); nothing to fit"
        )
    x = times[keep]
    y = np.log(q)
    x_mean, y_mean = float(x.mean()), float(y.mean())
    xc, yc = x - x_mean, y - y_mean
    slope = float((xc * yc).sum() / (xc * xc).sum())
    intercept = y_mean - slope * x_mean
    resid = yc - slope * xc
    return DecayFit(
        quantity=quantity,
        window=(t0, t1),
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        rms_log_residual=float(np.sqrt(np.mean(resid * resid))),
    )
