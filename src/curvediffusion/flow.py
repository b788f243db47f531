"""Time stepping for the curve diffusion flow.

The normal velocity is minus the second arclength derivative of curvature.
Written in the parametrization, that velocity splits as

    -k_ss nu  =  -gamma_ssss - k^3 nu - 3 k k_s tau,

so the step treats the stiff fourth-derivative term implicitly with its
coefficient (the arclength spacing) frozen at the current step, and the
lower-order curvature terms explicitly.  Each step then solves one periodic
pentadiagonal system per coordinate.  The system is circulant, so it is
diagonal in the discrete Fourier basis and one real FFT pair solves it.

Vertices carry no tangential dynamics of their own.  The step moves them by
the computed velocity and then restores the uniform-in-arclength sampling by
resampling every step.  After the resample the vertices are translated a
common tiny distance along the normals so the enclosed polygon area matches
the pre-step value exactly, which pins the one conserved quantity of the flow
to rounding error instead of letting truncation error accumulate over tens of
thousands of steps.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BlowUpSignal, DegenerateGeometryError, RejectedInputError
from .geometry import (
    CurveMetrics,
    SampledCurve,
    SPREAD_TOL,
    _chord_lengths,
    _cross_sum,
    _integer_arg,
    _real_arg,
    _resample_points,
    _shift,
    _tangents,
    metrics,
    resample_uniform,
)

# resample-project passes after the first: at n = 256, dt = 1e-4 the test
# fixtures and limacon offset 1.2 need <= 1, limacons 0.3 and 0.5 up to 2 and 3
_MAX_EXTRA_PASSES = 3
RESIDUAL_TOL = 1e-8     # largest backward error accepted from the implicit solve
MIN_CHORD_RATIO = 1e-3  # a raw chord below this times the mean chord is a collapse
# a step that raises L by more than this, relative, stops the run; healthy runs
# (every test fixture, limacons 1.2 and 0.3) rise by at most 2.8e-16 in a step
LENGTH_RISE_TOL = 1e-12
UNRESOLVED_KH = 1.0  # max|k|·h above which a length stop names the curve unresolved

# glibc mallopt parameters and the values _retain_freed_heap sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 2 ** 20  # the ceiling of glibc's dynamic threshold
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES  # glibc's dynamic ratio


# trajectory.jsonl schema, in file order: each key, the attribute it holds
# (of the TrajectoryRecord, or of its CurveMetrics after "metrics."), and the
# rule that reads it back, called with a name for the message and the value
_TRAJECTORY_SCHEMA = (
    ("t", "time", _real_arg),
    ("L", "metrics.length", _real_arg),
    ("A", "metrics.signed_area", _real_arg),
    ("I", "metrics.isoperimetric_ratio",
     lambda name, value: None if value is None else _real_arg(name, value)),
    ("omega", "metrics.winding_number", _integer_arg),
    ("kbar", "metrics.average_curvature", _real_arg),
    ("kosc", "metrics.osc_energy", _real_arg),
    ("ks2", "metrics.ks_norm_sq", _real_arg),
    ("kss2", "metrics.kss_norm_sq", _real_arg),
    ("kmin", "metrics.min_curvature", _real_arg),
    ("int_dev_ks2", "metrics.int_dev_ks2", _real_arg),
    ("int_dev2_ks2", "metrics.int_dev2_ks2", _real_arg),
    ("residual", "solver_residual", _real_arg),
)
TRAJECTORY_FIELDS = tuple(key for key, _, _ in _TRAJECTORY_SCHEMA)
_TRAJECTORY_GETTERS = tuple((key, attrgetter(attr))
                            for key, attr, _ in _TRAJECTORY_SCHEMA)


@dataclass(frozen=True)
class FlowConfig:
    """Resolution, time step and stop conditions for one run.

    A run stops at ``max_time`` or after ``max_steps``, whichever comes
    first, or on blow-up.  ``curvature_energy_ceiling`` bounds the squared
    L2 norm of curvature (arclength integral of k^2); crossing it, or any
    chord falling below MIN_CHORD_RATIO times the mean spacing, stops the
    run with a blow-up signal.  Every step is the linearly implicit step
    followed by the exact area projection.
    """

    n: int = 256
    dt: float = 1e-4
    max_time: Optional[float] = None
    max_steps: Optional[int] = None
    curvature_energy_ceiling: float = 1e5

    def __post_init__(self):
        # a NaN limit never compares true, so it would never stop the run;
        # max_time alone may be left unset
        for name in ("dt", "max_time", "curvature_energy_ceiling"):
            value = getattr(self, name)
            if value is not None or name != "max_time":
                _real_arg(name, value, positive=True)
        _integer_arg("n", self.n)
        if self.max_steps is not None:
            _integer_arg("max_steps", self.max_steps)
        if self.n < 16:
            raise RejectedInputError("need n >= 16")
        if self.max_time is None and self.max_steps is None:
            raise RejectedInputError(
                "no stop condition: set max_time and/or max_steps"
            )
        if self.max_steps is not None and self.max_steps < 0:
            raise RejectedInputError("max_steps must be >= 0")


@dataclass(frozen=True)
class FlowState:
    curve: SampledCurve
    time: float = 0.0
    step_index: int = 0


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics for one accepted step: its time, its curve's metrics and
    the solve residual.

    Every field is written to trajectory.jsonl, so a record read back from
    the file is the record the run made.
    """

    time: float
    metrics: CurveMetrics
    solver_residual: float

    def __post_init__(self):
        _real_arg("time", self.time)
        _real_arg("solver_residual", self.solver_residual)
        _real_arg("int_dev_ks2", self.metrics.int_dev_ks2)
        _real_arg("int_dev2_ks2", self.metrics.int_dev2_ks2)


@dataclass(frozen=True)
class RunResult:
    records: Tuple[TrajectoryRecord, ...]
    final_state: FlowState
    reason: str
    initial_metrics: CurveMetrics
    detail: str = ""


@dataclass(frozen=True)
class ResidualStat:
    """Largest of one identity's residuals, raw and scale-normalized.

    abs_max is in the identity's natural units (the area identity is divided
    by the enclosed area first).  rel_max divides by the largest term
    entering the identity at each record; records where every term is
    numerically zero contribute 0 (the identity holds trivially there).
    """

    abs_max: float
    rel_max: float


@dataclass(frozen=True)
class IdentityResiduals:
    area: ResidualStat
    length: ResidualStat
    osc_energy: ResidualStat
    record_count: int


def _solve_cyclic_pentadiagonal(c: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + c P) x = rhs with P the periodic [1,-4,6,-4,1] stencil.

    I + c P is circulant with symbol 1 + 16 c sin^4(pi j / n), so the solve
    is one division in Fourier space.  rhs may have several columns.
    """
    n = rhs.shape[0]
    symbol = 16.0 * c * _sin4(n)
    symbol += 1.0
    spectrum = np.fft.rfft(rhs.T)
    spectrum /= symbol
    return np.fft.irfft(spectrum, n=n).T


@functools.lru_cache(maxsize=8)
def _sin4(n: int) -> np.ndarray:
    """sin^4(pi j / n) for j = 0 .. n // 2, read-only: the part of the
    solve's Fourier symbol that depends only on n."""
    table = np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 4
    table.setflags(write=False)
    return table


def _apply_cyclic_pentadiagonal(c: float, x: np.ndarray) -> np.ndarray:
    p = np.concatenate((x[-2:], x, x[:2]))
    # x + c (p[:-4] - 4 p[1:-3] + 6 x - 4 p[3:-1] + p[4:]), left to right
    r = 4.0 * p[1:-3]
    np.subtract(p[:-4], r, out=r)
    term = 6.0 * x
    r += term
    np.multiply(p[3:-1], 4.0, out=term)
    r -= term
    r += p[4:]
    r *= c
    r += x
    return r


def _implicit_advance(curve: SampledCurve, dt: float) -> Tuple[np.ndarray, float]:
    pts = curve.vertices
    h = curve.length() / curve.n
    tau, nu, k = curve._frames_h
    ks = curve._ks_kss[0]
    # b = pts - dt (k^3 nu + 3 k k_s tau)
    b = (k ** 3)[:, None] * nu
    along = 3.0 * k
    along *= ks
    b += along[:, None] * tau
    b *= dt
    np.subtract(pts, b, out=b)
    c = dt / h ** 4
    x = _solve_cyclic_pentadiagonal(c, b)
    if not np.isfinite(x).all():
        raise BlowUpSignal("non-finite coordinates after the step")
    gap = _apply_cyclic_pentadiagonal(c, x)
    gap -= b
    # backward error: residual relative to what rounding alone must produce
    scale = (float(np.abs(b, out=b).max())
             + (1.0 + 16.0 * c) * float(np.abs(x).max()))
    residual = float(np.abs(gap, out=gap).max()) / max(scale, 1e-30)
    if not residual <= RESIDUAL_TOL:  # NaN included
        raise BlowUpSignal(
            f"implicit step residual {residual:.3e} exceeds tolerance "
            f"{RESIDUAL_TOL:.1e}"
        )
    return x, residual


def _project_area(pts: np.ndarray, seg: np.ndarray, target: float) -> np.ndarray:
    """Translate all vertices by a common multiple of the vertex normals so
    the shoelace area equals target exactly (to rounding); seg holds the
    chord lengths of pts.

    The area is quadratic in that multiple; the root closer to zero is taken.
    The linear coefficient is -L for a smooth closed curve, so one that is
    tiny against the polygon length means the normals cannot move the area.
    When that happens, or the quadratic has no real root, or the root is not
    finite, DegenerateGeometryError is raised.
    """
    length = float(seg.sum())
    p = np.concatenate((pts[-1:], pts, pts[:1]))
    _, nu = _tangents(p, length / len(seg))
    nxt_p = p[2:]
    nxt_n = _shift(nu, 1)
    area = 0.5 * _cross_sum(pts, nxt_p)
    delta = target - area
    lin = 0.5 * (_cross_sum(pts, nxt_n) + _cross_sum(nu, nxt_p))
    quad = 0.5 * _cross_sum(nu, nxt_n)
    disc = lin * lin + 4.0 * quad * delta
    if abs(lin) < 1e-12 * length:
        raise DegenerateGeometryError(
            f"area projection: the area's rate along the normals, {lin:.3e}, "
            f"vanishes against the polygon length {length:.3e}"
        )
    if disc < 0.0:
        raise DegenerateGeometryError(
            f"area projection: no normal displacement reaches area "
            f"{target:.6g} from {area:.6g}"
        )
    # stable small root of quad a^2 + lin a - delta = 0
    alpha = 2.0 * delta / (lin + math.copysign(math.sqrt(disc), lin))
    if not math.isfinite(alpha):
        raise DegenerateGeometryError(
            f"area projection: non-finite displacement {alpha!r}"
        )
    nu *= alpha
    nu += pts
    return nu


def _redistribute(raw: np.ndarray, n: int, prev_area: float) -> SampledCurve:
    """Resample a raw polygon to n uniform chords, conserving area.

    One area projection after every resample cancels both the step's
    truncation leak and the resample's own small area change.  On curves of
    strong curvature contrast it can leave the chord spread above SPREAD_TOL;
    resample and projection then repeat, at most _MAX_EXTRA_PASSES more times.
    """
    seg = _chord_lengths(raw)
    if float(seg.min()) < MIN_CHORD_RATIO * float(seg.sum() / len(seg)):
        raise BlowUpSignal("a segment collapsed below the resolvable scale")
    try:
        for _ in range(_MAX_EXTRA_PASSES + 1):
            pts, seg = _resample_points(raw, seg, n)
            # the projection moved the points, so the curve measures its chords
            curve = SampledCurve(_project_area(pts, seg, prev_area))
            if curve.is_uniform():
                return curve
            raw, seg = curve.vertices, curve.segment_lengths()
        raise DegenerateGeometryError(
            f"chord spread {curve.chord_spread():.3e} still above {SPREAD_TOL:.0e} "
            f"after {_MAX_EXTRA_PASSES} extra resample-project passes"
        )
    except (DegenerateGeometryError, RejectedInputError) as exc:
        raise BlowUpSignal(f"redistribution failed: {exc}") from exc


def _advance(state: FlowState, config: FlowConfig) -> Tuple[FlowState, float]:
    """One accepted step: the new state and the solve residual.

    Every quantity of a curve is read from the curve, which computes it on
    first use and keeps it, so a quantity the ceiling check or a record
    computes is not computed again by the next step.
    """
    raw, residual = _implicit_advance(state.curve, config.dt)
    curve = _redistribute(raw, config.n, state.curve._area)

    # curvature-energy ceiling, the continuation criterion in reverse
    k = curve._frames_h[2]
    energy = float((k * k).sum()) * (curve.length() / curve.n)
    if energy >= config.curvature_energy_ceiling:
        raise BlowUpSignal(
            f"curvature energy {energy:.3e} reached the ceiling "
            f"{config.curvature_energy_ceiling:.3e}"
        )
    if curve.length() > state.curve.length() * (1.0 + LENGTH_RISE_TOL):
        old = state.curve
        kh = float(np.abs(old._frames_h[2]).max()) * old.length() / old.n
        raise BlowUpSignal(
            f"length increased: unstable step took L from "
            f"{old.length():.9g} to {curve.length():.9g}"
            + (f"; unresolved: max|k|·h = {kh:.3g}" if kh > UNRESOLVED_KH else "")
        )

    new_state = FlowState(
        curve=curve,
        time=config.dt * (state.step_index + 1),
        step_index=state.step_index + 1,
    )
    return new_state, residual


@functools.cache
def _retain_freed_heap() -> None:
    """Keep the heap a step frees for the next step, once per process.

    From n of about 3000 on, a step's (n, 2) arrays are large enough that
    glibc returns the top of the heap to the kernel on their free, and the
    next step faults the same pages back in.  Raising the trim threshold
    (and fixing the mmap threshold at its dynamic ceiling, so the spline
    coefficient blocks stay on the heap) keeps them mapped.  Where the C
    library has no mallopt (macOS, Windows), nothing is done.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def run(initial: SampledCurve, config: FlowConfig,
        on_record: Optional[Callable[[FlowState, TrajectoryRecord], None]] = None
        ) -> RunResult:
    """Iterate the step until a stop condition fires.

    Returns the per-step diagnostic records, the final state, the reason
    the run ended (max-time, max-steps, or blow-up) and the metrics of the
    initial curve.  Each record measures its own step's curve only.  On
    blow-up the records cover the accepted steps only and the final state is
    the last good one.  Every step that cannot be accepted ends the run so:
    a non-finite or inaccurate solve (RESIDUAL_TOL), a failed redistribution,
    the curvature ceiling, a rise in length (LENGTH_RISE_TOL).  ``on_record``
    is called with the state and record after each accepted step; callers
    use it to capture snapshots.

    The first run() of a process raises glibc's heap trim and mmap
    thresholds for the whole process (to 64 and 32 MiB), so freed memory
    stays mapped for the next step; see _retain_freed_heap.
    """
    _retain_freed_heap()
    if not (initial.is_uniform() and initial.n == config.n):
        initial = resample_uniform(initial, config.n)
    state = FlowState(curve=initial, time=0.0, step_index=0)
    initial_metrics = metrics(initial)
    records: List[TrajectoryRecord] = []

    def done(reason: str, detail: str = "") -> RunResult:
        return RunResult(tuple(records), state, reason, initial_metrics, detail)

    eps = 1e-9 * config.dt
    while True:
        if config.max_steps is not None and state.step_index >= config.max_steps:
            return done("max-steps")
        if (config.max_time is not None
                and state.time + config.dt > config.max_time + eps):
            return done("max-time")
        try:
            state, residual = _advance(state, config)
            record = TrajectoryRecord(state.time, state.curve._measured, residual)
        except BlowUpSignal as sig:
            return done("blow-up", str(sig))
        records.append(record)
        if on_record is not None:
            on_record(state, record)


def _record_times(trajectory: Sequence[TrajectoryRecord]) -> np.ndarray:
    times = np.array([rec.time for rec in trajectory], dtype=float)
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise RejectedInputError("record times must be strictly increasing")
    return times


def osc_balance(m: CurveMetrics) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Gain and loss terms of the oscillation-energy balance of one curve,
    d kosc / dt = sum(gain) - sum(loss)."""
    L, kbar = m.length, m.average_curvature
    gain = (3.0 * L * m.int_dev2_ks2, 6.0 * kbar * L * m.int_dev_ks2,
            2.0 * kbar ** 2 * L * m.ks_norm_sq)
    return gain, (m.osc_energy * m.ks_norm_sq / L, 2.0 * L * m.kss_norm_sq)


def identity_residuals(trajectory: Sequence[TrajectoryRecord]) -> IdentityResiduals:
    """Centered-difference residuals of the evolution identities.

    At each interior record the report checks that the area rate vanishes,
    the length rate matches minus the squared L2 norm of k_s, and the
    oscillation-energy rate balances its production and dissipation terms.
    A trajectory read back by read_trajectory_jsonl is checked the same way
    as the records of the run that wrote it.  Record times must strictly
    increase.
    """
    records = list(trajectory)
    if len(records) < 3:
        raise RejectedInputError("need at least 3 trajectory records")
    _record_times(records)

    # per identity, one (residual, largest term) pair for each interior record
    area, length, osc = [], [], []
    for lo, mid, hi in zip(records, records[1:], records[2:]):
        span = hi.time - lo.time
        m = mid.metrics
        dL = (hi.metrics.length - lo.metrics.length) / span
        dA = (hi.metrics.signed_area - lo.metrics.signed_area) / span
        dkosc = (hi.metrics.osc_energy - lo.metrics.osc_energy) / span
        area.append((abs(dA) / max(abs(m.signed_area), 1e-12 * m.length ** 2), 1.0))
        length.append((abs(dL + m.ks_norm_sq), max(abs(dL), m.ks_norm_sq)))
        gain, loss = osc_balance(m)
        resid = dkosc + (loss[0] + loss[1]) - (gain[0] + gain[1] + gain[2])
        osc.append((abs(resid), max(abs(dkosc), *loss, *map(abs, gain))))

    # rel residuals only make sense where the identity's terms rise above
    # time-differenced rounding noise; the unit scales set that bar
    span = records[-1].time - records[0].time
    unit_len = max(r.metrics.length for r in records) / span
    unit_osc = max(max(r.metrics.osc_energy for r in records), 1.0) / span

    def stat(pairs, unit: float) -> ResidualStat:
        floor = max(1e-7 * max(s for _, s in pairs), 1e-10 * unit, 1e-300)
        return ResidualStat(
            abs_max=float(max(a for a, _ in pairs)),
            rel_max=float(max(a / s if s >= floor else 0.0 for a, s in pairs)))

    return IdentityResiduals(
        area=stat(area, 0.0),
        length=stat(length, unit_len),
        osc_energy=stat(osc, unit_osc),
        record_count=len(area),
    )


def record_to_json(record: TrajectoryRecord) -> str:
    obj = {key: get(record) for key, get in _TRAJECTORY_GETTERS}
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def write_trajectory_jsonl(records: Sequence[TrajectoryRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def read_trajectory_jsonl(path) -> List[TrajectoryRecord]:
    """Rebuild records from a serialized trajectory.

    Each line must hold every schema key.  A number field takes a value that
    obeys the package's real rule (geometry._is_real: a JSON int or float
    that converts to a finite float, so no bool, string, NaN, Infinity or
    int beyond float range), ``omega`` an int under the same rule (not 1.0,
    which this program never writes), and ``I`` also null.  The records
    equal those the run wrote, so identity_residuals re-checks them.  Files
    that lack the oscillation-balance integrals (the format before they were
    written) are rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"trajectory {path} is not UTF-8 text") from exc
    records: List[TrajectoryRecord] = []
    prev_line_no = 0
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int of > 4300 digits
            raise RejectedInputError(
                f"malformed trajectory line {line_no}"
            ) from exc
        if not isinstance(obj, dict):
            raise RejectedInputError(
                f"trajectory line {line_no} is not a JSON object"
            )
        missing = [f for f in TRAJECTORY_FIELDS if f not in obj]
        if missing:
            raise RejectedInputError(
                f"trajectory line {line_no} lacks fields {missing}"
            )
        of_record: dict = {}
        of_metrics: dict = {}
        for key, attr, read in _TRAJECTORY_SCHEMA:
            owner, _, name = attr.rpartition(".")
            value = read(f"trajectory line {line_no}: field {key!r}", obj[key])
            (of_metrics if owner else of_record)[name] = value
        if records and not of_record["time"] > records[-1].time:
            raise RejectedInputError(
                f"trajectory line {line_no}: time {of_record['time']!r} does "
                f"not increase on line {prev_line_no}"
            )
        records.append(TrajectoryRecord(metrics=CurveMetrics(**of_metrics),
                                        **of_record))
        prev_line_no = line_no
    return records

