"""Time stepping for the curve diffusion flow.

The normal velocity is minus the second arclength derivative of curvature.
Written in the parametrization, that velocity splits as

    -k_ss nu  =  -gamma_ssss - k^3 nu - 3 k k_s tau,

so the default scheme treats the stiff fourth-derivative term implicitly with
its coefficient (the arclength spacing) frozen at the current step, and the
lower-order curvature terms explicitly.  Each step then solves one periodic
pentadiagonal system per coordinate.  The system is circulant, so it is
diagonal in the discrete Fourier basis and one real FFT pair solves it.
Explicit RK4 on the plain normal velocity is kept as a cross-validation
scheme; it needs dt of order (L/n)^4 and is only practical at coarse
resolution.

Vertices carry no tangential dynamics of their own.  The step moves them by
the computed velocity and then restores the uniform-in-arclength sampling by
resampling every step.  After the resample the vertices are translated a
common tiny distance along the normals so the enclosed polygon area matches
the pre-step value exactly, which pins the one conserved quantity of the flow
to rounding error instead of letting truncation error accumulate over tens of
thousands of steps.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BlowUpSignal,
    DegenerateGeometryError,
    RejectedInputError,
    SolverError,
)
from .geometry import (
    CurveMetrics,
    SampledCurve,
    SPREAD_TOL,
    _chord_lengths,
    _classified,
    _frames,
    _resample_points,
    _shift,
    _tangents,
    metrics,
    resample_uniform,
)

SCHEME_LINEARLY_IMPLICIT = "linearly-implicit"
SCHEME_EXPLICIT_RK4 = "explicit-rk4"
SCHEMES = (SCHEME_LINEARLY_IMPLICIT, SCHEME_EXPLICIT_RK4)

_MAX_EXTRA_PASSES = 3  # resample-project passes after the first; fixtures need <= 2

TRAJECTORY_FIELDS = (
    "t", "L", "A", "I", "omega", "kbar", "kosc",
    "ks2", "kss2", "kmin", "dL_dt", "dA_dt", "residual",
)


@dataclass(frozen=True)
class FlowConfig:
    """Scheme, resolution, stop conditions, and tolerances for one run.

    ``curvature_energy_ceiling`` bounds the squared L2 norm of curvature
    (arclength integral of k^2); crossing it, or any chord falling below
    ``min_segment_factor`` times the mean spacing, stops the run with a
    blow-up signal.  ``conserve_area`` toggles the exact area projection;
    switching it off exposes the raw truncation drift.
    """

    n: int = 256
    dt: float = 1e-4
    scheme: str = SCHEME_LINEARLY_IMPLICIT
    max_time: Optional[float] = None
    max_steps: Optional[int] = None
    stop_when_kosc_exceeds: Optional[float] = None
    curvature_energy_ceiling: float = 1e5
    min_segment_factor: float = 1e-3
    solve_tolerance: float = 1e-8
    conserve_area: bool = True

    def __post_init__(self):
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise RejectedInputError("dt must be a positive finite number")
        if self.n < 16:
            raise RejectedInputError("need n >= 16")
        if self.scheme not in SCHEMES:
            raise RejectedInputError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.max_time is None and self.max_steps is None:
            raise RejectedInputError(
                "no stop condition: set max_time and/or max_steps"
            )
        if self.max_time is not None and self.max_time <= 0:
            raise RejectedInputError("max_time must be positive")
        if self.max_steps is not None and self.max_steps < 0:
            raise RejectedInputError("max_steps must be >= 0")
        if self.stop_when_kosc_exceeds is not None and self.stop_when_kosc_exceeds <= 0:
            raise RejectedInputError("stop_when_kosc_exceeds must be positive")
        if self.curvature_energy_ceiling <= 0:
            raise RejectedInputError("curvature_energy_ceiling must be positive")
        if not 0.0 < self.min_segment_factor < 1.0:
            raise RejectedInputError("min_segment_factor must lie in (0, 1)")
        if self.solve_tolerance <= 0:
            raise RejectedInputError("solve_tolerance must be positive")


@dataclass(frozen=True)
class FlowState:
    curve: SampledCurve
    time: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0.0):
            raise RejectedInputError("time must be finite and >= 0")
        if self.step_index < 0:
            raise RejectedInputError("step_index must be >= 0")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics for one accepted step.

    The rate fields are backward differences across the step that produced
    this record.  ``int_dev_ks2`` and ``int_dev2_ks2`` are the arclength
    integrals of (k - kbar) k_s^2 and (k - kbar)^2 k_s^2 on the record's
    curve; they feed the oscillation-energy balance in identity_residuals
    and are not part of the serialized schema (deserialized records carry
    None there).
    """

    time: float
    metrics: CurveMetrics
    dL_dt_measured: float
    dA_dt_measured: float
    dKosc_dt_measured: float
    solver_residual: float
    int_dev_ks2: Optional[float] = None
    int_dev2_ks2: Optional[float] = None

    def __post_init__(self):
        for name in ("time", "dL_dt_measured", "dA_dt_measured",
                     "dKosc_dt_measured", "solver_residual"):
            if not math.isfinite(getattr(self, name)):
                raise RejectedInputError(f"non-finite {name} in trajectory record")
        for name in ("int_dev_ks2", "int_dev2_ks2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise RejectedInputError(f"non-finite {name} in trajectory record")


@dataclass(frozen=True)
class RunResult:
    records: Tuple[TrajectoryRecord, ...]
    final_state: FlowState
    reason: str
    detail: str = ""
    initial_metrics: Optional[CurveMetrics] = None


@dataclass(frozen=True)
class ResidualStat:
    """Max/mean of one identity's residuals, raw and scale-normalized.

    abs_* are in the identity's natural units (the area identity is divided
    by the enclosed area first).  rel_* divide by the largest term entering
    the identity at that record; records where every term is numerically
    zero contribute 0 (the identity holds trivially there).
    """

    abs_max: float
    abs_mean: float
    rel_max: float
    rel_mean: float


@dataclass(frozen=True)
class IdentityResiduals:
    area: ResidualStat
    length: ResidualStat
    average_curvature: ResidualStat
    osc_energy: ResidualStat
    record_count: int


def _solve_cyclic_pentadiagonal(c: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + c P) x = rhs with P the periodic [1,-4,6,-4,1] stencil.

    I + c P is circulant with symbol 1 + 16 c sin^4(pi j / n), so the solve
    is one division in Fourier space.  rhs may have several columns.
    """
    n = rhs.shape[0]
    symbol = 1.0 + 16.0 * c * _sin4(n)
    return np.fft.irfft(np.fft.rfft(rhs, axis=0) / symbol[:, None], n=n, axis=0)


@functools.lru_cache(maxsize=8)
def _sin4(n: int) -> np.ndarray:
    """sin^4(pi j / n) for j = 0 .. n // 2, read-only: the part of the
    solve's Fourier symbol that depends only on n."""
    table = np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 4
    table.setflags(write=False)
    return table


def _apply_cyclic_pentadiagonal(c: float, x: np.ndarray) -> np.ndarray:
    p = np.concatenate((x[-2:], x, x[:2]))
    return x + c * (
        p[:-4] - 4.0 * p[1:-3] + 6.0 * x - 4.0 * p[3:-1] + p[4:]
    )


def _implicit_advance(curve: SampledCurve, dt: float,
                      solve_tolerance: float) -> Tuple[np.ndarray, float]:
    pts = curve.vertices
    h = curve.length() / curve.n
    tau, nu, k = curve._frames_h
    ks = curve._measured[1]
    explicit = (k ** 3)[:, None] * nu + (3.0 * k * ks)[:, None] * tau
    b = pts - dt * explicit
    c = dt / h ** 4
    x = _solve_cyclic_pentadiagonal(c, b)
    gap = _apply_cyclic_pentadiagonal(c, x) - b
    # backward error: residual relative to what rounding alone must produce
    scale = float(np.abs(b).max()) + (1.0 + 16.0 * c) * float(np.abs(x).max())
    residual = float(np.abs(gap).max()) / max(scale, 1e-30)
    if not np.isfinite(residual) or residual > solve_tolerance:
        raise SolverError(
            f"implicit step residual {residual:.3e} exceeds tolerance "
            f"{solve_tolerance:.1e}"
        )
    return x, residual


def _rk4_velocity(pts: np.ndarray) -> np.ndarray:
    h = float(_chord_lengths(pts).sum()) / len(pts)
    if h <= 0 or not math.isfinite(h):
        raise DegenerateGeometryError("collapsed polygon inside RK4 stage")
    _, nu, k = _frames(pts, h)
    kp = np.concatenate((k[-1:], k, k[:1]))
    kss = (kp[2:] - 2.0 * k + kp[:-2]) / (h * h)
    return -kss[:, None] * nu


def _rk4_advance(pts: np.ndarray, dt: float) -> np.ndarray:
    k1 = _rk4_velocity(pts)
    k2 = _rk4_velocity(pts + 0.5 * dt * k1)
    k3 = _rk4_velocity(pts + 0.5 * dt * k2)
    k4 = _rk4_velocity(pts + dt * k3)
    return pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    area = 0.5 * float((pts[:, 0] * nxt_p[:, 1] - nxt_p[:, 0] * pts[:, 1]).sum())
    delta = target - area
    lin = 0.5 * float(
        (pts[:, 0] * nxt_n[:, 1] - nxt_n[:, 0] * pts[:, 1]).sum()
        + (nu[:, 0] * nxt_p[:, 1] - nxt_p[:, 0] * nu[:, 1]).sum()
    )
    quad = 0.5 * float((nu[:, 0] * nxt_n[:, 1] - nxt_n[:, 0] * nu[:, 1]).sum())
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
    return pts + alpha * nu


def _redistribute(raw: np.ndarray, state: FlowState, config: FlowConfig,
                  prev_area: float) -> SampledCurve:
    """Resample a raw polygon to config.n uniform chords, conserving area.

    The area projection runs on the raw polygon, absorbing the step's
    truncation leak, and after every resample, cancelling the resample's own
    small area change.  On curves of strong curvature contrast that last
    projection can leave the chord spread above SPREAD_TOL; resample and
    projection then repeat, at most _MAX_EXTRA_PASSES more times.
    """
    if config.conserve_area:
        try:
            raw = _project_area(raw, _chord_lengths(raw), prev_area)
        except DegenerateGeometryError as exc:
            raise BlowUpSignal(
                f"area projection failed: {exc}", last_state=state,
                reason="degenerate-geometry",
            ) from exc
    seg = _chord_lengths(raw)
    if float(seg.min()) < config.min_segment_factor * float(seg.sum() / len(seg)):
        raise BlowUpSignal(
            "a segment collapsed below the resolvable scale",
            last_state=state, reason="segment-collapse",
        )
    try:
        for _ in range(_MAX_EXTRA_PASSES + 1):
            pts, seg = _resample_points(raw, seg, config.n)
            if config.conserve_area:
                pts = _project_area(pts, seg, prev_area)
                seg = None  # the projection moved the points: measure again
            curve = _classified(pts, seg)
            if curve.is_uniform():
                return curve
            raw, seg = curve.vertices, curve.segment_lengths()
        raise DegenerateGeometryError(
            f"chord spread {curve.chord_spread():.3e} still above {SPREAD_TOL:.0e} "
            f"after {_MAX_EXTRA_PASSES} extra resample-project passes"
        )
    except (DegenerateGeometryError, RejectedInputError) as exc:
        raise BlowUpSignal(
            f"redistribution failed: {exc}", last_state=state,
            reason="degenerate-geometry",
        ) from exc


def _advance(state: FlowState, config: FlowConfig) -> Tuple[FlowState, float]:
    """One accepted step: the new state and the solve residual.

    Every quantity of a curve is read from the curve, which computes it on
    first use and keeps it, so a quantity the ceiling check or a record
    computes is not computed again by the next step.
    """
    if config.scheme == SCHEME_LINEARLY_IMPLICIT:
        raw, residual = _implicit_advance(state.curve, config.dt,
                                          config.solve_tolerance)
    else:
        raw = _rk4_advance(state.curve.vertices, config.dt)
        residual = 0.0

    if not np.isfinite(raw).all():
        raise BlowUpSignal(
            "non-finite coordinates after the step",
            last_state=state, reason="non-finite",
        )
    curve = _redistribute(raw, state, config, state.curve._area)

    # curvature-energy ceiling, the continuation criterion in reverse
    k = curve._frames_h[2]
    energy = float((k * k).sum()) * (curve.length() / curve.n)
    if energy >= config.curvature_energy_ceiling:
        raise BlowUpSignal(
            f"curvature energy {energy:.3e} reached the ceiling "
            f"{config.curvature_energy_ceiling:.3e}",
            last_state=state, reason="curvature-energy-ceiling",
        )

    new_state = FlowState(
        curve=curve,
        time=config.dt * (state.step_index + 1),
        step_index=state.step_index + 1,
    )
    return new_state, residual


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """Advance one time step, then resample to uniform chords.

    Raises SolverError on a failed linear solve and BlowUpSignal (carrying
    the last good state) on post-step degeneracy; blow-up is the expected
    exit for singular initial shapes.
    """
    if not (state.curve.is_uniform() and state.curve.n == config.n):
        state = FlowState(
            curve=resample_uniform(state.curve, config.n),
            time=state.time, step_index=state.step_index,
        )
    return _advance(state, config)[0]


def _record_for(state: FlowState, residual: float, prev: CurveMetrics,
                prev_time: float) -> TrajectoryRecord:
    """Diagnostics of state.curve, which is uniform in arclength."""
    m, ks = state.curve._measured
    h = m.length / state.curve.n
    dev = state.curve._frames_h[2] - m.average_curvature
    dt = state.time - prev_time
    return TrajectoryRecord(
        time=state.time,
        metrics=m,
        dL_dt_measured=(m.length - prev.length) / dt,
        dA_dt_measured=(m.signed_area - prev.signed_area) / dt,
        dKosc_dt_measured=(m.osc_energy - prev.osc_energy) / dt,
        solver_residual=residual,
        int_dev_ks2=float((dev * ks * ks).sum()) * h,
        int_dev2_ks2=float((dev * dev * ks * ks).sum()) * h,
    )


def run(initial: SampledCurve, config: FlowConfig,
        on_record: Optional[Callable[[FlowState, TrajectoryRecord], None]] = None
        ) -> RunResult:
    """Iterate the step until a stop condition fires.

    Returns the per-step diagnostic records, the final state, and the reason
    the run ended: max-time, max-steps, kosc-threshold, or blow-up.  On
    blow-up the records cover the accepted steps only and the final state is
    the last good one.  ``on_record`` is called with the state and record
    after each accepted step; callers use it to capture snapshots.
    """
    if not (initial.is_uniform() and initial.n == config.n):
        initial = resample_uniform(initial, config.n)
    state = FlowState(curve=initial, time=0.0, step_index=0)
    prev = metrics(initial)
    initial_metrics = prev
    prev_time = 0.0
    records: List[TrajectoryRecord] = []

    def done(reason: str, detail: str = "") -> RunResult:
        return RunResult(tuple(records), state, reason, detail, initial_metrics)

    eps = 1e-9 * config.dt
    while True:
        if config.max_steps is not None and state.step_index >= config.max_steps:
            return done("max-steps")
        if (config.max_time is not None
                and state.time + config.dt > config.max_time + eps):
            return done("max-time")
        try:
            state, residual = _advance(state, config)
            record = _record_for(state, residual, prev, prev_time)
        except BlowUpSignal as sig:
            if sig.last_state is not None:
                state = sig.last_state
            return done("blow-up", str(sig))
        records.append(record)
        if on_record is not None:
            on_record(state, record)
        prev = record.metrics
        prev_time = state.time
        if (config.stop_when_kosc_exceeds is not None
                and record.metrics.osc_energy > config.stop_when_kosc_exceeds):
            return done("kosc-threshold",
                        f"osc energy {record.metrics.osc_energy:.3e}")


def identity_residuals(trajectory: Sequence[TrajectoryRecord]) -> IdentityResiduals:
    """Centered-difference residuals of the evolution identities.

    At each interior record the report checks that the area rate vanishes,
    the length rate matches minus the squared L2 norm of k_s, the average
    curvature rate matches 2 omega pi / L^2 times that norm, and the
    oscillation-energy rate balances its production and dissipation terms.
    """
    records = list(trajectory)
    if len(records) < 3:
        raise RejectedInputError("need at least 3 trajectory records")
    for rec in records:
        if rec.int_dev_ks2 is None or rec.int_dev2_ks2 is None:
            raise RejectedInputError(
                "records lack the oscillation-balance integrals "
                "(deserialized trajectories cannot be re-checked)"
            )

    rows = []
    for j in range(1, len(records) - 1):
        lo, mid, hi = records[j - 1], records[j], records[j + 1]
        span = hi.time - lo.time
        m = mid.metrics
        dL = (hi.metrics.length - lo.metrics.length) / span
        dA = (hi.metrics.signed_area - lo.metrics.signed_area) / span
        dkbar = (hi.metrics.average_curvature - lo.metrics.average_curvature) / span
        dkosc = (hi.metrics.osc_energy - lo.metrics.osc_energy) / span

        area_scale = max(abs(m.signed_area), 1e-12 * m.length ** 2)
        area_abs = abs(dA) / area_scale

        len_resid = dL + m.ks_norm_sq
        len_terms = (abs(dL), m.ks_norm_sq)

        kbar_drive = 2.0 * m.winding_number * math.pi / m.length ** 2 * m.ks_norm_sq
        kbar_resid = dkbar - kbar_drive
        kbar_terms = (abs(dkbar), abs(kbar_drive))

        L = m.length
        kbar = m.average_curvature
        gain = (3.0 * L * mid.int_dev2_ks2
                + 6.0 * kbar * L * mid.int_dev_ks2
                + 2.0 * kbar ** 2 * L * m.ks_norm_sq)
        loss = m.osc_energy * m.ks_norm_sq / L + 2.0 * L * m.kss_norm_sq
        osc_resid = dkosc + loss - gain
        osc_terms = (abs(dkosc), m.osc_energy * m.ks_norm_sq / L,
                     2.0 * L * m.kss_norm_sq,
                     abs(3.0 * L * mid.int_dev2_ks2),
                     abs(6.0 * kbar * L * mid.int_dev_ks2),
                     abs(2.0 * kbar ** 2 * L * m.ks_norm_sq))

        rows.append((
            (area_abs, area_abs, (1.0,)),
            (len_resid, abs(len_resid), len_terms),
            (kbar_resid, abs(kbar_resid), kbar_terms),
            (osc_resid, abs(osc_resid), osc_terms),
        ))

    # rel residuals only make sense where the identity's terms rise above
    # time-differenced rounding noise; the unit scales set that bar
    span = records[-1].time - records[0].time
    unit_len = max(r.metrics.length for r in records) / span
    unit_kbar = max(abs(r.metrics.average_curvature) for r in records) / span
    unit_osc = max(max(r.metrics.osc_energy for r in records), 1.0) / span

    def stat(idx: int, unit: float) -> ResidualStat:
        abses = [row[idx][1] for row in rows]
        scales = [max(row[idx][2]) for row in rows]
        floor = max(1e-7 * max(scales), 1e-10 * unit, 1e-300)
        rels = [a / s if s >= floor else 0.0 for a, s in zip(abses, scales)]
        return ResidualStat(
            abs_max=float(max(abses)),
            abs_mean=float(np.mean(abses)),
            rel_max=float(max(rels)),
            rel_mean=float(np.mean(rels)),
        )

    return IdentityResiduals(
        area=stat(0, 0.0),
        length=stat(1, unit_len),
        average_curvature=stat(2, unit_kbar),
        osc_energy=stat(3, unit_osc),
        record_count=len(rows),
    )


def record_to_json(record: TrajectoryRecord) -> str:
    m = record.metrics
    obj = {
        "t": record.time,
        "L": m.length,
        "A": m.signed_area,
        "I": m.isoperimetric_ratio,
        "omega": m.winding_number,
        "kbar": m.average_curvature,
        "kosc": m.osc_energy,
        "ks2": m.ks_norm_sq,
        "kss2": m.kss_norm_sq,
        "kmin": m.min_curvature,
        "dL_dt": record.dL_dt_measured,
        "dA_dt": record.dA_dt_measured,
        "residual": record.solver_residual,
    }
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def write_trajectory_jsonl(records: Sequence[TrajectoryRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def read_trajectory_jsonl(path) -> List[TrajectoryRecord]:
    """Rebuild records from a serialized trajectory.

    The serialized schema carries neither the oscillation-balance integrals
    nor the oscillation rate; the rate is reconstructed by backward
    differences and the integrals come back as None, so identity_residuals
    rejects round-tripped trajectories by design.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"trajectory {path} is not UTF-8 text") from exc
    parsed = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
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
        row = {f: _number(obj, f, line_no) for f in TRAJECTORY_FIELDS}
        if parsed and not row["t"] > parsed[-1][1]["t"]:
            raise RejectedInputError(
                f"trajectory line {line_no}: time {obj['t']!r} does not "
                f"increase on line {parsed[-1][0]}"
            )
        parsed.append((line_no, row))
    records = []
    for j, (_, row) in enumerate(parsed):
        m = CurveMetrics(
            length=row["L"],
            signed_area=row["A"],
            isoperimetric_ratio=row["I"],
            winding_number=row["omega"],
            average_curvature=row["kbar"],
            osc_energy=row["kosc"],
            ks_norm_sq=row["ks2"],
            kss_norm_sq=row["kss2"],
            min_curvature=row["kmin"],
        )
        if j > 0:
            prev_row = parsed[j - 1][1]
            dkosc = (m.osc_energy - prev_row["kosc"]) / (row["t"] - prev_row["t"])
        else:
            dkosc = 0.0
        records.append(TrajectoryRecord(
            time=row["t"],
            metrics=m,
            dL_dt_measured=row["dL_dt"],
            dA_dt_measured=row["dA_dt"],
            dKosc_dt_measured=dkosc,
            solver_residual=row["residual"],
        ))
    return records


def _number(obj: dict, field: str, line_no: int):
    """Field of a trajectory line as float (int for omega; I may be null)."""
    value = obj[field]
    if field == "I" and value is None:
        return None
    try:
        return int(value) if field == "omega" else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RejectedInputError(
            f"trajectory line {line_no}: field {field!r} is not a number ({value!r})"
        ) from exc
