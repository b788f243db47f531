"""Curve diffusion flow of closed plane curves.

Semi-implicit solver for the fourth-order flow with normal velocity equal to
minus the second arclength derivative of curvature, plus the analysis layer
that certifies conservation identities, smallness conditions, and the
inequality toolbox around them.
"""

from .errors import (
    BlowUpSignal,
    CurveDiffusionError,
    DegenerateGeometryError,
    NonUniformParametrizationError,
    RejectedInputError,
    SolverError,
)
from .geometry import (
    CurveMetrics,
    SampledCurve,
    ShapeSpec,
    curvature_derivatives,
    curvature_profile,
    curve_integral,
    generate,
    hausdorff_distance,
    metrics,
    read_curve_csv,
    resample_uniform,
    signed_area,
    turning_number,
    write_curve_csv,
)
from .flow import (
    FlowConfig,
    FlowState,
    IdentityResiduals,
    ResidualStat,
    RunResult,
    TrajectoryRecord,
    identity_residuals,
    read_trajectory_jsonl,
    record_to_json,
    run,
    step,
    write_trajectory_jsonl,
)
from .intersections import (
    Crossing,
    CrossingSet,
    crossing_set_to_json,
    find_crossings,
    is_embedded,
)
from .analysis import (
    DecayFit,
    Report,
    check_hypotheses,
    decay_fit,
    density_integral,
    embeddedness_certificate,
    general_smallness_threshold,
    harmonic_sum_bound_check,
    isoperimetric_limit,
    kss2_rate_floor,
    kstar,
    l1_energy_check,
    multiplicity_bound,
    newton_ratio_check,
    positivity_waiting_measure,
    report_to_json,
    smallness_propagation_check,
    waiting_time_bound,
    wirtinger_check,
)

__version__ = "0.1.0"
