"""Error taxonomy shared by all modules.

Distinguishable failure kinds, coarsest split first: bad input versus bad
state versus the one expected signal (blow-up) that is not a failure at all
but the detector for finite-time singularities.
"""


class CurveDiffusionError(Exception):
    """Base class for everything raised on purpose by this package."""


class RejectedInputError(CurveDiffusionError, ValueError):
    """Arguments violate a documented precondition (wrong count, sign, enum)."""


class DegenerateGeometryError(CurveDiffusionError, ValueError):
    """Curve too degenerate to operate on (collapsed length, non-integer turning)."""


class NonUniformParametrizationError(CurveDiffusionError, ValueError):
    """Caller contract: the operation needs a uniform-in-arclength curve.

    Resample with ``resample_uniform`` first.
    """


class BlowUpSignal(CurveDiffusionError, RuntimeError):
    """A step the flow cannot accept: curvature or mesh degeneration
    consistent with finite-time blow-up, a rise in length, or a solve that
    failed its residual check.

    Carries only its message: the step that raises it leaves the state it
    was given untouched, and that state is the last good one.  The run loop
    treats this as an expected branch, not an error.
    """
