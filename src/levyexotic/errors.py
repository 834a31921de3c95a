"""Exception types shared across the pricing engine."""


class PricingError(Exception):
    """Base class for every error raised by this package."""


class InvalidModel(PricingError):
    """Model parameters violate the constraints of the chosen family."""


class StripTooNarrow(PricingError):
    """The regularity strip does not contain -i, so no martingale drift exists."""


class StripViolation(PricingError):
    """A characteristic-exponent evaluation left the open strip of regularity."""


class NoRoot(PricingError):
    """A bracketed root search failed to locate a sign change."""


class NonPositiveInput(PricingError):
    """An argument that must be positive was zero or negative."""


class NoConvergence(PricingError):
    """Quadrature refinement hit its node cap before meeting the tolerance."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NaNEncountered(PricingError):
    """An integrand returned a non-finite value."""


class DimensionTooLarge(PricingError):
    """The requested dimension exceeds the tensor-quadrature (or MVN) cap."""


class NoFeasibleOffsets(PricingError):
    """No contour offset vector satisfies the strip condition for this payoff."""


class CapExceeded(PricingError):
    """A contract exceeds a structural cap (lookback dates, compound depth)."""


class NotPSD(PricingError):
    """A correlation matrix is not positive semidefinite."""


class UnsupportedModel(PricingError):
    """The requested operation does not support this model family."""


class UnsupportedContract(PricingError):
    """The requested operation does not support this contract variant."""


class NestingTooDeep(PricingError):
    """Monte Carlo nesting of compound options is limited to depth 2."""


class SchemaError(PricingError):
    """A specification file does not match the expected JSON schema."""
