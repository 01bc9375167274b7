"""Exception and warning types shared across the package."""


class PolaritonError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PolaritonError, ValueError):
    """Input outside the mathematical domain of a formula."""


class PoleError(DomainError):
    """Parameters sit on (or within epsilon of) a pole of the dressing factors."""


class SingularMass(DomainError):
    """Effective mass numerically indistinguishable from zero."""


class ConfigError(PolaritonError, ValueError):
    """Invalid run or grid configuration."""


class ParseError(ConfigError):
    """Config file could not be parsed or violates the schema."""


class UnknownKey(ParseError):
    """Config file contains a key not in the schema."""


class NoBracket(PolaritonError):
    """Root bracket does not contain a sign change."""


class RegimeError(PolaritonError):
    """Requested operation lies entirely outside its model's validity window."""


class EmptyBoundary(PolaritonError):
    """No phase boundary crosses the scanned grid."""


class NoConvergence(PolaritonError):
    """Iterative solver failed to converge within its iteration budget."""


class NoCrossing(PolaritonError):
    """Scaled-gap curves do not cross in the scanned interaction range."""


class NonFinite(PolaritonError):
    """NaN or Inf encountered during time evolution."""


class DimensionOverflow(PolaritonError):
    """Requested Fock basis, NLSE grid or scan exceeds its size cap."""


class ModulationWarning(UserWarning):
    """Density modulation is large enough to strain the perturbative treatment."""
