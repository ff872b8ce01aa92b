"""Exception types shared across the package."""


class IpmdroError(Exception):
    """Base class for every package-specific error."""


class DimensionMismatch(IpmdroError):
    pass


class AsymmetricMetric(IpmdroError):
    pass


class TriangleInequalityViolated(IpmdroError):
    pass


class SelfLoop(IpmdroError):
    pass


class GraphDisconnected(IpmdroError):
    pass


class MissingMetric(IpmdroError):
    pass


class MissingGraph(IpmdroError):
    pass


class SingularGram(IpmdroError):
    pass


class ZeroMassMu(IpmdroError):
    pass


class HomogeneityViolated(IpmdroError):
    pass


class UnsupportedVariant(IpmdroError):
    pass


class NumericalBreakdown(IpmdroError):
    pass


class SizeCapExceeded(IpmdroError, ValueError):
    """The instance is larger than a dense encoding supports."""


class NegativeZeta(IpmdroError):
    pass


class EpsNonPositive(IpmdroError):
    pass


class EpsNegative(IpmdroError):
    pass


class UnknownDivergence(IpmdroError):
    pass


class DiscriminatorOutOfDomain(IpmdroError):
    pass


class NotEven(IpmdroError):
    pass


class NotAligned(IpmdroError):
    pass


class ConfigError(IpmdroError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""
