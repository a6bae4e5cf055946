"""Exception types shared across the simulator."""


class QpurifyError(Exception):
    """Base class for all qpurify errors."""


class DegenerateRoundError(QpurifyError):
    """Keep probability fell below the cutoff; the round map is undefined."""


class NoThresholdError(QpurifyError):
    """A scan range classifies into the same regime at both endpoints."""


class ProtocolHaltError(QpurifyError):
    """The Monte Carlo population is too small to form a pair of pairs."""


class ConfigError(QpurifyError):
    """A configuration document failed validation."""
