"""Exception types shared across the toolkit."""


class UcltError(Exception):
    """Base class for all toolkit errors."""


class EmptySupportOverlap(UcltError):
    """A moment curve has no grid point inside the requested support."""


class InvalidSupport(UcltError):
    """A generating function's support is unusable for the requested transform."""


class EmptyDomain(UcltError):
    """An extremization has an empty feasible domain."""


class EmptySpace(UcltError):
    """A metric-space operation was called on zero points."""


class TooLarge(UcltError):
    """Exhaustive search was requested above the configured size cap."""


class MissingData(UcltError):
    """A moment field lacks an entry needed by the computation."""


class OrderOverflow(UcltError):
    """A moment order raises simulated values beyond the range of a double."""


class HorizonExceeded(UcltError):
    """A simulation asked for more steps than the model's horizon."""


class MissingRun(UcltError):
    """An export was requested from a directory without completed runs."""


class ConfigError(UcltError):
    """A run configuration failed schema validation."""
