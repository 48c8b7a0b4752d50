"""Exception types, and the key-table checks, shared across the toolkit."""
import math
import numbers


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


def check_keys(table: dict, given: dict, owner: str) -> dict:
    """`given` over the defaults of `table` (``...``: required); ValueError naming
    a key that `table` lacks, else a required key that `given` lacks."""
    extra = sorted(set(given) - set(table))
    if extra:
        raise ValueError(f"{extra[0]} is not a parameter of {owner}; it takes {', '.join(table)}")
    merged = {**table, **given}
    missing = [key for key, val in merged.items() if val is ...]
    if missing:
        raise ValueError(f"{missing[0]} is required for {owner}")
    return merged


def finite(key: str, val, many: bool = False):
    """`val` as a float, or with `many` a list as a tuple of floats; ValueError
    naming `key` unless each value is a finite number (a bool is not)."""
    vals = val if many and isinstance(val, list) else [val]
    if many and vals is not val or not all(isinstance(v, numbers.Real) and math.isfinite(v)
                                           and not isinstance(v, bool) for v in vals):
        what = "a list of finite numbers" if many else "a finite number"
        raise ValueError(f"{key} must be {what}, got {val!r}")
    return tuple(map(float, vals)) if many else float(val)
