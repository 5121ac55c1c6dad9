"""Exception types shared across the package, and the time-domain check."""

from __future__ import annotations

import math


class CutoffLabError(Exception):
    """Base class for all package-specific errors."""


class UnknownFamily(CutoffLabError):
    """The requested family name is not in the catalog."""


class InvalidRank(CutoffLabError):
    """Rank parameters outside the family's validity range."""


class WeightKindMismatch(CutoffLabError):
    """A weight does not belong to the indexing set expected here."""


class DegenerateAlphabet(CutoffLabError):
    """Eigenvalue alphabet too close to a Weyl-chamber wall for stable division."""


class HalfPartitionUnsupported(CutoffLabError):
    """Operation defined only for integer weights."""


class InvalidTime(CutoffLabError, ValueError):
    """A time parameter that is not finite or lies outside its domain."""


def require_time(t: float, allow_zero: bool = False) -> None:
    """Raise InvalidTime unless t is finite and t > 0 (t >= 0 with
    ``allow_zero``)."""
    if not math.isfinite(t) or t < 0.0 or (t == 0.0 and not allow_zero):
        domain = "t >= 0" if allow_zero else "t > 0"
        raise InvalidTime(f"time must be finite with {domain}, got {t}")


class TooLarge(CutoffLabError):
    """Requested tensor space or label table exceeds the desk-scale guard."""


class UnsupportedPattern(CutoffLabError):
    """Moment pattern outside the supported degree range."""


class UnsupportedSpace(CutoffLabError):
    """Operation not available for this family."""


class UnsupportedStatistic(CutoffLabError):
    """Statistic identifier not recognized by the estimator."""


class FieldMismatch(CutoffLabError):
    """Matrix scalar field does not match the descriptor's."""
