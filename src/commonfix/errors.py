"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`CommonFixError`, so callers can catch the whole family with one
``except`` clause while still distinguishing the precise failure mode.
"""

from __future__ import annotations


class CommonFixError(Exception):
    """Base class for all errors raised by this package."""


class DomainViolation(CommonFixError):
    """A point lies outside the admissible set required by an operation."""


class LengthMismatch(CommonFixError):
    """Paired collections (weights/points, families/schedules) disagree in length."""


class WeightSumViolation(CommonFixError):
    """Convex weights are not all positive or do not sum to one within 1e-12."""


class InfeasibleSchedule(CommonFixError):
    """No weight assignment satisfies both the simplex and the box constraint."""


class NotAFixedPoint(CommonFixError):
    """A purported fixed point moves under a family member beyond tolerance."""


class ParseError(CommonFixError):
    """An experiment configuration file is not syntactically valid JSON."""


class ValidationError(CommonFixError):
    """An experiment configuration parsed but violates its constraints.

    ``violations`` lists every violated constraint, not only the first,
    so a bad configuration can be repaired in one pass.
    """

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
