"""Exception types shared across the toolkit, and the range of a setting."""

from dataclasses import dataclass


class DiarkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(DiarkitError):
    """An operation received data that violates its preconditions."""


class FormatError(DiarkitError):
    """An input file does not match its declared format."""


class TrainingDivergedError(DiarkitError):
    """The training loss became non-finite."""


@dataclass(frozen=True)
class Interval:
    """The values lo to hi that a setting named `what` may take; `ends` marks
    each end closed ("[", "]") or open ("(", ")"). NaN lies in no interval,
    and an infinity only in one closed at that infinity."""

    what: str
    lo: float
    hi: float = float("inf")
    ends: str = "[)"

    def __contains__(self, value) -> bool:
        above = self.lo < value if self.ends[0] == "(" else self.lo <= value
        return above and (value < self.hi if self.ends[1] == ")" else value <= self.hi)

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"

    def check(self, value):
        """The value itself, when it lies in the interval."""
        if value not in self:
            raise InvalidInputError(f"{self.what} must be in {self}, got {value}")
        return value
