"""Exception types and constants shared across the package."""

from __future__ import annotations

# Node budget of every exact search unless the caller passes its own.
DEFAULT_BUDGET = 10**7
# The version every report is written with and ``verify`` accepts.
SCHEMA_VERSION = "v1"


class SetFamError(Exception):
    """Base class for all package-specific errors."""


class FamilyFormatError(SetFamError):
    """A family file could not be parsed. Carries a location when known."""

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        column: int | None = None,
        where: str | None = None,
    ) -> None:
        self.line = line
        self.column = column
        self.where = where
        super().__init__(message)

    def __str__(self) -> str:
        loc = []
        if self.line is not None:
            loc.append(f"line {self.line}")
        if self.column is not None:
            loc.append(f"column {self.column}")
        if self.where is not None:
            loc.append(self.where)
        prefix = ", ".join(loc)
        base = super().__str__()
        return f"{prefix}: {base}" if prefix else base


class ReportFormatError(FamilyFormatError):
    """A report, or a chain in one, is malformed; ``where`` is the JSON path of the fault."""


class BudgetExceededError(SetFamError):
    """An exact search refused to start, or was cut off, by its node budget."""


class EmptySetError(SetFamError):
    """A piercing computation was asked to pierce an empty set."""


class GenerationError(SetFamError):
    """An instance generator exhausted its resampling budget."""
