"""Exception types, constants and the node budget rule shared across the package."""

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
    """An exact search popped more nodes off its stack than its budget allows."""


def pops(stack: list, budget: int, search: str):
    """Pop and yield the entries of a search's explicit stack until it is empty.

    This is the budget rule of every exact search: a node is one popped entry,
    the root included, and the pop that would take the count past ``budget``
    raises BudgetExceededError instead. The caller may push onto ``stack``
    between pops."""
    for _ in range(budget):
        if not stack:
            return
        yield stack.pop()
    if stack:
        raise BudgetExceededError(f"{search} exceeded the budget of {budget} nodes")


class EmptySetError(SetFamError):
    """A piercing computation was asked to pierce an empty set."""


class GenerationError(SetFamError):
    """An instance generator exhausted its resampling budget."""
