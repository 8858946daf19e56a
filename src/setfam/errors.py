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


class Budget:
    """The nodes one public search call may still pop. A call that runs
    several searches creates one and hands it to each, so they all draw
    from the call's ``budget``; ``pops`` is the only place that spends it."""

    __slots__ = ("nodes", "left")

    def __init__(self, nodes: int) -> None:
        self.nodes = self.left = nodes


def pops(stack: list, budget: int | Budget, search: str):
    """Pop and yield the entries of a search's explicit stack until it is empty.

    This is the budget rule of every exact search: a node is one popped entry,
    the root included, and the pop that would take the nodes of all the
    searches a public call runs past the call's budget raises
    BudgetExceededError instead, so a budget of zero or less stops the first
    pop. ``budget`` is an int for a call that runs one search, or the Budget
    a call shares among its searches. The caller may push onto ``stack``
    between pops."""
    if not isinstance(budget, Budget):
        budget = Budget(budget)
    while stack:
        if budget.left <= 0:
            raise BudgetExceededError(f"{search} exceeded the budget of {budget.nodes} nodes")
        budget.left -= 1
        yield stack.pop()


class EmptySetError(SetFamError):
    """A piercing computation was asked to pierce an empty set."""


class GenerationError(SetFamError):
    """An instance generator exhausted its resampling budget."""
