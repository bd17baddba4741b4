"""Exception hierarchy for abrplan."""


class AbrPlanError(Exception):
    """Base class for all abrplan errors."""
    exit_code = 4  # CLI exit status; subclasses override it (2 infeasible, 3 trace I/O)


class InvalidScheduleError(AbrPlanError):
    """A transmission schedule used bits it could not have (e.g. on a
    zero-capacity slot, or more than the slot's volume)."""


class InfeasiblePlanError(AbrPlanError):
    """Strict evaluation of a (threshold, plan) pair hit a stall or an
    incomplete delivery."""
    exit_code = 2


class NoFeasibleSessionError(AbrPlanError):
    """Even the lowest-quality greedy session cannot be streamed without a
    stall on the given capacity window."""
    exit_code = 2


class InfeasiblePartError(NoFeasibleSessionError):
    """One part of a stall-partitioned session is infeasible.

    ``part_index`` is the 0-based index of the failing part.
    """

    def __init__(self, part_index: int, message: str = ""):
        self.part_index = part_index
        super().__init__(message or f"part {part_index} of the partitioned session is infeasible")


class OracleBudgetError(AbrPlanError):
    """The exhaustive planner refused an instance whose search tree exceeds
    the configured node budget."""


class TraceFormatError(AbrPlanError):
    """A trace CSV file does not match the expected export format."""
    exit_code = 3
