"""Exception hierarchy shared across the toolchain.

The CLI maps these onto its exit-code contract: input/format problems
exit 2, analysis failures (deadlock, infeasibility) exit 1, exhausted
analysis budgets exit 3.
"""


class SnnflowError(Exception):
    """Base class for all snnflow errors."""


class GraphFormatError(SnnflowError):
    """An input file could not be parsed against its documented schema.

    Covers every file the toolchain reads: graphs, spike trains and run
    configs.  Unknown keys in a run config are a :class:`ConfigError`.
    """


class GraphValidationError(SnnflowError):
    """A structural invariant of a graph is violated; message names it."""


class ConfigError(SnnflowError):
    """A run configuration is incomplete or out of range."""


class InfeasiblePartitionError(SnnflowError):
    """No partition can satisfy the crossbar constraints."""


class DeadlockError(SnnflowError):
    """Execution stalled with no fireable actor.

    ``state`` holds, from a timed run, ``tokens`` and ``space`` (``None``
    unbounded) per channel and ``starving``, each starving actor's
    reason; from :func:`snnflow.sdfg.check_deadlock`, the report's
    ``starving`` actors and its starving ``cycle``.
    """

    def __init__(self, message: str, state: dict | None = None):
        super().__init__(message)
        self.state = state or {}


class InfeasibleCapacityError(SnnflowError):
    """A channel capacity is too small for a single firing."""


class InfeasibleMappingError(SnnflowError):
    """No cluster-to-core assignment satisfies the platform capacities."""


class BudgetExceededError(SnnflowError):
    """A state/exploration budget ran out before an answer was found.

    ``partial`` may carry whatever results were completed before the
    budget ran out (e.g. a partial Pareto front) so callers can flush
    them before exiting.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
