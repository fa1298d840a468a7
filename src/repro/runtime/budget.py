"""Wall-clock and iteration budgets for solves.

A :class:`Budget` is a declarative limit; a :class:`BudgetClock` is one
enforcement run of that limit.  Solvers cooperate by calling the
clock's :meth:`~BudgetClock.tick` from their inner loops (the MDP
solvers accept an ``on_iter`` hook for exactly this), so a stalled
Dinkelbach iteration or a pathological policy-iteration run is cut off
with a typed :class:`~repro.errors.SolverBudgetExceededError` instead
of hanging a sweep indefinitely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import SolverBudgetExceededError, SolverInputError


@dataclass(frozen=True)
class Budget:
    """Limits for one supervised computation.

    Attributes
    ----------
    wall_clock:
        Maximum elapsed seconds (``None`` = unlimited).
    max_ticks:
        Maximum number of solver iterations/inner solves counted via
        :meth:`BudgetClock.tick` (``None`` = unlimited).
    """

    wall_clock: Optional[float] = None
    max_ticks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wall_clock is not None and self.wall_clock <= 0:
            raise SolverInputError(
                f"wall_clock budget must be positive, got {self.wall_clock}")
        if self.max_ticks is not None and self.max_ticks < 1:
            raise SolverInputError(
                f"max_ticks budget must be >= 1, got {self.max_ticks}")

    def start(self) -> "BudgetClock":
        """Begin enforcing this budget now."""
        return BudgetClock(self)


class BudgetClock:
    """One enforcement run of a :class:`Budget`.

    The clock is deliberately cheap: a tick is one counter increment
    and (when a wall-clock limit exists) one monotonic-clock read.
    """

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.started = time.monotonic()
        self.ticks = 0

    @property
    def elapsed(self) -> float:
        """Seconds since the clock started."""
        return time.monotonic() - self.started

    def tick(self, count: int = 1) -> None:
        """Record ``count`` units of solver work; raise when over
        budget.

        Raises
        ------
        SolverBudgetExceededError
            When either the iteration or the wall-clock limit is
            exhausted.
        """
        self.ticks += count
        limit = self.budget.max_ticks
        if limit is not None and self.ticks > limit:
            raise SolverBudgetExceededError(
                f"iteration budget exhausted ({self.ticks} > {limit})")
        wall = self.budget.wall_clock
        if wall is not None:
            elapsed = self.elapsed
            if elapsed > wall:
                raise SolverBudgetExceededError(
                    f"wall-clock budget exhausted "
                    f"({elapsed:.3f}s > {wall:.3f}s)")


#: The default budget of every solve: no limit, so no clock starts.
UNLIMITED = Budget()
