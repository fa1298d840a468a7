"""Deadlines: time-limited attacks and wall-clock solve deadlines.

Two distinct notions of "deadline" live here:

- **attack horizons** (:func:`deadline_value`): the Table 3 figures
  assume a perpetual attack; in practice attacks end -- merchants
  raise confirmation requirements, exchanges halt deposits, clients
  patch.  :func:`deadline_value` prices an attack that must stop after
  a fixed number of blocks, via backward induction over the attack
  MDP, and quantifies the deadline effect: how much of the per-block
  profit survives when the attacker has only, say, a day (144 blocks).
  Restricted to the absolute-reward utility (Eq. 2): total income over
  a horizon is a channel sum, which finite-horizon dynamic programming
  prices exactly.

- **wall-clock deadlines** (:class:`Deadline`): an absolute point on
  the monotonic clock by which a *solve* must finish.  The serving
  layer (:mod:`repro.serve`) attaches one to every request and
  propagates the *remaining* time -- not the original timeout -- into
  each retry attempt's :class:`~repro.runtime.budget.Budget`, so a
  request that burned half its time on a failed attempt gives the next
  attempt only the other half.  An expired deadline converts to a
  typed :class:`~repro.errors.SolveDeadlineError`, never a fresh
  budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.attack_mdp import build_attack_mdp
from repro.core.config import AttackConfig
from repro.core.solve import solve_absolute_reward
from repro.errors import ReproError, SolveDeadlineError
from repro.mdp.finite_horizon import backward_induction
from repro.runtime.budget import Budget


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock deadline on an injectable monotonic
    clock.

    The clock is injectable so fault-injection tests can skew it (see
    :mod:`repro.serve.chaos`); production callers use
    :func:`time.monotonic`.

    Attributes
    ----------
    expires_at:
        Absolute expiry instant in the clock's own timebase.
    clock:
        Zero-argument callable returning the current monotonic time.
    """

    expires_at: float
    clock: Callable[[], float] = field(default=time.monotonic,
                                       repr=False, compare=False)

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        if seconds <= 0:
            raise ReproError(
                f"deadline must be a positive number of seconds, "
                f"got {seconds!r}")
        return cls(expires_at=clock() + seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (never negative)."""
        return max(0.0, self.expires_at - self.clock())

    @property
    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.clock() >= self.expires_at

    def budget(self) -> Budget:
        """The remaining time as a solver :class:`Budget`.

        Raises
        ------
        SolveDeadlineError
            When the deadline already expired -- an expired deadline
            must surface as the typed timeout error, never as a
            zero-second budget (which :class:`Budget` rejects as
            malformed input, a misleading diagnosis).
        """
        left = self.remaining()
        if left <= 0:
            raise SolveDeadlineError(
                f"deadline expired {self.clock() - self.expires_at:.3f}s "
                f"ago; refusing to start a solve")
        return Budget(wall_clock=left)


@dataclass
class DeadlineAnalysis:
    """Value of an attack that must stop after ``horizon`` blocks.

    Attributes
    ----------
    config:
        The attack configuration.
    horizon:
        Attack duration in blocks.
    total_value:
        Optimal total income (block rewards + double-spends) over the
        horizon.
    per_block:
        ``total_value / horizon``.
    perpetual_rate:
        The unconstrained u_A2 for comparison.
    honest_total:
        What honest mining earns over the same horizon.
    """

    config: AttackConfig
    horizon: int
    total_value: float
    per_block: float
    perpetual_rate: float
    honest_total: float

    @property
    def deadline_efficiency(self) -> float:
        """Fraction of the perpetual per-block profit margin retained
        under the deadline (1 for long horizons, lower for short
        ones)."""
        perpetual_margin = self.perpetual_rate - self.config.alpha
        if perpetual_margin <= 0:
            return 1.0
        finite_margin = self.per_block - self.config.alpha
        return max(finite_margin, 0.0) / perpetual_margin


def deadline_value(config: AttackConfig, horizon: int) -> DeadlineAnalysis:
    """Price a time-limited non-compliant attack."""
    if horizon < 1:
        raise ReproError("horizon must be at least 1")
    config = config.with_wait(False)
    mdp = build_attack_mdp(config)
    reward = mdp.combined_reward({"alice": 1.0, "ds": 1.0})
    solution = backward_induction(mdp, reward, horizon)
    perpetual = solve_absolute_reward(config, mdp)
    total = solution.start_value
    return DeadlineAnalysis(config=config, horizon=horizon,
                            total_value=total,
                            per_block=total / horizon,
                            perpetual_rate=perpetual.utility,
                            honest_total=config.alpha * horizon)
