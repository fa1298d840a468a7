"""Budgeted, validated execution of every MDP solve.

Every solve of :mod:`repro.core.solve` runs through one of two
functions, :func:`solve_ratio` or :func:`solve_average`, which give
three guarantees the bare solvers do not:

- **bounded**: the solve runs under a
  :class:`~repro.runtime.budget.Budget` (wall-clock seconds and/or
  solver iterations), enforced cooperatively through the solvers'
  ``on_iter`` hooks, so a numerical stall raises
  :class:`~repro.errors.SolverBudgetExceededError` instead of hanging;
  the default :data:`~repro.runtime.budget.UNLIMITED` starts no clock;
- **validated**: inputs are checked before solving (stochastic rows
  via the MDP's own validator, finite reward channels) and outputs
  after (finite gains/ratios, policy availability), so garbage raises
  a typed :class:`~repro.errors.SolverError` subclass instead of
  propagating NaNs into result tables;
- **recoverable**: each solve runs through the fallback chains of
  :mod:`repro.runtime.fallbacks`; the returned
  :class:`~repro.runtime.fallbacks.ChainResult` names the stage that
  answered and carries the diagnostics of every stage attempted.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.errors import (
    SolverBudgetExceededError,
    SolverDivergedError,
    SolverError,
    SolverInputError,
)
from repro.mdp.model import MDP
from repro.runtime.budget import UNLIMITED, Budget
from repro.runtime.telemetry import counter_add, span
from repro.runtime.fallbacks import (
    AVERAGE_CHAIN,
    RATIO_CHAIN,
    AverageRequest,
    ChainResult,
    RatioRequest,
    run_chain,
)


def _check_mdp(mdp: MDP) -> None:
    # Re-run the structural validator (row-stochastic transitions,
    # every state has an action) -- callers may have built the MDP
    # with validate=False or mutated its arrays since construction.
    mdp._validate()
    for name, reward in mdp.rewards.items():
        if not np.all(np.isfinite(reward)):
            raise SolverInputError(
                f"reward channel {name!r} contains non-finite values")


def _check_policy(mdp: MDP, policy: np.ndarray, label: str) -> None:
    if not mdp.valid_policy(policy):
        raise SolverError(
            f"{label} produced a policy selecting unavailable actions")


def solve_ratio(mdp: MDP, num: Mapping[str, float],
                den: Mapping[str, float], lo: float, hi: float,
                tol: float = 1e-7, max_iter: int = 80,
                initial_policy: Optional[np.ndarray] = None,
                budget: Budget = UNLIMITED) -> ChainResult:
    """Maximize ``gain(num)/gain(den)`` through :data:`RATIO_CHAIN`;
    the result is a :class:`~repro.mdp.ratio.RatioSolution`."""
    _check_mdp(mdp)
    request = RatioRequest(mdp=mdp, num=num, den=den, lo=lo, hi=hi,
                           tol=tol, max_iter=max_iter,
                           initial_policy=initial_policy)
    outcome = _run(RATIO_CHAIN, request, budget)
    if not np.isfinite(outcome.result.value):
        raise SolverDivergedError(
            f"ratio solve returned non-finite value "
            f"{outcome.result.value!r}")
    _check_policy(mdp, outcome.result.policy,
                  f"ratio stage {outcome.stage!r}")
    return outcome


def solve_average(mdp: MDP, reward: np.ndarray,
                  initial_policy: Optional[np.ndarray] = None,
                  max_iter: int = 1000,
                  budget: Budget = UNLIMITED) -> ChainResult:
    """Maximize an average reward through :data:`AVERAGE_CHAIN`; the
    result is an :class:`~repro.mdp.policy_iteration.\
AverageRewardSolution`."""
    _check_mdp(mdp)
    reward = np.asarray(reward, dtype=float)
    if not np.all(np.isfinite(reward)):
        raise SolverInputError(
            "combined reward array contains non-finite values")
    request = AverageRequest(mdp=mdp, reward=reward,
                             initial_policy=initial_policy,
                             max_iter=max_iter)
    outcome = _run(AVERAGE_CHAIN, request, budget)
    if not np.isfinite(outcome.result.gain):
        raise SolverDivergedError(
            f"average-reward solve returned non-finite gain "
            f"{outcome.result.gain!r}")
    _check_policy(mdp, outcome.result.policy,
                  f"average stage {outcome.stage!r}")
    return outcome


def _run(chain, request, budget: Budget) -> ChainResult:
    clock = None if budget == UNLIMITED else budget.start()
    counter_add("supervisor/solves")
    try:
        with span("supervised-solve"):
            return run_chain(chain, request, clock)
    except SolverBudgetExceededError as exc:
        # Record which chain step the budget cut off -- post-mortems
        # need the stage, not just the fact of the timeout.
        failed = getattr(exc, "diagnostics", None)
        if failed:
            counter_add(f"supervisor/cancelled/{failed[-1].stage}")
        raise
