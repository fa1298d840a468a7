"""Optimal-strategy solvers for the three incentive models.

Each solver builds (or accepts) the attack MDP for a configuration and
returns an :class:`AttackAnalysis` carrying the utility value, the
optimal policy and the exact per-channel rates under that policy.

- :func:`solve_relative_revenue` -- ``u_A1`` (Eq. 1), reproduced in
  Table 2; compare against Alice's power share ``alpha`` (Bitcoin's
  incentive-compatible value).
- :func:`solve_absolute_reward` -- ``u_A2`` (Eq. 2), reproduced in
  Table 3; compare against ``alpha`` (honest mining's per-step income).
- :func:`solve_orphan_rate` -- ``u_A3`` (Eq. 3), reproduced in
  Table 4; compare against 1 (a 51% attacker's value in Bitcoin).

Every solve takes one path: the fallback chain of
:mod:`repro.runtime.supervisor`, with input and output validation,
under a :class:`~repro.runtime.budget.Budget` (default
:data:`~repro.runtime.budget.UNLIMITED`, which starts no clock).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.core.attack_mdp import build_attack_mdp
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.errors import ReproError, SolverDivergedError
from repro.mdp.model import MDP
from repro.mdp.policy import Policy
from repro.mdp.stationary import policy_gains
from repro.runtime.budget import UNLIMITED, Budget
from repro.runtime.fallbacks import ChainResult
from repro.runtime.supervisor import solve_average, solve_ratio
from repro.runtime.telemetry import counter_add, span


@dataclass
class AttackAnalysis:
    """Result of solving one attack configuration under one incentive
    model.

    Attributes
    ----------
    config:
        The analyzed configuration.
    model:
        The incentive model.
    utility:
        The optimal utility value (u_A1, u_A2 or u_A3).
    honest_utility:
        The utility of never attacking (the comparison baseline).
    policy:
        The optimal policy, keyed by state tuples.
    rates:
        Exact per-step rate of every reward channel under the optimal
        policy.
    solver:
        Provenance of the solve: ``{"method", "iterations",
        "transformed_solves"}`` (the fallback-chain stage that
        answered -- e.g. ``"dinkelbach"`` or ``"policy-iteration"``,
        see :mod:`repro.runtime.fallbacks` -- and what it cost).
        ``None`` on analyses loaded from artifacts that predate this
        field.
    """

    config: AttackConfig
    model: IncentiveModel
    utility: float
    honest_utility: float
    policy: Policy
    rates: Dict[str, float]
    solver: Optional[Dict[str, object]] = None

    @property
    def advantage(self) -> float:
        """Utility gained over the honest baseline."""
        return self.utility - self.honest_utility

    @property
    def profitable(self) -> bool:
        """Whether attacking beats the honest baseline (1e-6 slack)."""
        return self.advantage > 1e-6


def _prepare(config: AttackConfig, model: IncentiveModel,
             mdp: Optional[MDP]) -> tuple:
    wanted_wait = model.uses_wait
    if config.include_wait != wanted_wait:
        config = replace(config, include_wait=wanted_wait)
        mdp = None
    if mdp is None:
        mdp = build_attack_mdp(config)
    return config, mdp


def _analysis(config: AttackConfig, model: IncentiveModel, mdp: MDP,
              outcome: ChainResult, utility: float, honest_utility: float,
              transformed_solves: int) -> AttackAnalysis:
    """The analysis of the chain's answer.  The chain already checked
    the utility; the channel rates must be finite too."""
    solution = outcome.result
    rates = policy_gains(mdp, solution.policy)
    bad = {name: rate for name, rate in rates.items()
           if not np.isfinite(rate)}
    if bad:
        raise SolverDivergedError(
            f"analysis produced non-finite channel rates {bad!r}")
    return AttackAnalysis(config=config, model=model, utility=utility,
                          honest_utility=honest_utility,
                          policy=Policy(mdp, solution.policy), rates=rates,
                          solver={"method": outcome.stage,
                                  "iterations": solution.iterations,
                                  "transformed_solves": transformed_solves})


def solve_relative_revenue(config: AttackConfig,
                           mdp: Optional[MDP] = None,
                           tol: float = 1e-7,
                           budget: Budget = UNLIMITED,
                           initial_policy: Optional[np.ndarray] = None
                           ) -> AttackAnalysis:
    """Maximize Alice's relative revenue u_A1 (Eq. 1).

    ``budget`` bounds the solve (see :mod:`repro.runtime.supervisor`).
    ``initial_policy`` warm-starts the first transformed solve (e.g.
    with the optimum of an adjacent sweep cell).
    """
    with span("solve/relative"):
        counter_add("solve/relative")
        model = IncentiveModel.COMPLIANT_PROFIT
        config, mdp = _prepare(config, model, mdp)
        num, den = model.utility_channels()
        outcome = solve_ratio(mdp, num, den, lo=0.0, hi=1.0, tol=tol,
                              initial_policy=initial_policy, budget=budget)
        return _analysis(config, model, mdp, outcome, outcome.result.value,
                         config.alpha, outcome.result.transformed_solves)


def solve_absolute_reward(config: AttackConfig,
                          mdp: Optional[MDP] = None,
                          budget: Budget = UNLIMITED,
                          initial_policy: Optional[np.ndarray] = None
                          ) -> AttackAnalysis:
    """Maximize Alice's absolute per-block reward u_A2 (Eq. 2).

    Each MDP step mines exactly one block, so ``t`` in Eq. 2 equals the
    step count and u_A2 is a plain average reward.
    """
    with span("solve/absolute"):
        counter_add("solve/absolute")
        model = IncentiveModel.NONCOMPLIANT_PROFIT
        config, mdp = _prepare(config, model, mdp)
        num, _den = model.utility_channels()
        outcome = solve_average(mdp, mdp.combined_reward(dict(num)),
                                initial_policy=initial_policy,
                                budget=budget)
        return _analysis(config, model, mdp, outcome, outcome.result.gain,
                         config.alpha, 0)


def solve_orphan_rate(config: AttackConfig,
                      mdp: Optional[MDP] = None,
                      tol: float = 1e-6,
                      budget: Budget = UNLIMITED,
                      initial_policy: Optional[np.ndarray] = None
                      ) -> AttackAnalysis:
    """Maximize others' blocks orphaned per Alice block, u_A3 (Eq. 3)."""
    with span("solve/orphans"):
        counter_add("solve/orphans")
        model = IncentiveModel.NON_PROFIT
        config, mdp = _prepare(config, model, mdp)
        num, den = model.utility_channels()
        outcome = solve_ratio(mdp, num, den, lo=0.0, hi=float(config.ad),
                              tol=tol, initial_policy=initial_policy,
                              budget=budget)
        return _analysis(config, model, mdp, outcome, outcome.result.value,
                         0.0, outcome.result.transformed_solves)


def analyze(config: AttackConfig, model: IncentiveModel,
            mdp: Optional[MDP] = None, budget: Budget = UNLIMITED,
            initial_policy: Optional[np.ndarray] = None
            ) -> AttackAnalysis:
    """Dispatch to the solver matching ``model``.

    Every solve runs the fallback chain with input and output
    validation under ``budget``; ``initial_policy`` warm-starts it.
    """
    if model is IncentiveModel.COMPLIANT_PROFIT:
        return solve_relative_revenue(config, mdp, budget=budget,
                                      initial_policy=initial_policy)
    if model is IncentiveModel.NONCOMPLIANT_PROFIT:
        return solve_absolute_reward(config, mdp, budget=budget,
                                     initial_policy=initial_policy)
    if model is IncentiveModel.NON_PROFIT:
        return solve_orphan_rate(config, mdp, budget=budget,
                                 initial_policy=initial_policy)
    raise ReproError(f"unknown incentive model {model!r}")


def utility_of_policy(mdp: MDP, policy: np.ndarray,
                      model: IncentiveModel) -> float:
    """Exactly evaluate a given policy's utility under ``model``."""
    num, den = model.utility_channels()
    gains = policy_gains(mdp, policy)
    num_rate = sum(w * gains[c] for c, w in num.items())
    if not den:
        return num_rate
    den_rate = sum(w * gains[c] for c, w in den.items())
    if den_rate <= 0:
        return 0.0
    return num_rate / den_rate
