"""Tests for the solver front-ends."""

import numpy as np
import pytest

from repro.core.attack_mdp import build_attack_mdp
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.core.solve import (
    analyze,
    solve_absolute_reward,
    solve_orphan_rate,
    solve_relative_revenue,
    utility_of_policy,
)
from repro.errors import SolverBudgetExceededError, SolverInputError
from repro.runtime import supervisor
from repro.runtime.budget import Budget
from repro.runtime.fallbacks import AVERAGE_CHAIN, RATIO_CHAIN


def cfg(**kwargs):
    defaults = dict(alpha=0.25, beta=0.375, gamma=0.375, setting=1)
    defaults.update(kwargs)
    return AttackConfig(**defaults)


def test_analyze_dispatch():
    config = cfg()
    for model in IncentiveModel:
        result = analyze(config, model)
        assert result.model is model
        assert result.utility >= 0


def test_solvers_toggle_wait_automatically():
    config = cfg(include_wait=False)
    result = solve_orphan_rate(config)
    assert result.config.include_wait
    assert "Wait" in result.policy.mdp.actions
    config2 = cfg(include_wait=True)
    result2 = solve_relative_revenue(config2)
    assert not result2.config.include_wait


def test_environment_does_not_steer_the_solve(monkeypatch):
    """Variables that once selected the ratio method and the solve
    engine are ignored: the relative-revenue solve stays Dinkelbach
    and returns the same utility."""
    config = cfg()
    clean = analyze(config, IncentiveModel.COMPLIANT_PROFIT)
    monkeypatch.setenv("REPRO_RATIO_METHOD", "pto")
    monkeypatch.setenv("REPRO_ENGINE", "approx")
    steered = analyze(config, IncentiveModel.COMPLIANT_PROFIT)
    assert steered.solver["method"] == "dinkelbach"
    assert steered.utility == clean.utility
    assert steered.solver == clean.solver


FIRST_STAGE = {IncentiveModel.COMPLIANT_PROFIT: "dinkelbach",
               IncentiveModel.NONCOMPLIANT_PROFIT: "policy-iteration",
               IncentiveModel.NON_PROFIT: "dinkelbach"}


@pytest.mark.parametrize("model", list(IncentiveModel))
def test_provenance_names_the_answering_stage(monkeypatch, model):
    """``solver["method"]`` is the chain stage that answered, also for
    the ratio models, where ``RatioSolution.method`` says
    ``"bisection"`` for the value-iteration and LP stages."""
    monkeypatch.setattr(supervisor, "RATIO_CHAIN", RATIO_CHAIN[2:])
    monkeypatch.setattr(supervisor, "AVERAGE_CHAIN", AVERAGE_CHAIN[1:])
    config = AttackConfig.from_ratio(0.10, (1, 1), setting=1)
    result = analyze(config, model)
    assert result.solver["method"] == "value-iteration"
    exact = utility_of_policy(result.policy.mdp,
                              result.policy.action_indices,
                              model)
    assert result.utility == pytest.approx(exact, abs=1e-5)


@pytest.mark.parametrize("model", list(IncentiveModel))
def test_budget_bounds_every_solve(model):
    """Every solve runs under the budget it is given; the error names
    the chain stage it cut off."""
    with pytest.raises(SolverBudgetExceededError) as info:
        analyze(cfg(), model, budget=Budget(max_ticks=1))
    assert info.value.diagnostics[-1].stage == FIRST_STAGE[model]


def test_nonfinite_reward_is_an_input_error():
    """A NaN reward is rejected before any solver runs, for the ratio
    and the average-reward model alike."""
    config = AttackConfig.from_ratio(0.25, (2, 3), setting=1)
    mdp = build_attack_mdp(config, cache=False)
    action, state = np.argwhere(mdp.available)[0]
    mdp.rewards["alice"][action, state] = np.nan
    with pytest.raises(SolverInputError, match="alice"):
        solve_relative_revenue(config, mdp)
    with pytest.raises(SolverInputError, match="alice"):
        solve_absolute_reward(config, mdp)


def test_prebuilt_mdp_reused():
    config = cfg()
    mdp = build_attack_mdp(config)
    result = solve_relative_revenue(config, mdp)
    assert result.policy.mdp is mdp


def test_rates_are_consistent_with_utility():
    config = cfg()
    result = solve_relative_revenue(config)
    ratio = result.rates["alice"] / (result.rates["alice"]
                                     + result.rates["others"])
    assert ratio == pytest.approx(result.utility, abs=1e-6)


def test_absolute_reward_decomposes():
    config = cfg()
    result = solve_absolute_reward(config)
    assert result.utility == pytest.approx(
        result.rates["alice"] + result.rates["ds"], abs=1e-9)


def test_utility_of_policy_matches_solver():
    config = cfg()
    result = solve_relative_revenue(config)
    value = utility_of_policy(result.policy.mdp,
                              result.policy.action_indices,
                              IncentiveModel.COMPLIANT_PROFIT)
    assert value == pytest.approx(result.utility, abs=1e-9)


def test_advantage_and_profitable():
    result = solve_relative_revenue(cfg())
    assert result.advantage == pytest.approx(result.utility - 0.25)
    assert result.profitable == (result.advantage > 1e-6)


def test_policy_action_lookup_by_state():
    result = solve_relative_revenue(cfg())
    action = result.policy.action_for(("base", 0))
    assert action in ("OnChain1", "OnChain2")
