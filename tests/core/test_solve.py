"""Tests for the solver front-ends."""

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
