"""Tests for the LP average-reward solver (independent cross-check)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.mdp.linear_programming import lp_average_reward, lp_gain
from repro.mdp.policy_iteration import policy_iteration
from tests.mdp.helpers import random_unichain_mdp, two_state_chain, \
    work_or_rest


def test_lp_matches_hand_computed_gain():
    p, r = 0.3, 2.0
    mdp = two_state_chain(p, r)
    gain, _policy = lp_average_reward(mdp, mdp.channel_reward("r"))
    assert gain == pytest.approx((1 / (1 + p)) * p * r, abs=1e-9)


def test_lp_picks_optimal_action():
    mdp = work_or_rest()
    gain, policy = lp_average_reward(mdp, mdp.channel_reward("r"))
    assert gain == pytest.approx(0.5, abs=1e-9)
    assert mdp.actions[policy[0]] == "work"


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_lp_agrees_with_policy_iteration_on_random_models(seed):
    mdp = random_unichain_mdp(np.random.default_rng(seed), 7, 3)
    r = mdp.channel_reward("r")
    pi = policy_iteration(mdp, r)
    gain = lp_gain(mdp, r, expected=pi.gain, tol=1e-7)
    assert gain == pytest.approx(pi.gain, abs=1e-7)


def test_lp_validates_attack_mdp_gain():
    """Independent confirmation of a Table 3 cell: LP over the 211-state
    setting-1 attack MDP reproduces the policy-iteration u_A2."""
    from repro.core.attack_mdp import build_attack_mdp
    from repro.core.config import AttackConfig
    config = AttackConfig.from_ratio(0.10, (1, 1), setting=1)
    mdp = build_attack_mdp(config)
    reward = mdp.combined_reward({"alice": 1.0, "ds": 1.0})
    pi = policy_iteration(mdp, reward)
    gain, _ = lp_average_reward(mdp, reward)
    assert gain == pytest.approx(pi.gain, abs=1e-7)
    assert gain == pytest.approx(0.3123, abs=1e-3)


def test_lp_gain_expected_mismatch_raises():
    from repro.errors import SolverError
    mdp = work_or_rest()
    with pytest.raises(SolverError):
        lp_gain(mdp, mdp.channel_reward("r"), expected=0.9, tol=1e-9)


def test_table_and_solve_imports_leave_scipy_optimize_unloaded():
    """scipy.optimize costs ~0.1 s at import; only the LP needs it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, repro.analysis.tables, repro.core.solve; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
