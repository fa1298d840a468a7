"""Tests for the MDP builder."""

import pytest

from repro.errors import InvalidTransitionError, MDPError
from repro.mdp.builder import MDPBuilder


def test_builds_minimal_mdp():
    b = MDPBuilder(actions=["a"], channels=["r"])
    b.add("s", "a", "s", 1.0, r=2.0)
    mdp = b.build(start="s")
    assert mdp.n_states == 1
    assert mdp.n_actions == 1
    assert mdp.rewards["r"][0, 0] == pytest.approx(2.0)


def test_duplicate_entries_merge_with_expected_rewards():
    b = MDPBuilder(actions=["a"], channels=["r"])
    b.add("s", "a", "t", 0.25, r=4.0)
    b.add("s", "a", "t", 0.75, r=0.0)
    b.add("t", "a", "t", 1.0)
    mdp = b.build(start="s")
    s = mdp.state_index("s")
    # Expected reward: 0.25 * 4 + 0.75 * 0 = 1.0.
    assert mdp.rewards["r"][0, s] == pytest.approx(1.0)
    assert mdp.transition[0][s, mdp.state_index("t")] == pytest.approx(1.0)


def test_probabilities_must_sum_to_one():
    b = MDPBuilder(actions=["a"], channels=["r"])
    b.add("s", "a", "s", 0.5)
    with pytest.raises(InvalidTransitionError):
        b.build(start="s")


def test_zero_probability_entries_dropped():
    b = MDPBuilder(actions=["a"], channels=["r"])
    b.add("s", "a", "s", 1.0)
    b.add("s", "a", "ghost", 0.0)
    mdp = b.build(start="s")
    assert mdp.n_states == 1


def test_unknown_action_and_channel_rejected():
    b = MDPBuilder(actions=["a"], channels=["r"])
    with pytest.raises(MDPError):
        b.add("s", "nope", "s", 1.0)
    with pytest.raises(MDPError):
        b.add("s", "a", "s", 1.0, nope=1.0)


def test_out_of_range_probability_rejected():
    b = MDPBuilder(actions=["a"], channels=["r"])
    with pytest.raises(InvalidTransitionError):
        b.add("s", "a", "s", -0.1)
    with pytest.raises(InvalidTransitionError):
        b.add("s", "a", "s", 1.5)


def test_unknown_start_rejected():
    b = MDPBuilder(actions=["a"], channels=["r"])
    b.add("s", "a", "s", 1.0)
    with pytest.raises(MDPError):
        b.build(start="missing")


def test_partial_action_availability():
    b = MDPBuilder(actions=["a", "b"], channels=["r"])
    b.add(0, "a", 1, 1.0)
    b.add(1, "a", 0, 1.0)
    b.add(1, "b", 1, 1.0)
    mdp = b.build(start=0)
    assert mdp.available[0].tolist() == [True, True]
    assert mdp.available[1].tolist() == [False, True]


def test_duplicate_names_rejected():
    with pytest.raises(MDPError):
        MDPBuilder(actions=["a", "a"], channels=["r"])
    with pytest.raises(MDPError):
        MDPBuilder(actions=["a"], channels=["r", "r"])
