"""Tests for the stacked Bellman kernel and the policy-eval cache."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import MDPError
from repro.mdp.builder import MDPBuilder
from repro.mdp.kernels import (
    PolicyEvalCache,
    greedy_policy_from_q,
    q_backup,
)
from tests.mdp.helpers import random_unichain_mdp, two_state_chain

from repro.mdp.model import MDP


def reference_q(mdp: MDP, reward: np.ndarray, values: np.ndarray,
                discount: float = 1.0) -> np.ndarray:
    """Per-action reference backup the stacked kernel must reproduce."""
    q = np.empty((mdp.n_actions, mdp.n_states))
    for a in range(mdp.n_actions):
        q[a] = reward[a] + discount * (mdp.transition[a] @ values)
    q[~mdp.available] = -np.inf
    return q


def partial_availability_mdp() -> MDP:
    """State 1 only offers action ``a0``."""
    b = MDPBuilder(actions=["a0", "a1"], channels=["r"])
    b.add(0, "a0", 1, 1.0, r=1.0)
    b.add(0, "a1", 0, 1.0, r=0.5)
    b.add(1, "a0", 0, 1.0)
    return b.build(start=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("discount", [1.0, 0.9])
def test_q_backup_matches_per_action_reference(seed, discount):
    rng = np.random.default_rng(seed)
    mdp = random_unichain_mdp(rng, n_states=7, n_actions=3)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    values = rng.normal(size=mdp.n_states)
    got = q_backup(mdp, reward, values, discount=discount)
    np.testing.assert_allclose(
        got, reference_q(mdp, reward, values, discount), atol=1e-14)


def test_q_backup_masks_unavailable_actions():
    mdp = partial_availability_mdp()
    reward = np.ones((2, 2))
    q = q_backup(mdp, reward, np.zeros(2))
    assert q[1, 1] == -np.inf
    assert np.isfinite(q[0]).all()
    np.testing.assert_allclose(q, reference_q(mdp, reward, np.zeros(2)))


def test_greedy_policy_respects_mask():
    mdp = partial_availability_mdp()
    # a1 pays more where available; state 1 must fall back to a0.
    reward = np.array([[0.0, 0.0], [1.0, 1.0]])
    policy = greedy_policy_from_q(q_backup(mdp, reward, np.zeros(2)))
    assert policy.tolist() == [1, 0]


@pytest.mark.parametrize("seed", [3, 4])
def test_policy_matrix_matches_row_selection(seed):
    rng = np.random.default_rng(seed)
    mdp = random_unichain_mdp(rng, n_states=6, n_actions=3)
    policy = rng.integers(0, mdp.n_actions, size=mdp.n_states)
    p_pi = mdp.kernel().policy_matrix(policy).toarray()
    for s in range(mdp.n_states):
        row = mdp.transition[policy[s]][s].toarray().ravel()
        np.testing.assert_allclose(p_pi[s], row, atol=1e-15)


def test_policy_rows_validates_input():
    mdp = two_state_chain()
    kernel = mdp.kernel()
    with pytest.raises(MDPError):
        kernel.policy_rows(np.zeros(3, dtype=int))
    with pytest.raises(MDPError):
        kernel.policy_rows(np.array([0, 5]))


def test_kernel_is_built_once_and_shared():
    mdp = two_state_chain()
    assert mdp.kernel() is mdp.kernel()
    assert isinstance(mdp.kernel().stack, sparse.csr_matrix)
    assert mdp.kernel().stack.shape == (mdp.n_actions * mdp.n_states,
                                        mdp.n_states)


def dense_gain_bias(mdp: MDP, policy: np.ndarray, reward: np.ndarray):
    """Dense reference solve of the average-reward evaluation system."""
    n = mdp.n_states
    p_pi = np.vstack([mdp.transition[policy[s]][s].toarray().ravel()
                      for s in range(n)])
    r_pi = reward[policy, np.arange(n)]
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = np.eye(n) - p_pi
    system[:n, n] = 1.0
    system[n, mdp.start] = 1.0
    solution = np.linalg.solve(system, np.concatenate([r_pi, [0.0]]))
    return solution[n], solution[:n]


@pytest.mark.parametrize("seed", [5, 6])
def test_evaluate_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    mdp = random_unichain_mdp(rng, n_states=6, n_actions=2)
    policy = rng.integers(0, mdp.n_actions, size=mdp.n_states)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    gain, bias = mdp.eval_cache().evaluate(policy, reward)
    ref_gain, ref_bias = dense_gain_bias(mdp, policy, reward)
    assert gain == pytest.approx(ref_gain, abs=1e-10)
    np.testing.assert_allclose(bias, ref_bias, atol=1e-9)


def test_eval_cache_hits_and_single_factorization():
    rng = np.random.default_rng(7)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.zeros(mdp.n_states, dtype=int)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))

    first = cache.evaluate(policy, reward)
    assert cache.stats.factorizations == 1
    assert cache.stats.eval_misses == 1

    second = cache.evaluate(policy, reward)
    assert cache.stats.eval_hits == 1
    assert cache.stats.factorizations == 1
    assert second[0] == first[0]
    np.testing.assert_array_equal(second[1], first[1])

    # A different transformed reward reuses the same factorization.
    cache.evaluate(policy, reward + 1.0)
    assert cache.stats.factorizations == 1
    assert cache.stats.eval_misses == 2


def test_stationary_cached_per_policy():
    rng = np.random.default_rng(8)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.zeros(mdp.n_states, dtype=int)
    pi = cache.stationary(policy)
    assert cache.stats.stationary_misses == 1
    assert pi.sum() == pytest.approx(1.0)
    again = cache.stationary(policy)
    assert cache.stats.stationary_hits == 1
    assert again is pi


def test_channel_gains_match_stationary_rates():
    rng = np.random.default_rng(9)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.ones(mdp.n_states, dtype=int)
    gains = cache.channel_gains(policy, ["r", "s"])
    pi = cache.stationary(policy)
    states = np.arange(mdp.n_states)
    for name in ("r", "s"):
        expected = pi.dot(mdp.rewards[name][policy, states])
        assert gains[name] == pytest.approx(expected, abs=1e-12)
    misses = cache.stats.gain_misses
    cache.channel_gains(policy, ["r", "s"])
    assert cache.stats.gain_misses == misses
    assert cache.stats.gain_hits >= 2


def test_invalidate_rewards_keeps_factorizations():
    rng = np.random.default_rng(10)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.zeros(mdp.n_states, dtype=int)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    cache.evaluate(policy, reward)
    cache.channel_gains(policy)
    factorizations = cache.stats.factorizations

    cache.invalidate_rewards()
    cache.evaluate(policy, reward)
    cache.channel_gains(policy)
    # Reward memos were dropped (fresh misses) but the LU survived.
    assert cache.stats.eval_misses == 2
    assert cache.stats.factorizations == factorizations


def test_policy_cache_lru_eviction():
    rng = np.random.default_rng(11)
    mdp = random_unichain_mdp(rng)
    cache = PolicyEvalCache(mdp, max_policies=2)
    for a in range(3):
        policy = np.full(mdp.n_states, a % mdp.n_actions, dtype=int)
        policy[0] = a % mdp.n_actions
        policy[-1] = (a + 1) % mdp.n_actions
        policy[a % mdp.n_states] = 0
        cache.stationary(policy)
    assert len(cache) <= 2


def test_structure_view_shares_factorizations():
    rng = np.random.default_rng(12)
    mdp = random_unichain_mdp(rng)
    policy = np.zeros(mdp.n_states, dtype=int)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    mdp.eval_cache().evaluate(policy, reward)
    assert mdp.eval_cache().stats.factorizations == 1

    view = mdp.eval_cache().structure_view(mdp)
    gain, _bias = view.evaluate(policy, reward)
    # Same structure: no second factorization; fresh reward memos.
    assert view.stats.factorizations == 0
    assert view.stats.eval_misses == 1
    ref_gain, _ = dense_gain_bias(mdp, policy, reward)
    assert gain == pytest.approx(ref_gain, abs=1e-10)


# -- renewal evaluation of acyclic (race) MDPs ---------------------------

def renewal_cell_mdp(setting: int) -> MDP:
    """A private (uncached) attack MDP: the paper's setting-1 cell, or
    the fast ``ad=2`` setting-2 cell."""
    from repro.core.attack_mdp import build_attack_mdp
    from repro.core.config import AttackConfig
    ad = 6 if setting == 1 else 2
    return build_attack_mdp(AttackConfig.from_ratio(
        0.25, (1, 1), setting=setting, ad=ad), cache=False)


def assert_rel_close(got, want, rel=1e-12):
    scale = max(1.0, float(np.abs(want).max()))
    assert float(np.abs(np.asarray(got) - want).max()) <= rel * scale


@pytest.mark.parametrize("setting", [1, 2])
def test_renewal_path_matches_bordered_lu_on_visited_policies(setting):
    from repro.mdp.kernels import _BorderedStructure, _RenewalStructure
    from repro.mdp.policy_iteration import policy_iteration

    mdp = renewal_cell_mdp(setting)
    assert mdp.kernel().renewal_order() is not None
    reward = mdp.combined_reward({"alice": 1.0, "others": -0.3})
    policy_iteration(mdp, reward)
    cache = mdp.eval_cache()
    visited = [entry.structure for entry in cache._entries.values()]
    assert len(visited) > 1
    assert all(isinstance(s, _RenewalStructure) for s in visited)
    # One evaluation-system set-up per distinct policy.
    assert cache.stats.factorizations == len(visited)

    states = np.arange(mdp.n_states)
    for renewal in visited:
        bordered = _BorderedStructure(renewal.policy, renewal.p_pi,
                                      mdp.start)
        r_pi = reward[renewal.policy, states]
        stats = cache.stats
        gain, bias = renewal.gain_bias(r_pi, stats)
        ref_gain, ref_bias = bordered.gain_bias(r_pi, stats)
        assert gain == pytest.approx(ref_gain, rel=1e-12, abs=1e-15)
        assert bias[mdp.start] == 0.0
        assert_rel_close(bias, ref_bias)
        assert_rel_close(renewal.stationary(stats),
                         bordered.stationary(stats))


def test_renewal_solves_leave_the_cached_system_unchanged():
    """The triangular solves let scipy write the unit diagonal in
    place; the cached system must come out of them unchanged."""
    mdp = renewal_cell_mdp(1)
    cache = mdp.eval_cache()
    policy = np.asarray(mdp.available.argmax(axis=0), dtype=int)
    reward = mdp.combined_reward({"alice": 1.0})
    cache.evaluate(policy, reward)
    system = cache._entry(policy).structure.system(cache.stats)
    before = [a.copy() for a in (system.data, system.indices,
                                 system.indptr)]
    cache.evaluate(policy, reward + 1.0)
    cache.stationary(policy)
    after = (system.data, system.indices, system.indptr)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert cache.stats.factorizations == 1


def test_renewal_order_points_every_edge_backwards():
    mdp = renewal_cell_mdp(1)
    order = mdp.kernel().renewal_order()
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    for p in mdp.transition:
        coo = p.tocoo()
        into_start = coo.col == mdp.start
        assert np.all(position[coo.col[~into_start]]
                      < position[coo.row[~into_start]])


def test_renewal_order_none_for_bitcoin_double_spend_mdp():
    from repro.baselines.selfish import SelfishMiningConfig, \
        build_selfish_mdp
    mdp = build_selfish_mdp(SelfishMiningConfig(
        alpha=0.25, tie_power=0.5, max_len=6, rds=10.0,
        confirmations=6))
    assert mdp.kernel().renewal_order() is None


def test_renewal_order_none_for_self_loop_off_start():
    b = MDPBuilder(actions=["go"], channels=["r"])
    b.add(0, "go", 1, 1.0, r=1.0)
    b.add(1, "go", 1, 0.5)
    b.add(1, "go", 0, 0.5)
    mdp = b.build(start=0)
    assert mdp.kernel().renewal_order() is None
    gain, _bias = mdp.eval_cache().evaluate(np.zeros(2, dtype=int),
                                            mdp.rewards["r"])
    # The bordered LU still evaluates it: 1 reward per 3 expected steps.
    assert gain == pytest.approx(1 / 3)


def test_renewal_order_none_for_cycle_avoiding_start():
    b = MDPBuilder(actions=["stay", "leave"], channels=["r"])
    b.add(0, "stay", 1, 1.0)
    b.add(0, "leave", 1, 1.0)
    b.add(1, "stay", 2, 1.0)
    b.add(1, "leave", 0, 1.0)
    b.add(2, "stay", 1, 1.0)
    b.add(2, "leave", 0, 1.0)
    mdp = b.build(start=0)
    assert mdp.kernel().renewal_order() is None


def test_renewal_order_of_chain_into_start():
    # Transitions into start (the self-loop included) are not edges.
    mdp = two_state_chain()
    assert mdp.kernel().renewal_order().tolist() == [1, 0]
