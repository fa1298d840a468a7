"""Tests for Monte-Carlo rollouts on MDPs."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mdp.simulate import (
    PolicyTables,
    advance_states,
    rollout,
    rollout_batch,
    rollout_pooled,
)
from repro.mdp.policy_iteration import policy_iteration
from repro.mdp.stationary import policy_gains
from repro.qa.generators import make_instance
from tests.mdp.helpers import (
    random_unichain_mdp,
    two_state_chain,
    work_or_rest,
)


def test_rollout_rate_matches_exact_gain(rng):
    mdp = two_state_chain(0.3, 1.0)
    policy = np.zeros(2, dtype=int)
    exact = policy_gains(mdp, policy)["r"]
    result = rollout(mdp, policy, steps=60_000, rng=rng)
    assert result.rate("r") == pytest.approx(exact, abs=0.01)


def test_rollout_deterministic_cycle(rng):
    mdp = work_or_rest()
    work = np.array([0, 0])
    result = rollout(mdp, work, steps=1000, rng=rng)
    assert result.rate("r") == pytest.approx(0.5, abs=1e-9)
    assert result.steps == 1000


def test_rollout_ratio_helper(rng):
    mdp = two_state_chain(0.5, 1.0)
    result = rollout(mdp, np.zeros(2, dtype=int), steps=10_000, rng=rng)
    assert result.ratio("r", "r") == pytest.approx(1.0)
    with pytest.raises(KeyError):
        result.ratio("r", "missing")


def test_rollout_rejects_invalid_policy(rng):
    mdp = work_or_rest()
    from repro.mdp.builder import MDPBuilder
    b = MDPBuilder(actions=["a", "b"], channels=["r"])
    b.add(0, "a", 0, 1.0)
    partial = b.build(start=0)
    with pytest.raises(SimulationError):
        rollout(partial, np.array([1]), steps=10, rng=rng)


def test_rollout_visits_recorded(rng):
    mdp = two_state_chain(0.5, 1.0)
    result = rollout(mdp, np.zeros(2, dtype=int), steps=5000, rng=rng)
    assert result.visits.sum() == 5000
    assert (result.visits > 0).all()


def test_visits_are_pre_transition_counts(rng):
    """Pins the documented semantics: ``visits[s]`` counts steps that
    *started* in ``s`` -- the start state is counted at step 0 and the
    final post-transition state is not."""
    mdp = work_or_rest()
    # Deterministic cycle 0 -> 1 -> 0 under the all-"work" policy;
    # 3 steps start in 0, 1, 0 and end in state 1 (uncounted).
    result = rollout(mdp, np.array([0, 0]), steps=3, rng=rng)
    assert result.visits.tolist() == [2, 1]
    batch = rollout_batch(mdp, np.array([0, 0]), steps=3, n_traj=2)
    assert batch.visits.tolist() == [[2, 1], [2, 1]]


# -- batched engine ----------------------------------------------------


def test_batch_trajectories_match_serial_exactly(rng):
    """A batched trajectory is bit-identical to a serial rollout
    driven by the same generator (same visit counts, float-identical
    channel totals)."""
    mdp = random_unichain_mdp(rng, n_states=7, n_actions=2)
    policy = np.zeros(7, dtype=int)
    batch = rollout_batch(mdp, policy, steps=400, n_traj=5, seed=99)
    children = np.random.SeedSequence(99).spawn(5)
    for b in range(5):
        serial = rollout(mdp, policy, steps=400,
                         rng=np.random.default_rng(children[b]))
        assert (batch.visits[b] == serial.visits).all()
        assert batch.trajectory(b).totals == serial.totals  # exact


def test_batch_chunk_size_never_changes_samples(rng):
    mdp = random_unichain_mdp(rng, n_states=6)
    policy = np.zeros(6, dtype=int)
    big = rollout_batch(mdp, policy, steps=500, n_traj=4, seed=3)
    small = rollout_batch(mdp, policy, steps=500, n_traj=4, seed=3,
                          chunk=37)
    assert (big.visits == small.visits).all()
    for name in big.totals:
        assert (big.totals[name] == small.totals[name]).all()


def test_pooled_equals_batch_summed(rng):
    mdp = random_unichain_mdp(rng, n_states=6)
    policy = np.zeros(6, dtype=int)
    batch = rollout_batch(mdp, policy, steps=300, n_traj=4, seed=7)
    pooled = rollout_pooled(mdp, policy, steps=300, n_traj=4, seed=7)
    assert pooled.steps == batch.total_steps
    assert (pooled.visits == batch.visits.sum(axis=0)).all()
    for name in batch.totals:
        assert pooled.totals[name] == pytest.approx(
            float(batch.totals[name].sum()), rel=1e-12)


def test_batch_rate_matches_exact_gain():
    mdp = two_state_chain(0.3, 1.0)
    policy = np.zeros(2, dtype=int)
    exact = policy_gains(mdp, policy)["r"]
    batch = rollout_batch(mdp, policy, steps=5_000, n_traj=16, seed=1)
    assert batch.rate("r") == pytest.approx(exact, abs=0.01)
    assert batch.rates("r").shape == (16,)


def test_alias_method_matches_exact_gain():
    mdp = two_state_chain(0.3, 1.0)
    policy = np.zeros(2, dtype=int)
    exact = policy_gains(mdp, policy)["r"]
    batch = rollout_batch(mdp, policy, steps=5_000, n_traj=16, seed=1,
                          method="alias")
    assert batch.rate("r") == pytest.approx(exact, abs=0.01)


def test_alias_frequencies_chi_squared(rng):
    """Alias-table draws reproduce the row distribution (chi-squared
    agreement of empirical successor frequencies)."""
    from scipy.stats import chisquare
    mdp = random_unichain_mdp(rng, n_states=5)
    policy = np.zeros(5, dtype=int)
    tables = PolicyTables(mdp, policy)
    n_draws = 40_000
    for s in range(5):
        states = np.full(n_draws, s, dtype=np.intp)
        nxt = advance_states(tables, states, rng.random(n_draws),
                             method="alias")
        nnz = tables.nnz[s]
        cols = tables.cols[s, :nnz]
        observed = np.array([(nxt == c).sum() for c in cols])
        expected = tables.probs[s, :nnz] * n_draws
        assert observed.sum() == n_draws  # only real successors drawn
        assert chisquare(observed, expected).pvalue > 1e-4


def test_advance_states_cdf_matches_serial_searchsorted(rng):
    mdp = random_unichain_mdp(rng, n_states=6)
    tables = PolicyTables(mdp, np.zeros(6, dtype=int))
    states = rng.integers(0, 6, size=200).astype(np.intp)
    uniforms = rng.random(200)
    got = advance_states(tables, states, uniforms)
    for s, u, g in zip(states, uniforms, got):
        nnz = tables.nnz[s]
        cum = tables.cum[s, :nnz]
        j = min(int(np.searchsorted(cum, u, side="right")), nnz - 1)
        assert g == tables.cols[s, j]


def test_batch_rejects_bad_arguments(rng):
    mdp = two_state_chain(0.5, 1.0)
    policy = np.zeros(2, dtype=int)
    with pytest.raises(SimulationError):
        rollout_batch(mdp, policy, steps=0)
    with pytest.raises(SimulationError):
        rollout_batch(mdp, policy, steps=10, n_traj=0)
    with pytest.raises(SimulationError):
        rollout_batch(mdp, policy, steps=10, chunk=0)
    with pytest.raises(SimulationError):
        rollout_batch(mdp, policy, steps=10, method="magic")
    with pytest.raises(SimulationError):
        advance_states(PolicyTables(mdp, policy),
                       np.zeros(1, dtype=np.intp), rng.random(1),
                       method="magic")
    from repro.mdp.builder import MDPBuilder
    b = MDPBuilder(actions=["a", "b"], channels=["r"])
    b.add(0, "a", 0, 1.0)
    partial = b.build(start=0)
    with pytest.raises(SimulationError):
        rollout_batch(partial, np.array([1]), steps=10)


def test_policy_tables_state_roundtrip():
    mdp = make_instance("periodic", 1).mdp
    reward = mdp.combined_reward({"num": 1.0, "den": 0.25})
    policy = policy_iteration(mdp, reward).policy
    tables = PolicyTables(mdp, policy)
    tables.alias_tables()
    clone = PolicyTables.from_state(tables.state_dict())
    r0 = rollout_batch(mdp, policy, steps=300, n_traj=3, seed=2,
                       tables=tables, method="alias")
    r1 = rollout_batch(mdp, policy, steps=300, n_traj=3, seed=2,
                       tables=clone, method="alias")
    assert np.array_equal(r0.visits, r1.visits)
    # The alias tables travelled prebuilt (identical objects, no
    # rebuild on the clone).
    assert clone._alias is not None
    assert all(np.array_equal(a, b) for a, b in
               zip(tables.alias_tables(), clone.alias_tables()))
