"""Tests for the adversarial instance generators."""

from fractions import Fraction

import numpy as np
import pytest

from repro.mdp.policy_iteration import policy_iteration
from repro.qa.generators import (
    INSTANCE_CLASSES,
    RARE_MASS,
    make_instance,
    permute_mdp,
    random_permutation,
    scale_reward,
    shift_reward,
    with_duplicate_action,
)


@pytest.mark.parametrize("cls", INSTANCE_CLASSES + ("multichain",))
def test_instances_are_valid_and_deterministic(cls):
    a = make_instance(cls, 3)
    b = make_instance(cls, 3)
    assert a.mdp.n_states == b.mdp.n_states
    for mat_a, mat_b in zip(a.mdp.transition, b.mdp.transition):
        assert (mat_a != mat_b).nnz == 0
    for name in a.mdp.channels:
        assert np.array_equal(a.mdp.channel_reward(name),
                              b.mdp.channel_reward(name))


@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_probabilities_are_dyadic(cls):
    """Small power-of-two denominators keep ``Fraction(float)`` exact
    *and cheap* for the rational reference solvers."""
    inst = make_instance(cls, 0)
    for mat in inst.mdp.transition:
        for v in mat.data:
            f = Fraction(float(v))
            assert f.denominator & (f.denominator - 1) == 0


def test_near_degenerate_has_tiny_mass():
    inst = make_instance("near-degenerate", 0)
    data = np.concatenate([m.data for m in inst.mdp.transition])
    data = data[data > 0]
    assert data.min() == RARE_MASS
    assert RARE_MASS < 1e-11


def test_wide_scale_spans_many_orders():
    seen = [make_instance("wide-scale", s) for s in range(12)]
    scales = [i.reward_scale for i in seen]
    assert max(scales) / min(scales) > 1e6


def test_periodic_instance_is_deterministic_cycle():
    inst = make_instance("periodic", 1)
    mat = inst.mdp.transition[0]
    assert np.all(mat.data == 1.0)  # deterministic
    assert np.all(np.diff(mat.indptr) == 1)  # one successor per state


def test_permute_mdp_preserves_gain():
    inst = make_instance("unichain", 5)
    perm = random_permutation(5, inst.mdp.n_states)
    permuted = permute_mdp(inst.mdp, perm)
    g0 = policy_iteration(inst.mdp,
                          inst.mdp.combined_reward(inst.num)).gain
    g1 = policy_iteration(permuted,
                          permuted.combined_reward(inst.num)).gain
    assert g1 == pytest.approx(g0, rel=1e-12)


def test_duplicate_action_is_noop():
    inst = make_instance("unichain", 4)
    duped = with_duplicate_action(inst.mdp, inst.mdp.actions[0])
    assert duped.n_actions == inst.mdp.n_actions + 1
    g0 = policy_iteration(inst.mdp,
                          inst.mdp.combined_reward(inst.num)).gain
    g1 = policy_iteration(duped, duped.combined_reward(inst.num)).gain
    assert g1 == pytest.approx(g0, rel=1e-12)


def test_shift_and_scale_reward():
    inst = make_instance("unichain", 2)
    shifted = shift_reward(inst.mdp, "num", 1.0)
    scaled = scale_reward(inst.mdp, "num", 2.0)
    g = policy_iteration(inst.mdp,
                         inst.mdp.combined_reward(inst.num)).gain
    gs = policy_iteration(shifted,
                          shifted.combined_reward(inst.num)).gain
    gx = policy_iteration(scaled,
                          scaled.combined_reward(inst.num)).gain
    assert gs == pytest.approx(g + 1.0, rel=1e-12)
    assert gx == pytest.approx(2.0 * g, rel=1e-12)


def test_unknown_class_rejected():
    with pytest.raises(Exception):
        make_instance("no-such-class", 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_race_instances_take_the_renewal_path(seed):
    mdp = make_instance("race", seed).mdp
    assert mdp.n_actions > 1
    assert mdp.kernel().renewal_order() is not None
    permuted = permute_mdp(mdp, random_permutation(seed, mdp.n_states))
    assert permuted.kernel().renewal_order() is not None
    assert make_instance("unichain", seed).mdp.kernel() \
        .renewal_order() is None
