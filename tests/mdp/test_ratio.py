"""Tests for the ratio-objective solver."""

import numpy as np
import pytest

from repro.errors import SolverDivergedError, SolverError, SolverInputError
from repro.mdp.builder import MDPBuilder
from repro.mdp.ratio import maximize_ratio


def renewal_mdp():
    """Two renewal cycles from one state: action ``short`` earns num=1,
    den=1 per step; action ``long`` earns num=3, den=2 per step.
    Optimal num/den ratio = 3/2 via ``long``."""
    b = MDPBuilder(actions=["short", "long"], channels=["num", "den"])
    b.add(0, "short", 0, 1.0, num=1.0, den=1.0)
    b.add(0, "long", 0, 1.0, num=3.0, den=2.0)
    return b.build(start=0)


def ratio_vs_rate_mdp():
    """A model where maximizing the per-step numerator differs from
    maximizing the ratio: ``fast`` earns num=2, den=4; ``slow`` earns
    num=1, den=1.  Rate of num favours fast (2 > 1), ratio favours
    slow (1 > 0.5)."""
    b = MDPBuilder(actions=["fast", "slow"], channels=["num", "den"])
    b.add(0, "fast", 0, 1.0, num=2.0, den=4.0)
    b.add(0, "slow", 0, 1.0, num=1.0, den=1.0)
    return b.build(start=0)


@pytest.mark.parametrize("method", ["dinkelbach", "bisection", "pto"])
def test_simple_ratio(method):
    mdp = renewal_mdp()
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                         tol=1e-9, method=method)
    assert sol.value == pytest.approx(1.5, abs=1e-7)
    assert mdp.actions[sol.policy[0]] == "long"


@pytest.mark.parametrize("method", ["dinkelbach", "bisection", "pto"])
def test_ratio_differs_from_rate(method):
    mdp = ratio_vs_rate_mdp()
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                         tol=1e-9, method=method)
    assert sol.value == pytest.approx(1.0, abs=1e-7)
    assert mdp.actions[sol.policy[0]] == "slow"


def test_degenerate_zero_denominator_policy_handled():
    """An action with num = den = 0 must not fool the solver (the
    analogue of the non-profit model's Wait-forever policy)."""
    b = MDPBuilder(actions=["attack", "idle"], channels=["num", "den"])
    b.add(0, "attack", 0, 1.0, num=1.0, den=2.0)
    b.add(0, "idle", 0, 1.0)
    mdp = b.build(start=0)
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=10.0,
                         tol=1e-7)
    assert sol.value == pytest.approx(0.5, abs=1e-5)
    assert mdp.actions[sol.policy[0]] == "attack"


def test_weighted_channel_combinations():
    mdp = renewal_mdp()
    # num' = num + den, den' = den: short -> 2/1, long -> 5/2.
    sol = maximize_ratio(mdp, {"num": 1.0, "den": 1.0}, {"den": 1.0},
                         lo=0.0, hi=10.0, tol=1e-9)
    assert sol.value == pytest.approx(2.5, abs=1e-7)


def test_bad_bracket_rejected():
    mdp = renewal_mdp()
    with pytest.raises(SolverInputError):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=1.0, hi=1.0)


def test_unknown_method_rejected():
    mdp = renewal_mdp()
    with pytest.raises(SolverInputError):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=1.0,
                       method="newton")


def test_warm_start_accepted():
    mdp = renewal_mdp()
    warm = np.array([mdp.action_index("short")])
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                         initial_policy=warm)
    assert sol.value == pytest.approx(1.5, abs=1e-6)


def always_wait_mdp():
    """The non-profit model's Wait-forever analogue: ``idle`` earns
    num = den = 0, so any policy-iteration tie-break that keeps it
    makes Dinkelbach's update 0/0."""
    b = MDPBuilder(actions=["attack", "idle"], channels=["num", "den"])
    b.add(0, "attack", 0, 1.0, num=1.0, den=2.0)
    b.add(0, "idle", 0, 1.0)
    return b.build(start=0)


def test_input_validation():
    mdp = renewal_mdp()
    with pytest.raises(SolverInputError, match="tol"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                       tol=0.0)
    with pytest.raises(SolverInputError, match="max_iter"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                       max_iter=0)
    with pytest.raises(SolverInputError, match="numerator"):
        maximize_ratio(mdp, {}, {"den": 1.0}, lo=0.0, hi=5.0)
    with pytest.raises(SolverInputError, match="denominator"):
        maximize_ratio(mdp, {"num": 1.0}, {}, lo=0.0, hi=5.0)
    with pytest.raises(SolverInputError, match="finite"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0,
                       hi=np.inf)


def test_nonfinite_gains_raise_with_rho():
    """If the per-channel gains of a solved policy come out non-finite,
    the solver must report the rho it was probing instead of returning
    a bogus ratio."""
    from repro.mdp.policy_iteration import AverageRewardSolution

    b = MDPBuilder(actions=["a"], channels=["num", "den"])
    b.add(0, "a", 0, 1.0, num=np.inf, den=1.0)
    mdp = b.build(start=0)

    def stub_solver(_mdp, _reward, _warm):
        # Sidestep the inner solve (which would also choke on inf) so
        # the channel-gain validation is what fires.
        return AverageRewardSolution(gain=0.0, bias=np.zeros(1),
                                     policy=np.zeros(1, dtype=int),
                                     iterations=1)

    with pytest.raises(SolverDivergedError, match="rho"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                       solver=stub_solver)


def test_strict_dinkelbach_flags_degenerate_policy():
    """Warm-started on the zero-denominator policy with ``lo`` at the
    optimum, strict Dinkelbach cannot make progress and must say so
    instead of silently returning the bracket edge."""
    mdp = always_wait_mdp()
    idle = np.array([mdp.action_index("idle")])
    with pytest.raises(SolverError, match="degenerate"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.5, hi=10.0,
                       method="dinkelbach", initial_policy=idle,
                       strict=True)


def tiny_denominator_mdp():
    """Legitimately small denominator rates (1e-10-scale), far above
    zero *relative to the channel's own scale*.  Ratios: ``a`` ->
    1e10, ``b`` -> 1.5e10; optimum 1.5e10 via ``b``."""
    b = MDPBuilder(actions=["a", "b"], channels=["num", "den"])
    b.add(0, "a", 0, 1.0, num=1.0, den=1e-10)
    b.add(0, "b", 0, 1.0, num=3.0, den=2e-10)
    return b.build(start=0)


def test_dinkelbach_accepts_small_scale_denominator():
    """Regression: the degeneracy floor used to be absolute (1e-9), so
    every policy of this model -- whose denominator rates are simply
    small, not degenerate -- was misclassified and strict Dinkelbach
    raised.  The floor is now relative to ``max|r_den|``."""
    mdp = tiny_denominator_mdp()
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0},
                         lo=0.0, hi=5e10, tol=1e-9,
                         method="dinkelbach", strict=True)
    assert sol.method == "dinkelbach"
    assert sol.value == pytest.approx(1.5e10, rel=1e-9)
    assert mdp.actions[sol.policy[0]] == "b"


def test_dinkelbach_does_not_fall_back_on_small_scales():
    """Regression: non-strict Dinkelbach used to silently bail out to
    bisection on the same misclassification."""
    mdp = tiny_denominator_mdp()
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0},
                         lo=0.0, hi=5e10, tol=1e-9)
    assert sol.method == "dinkelbach"
    assert sol.value == pytest.approx(1.5e10, rel=1e-9)


@pytest.mark.parametrize("method", ["dinkelbach", "bisection", "pto"])
@pytest.mark.parametrize("factor", [1e-8, 1.0, 1e8])
def test_ratio_scale_equivariance(method, factor):
    """Scaling both channels by a common factor must leave the ratio
    (and the chosen policy) unchanged; with absolute tolerances the
    1e-8 case tripped the degeneracy floor."""
    mdp = renewal_mdp()
    sol = maximize_ratio(mdp, {"num": factor}, {"den": factor},
                         lo=0.0, hi=5.0, tol=1e-9, method=method)
    assert sol.value == pytest.approx(1.5, rel=1e-6)
    assert mdp.actions[sol.policy[0]] == "long"


def test_bisection_solves_always_wait_degeneracy():
    """The bisection fallback answers the same problem correctly even
    when warm-started on the always-wait policy: the optimum is
    sup{rho : some policy still beats rho}, here 0.5."""
    mdp = always_wait_mdp()
    idle = np.array([mdp.action_index("idle")])
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=10.0,
                         method="bisection", initial_policy=idle)
    assert sol.value == pytest.approx(0.5, abs=1e-5)
    assert mdp.actions[sol.policy[0]] == "attack"
