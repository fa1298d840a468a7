"""Tests for the one solve path: validation and the fallback chains
under a budget."""

import numpy as np
import pytest

from repro.errors import (
    FallbackExhaustedError,
    SolverBudgetExceededError,
    SolverError,
    SolverInputError,
)
from repro.mdp.builder import MDPBuilder
from repro.mdp.ratio import maximize_ratio
from repro.runtime import Budget, RatioRequest, run_chain, telemetry
from repro.runtime import supervisor
from repro.runtime.supervisor import solve_average, solve_ratio


def renewal_mdp():
    b = MDPBuilder(actions=["short", "long"], channels=["num", "den"])
    b.add(0, "short", 0, 1.0, num=1.0, den=1.0)
    b.add(0, "long", 0, 1.0, num=3.0, den=2.0)
    return b.build(start=0)


def degenerate_mdp():
    """An ``idle`` action with num = den = 0 alongside the real attack
    action -- the always-wait policy that stalls Dinkelbach."""
    b = MDPBuilder(actions=["attack", "idle"], channels=["num", "den"])
    b.add(0, "attack", 0, 1.0, num=1.0, den=2.0)
    b.add(0, "idle", 0, 1.0)
    return b.build(start=0)


def work_or_rest():
    b = MDPBuilder(actions=["work", "rest"], channels=["r"])
    b.add(0, "work", 1, 1.0, r=1.0)
    b.add(0, "rest", 0, 1.0, r=0.4)
    b.add(1, "work", 0, 1.0)
    b.add(1, "rest", 0, 1.0)
    return b.build(start=0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_supervised_ratio_solve():
    outcome = solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                          lo=0.0, hi=5.0, tol=1e-9)
    assert outcome.result.value == pytest.approx(1.5, abs=1e-7)
    assert outcome.stage == "dinkelbach"
    assert outcome.diagnostics[-1].status == "ok"


def test_fallback_recovers_where_dinkelbach_stalls():
    """Warm-started on the always-wait policy at the exact optimum,
    Dinkelbach hits the degenerate zero-denominator policy; the chain
    must fall back to bisection and still return 0.5."""
    mdp = degenerate_mdp()
    idle = np.array([mdp.action_index("idle")])

    # The first stage alone genuinely fails ...
    with pytest.raises(SolverError, match="degenerate"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.5, hi=10.0,
                       method="dinkelbach", initial_policy=idle)

    # ... and the chain recovers through the bisection stage.
    outcome = solve_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.5,
                          hi=10.0, tol=1e-7, initial_policy=idle)
    assert outcome.result.value == pytest.approx(0.5, abs=1e-5)
    assert outcome.stage == "bisection"
    attempts = [(d.stage, d.status) for d in outcome.diagnostics]
    assert attempts == [("dinkelbach", "failed"), ("bisection", "ok")]


def test_bad_bracket_stops_the_chain_at_once():
    """An inverted bracket is a caller mistake no other algorithm can
    repair: the first stage raises the typed input error and the chain
    stops there instead of trying every stage."""
    with pytest.raises(SolverInputError, match="lo < hi") as info:
        solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                    lo=1.0, hi=0.0)
    assert [(d.stage, d.status, d.error_type)
            for d in info.value.diagnostics] == \
        [("dinkelbach", "failed", "SolverInputError")]


def test_supervised_average_solve():
    mdp = work_or_rest()
    outcome = solve_average(mdp, mdp.rewards["r"])
    assert outcome.result.gain == pytest.approx(0.5, abs=1e-9)
    assert outcome.stage == "policy-iteration"


def test_budget_aborts_solve():
    with pytest.raises(SolverBudgetExceededError):
        solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                    lo=0.0, hi=5.0, budget=Budget(max_ticks=1))


def test_budget_abort_names_the_stage_it_cancelled():
    """When a budget (or propagated deadline) cuts a solve off, the
    error names *which* fallback-chain stage was cancelled and the
    ``supervisor/cancelled/<stage>`` counter records it -- the
    diagnostics trail the serving layer surfaces for hung solves."""
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        with pytest.raises(SolverBudgetExceededError) as info:
            solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                        lo=0.0, hi=5.0, budget=Budget(max_ticks=1))
    diagnostics = getattr(info.value, "diagnostics", None)
    assert diagnostics, "budget error must carry stage diagnostics"
    assert diagnostics[-1].stage == "dinkelbach"
    assert diagnostics[-1].status == "failed"
    counters = tracer.snapshot()["counters"]
    assert counters["supervisor/solves"] == 1
    assert counters["supervisor/cancelled/dinkelbach"] == 1


def test_expired_deadline_cancels_solve_with_typed_error():
    """Fault injection: a clock skewed past the deadline fails with the
    typed deadline error before any stage runs -- and a deadline that
    runs out mid-solve names the fallback step it cancelled."""
    from repro.core.deadline import Deadline
    from repro.errors import SolveDeadlineError

    clock = FakeClock()
    deadline = Deadline.after(1.0, clock=clock)
    clock.now = 5.0  # injected skew: deadline long gone
    with pytest.raises(SolveDeadlineError, match="expired"):
        solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                    lo=0.0, hi=5.0, budget=deadline.budget())

    # The frozen fake clock keeps remaining() at a tiny positive value,
    # so the budget is granted, but its wall clock (measured on the
    # real clock) expires on the first tick.
    budget = Deadline.after(1e-9, clock=FakeClock()).budget()
    with pytest.raises(SolverBudgetExceededError) as info:
        solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                    lo=0.0, hi=5.0, budget=budget)
    assert info.value.diagnostics[-1].stage == "dinkelbach"


def test_input_validation_rejects_nonfinite_rewards():
    b = MDPBuilder(actions=["a"], channels=["num", "den"])
    b.add(0, "a", 0, 1.0, num=np.inf, den=1.0)
    mdp = b.build(start=0)
    with pytest.raises(SolverInputError, match="non-finite"):
        solve_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0)
    with pytest.raises(SolverInputError, match="non-finite"):
        solve_average(work_or_rest(), np.array([[np.nan, 0.0],
                                                [0.0, 0.0]]))


def test_exhausted_chain_collects_diagnostics(monkeypatch):
    def failing(_request, _clock):
        raise SolverError("stage boom")

    chain = (("first", failing), ("second", failing))
    request = RatioRequest(mdp=renewal_mdp(), num={"num": 1.0},
                           den={"den": 1.0}, lo=0.0, hi=5.0)
    with pytest.raises(FallbackExhaustedError) as info:
        run_chain(chain, request)
    assert [d.stage for d in info.value.diagnostics] == ["first", "second"]
    assert all(d.status == "failed" for d in info.value.diagnostics)

    monkeypatch.setattr(supervisor, "RATIO_CHAIN", chain)
    with pytest.raises(FallbackExhaustedError) as info:
        solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                    lo=0.0, hi=5.0)
    assert [d.stage for d in info.value.diagnostics] == ["first", "second"]


def test_empty_chain_rejected(monkeypatch):
    with pytest.raises(SolverInputError, match="no stages"):
        run_chain((), None)
    monkeypatch.setattr(supervisor, "AVERAGE_CHAIN", ())
    mdp = work_or_rest()
    with pytest.raises(SolverInputError, match="no stages"):
        solve_average(mdp, mdp.rewards["r"])
