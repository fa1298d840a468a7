"""Tests for the solver supervisor and its fallback chains."""

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.core.solve import analyze
from repro.errors import (
    FallbackExhaustedError,
    SolverBudgetExceededError,
    SolverError,
    SolverInputError,
)
from repro.mdp.builder import MDPBuilder
from repro.mdp.ratio import maximize_ratio
from repro.runtime import (
    Budget,
    RatioRequest,
    SolverSupervisor,
    run_chain,
)


def renewal_mdp():
    b = MDPBuilder(actions=["short", "long"], channels=["num", "den"])
    b.add(0, "short", 0, 1.0, num=1.0, den=1.0)
    b.add(0, "long", 0, 1.0, num=3.0, den=2.0)
    return b.build(start=0)


def degenerate_mdp():
    """An ``idle`` action with num = den = 0 alongside the real attack
    action -- the always-wait policy that stalls strict Dinkelbach."""
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


def test_supervised_ratio_solve():
    supervisor = SolverSupervisor()
    sol = supervisor.solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                                 lo=0.0, hi=5.0, tol=1e-9)
    assert sol.value == pytest.approx(1.5, abs=1e-7)
    assert supervisor.last_stage == "dinkelbach"
    assert supervisor.diagnostics[-1].status == "ok"


def test_fallback_recovers_where_dinkelbach_stalls():
    """Warm-started on the always-wait policy at the exact optimum,
    strict Dinkelbach hits the degenerate zero-denominator policy; the
    chain must fall back to bisection and still return 0.5."""
    mdp = degenerate_mdp()
    idle = np.array([mdp.action_index("idle")])

    # The first stage alone genuinely fails ...
    with pytest.raises(SolverError, match="degenerate"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.5, hi=10.0,
                       method="dinkelbach", initial_policy=idle, strict=True)

    # ... and the supervisor recovers through the bisection stage.
    supervisor = SolverSupervisor()
    sol = supervisor.solve_ratio(mdp, {"num": 1.0}, {"den": 1.0},
                                 lo=0.5, hi=10.0, tol=1e-7,
                                 initial_policy=idle)
    assert sol.value == pytest.approx(0.5, abs=1e-5)
    assert supervisor.last_stage == "bisection"
    attempts = [(d.stage, d.status) for d in supervisor.diagnostics]
    assert attempts == [("dinkelbach", "failed"), ("bisection", "ok")]


def test_bad_bracket_stops_the_chain_at_once():
    """An inverted bracket is a caller mistake no other algorithm can
    repair: the first stage raises the typed input error and the chain
    stops there instead of trying every stage."""
    supervisor = SolverSupervisor()
    with pytest.raises(SolverInputError, match="lo < hi"):
        supervisor.solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                               lo=1.0, hi=0.0)
    assert [(d.stage, d.status, d.error_type)
            for d in supervisor.diagnostics] == \
        [("dinkelbach", "failed", "SolverInputError")]


def test_supervised_average_solve():
    supervisor = SolverSupervisor()
    mdp = work_or_rest()
    sol = supervisor.solve_average(mdp, mdp.rewards["r"])
    assert sol.gain == pytest.approx(0.5, abs=1e-9)
    assert supervisor.last_stage == "policy-iteration"


def test_budget_aborts_solve():
    supervisor = SolverSupervisor(budget=Budget(max_ticks=1))
    with pytest.raises(SolverBudgetExceededError):
        supervisor.solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                               lo=0.0, hi=5.0)


def test_budget_abort_records_cancelled_stage():
    """When a budget (or propagated deadline) cuts a solve off, the
    supervisor records *which* fallback-chain stage was cancelled --
    the diagnostics trail the serving layer surfaces for hung solves."""
    supervisor = SolverSupervisor(budget=Budget(max_ticks=1))
    with pytest.raises(SolverBudgetExceededError) as info:
        supervisor.solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                               lo=0.0, hi=5.0)
    assert supervisor.cancelled_stage == "dinkelbach"
    diagnostics = getattr(info.value, "diagnostics", None)
    assert diagnostics, "budget error must carry stage diagnostics"
    assert diagnostics[-1].stage == "dinkelbach"
    assert diagnostics[-1].status == "failed"
    assert supervisor.diagnostics[-1].stage == "dinkelbach"


def test_deadline_narrows_supervisor_budget():
    """A caller-imposed wall-clock deadline propagates into the
    effective solver budget (the tighter of deadline and own budget)."""
    from repro.core.deadline import Deadline

    class FakeClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    deadline = Deadline.after(2.0, clock=clock)
    supervisor = SolverSupervisor(budget=Budget(wall_clock=10.0,
                                                max_ticks=500),
                                  deadline=deadline)
    effective = supervisor._effective_budget()
    assert effective.wall_clock == pytest.approx(2.0)
    assert effective.max_ticks == 500
    # The supervisor's own budget wins when it is the tighter one.
    supervisor = SolverSupervisor(budget=Budget(wall_clock=0.5),
                                  deadline=deadline)
    assert supervisor._effective_budget().wall_clock == \
        pytest.approx(0.5)


def test_expired_deadline_cancels_solve_with_typed_error():
    """Fault injection: a clock skewed past the deadline makes the
    supervised solve fail with the typed deadline error before any
    stage runs -- and records the cancelled fallback step when a stage
    was already in flight."""
    from repro.core.deadline import Deadline
    from repro.errors import SolveDeadlineError

    class FakeClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    deadline = Deadline.after(1.0, clock=clock)
    clock.now = 5.0  # injected skew: deadline long gone
    supervisor = SolverSupervisor(deadline=deadline)
    with pytest.raises(SolveDeadlineError, match="expired"):
        supervisor.solve_ratio(renewal_mdp(), {"num": 1.0},
                               {"den": 1.0}, lo=0.0, hi=5.0)

    # A deadline that expires *mid-solve* cancels the running stage
    # and records it.  The frozen fake clock keeps remaining() at a
    # tiny positive value, so admission passes but the wall-clock
    # budget (measured on the real clock) expires on the first tick.
    supervisor = SolverSupervisor(
        deadline=Deadline.after(1e-9, clock=FakeClock()))
    with pytest.raises(SolverBudgetExceededError):
        supervisor.solve_ratio(renewal_mdp(), {"num": 1.0},
                               {"den": 1.0}, lo=0.0, hi=5.0)
    assert supervisor.cancelled_stage == "dinkelbach"


def test_input_validation_rejects_nonfinite_rewards():
    b = MDPBuilder(actions=["a"], channels=["num", "den"])
    b.add(0, "a", 0, 1.0, num=np.inf, den=1.0)
    mdp = b.build(start=0)
    supervisor = SolverSupervisor()
    with pytest.raises(SolverInputError, match="non-finite"):
        supervisor.solve_ratio(mdp, {"num": 1.0}, {"den": 1.0},
                               lo=0.0, hi=5.0)
    with pytest.raises(SolverInputError, match="non-finite"):
        supervisor.solve_average(mdp, np.array([np.nan]))


def test_exhausted_chain_collects_diagnostics():
    def failing(_request, _clock):
        raise SolverError("stage boom")

    chain = (("first", failing), ("second", failing))
    request = RatioRequest(mdp=renewal_mdp(), num={"num": 1.0},
                           den={"den": 1.0}, lo=0.0, hi=5.0)
    with pytest.raises(FallbackExhaustedError) as info:
        run_chain(chain, request)
    assert [d.stage for d in info.value.diagnostics] == ["first", "second"]
    assert all(d.status == "failed" for d in info.value.diagnostics)

    supervisor = SolverSupervisor(ratio_chain=chain)
    with pytest.raises(FallbackExhaustedError):
        supervisor.solve_ratio(renewal_mdp(), {"num": 1.0}, {"den": 1.0},
                               lo=0.0, hi=5.0)
    assert len(supervisor.diagnostics) == 2


def test_empty_chain_rejected():
    with pytest.raises(SolverInputError, match="no stages"):
        run_chain((), None)


def test_supervised_analyze_matches_plain_analyze():
    config = AttackConfig.from_ratio(0.10, (1, 1), setting=1)
    model = IncentiveModel.COMPLIANT_PROFIT
    plain = analyze(config, model)
    supervised = SolverSupervisor().analyze(config, model)
    assert supervised.utility == pytest.approx(plain.utility, abs=1e-9)
    assert supervised.rates.keys() == plain.rates.keys()
