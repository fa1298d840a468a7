"""Tests for time-limited attack analysis."""

import pytest

from repro.core.config import AttackConfig
from repro.core.deadline import deadline_value
from repro.errors import ReproError


def cfg():
    return AttackConfig.from_ratio(0.25, (2, 3), setting=1)


def test_per_block_value_below_perpetual_rate():
    analysis = deadline_value(cfg(), horizon=30)
    assert analysis.per_block <= analysis.perpetual_rate + 1e-9
    assert analysis.total_value >= analysis.honest_total - 1e-9


def test_long_horizon_approaches_perpetual_rate():
    analysis = deadline_value(cfg(), horizon=600)
    assert analysis.per_block == pytest.approx(analysis.perpetual_rate,
                                               abs=0.02)
    assert analysis.deadline_efficiency > 0.8


def test_short_deadline_hurts():
    short = deadline_value(cfg(), horizon=5)
    long = deadline_value(cfg(), horizon=200)
    assert short.per_block < long.per_block
    assert short.deadline_efficiency < long.deadline_efficiency


def test_one_block_attack_is_honest():
    """With a single block left there is nothing to fork for."""
    analysis = deadline_value(cfg(), horizon=1)
    assert analysis.total_value == pytest.approx(analysis.config.alpha)


def test_invalid_horizon():
    with pytest.raises(ReproError):
        deadline_value(cfg(), horizon=0)


# -- wall-clock Deadline (the serving layer's request deadlines) ------


class FakeClock:
    """Settable monotonic clock for deterministic deadline tests (and
    the fault-injection skew scenarios)."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_wallclock_deadline_remaining_and_expiry():
    from repro.core.deadline import Deadline
    clock = FakeClock()
    deadline = Deadline.after(2.0, clock=clock)
    assert deadline.remaining() == pytest.approx(2.0)
    assert not deadline.expired
    clock.now = 1.5
    assert deadline.remaining() == pytest.approx(0.5)
    clock.now = 3.0
    assert deadline.expired
    assert deadline.remaining() == 0.0  # never negative


def test_deadline_rejects_nonpositive_duration():
    from repro.core.deadline import Deadline
    with pytest.raises(ReproError, match="positive"):
        Deadline.after(0.0)
    with pytest.raises(ReproError, match="positive"):
        Deadline.after(-1.0)


def test_deadline_budget_carries_remaining_time():
    from repro.core.deadline import Deadline
    clock = FakeClock()
    deadline = Deadline.after(10.0, clock=clock)
    clock.now = 4.0
    budget = deadline.budget()
    assert budget.wall_clock == pytest.approx(6.0)


def test_expired_deadline_raises_typed_error_not_zero_budget():
    """An expired deadline surfaces as the typed timeout error, never
    as a malformed zero-second Budget."""
    from repro.core.deadline import Deadline
    from repro.errors import SolveDeadlineError, SolverBudgetExceededError
    clock = FakeClock()
    deadline = Deadline.after(1.0, clock=clock)
    clock.now = 2.0
    with pytest.raises(SolveDeadlineError, match="expired"):
        deadline.budget()
    # The subclassing contract the retry logic relies on: a deadline
    # miss is a budget error (fallback chains abort, retries refuse).
    assert issubclass(SolveDeadlineError, SolverBudgetExceededError)


def test_clock_skew_expires_deadline_under_fault_injection():
    """A service clock skewed forward (the chaos harness's
    clock-skewed-deadline fault) expires deadlines early and takes the
    typed-error path, not an under-budgeted solve."""
    from repro.core.deadline import Deadline
    from repro.errors import SolveDeadlineError
    from repro.runtime.faults import (
        ServiceFaultInjector,
        ServiceFaultPlan,
    )
    base = FakeClock()
    skewed = ServiceFaultInjector(
        ServiceFaultPlan(clock_skew_s=5.0)).skewed_clock(base)
    deadline = Deadline.after(2.0, clock=base)
    assert deadline.expires_at == pytest.approx(2.0)
    assert skewed() == pytest.approx(5.0)
    # Through the skewed lens the same deadline is already gone.
    viewed = Deadline(expires_at=deadline.expires_at, clock=skewed)
    assert viewed.expired
    with pytest.raises(SolveDeadlineError):
        viewed.budget()
