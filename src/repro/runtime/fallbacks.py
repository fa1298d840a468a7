"""Declarative solver fallback chains with per-stage diagnostics.

A chain is an ordered list of named stages.  Each stage attempts the
same mathematical problem with a different (generally slower but more
robust) algorithm; a stage that raises a recoverable
:class:`~repro.errors.SolverError` is recorded in the diagnostics and
the next stage is tried.  Input errors and exhausted budgets are *not*
recoverable -- retrying with another algorithm cannot fix a bad bracket
and must not burn a budget that is already spent -- so those propagate
immediately.

Two problem shapes are covered, mirroring what the paper's analyses
run in bulk:

- **ratio maximization** (:class:`RatioRequest`),
  :data:`RATIO_CHAIN`: Dinkelbach -> bisection -> bisection over
  relative value iteration -> bisection over the occupation-measure
  LP;
- **average-reward maximization** (:class:`AverageRequest`),
  :data:`AVERAGE_CHAIN`: policy iteration -> relative value iteration
  -> LP.

Every solve of :mod:`repro.core.solve` runs one of these two chains
(through :mod:`repro.runtime.supervisor`); no flag or environment
variable selects another.

The later stages trade exactness of the warm-started sparse solves for
independence from them: relative value iteration performs no linear
solves at all, and the LP is an entirely different formulation, so a
numerical failure mode of one stage is unlikely to recur in the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    FallbackExhaustedError,
    SolverBudgetExceededError,
    SolverError,
    SolverInputError,
)
from repro.mdp.average_reward import relative_value_iteration
from repro.mdp.linear_programming import lp_average_reward
from repro.mdp.model import MDP
from repro.mdp.policy_iteration import AverageRewardSolution, policy_iteration
from repro.mdp.ratio import RatioSolution, WarmStart, maximize_ratio
from repro.runtime.budget import BudgetClock
from repro.runtime.telemetry import counter_add, span


@dataclass
class StageDiagnostics:
    """Outcome of one fallback-chain stage attempt.

    Attributes
    ----------
    stage:
        Stage name (e.g. ``"dinkelbach"``).
    status:
        ``"ok"`` or ``"failed"``.
    elapsed:
        Wall-clock seconds spent in the stage.
    error:
        Stringified exception for failed stages, ``None`` otherwise.
    error_type:
        Exception class name for failed stages.
    """

    stage: str
    status: str
    elapsed: float
    error: Optional[str] = None
    error_type: Optional[str] = None


@dataclass
class RatioRequest:
    """One ratio-maximization problem for a fallback chain."""

    mdp: MDP
    num: Mapping[str, float]
    den: Mapping[str, float]
    lo: float
    hi: float
    tol: float = 1e-7
    max_iter: int = 80
    initial_policy: Optional[np.ndarray] = None


@dataclass
class AverageRequest:
    """One average-reward problem for a fallback chain."""

    mdp: MDP
    reward: np.ndarray
    initial_policy: Optional[np.ndarray] = None
    max_iter: int = 1000


def _tick(clock: Optional[BudgetClock]) -> Optional[Callable[[int], None]]:
    if clock is None:
        return None
    return lambda _it: clock.tick()


# -- average-reward solvers usable inside ratio bisection --------------

def _pi_solver(clock: Optional[BudgetClock]):
    def solve(mdp: MDP, reward: np.ndarray,
              warm: Optional[WarmStart]) -> AverageRewardSolution:
        initial = None if warm is None else warm.policy
        return policy_iteration(mdp, reward, initial_policy=initial,
                                on_iter=_tick(clock))
    return solve


def _rvi_solver(clock: Optional[BudgetClock]):
    def solve(mdp: MDP, reward: np.ndarray,
              warm: Optional[WarmStart]) -> AverageRewardSolution:
        # Warm-start from the previous iterate's bias vector; tick the
        # budget every 100 sweeps to keep the hook overhead negligible.
        on_iter = None
        if clock is not None:
            def on_iter(it: int) -> None:
                if it % 100 == 0:
                    clock.tick(100)
        v0 = None if warm is None else warm.bias
        return relative_value_iteration(mdp, reward, epsilon=1e-10,
                                        on_iter=on_iter, v0=v0)
    return solve


def _lp_solver(clock: Optional[BudgetClock]):
    def solve(mdp: MDP, reward: np.ndarray,
              _warm: Optional[WarmStart]) -> AverageRewardSolution:
        if clock is not None:
            clock.tick()
        gain, policy = lp_average_reward(mdp, reward)
        return AverageRewardSolution(gain=gain,
                                     bias=np.zeros(mdp.n_states),
                                     policy=policy, iterations=1)
    return solve


# -- ratio stages ------------------------------------------------------

def _ratio_dinkelbach(request: RatioRequest,
                      clock: Optional[BudgetClock]) -> RatioSolution:
    return maximize_ratio(request.mdp, request.num, request.den,
                          lo=request.lo, hi=request.hi, tol=request.tol,
                          max_iter=request.max_iter, method="dinkelbach",
                          initial_policy=request.initial_policy,
                          solver=_pi_solver(clock))


def _ratio_bisection(solver_factory):
    def stage(request: RatioRequest,
              clock: Optional[BudgetClock]) -> RatioSolution:
        return maximize_ratio(request.mdp, request.num, request.den,
                              lo=request.lo, hi=request.hi, tol=request.tol,
                              max_iter=request.max_iter, method="bisection",
                              initial_policy=request.initial_policy,
                              solver=solver_factory(clock))
    return stage


#: The default ratio chain, ordered fastest-first.
RATIO_CHAIN: Tuple[Tuple[str, Callable], ...] = (
    ("dinkelbach", _ratio_dinkelbach),
    ("bisection", _ratio_bisection(_pi_solver)),
    ("value-iteration", _ratio_bisection(_rvi_solver)),
    ("lp", _ratio_bisection(_lp_solver)),
)


# -- average-reward stages ---------------------------------------------

def _average_pi(request: AverageRequest,
                clock: Optional[BudgetClock]) -> AverageRewardSolution:
    return policy_iteration(request.mdp, request.reward,
                            initial_policy=request.initial_policy,
                            max_iter=request.max_iter, on_iter=_tick(clock))


def _average_rvi(request: AverageRequest,
                 clock: Optional[BudgetClock]) -> AverageRewardSolution:
    return _rvi_solver(clock)(request.mdp, request.reward, None)


def _average_lp(request: AverageRequest,
                clock: Optional[BudgetClock]) -> AverageRewardSolution:
    return _lp_solver(clock)(request.mdp, request.reward, None)


#: The default average-reward chain.
AVERAGE_CHAIN: Tuple[Tuple[str, Callable], ...] = (
    ("policy-iteration", _average_pi),
    ("value-iteration", _average_rvi),
    ("lp", _average_lp),
)


@dataclass
class ChainResult:
    """A successful chain run: the stage that succeeded, its result and
    the diagnostics of every attempted stage."""

    stage: str
    result: object
    diagnostics: List[StageDiagnostics] = field(default_factory=list)


def run_chain(chain: Sequence[Tuple[str, Callable]], request,
              clock: Optional[BudgetClock] = None) -> ChainResult:
    """Run ``request`` through ``chain`` until a stage succeeds.

    Raises
    ------
    SolverInputError
        Immediately, from any stage -- malformed inputs cannot be
        repaired by trying a different algorithm.
    SolverBudgetExceededError
        Immediately -- the budget is shared across stages and an
        exhausted budget must abort the whole chain.
    FallbackExhaustedError
        When every stage failed; carries the per-stage diagnostics.
    """
    if not chain:
        raise SolverInputError("fallback chain has no stages")
    diagnostics: List[StageDiagnostics] = []
    for name, stage in chain:
        started = time.monotonic()
        try:
            with span(f"fallback/{name}"):
                result = stage(request, clock)
        except (SolverInputError, SolverBudgetExceededError) as exc:
            counter_add(f"fallback/{name}/failed")
            diagnostics.append(StageDiagnostics(
                stage=name, status="failed",
                elapsed=time.monotonic() - started,
                error=str(exc), error_type=type(exc).__name__))
            # Non-recoverable aborts still carry the per-stage record
            # (earlier failed stages plus the one cancelled mid-flight)
            # so callers can log *which* chain step the budget or
            # deadline cut off.
            exc.diagnostics = diagnostics
            raise
        except SolverError as exc:
            counter_add(f"fallback/{name}/failed")
            diagnostics.append(StageDiagnostics(
                stage=name, status="failed",
                elapsed=time.monotonic() - started,
                error=str(exc), error_type=type(exc).__name__))
            continue
        counter_add(f"fallback/{name}/ok")
        diagnostics.append(StageDiagnostics(
            stage=name, status="ok",
            elapsed=time.monotonic() - started))
        return ChainResult(stage=name, result=result,
                           diagnostics=diagnostics)
    raise FallbackExhaustedError(
        f"all {len(diagnostics)} fallback stages failed: "
        + "; ".join(f"{d.stage}: {d.error}" for d in diagnostics),
        diagnostics=diagnostics)
