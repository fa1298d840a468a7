"""Maximization of gain ratios over policies.

The paper's relative-revenue utility (Eq. 1) and orphan-rate utility
(Eq. 3) are ratios of long-run accumulation rates::

    maximize over policies    gain_num(policy) / gain_den(policy)

Following Sapirshtein et al., the transformed reward
``w(rho) = num - rho * den`` turns this into a family of standard
average-reward problems whose optimal gain ``f(rho)`` is non-increasing
in ``rho`` and crosses zero exactly at the optimal ratio.

Three methods are provided:

- **Dinkelbach iteration** (default): repeatedly set ``rho`` to the
  ratio of the current policy and re-solve; converges superlinearly
  when every encountered policy has a positive denominator rate.
- **Bisection**: robust fallback that also handles the degenerate case
  where some policies have zero denominator rate (e.g. the "always
  wait" policy of the non-profit-driven model, for which
  ``f(rho) = 0`` for all ``rho`` beyond the optimum); there the answer
  is the threshold ``sup { rho : f(rho) > 0 }``.
- **PTO** (:mod:`repro.mdp.pto`): the probabilistic-termination
  reduction of Bar-Zur, Eyal & Tamar -- the transformed problems
  become *terminated* total-reward problems whose policy evaluations
  are independent of ``rho``, so one factorization per distinct policy
  serves every outer iteration.  Reached only by an explicit
  ``method="pto"``; no solve of the paper's pipeline uses it.

Every method threads the previous iterate's policy and bias vector
into the next transformed solve as a :class:`WarmStart`, so successive
solves start near their fixed point instead of from scratch (counter
``solver/ratio/warm_start_hits``).

Dinkelbach and PTO raise a typed :class:`~repro.errors.SolverError` on
degeneracy (zero-denominator policies, which make PTO's terminated
system singular) or iteration exhaustion; they never switch method.
Recovery is the job of the fallback chain of
:mod:`repro.runtime.fallbacks`, whose next stage is bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from repro.errors import SolverDivergedError, SolverError, SolverInputError
from repro.mdp.model import MDP
from repro.mdp.policy_iteration import AverageRewardSolution, policy_iteration
from repro.mdp.stationary import policy_gains
from repro.runtime.telemetry import counter_add, gauge_set, span

#: A gain below this (relative to the reward scale of the transformed
#: problem) counts as "zero" when testing profitability.
GAIN_TOL = 1e-10

#: Denominator rates below this (relative to the denominator channel's
#: reward scale) abort Dinkelbach in favour of bisection.  Scaling both
#: objective channels by a common factor must not change which policies
#: count as degenerate, so the floor is applied to
#: ``g_den / max|r_den|``, not to ``g_den`` itself.
DEN_FLOOR = 1e-9

#: Recognized ratio-objective methods.
RATIO_METHODS = ("dinkelbach", "bisection", "pto")


@dataclass
class WarmStart:
    """Starting point threaded between successive transformed solves.

    ``policy`` seeds policy iteration (``initial_policy=``); ``bias``
    seeds relative value iteration (``v0=``).  Solvers use whichever
    component they understand and ignore the other.
    """

    policy: np.ndarray
    bias: Optional[np.ndarray] = None


#: An average-reward solver usable by :func:`maximize_ratio`: takes the
#: MDP, a precombined reward array and an optional warm start.
AverageRewardSolver = Callable[[MDP, np.ndarray, Optional[WarmStart]],
                               AverageRewardSolution]


@dataclass
class RatioSolution:
    """Result of a ratio maximization.

    Attributes
    ----------
    value:
        The maximal ratio ``gain_num / gain_den``.
    policy:
        A policy achieving it.
    gain_num, gain_den:
        The two channel rates under that policy.
    iterations:
        Method rounds performed (transformed-MDP solves for
        Dinkelbach/bisection; outer ``rho`` updates for PTO).
    method:
        ``"dinkelbach"``, ``"bisection"`` or ``"pto"`` (which method
        produced the final answer).
    transformed_solves:
        Number of transformed-problem solves actually paid for:
        average-reward solves for Dinkelbach/bisection, terminated
        policy evaluations (sparse LU factorizations) for PTO.  This is
        the quantity the ``ratio-methods`` benchmark gates.
    """

    value: float
    policy: np.ndarray
    gain_num: float
    gain_den: float
    iterations: int
    method: str
    transformed_solves: int = 0


def _default_solver(mdp: MDP, reward: np.ndarray,
                    warm: Optional[WarmStart]) -> AverageRewardSolution:
    initial = None if warm is None else warm.policy
    return policy_iteration(mdp, reward, initial_policy=initial)


def _channel_gains(mdp: MDP, policy: np.ndarray,
                   num: Mapping[str, float],
                   den: Mapping[str, float],
                   rho: Optional[float] = None) -> tuple:
    gains = policy_gains(mdp, policy, set(num) | set(den))
    g_num = sum(w * gains[c] for c, w in num.items())
    g_den = sum(w * gains[c] for c, w in den.items())
    if not (np.isfinite(g_num) and np.isfinite(g_den)):
        where = "" if rho is None else f" at rho={rho!r}"
        raise SolverDivergedError(
            f"non-finite channel gains{where}: "
            f"gain_num={g_num!r}, gain_den={g_den!r}")
    return g_num, g_den


def _transformed(mdp: MDP, num: Mapping[str, float],
                 den: Mapping[str, float], rho: float) -> np.ndarray:
    weights = dict(num)
    for c, w in den.items():
        weights[c] = weights.get(c, 0.0) - rho * w
    return mdp.combined_reward(weights)


def _validate_inputs(num: Mapping[str, float], den: Mapping[str, float],
                     lo: float, hi: float, tol: float, max_iter: int,
                     method: str) -> None:
    if not num:
        raise SolverInputError("numerator channel mapping is empty")
    if not den:
        raise SolverInputError("denominator channel mapping is empty")
    if tol <= 0:
        raise SolverInputError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise SolverInputError(f"max_iter must be >= 1, got {max_iter!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise SolverInputError(f"ratio bracket [{lo!r}, {hi!r}] must be "
                               "finite")
    if hi <= lo:
        raise SolverInputError("ratio bracket must satisfy lo < hi")
    if method not in RATIO_METHODS:
        raise SolverInputError(f"unknown method {method!r}")


def maximize_ratio(mdp: MDP, num: Mapping[str, float],
                   den: Mapping[str, float], lo: float, hi: float,
                   tol: float = 1e-7, max_iter: int = 80,
                   method: str = "dinkelbach",
                   initial_policy: Optional[np.ndarray] = None,
                   solver: Optional[AverageRewardSolver] = None
                   ) -> RatioSolution:
    """Maximize ``gain(num) / gain(den)`` over stationary policies.

    Parameters
    ----------
    num, den:
        Channel-weight mappings defining numerator and denominator.
    lo, hi:
        Bracket known to contain the optimal ratio.
    tol:
        Absolute precision of the returned ratio.
    method:
        ``"dinkelbach"`` (default), ``"bisection"`` or ``"pto"``.
        Dinkelbach and PTO raise :class:`~repro.errors.SolverError`
        when the iteration hits a zero-denominator policy or exhausts
        ``max_iter``.
    initial_policy:
        Optional warm start.
    solver:
        Average-reward solver for the transformed problems; defaults
        to :func:`repro.mdp.policy_iteration.policy_iteration`.  The
        fallback chain substitutes relative value iteration or the
        occupation-measure LP here.  (The PTO method performs its own
        terminated evaluations and does not use this.)
    """
    _validate_inputs(num, den, lo, hi, tol, max_iter, method)
    if solver is None:
        solver = _default_solver
    solves = 0
    warm: Optional[WarmStart] = None
    if initial_policy is not None:
        warm = WarmStart(policy=np.asarray(initial_policy, dtype=int))

    # Reward scales make every tolerance below scale-equivariant:
    # multiplying num and/or den by a common factor changes neither
    # which policies count as degenerate nor the relative accuracy of
    # the accepted ratio (absolute GAIN_TOL/DEN_FLOOR would).
    num_scale = float(np.abs(mdp.combined_reward(num)).max())
    den_scale = float(np.abs(mdp.combined_reward(den)).max())
    den_floor = DEN_FLOOR * (den_scale if den_scale > 0 else 1.0)

    def run_solver(reward: np.ndarray,
                   warm: Optional[WarmStart]) -> AverageRewardSolution:
        nonlocal solves
        if warm is not None:
            counter_add("solver/ratio/warm_start_hits")
        solution = solver(mdp, reward, warm)
        solves += 1
        counter_add("solver/ratio/transformed_solves")
        return solution

    def finish(solution: RatioSolution,
               residual: float) -> RatioSolution:
        counter_add("solver/ratio/solves")
        counter_add(f"solver/ratio/{solution.method}_wins")
        gauge_set("solver/ratio/value", solution.value)
        gauge_set("solver/ratio/final_residual", residual)
        return solution

    if method == "pto":
        from repro.mdp.pto import solve_pto  # deferred: pto imports us
        solution, residual = solve_pto(
            mdp, num, den, lo, hi, tol=tol, max_iter=max_iter,
            initial_policy=initial_policy)
        return finish(solution, residual)

    if method == "dinkelbach":
        with span("solve/ratio/dinkelbach"):
            rho = lo
            for _ in range(max_iter):
                counter_add("solver/ratio/dinkelbach_rounds")
                solution = run_solver(_transformed(mdp, num, den, rho),
                                      warm)
                warm = WarmStart(policy=solution.policy,
                                 bias=solution.bias)
                policy = solution.policy
                g_num, g_den = _channel_gains(mdp, policy, num, den,
                                              rho=rho)
                if g_den < den_floor:
                    raise SolverError(
                        "Dinkelbach hit a degenerate (zero-denominator) "
                        f"policy at rho={rho!r}: gain_num={g_num!r}, "
                        f"gain_den={g_den!r} (den_floor={den_floor!r})")
                new_rho = g_num / g_den
                best = RatioSolution(value=new_rho, policy=policy,
                                     gain_num=g_num, gain_den=g_den,
                                     iterations=solves,
                                     method="dinkelbach",
                                     transformed_solves=solves)
                # Scale-aware acceptance: the ratio step is measured
                # relative to the ratio's own magnitude and the
                # transformed-gain residual relative to the achieved
                # channel gains, so every reward scaling converges to
                # the same *relative* accuracy.
                gain_scale = max(abs(g_num), abs(g_den))
                if (new_rho <= rho + tol * max(1.0, abs(new_rho))
                        and abs(solution.gain)
                        <= max(GAIN_TOL, tol) * gain_scale):
                    return finish(best, abs(solution.gain))
                if new_rho <= rho:  # numerical stall; converged
                    return finish(best, abs(solution.gain))
                rho = new_rho
            raise SolverError(
                f"Dinkelbach did not converge in {max_iter} "
                f"transformed solves (last rho={rho!r})")

    # Bisection on the profitability threshold.
    with span("solve/ratio/bisection"):
        lo_b, hi_b = lo, hi
        best_warm = warm
        best_policy = None if warm is None else warm.policy
        last_gain = float("nan")
        for _ in range(max_iter):
            if hi_b - lo_b <= tol * max(1.0, abs(lo_b), abs(hi_b)):
                break
            counter_add("solver/ratio/bisection_rounds")
            mid = 0.5 * (lo_b + hi_b)
            solution = run_solver(_transformed(mdp, num, den, mid),
                                  best_warm)
            last_gain = abs(solution.gain)
            # Profitability is judged relative to the transformed
            # reward's scale: with both channels scaled by 1e-8, an
            # absolute threshold would classify every mid within ~1e-2
            # of the optimum as unprofitable and bias the bracket.
            w_scale = max(num_scale, abs(mid) * den_scale)
            if solution.gain > GAIN_TOL * max(w_scale, 1e-300):
                lo_b = mid
                best_policy = solution.policy
                best_warm = WarmStart(policy=solution.policy,
                                      bias=solution.bias)
            else:
                hi_b = mid
        if best_policy is None:
            solution = run_solver(_transformed(mdp, num, den, lo_b), None)
            best_policy = solution.policy
            last_gain = abs(solution.gain)
        g_num, g_den = _channel_gains(mdp, best_policy, num, den,
                                      rho=lo_b)
        value = g_num / g_den if g_den > den_floor else 0.5 * (lo_b + hi_b)
        if not np.isfinite(value):
            raise SolverDivergedError(
                f"ratio bisection produced non-finite value {value!r} "
                f"(gain_num={g_num!r}, gain_den={g_den!r})")
        return finish(RatioSolution(value=float(value), policy=best_policy,
                                    gain_num=g_num, gain_den=g_den,
                                    iterations=solves, method="bisection",
                                    transformed_solves=solves),
                      last_gain)
