"""Stacked Bellman kernels and cross-solve policy-evaluation caching.

This module is the performance layer under every MDP solver in the
library.  Two observations drive it:

1. **The Q-backup is a single sparse matmul.**  All dynamic-programming
   solvers (discounted and relative value iteration, policy iteration,
   finite-horizon backward induction) repeat the same inner step::

       q[a] = reward[a] + discount * P_a . values     for every action a

   Stacking the per-action transition matrices once into one
   ``(A * N, N)`` CSR matrix turns the per-action Python loop into one
   ``stack @ values`` followed by a reshape, and lets the policy-induced
   matrix ``P_pi`` be extracted by fancy row slicing
   (``rows = policy * N + arange(N)``) instead of a
   ``diags(mask) @ P_a`` product per action.

2. **One reward-independent system serves every evaluation of a
   policy**, and for the paper's attack MDPs that system is
   triangular.  Every block race ends back at the base state, so once
   the transitions into ``start`` are removed, the union of all
   actions' transition graphs is acyclic
   (:meth:`BellmanKernel.renewal_order` finds an order in which every
   such transition points to an earlier state).  Zeroing the ``start``
   column of ``P_pi`` then leaves ``M = I - P~`` unit lower-triangular
   in that order, and renewal at ``start`` evaluates the policy with
   triangular solves only -- no factorization and no fill:

   .. code-block:: text

       x = M^-1 r_pi    y = M^-1 1    (expected steps to reach start)
       g = x[start] / y[start]        h = x - g y   (h[start] = 0)
       pi = M^-T e_start, normalized  (expected visits per cycle)

   MDPs whose graph keeps a cycle (Bitcoin selfish mining with double
   spending, whose ``start`` is never re-entered, and generic test
   models) use the bordered average-reward system instead

   .. code-block:: text

       A = [ I - P_pi   1 ]        A [h; g] = [r_pi; 0]
           [ e_start^T  0 ]

   with one sparse LU factorization per policy; its stationary
   distribution is the solution of the *transposed* system with
   right-hand side ``e_{n}`` (writing ``A^T [y; c] = e_n`` gives
   ``(I - P_pi)^T y = -c e_start`` and ``sum(y) = 1``; multiplying the
   first block by the all-ones vector forces ``c = 0`` because
   ``(I - P_pi) 1 = 0`` for a row-stochastic ``P_pi``, hence ``y`` *is*
   the stationary distribution).  On either path gain, bias,
   stationary distribution and every per-channel rate of a policy
   cost one system set-up total, reused across the dozens of
   transformed rewards a Dinkelbach/bisection ratio solve evaluates.

:class:`PolicyEvalCache` memoizes both facts per policy (keyed by
``policy.tobytes()``) on behalf of
:func:`repro.mdp.policy_iteration.evaluate_policy` and
:func:`repro.mdp.stationary.policy_gains`; see ``docs/performance.md``
for the cache-key and invalidation rules.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sla

from repro.errors import MDPError, SolverError
from repro.mdp import backends
from repro.runtime.telemetry import counter_add

#: Per-policy memo size for (reward -> gain/bias) results; Dinkelbach
#: revisits at most a handful of transformed rewards per policy.
EVAL_MEMO_SIZE = 8

#: Default number of policies kept per cache (LRU).
POLICY_CACHE_SIZE = 32


class BellmanKernel:
    """Precomputed ``(A * N, N)`` CSR stack of an MDP's transitions.

    The stack's row ``a * N + s`` is the transition row of action ``a``
    in state ``s``; it is built once per MDP (lazily, via
    ``MDP.kernel()``) and shared by every solver touching that MDP.
    """

    def __init__(self, mdp) -> None:
        self.n_states = mdp.n_states
        self.n_actions = mdp.n_actions
        self.start = mdp.start
        self.stack = sparse.vstack(mdp.transition, format="csr")
        self.available = mdp.available
        self._all_available = bool(mdp.available.all())
        self._rows = np.arange(mdp.n_states)

    @cached_property
    def _renewal_rank(self) -> Optional[np.ndarray]:
        """Position of every state in the renewal order (see
        :meth:`renewal_order`), or ``None`` when there is none.

        Computed once per kernel and independent of rewards.  The
        union graph of all actions minus the edges into ``start`` goes
        through strongly connected components; their labels (sinks
        first) are accepted as the order only if every edge then
        points strictly backwards, which also rules out self-loops.
        """
        n = self.n_states
        stack = self.stack
        src = np.repeat(np.arange(stack.shape[0]) % n,
                        np.diff(stack.indptr))
        dst = stack.indices
        keep = (dst != self.start) & (stack.data != 0)
        src, dst = src[keep], dst[keep]
        graph = sparse.csr_matrix(
            (np.ones(src.size, dtype=bool), (src, dst)), shape=(n, n))
        _, labels = csgraph.connected_components(
            graph, directed=True, connection="strong")
        return labels if np.all(labels[dst] < labels[src]) else None

    def renewal_order(self) -> Optional[np.ndarray]:
        """The states ordered so that every transition not into
        ``start`` goes to an earlier state, or ``None`` when the union
        of all actions' transition graphs keeps a cycle (a self-loop
        included) after the transitions into ``start`` are removed.

        When it exists, every policy's chain returns to ``start`` from
        every state and :class:`PolicyEvalCache` evaluates it by
        triangular renewal solves instead of an LU factorization.
        """
        rank = self._renewal_rank
        return None if rank is None else np.argsort(rank)

    def q_values(self, reward: np.ndarray, values: np.ndarray,
                 discount: float = 1.0) -> np.ndarray:
        """Return the ``(A, N)`` action-value array
        ``q[a, s] = reward[a, s] + discount * P_a[s] . values`` with
        unavailable (state, action) pairs masked to ``-inf``.

        Dispatches through the active compute backend
        (:mod:`repro.mdp.backends`); every backend is bit-identical.
        """
        return backends.active().q_backup(self, reward, values,
                                          discount)

    def policy_rows(self, policy: np.ndarray) -> np.ndarray:
        """Stack row indices selected by ``policy`` (one per state)."""
        policy = np.asarray(policy, dtype=np.intp)
        if policy.shape != (self.n_states,):
            raise MDPError("policy must assign one action per state")
        if policy.size and (policy.min() < 0
                            or policy.max() >= self.n_actions):
            raise MDPError("policy contains out-of-range action indices")
        return policy * self.n_states + self._rows

    def policy_matrix(self, policy: np.ndarray) -> sparse.csr_matrix:
        """The ``(N, N)`` transition matrix induced by ``policy``,
        extracted by row slicing of the stack (through the active
        compute backend)."""
        return backends.active().policy_matrix(
            self, self.policy_rows(policy))


def q_backup(mdp, reward: np.ndarray, values: np.ndarray,
             discount: float = 1.0) -> np.ndarray:
    """Shared Q-backup used by every dynamic-programming solver.

    The ``kernel/q_backups`` telemetry counter is *not* bumped here:
    solvers accumulate their backup count locally and flush it once
    per solve via :func:`note_q_backups` (merged totals are identical
    to per-call counting, without a registry dict lookup in the inner
    loop).
    """
    return mdp.kernel().q_values(reward, values, discount=discount)


def q_backup_max(mdp, reward: np.ndarray, values: np.ndarray,
                 discount: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Fused Q-backup returning ``(q.max(axis=0), q.argmax(axis=0))``
    without materializing ``q`` on compiled backends -- the sweep shape
    of value-style iterations (VI, RVI, backward induction)."""
    return backends.active().q_backup_max(mdp.kernel(), reward, values,
                                          discount)


def q_backup_greedy(mdp, reward: np.ndarray, values: np.ndarray,
                    discount: float = 1.0
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused Q-backup returning ``(q, best, greedy_policy)`` in one
    kernel pass -- the improvement shape of Howard policy iteration,
    which also needs the incumbent's action values."""
    return backends.active().q_backup_greedy(mdp.kernel(), reward,
                                             values, discount)


def q_backup_states(mdp, reward: np.ndarray, values: np.ndarray,
                    states: np.ndarray, discount: float = 1.0
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Fused Q-backup over a *subset* of states: ``(best, policy)``
    arrays of length ``len(states)``, bit-identical to slicing
    :func:`q_backup_max`'s result at ``states``.  The sweep shape of
    the prioritized asynchronous engine (:mod:`repro.mdp.approx`),
    which backs up only the states popped off its residual queue."""
    return backends.active().q_backup_states(
        mdp.kernel(), reward, values,
        np.asarray(states, dtype=np.int64), discount)


def note_q_backups(count: int) -> None:
    """Flush a solver's locally-accumulated backup count into the
    ``kernel/q_backups`` counter (and the per-backend detail) once per
    solve.  Counters stay worker-merge-safe and value-identical to the
    historical per-call bumps."""
    if count:
        counter_add("kernel/q_backups", count)
        counter_add(f"backend/{backends.active().name}/q_backups",
                    count)


def greedy_policy_from_q(q: np.ndarray) -> np.ndarray:
    """Greedy action indices of a masked ``(A, N)`` Q array (first
    maximizer on ties -- the tie-break every backend's fused argmax
    reproduces)."""
    return np.asarray(q.argmax(axis=0), dtype=int)


@dataclass
class EvalCacheStats:
    """Hit/miss counters of a :class:`PolicyEvalCache`.

    ``factorizations`` counts evaluation-system set-ups, one per
    distinct policy: a sparse LU factorization of the bordered system,
    or the assembly of the triangular renewal system -- the expensive
    operation the cache exists to avoid.
    """

    policy_hits: int = 0
    policy_misses: int = 0
    eval_hits: int = 0
    eval_misses: int = 0
    gain_hits: int = 0
    gain_misses: int = 0
    stationary_hits: int = 0
    stationary_misses: int = 0
    factorizations: int = 0

    def bump(self, name: str, value: int = 1) -> None:
        """Increment one counter, mirroring it into the telemetry
        registry (``eval_cache/<name>``) so traces always agree with
        the stats object."""
        setattr(self, name, getattr(self, name) + value)
        counter_add(f"eval_cache/{name}", value)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class _PolicyStructure:
    """Reward-independent artifacts of one policy: the induced matrix,
    its evaluation system (set up once) and the stationary
    distribution.  Shareable between MDPs that differ only in reward
    channels.  Subclasses supply the system and its solves."""

    __slots__ = ("policy", "p_pi", "start", "_system", "_pi")

    def __init__(self, policy: np.ndarray, p_pi: sparse.csr_matrix,
                 start: int) -> None:
        self.policy = policy
        self.p_pi = p_pi
        self.start = start
        self._system = None
        self._pi: Optional[np.ndarray] = None

    def system(self, stats: EvalCacheStats):
        if self._system is None:
            self._system = self._set_up()
            stats.bump("factorizations")
        return self._system

    def stationary(self, stats: EvalCacheStats) -> np.ndarray:
        if self._pi is None:
            stats.bump("stationary_misses")
            # Verify the residual of the normalized solution: a
            # (near-)singular evaluation system -- a multichain
            # policy -- can return finite garbage that `isfinite`
            # alone would accept.
            from repro.mdp.stationary import _check_stationary_residual
            self._pi = _check_stationary_residual(
                self._stationary_solve(stats), self.p_pi,
                f"policy stationary (start={self.start})")
        else:
            stats.bump("stationary_hits")
        return self._pi


class _BorderedStructure(_PolicyStructure):
    """Evaluation through one COLAMD LU of the bordered ``(N+1)``
    average-reward system (MDPs without a renewal order)."""

    __slots__ = ()

    def _set_up(self):
        n = self.p_pi.shape[0]
        eye = sparse.identity(n, format="csr")
        ones = sparse.csr_matrix(np.ones((n, 1)))
        pin = sparse.csr_matrix(
            (np.ones(1), (np.zeros(1, dtype=int),
                          np.array([self.start]))), shape=(1, n))
        top = sparse.hstack([eye - self.p_pi, ones], format="csr")
        bottom = sparse.hstack([pin, sparse.csr_matrix((1, 1))],
                               format="csr")
        system = sparse.vstack([top, bottom], format="csc")
        try:
            # COLAMD ordering factors the 30k-state evaluation systems
            # ~1.7x faster than SuperLU's default.
            return sla.splu(system, permc_spec="COLAMD")
        except Exception as exc:
            raise SolverError(
                f"policy evaluation failed: {exc}") from exc

    def gain_bias(self, r_pi: np.ndarray,
                  stats: EvalCacheStats) -> Tuple[float, np.ndarray]:
        n = self.p_pi.shape[0]
        rhs = np.concatenate([r_pi, [0.0]])
        solution = self.system(stats).solve(rhs)
        if not np.all(np.isfinite(solution)):
            raise SolverError(
                "policy evaluation produced non-finite values; the policy "
                "is likely multichain (start state unreachable)")
        return float(solution[n]), solution[:n]

    def _stationary_solve(self, stats: EvalCacheStats) -> np.ndarray:
        n = self.p_pi.shape[0]
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        return self.system(stats).solve(rhs, trans="T")[:n]


class _RenewalStructure(_PolicyStructure):
    """Evaluation by renewal at ``start``: triangular solves with
    ``M = I - P~`` (``P_pi`` with its ``start`` column zeroed), stored
    in the kernel's renewal order, where it is unit lower-triangular.
    The expected steps to reach ``start``, ``y = M^-1 1``, are cached
    with the structure."""

    __slots__ = ("rank", "_steps")

    def __init__(self, policy: np.ndarray, p_pi: sparse.csr_matrix,
                 start: int, rank: np.ndarray) -> None:
        super().__init__(policy, p_pi, start)
        self.rank = rank
        self._steps: Optional[np.ndarray] = None

    def _set_up(self) -> sparse.csc_matrix:
        p, rank = self.p_pi, self.rank
        n = p.shape[0]
        keep = p.indices != self.start
        diagonal = np.arange(n, dtype=rank.dtype)
        rows = np.repeat(rank, np.diff(p.indptr))[keep]
        return sparse.csc_matrix(
            (np.concatenate([np.ones(n), -p.data[keep]]),
             (np.concatenate([diagonal, rows]),
              np.concatenate([diagonal, rank[p.indices[keep]]]))),
            shape=(n, n))

    def _solve(self, stats: EvalCacheStats, rhs: np.ndarray,
               transposed: bool = False) -> np.ndarray:
        """``M^-1 rhs`` (or ``M^-T rhs``), both in renewal order.
        ``M`` stores its unit diagonal, so ``unit_diagonal`` rewrites
        ones over ones and ``overwrite_A`` spares a copy of ``M`` per
        solve without changing it."""
        m = self.system(stats)
        if transposed:
            return sla.spsolve_triangular(m.T, rhs, lower=False,
                                          overwrite_A=True,
                                          unit_diagonal=True)
        return sla.spsolve_triangular(m, rhs, lower=True,
                                      overwrite_A=True,
                                      unit_diagonal=True)

    def gain_bias(self, r_pi: np.ndarray,
                  stats: EvalCacheStats) -> Tuple[float, np.ndarray]:
        rank = self.rank
        rhs = np.empty_like(r_pi)
        rhs[rank] = r_pi
        total = self._solve(stats, rhs)
        if self._steps is None:
            self._steps = self._solve(stats, np.ones_like(r_pi))
        at_start = rank[self.start]
        gain = total[at_start] / self._steps[at_start]
        bias = (total - gain * self._steps)[rank]
        bias[self.start] = 0.0
        if not (np.isfinite(gain) and np.all(np.isfinite(bias))):
            raise SolverError(
                "policy evaluation produced non-finite values")
        return float(gain), bias

    def _stationary_solve(self, stats: EvalCacheStats) -> np.ndarray:
        rhs = np.zeros(self.p_pi.shape[0])
        rhs[self.rank[self.start]] = 1.0
        return self._solve(stats, rhs, transposed=True)[self.rank]


class _PolicyEntry:
    """Cache record for one policy: shared structure plus the
    reward-dependent memos (channel gains, transformed-reward
    evaluations)."""

    __slots__ = ("structure", "gains", "evals")

    def __init__(self, structure: _PolicyStructure) -> None:
        self.structure = structure
        self.gains: Dict[str, float] = {}
        self.evals: "OrderedDict[bytes, Tuple[float, np.ndarray]]" = \
            OrderedDict()


class PolicyEvalCache:
    """Per-MDP memoization of policy evaluations, keyed by
    ``policy.tobytes()``.

    Cached per policy:

    - the induced transition matrix ``P_pi`` (row-sliced off the
      Bellman stack) and its evaluation system: the triangular renewal
      system when the kernel has a renewal order
      (:meth:`BellmanKernel.renewal_order`), else the LU factorization
      of the bordered average-reward system -- *reward-independent*;
    - the stationary distribution (one transposed triangular solve on
      the same system) -- *reward-independent*;
    - per-channel gains ``pi . r_pi`` and (gain, bias) pairs per
      transformed reward -- *reward-dependent*, dropped by
      :meth:`invalidate_rewards`.

    The reward-dependent memos key transformed rewards by a digest of
    the combined ``(A, N)`` array, which is what makes Dinkelbach's
    re-evaluation of the incumbent policy at the converged ``rho`` (and
    the final ``policy_gains`` reporting pass) hit instead of
    re-solving.
    """

    def __init__(self, mdp, max_policies: int = POLICY_CACHE_SIZE) -> None:
        self._mdp = mdp
        self._max = int(max_policies)
        self._entries: "OrderedDict[bytes, _PolicyEntry]" = OrderedDict()
        self.stats = EvalCacheStats()

    # -- entry management ---------------------------------------------

    def _entry(self, policy: np.ndarray) -> _PolicyEntry:
        policy = np.asarray(policy, dtype=int)
        key = policy.tobytes()
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.bump("policy_hits")
            self._entries.move_to_end(key)
            return entry
        self.stats.bump("policy_misses")
        kernel = self._mdp.kernel()
        p_pi = kernel.policy_matrix(policy)
        rank = kernel._renewal_rank
        if rank is None:
            structure: _PolicyStructure = _BorderedStructure(
                policy.copy(), p_pi, self._mdp.start)
        else:
            structure = _RenewalStructure(policy.copy(), p_pi,
                                          self._mdp.start, rank)
        entry = _PolicyEntry(structure)
        self._entries[key] = entry
        while len(self._entries) > self._max:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    # -- evaluations --------------------------------------------------

    def evaluate(self, policy: np.ndarray,
                 reward: np.ndarray) -> Tuple[float, np.ndarray]:
        """Gain and bias of ``policy`` under a precombined ``(A, N)``
        reward array (the cached engine behind
        :func:`repro.mdp.policy_iteration.evaluate_policy`)."""
        entry = self._entry(policy)
        reward = np.asarray(reward, dtype=float)
        memo_key = reward.tobytes()
        hit = entry.evals.get(memo_key)
        if hit is not None:
            self.stats.bump("eval_hits")
            entry.evals.move_to_end(memo_key)
            gain, bias = hit
            return gain, bias.copy()
        self.stats.bump("eval_misses")
        r_pi = reward[entry.structure.policy,
                      np.arange(self._mdp.n_states)]
        gain, bias = entry.structure.gain_bias(r_pi, self.stats)
        entry.evals[memo_key] = (gain, bias)
        while len(entry.evals) > EVAL_MEMO_SIZE:
            entry.evals.popitem(last=False)
        return gain, bias.copy()

    def stationary(self, policy: np.ndarray) -> np.ndarray:
        """Stationary distribution of the policy-induced chain."""
        return self._entry(policy).structure.stationary(self.stats)

    def channel_gains(self, policy: np.ndarray,
                      channels: Optional[Iterable[str]] = None
                      ) -> Dict[str, float]:
        """Long-run per-step rate of each reward channel under
        ``policy`` (the cached engine behind
        :func:`repro.mdp.stationary.policy_gains`)."""
        entry = self._entry(policy)
        names = list(channels) if channels is not None \
            else self._mdp.channels
        missing = [n for n in names if n not in entry.gains]
        if missing:
            self.stats.bump("gain_misses", len(missing))
            pi = entry.structure.stationary(self.stats)
            states = np.arange(self._mdp.n_states)
            rows = entry.structure.policy, states
            for name in missing:
                r_pi = self._mdp.channel_reward(name)[rows]
                entry.gains[name] = float(pi.dot(r_pi))
        self.stats.bump("gain_hits", len(names) - len(missing))
        return {name: entry.gains[name] for name in names}

    # -- invalidation -------------------------------------------------

    def invalidate_rewards(self) -> None:
        """Drop every reward-dependent memo (channel gains and
        transformed-reward evaluations) while keeping the expensive
        reward-independent structure (``P_pi``, evaluation systems,
        stationary distributions).

        Call this if an MDP's reward channels are replaced in place;
        the reward-channel rebuild path of
        :func:`repro.core.attack_mdp.build_attack_mdp` uses
        :meth:`structure_view` instead, which achieves the same on a
        fresh MDP instance without mutating the source cache.
        """
        for entry in self._entries.values():
            entry.gains.clear()
            entry.evals.clear()

    def clear(self) -> None:
        """Drop everything."""
        self._entries.clear()

    def structure_view(self, mdp) -> "PolicyEvalCache":
        """A new cache for ``mdp`` (same transition structure,
        different reward channels) that shares this cache's per-policy
        structure artifacts but starts with empty reward memos."""
        view = PolicyEvalCache(mdp, max_policies=self._max)
        for key, entry in self._entries.items():
            view._entries[key] = _PolicyEntry(entry.structure)
        return view
