"""Linear-programming solver for average-reward MDPs.

An independent cross-check of the dynamic-programming solvers: the
optimal gain of a unichain average-reward MDP is the value of the LP
over state-action *occupation measures* ``x(s, a)``::

    maximize    sum_{s,a} r(s, a) x(s, a)
    subject to  sum_a x(t, a) = sum_{s,a} P(t | s, a) x(s, a)   (balance)
                sum_{s,a} x(s, a) = 1,   x >= 0

Solved with ``scipy.optimize.linprog`` (HiGHS).  The optimal basic
solution concentrates on one action per recurrent state; transient
states get an arbitrary (zero-mass) action.  Intended for validation
and for small models -- the policy-iteration solver remains the
production path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import SolverError
from repro.mdp.model import MDP


def lp_average_reward(mdp: MDP, reward: np.ndarray
                      ) -> Tuple[float, np.ndarray]:
    """Solve the average-reward LP and return ``(gain, policy)``.

    The policy assigns, per state, the action with the largest
    occupation mass (transient states fall back to the first available
    action, whose choice cannot affect the gain of a unichain model
    only through recurrent behaviour -- callers wanting transient
    optimality should use :func:`repro.mdp.policy_iteration.policy_iteration`).
    """
    # Imported here: scipy.optimize costs ~0.1 s at import, and only
    # this validation path needs it.
    from scipy import optimize

    reward = np.asarray(reward, dtype=float)
    n, na = mdp.n_states, mdp.n_actions
    pairs = [(s, a) for a in range(na) for s in range(n)
             if mdp.available[a, s]]
    index = {pair: i for i, pair in enumerate(pairs)}
    n_vars = len(pairs)

    cost = np.array([-reward[a, s] for s, a in pairs])

    rows, cols, vals = [], [], []
    for (s, a), i in index.items():
        rows.append(s)
        cols.append(i)
        vals.append(1.0)
        mat = mdp.transition[a]
        lo, hi = mat.indptr[s], mat.indptr[s + 1]
        for t, p in zip(mat.indices[lo:hi], mat.data[lo:hi]):
            rows.append(int(t))
            cols.append(i)
            vals.append(-float(p))
    balance = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n_vars))
    normalization = sparse.csr_matrix(np.ones((1, n_vars)))
    a_eq = sparse.vstack([balance, normalization], format="csc")
    b_eq = np.zeros(n + 1)
    b_eq[-1] = 1.0

    result = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq,
                              bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - solver failure path
        raise SolverError(f"LP solve failed: {result.message}")
    gain = -float(result.fun)

    mass = result.x
    policy = np.asarray(mdp.available.argmax(axis=0), dtype=int)
    best_mass = np.zeros(n)
    for (s, a), i in index.items():
        if mass[i] > best_mass[s] + 1e-12:
            best_mass[s] = mass[i]
            policy[s] = a
    return gain, policy


def lp_gain(mdp: MDP, reward: np.ndarray,
            expected: Optional[float] = None, tol: float = 1e-7) -> float:
    """Convenience: return the LP gain, optionally asserting agreement
    with an expected value (used by validation tests)."""
    gain, _policy = lp_average_reward(mdp, reward)
    if expected is not None and abs(gain - expected) > tol:
        raise SolverError(
            f"LP gain {gain} disagrees with expected {expected}")
    return gain
