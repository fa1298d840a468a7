"""Seeded generators for adversarial MDP conformance instances.

Each generator produces a small instance designed to stress one known
failure mode of the float solvers:

- ``unichain``     -- the baseline: random dense-ish unichain models.
- ``periodic``     -- a deterministic cycle (period = n); value-style
  iterations oscillate without damping.
- ``near-degenerate`` -- transition mass of ``2**-40`` (~9.1e-13) to a
  rare state; exercises probability floors and stationary solves with
  ~12 orders of magnitude between masses.
- ``wide-scale``   -- reward channels scaled by powers of two spanning
  ~8 decimal orders of magnitude; exercises absolute tolerances
  (the scale-blind ratio acceptance bug) and denominator floors.
- ``duplicate-action`` -- an action duplicated under a second name; any
  tie-break or indexing slip changes the answer.
- ``race``         -- a block race: every transition not into the start
  state goes one level deeper, so the float solvers evaluate policies
  by renewal (triangular solves) instead of an LU factorization, as
  they do on the paper's attack MDPs.
- ``multichain``   -- two recurrent classes (plus an optional
  transient start); the stationary system is singular, which a solver
  must *report*, not round through.

All probabilities and rewards are dyadic rationals (``k / 2**m`` with
the numerator within float precision), so ``Fraction(float)`` recovers
exactly the intended rational and the exact solvers in
:mod:`repro.qa.exact` stay fast.  Instances are deterministic functions
of ``(cls, seed)``: a failing conformance cell is reproduced by its
class and seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ReproError
from repro.mdp.builder import MDPBuilder
from repro.mdp.model import MDP

#: Instance classes the conformance runner iterates by default
#: (``multichain`` is deliberately excluded: average-reward solvers
#: assume unichain models, and the class exists to pin the singular
#: stationary-solve regression in targeted tests).
INSTANCE_CLASSES = ("unichain", "periodic", "near-degenerate",
                    "wide-scale", "duplicate-action", "race")

#: Denominator of the dyadic probability grid.
_PROB_GRID = 64

#: The near-degenerate transition mass: dyadic, ~9.1e-13.
RARE_MASS = 2.0 ** -40


@dataclass
class QAInstance:
    """One generated conformance instance.

    Attributes
    ----------
    cls, seed:
        Identity; ``make_instance(cls, seed)`` reproduces the instance
        bit-for-bit.
    mdp:
        The model, with reward channels ``num`` (the average-reward
        test channel) and ``den`` (strictly positive everywhere, so
        every policy has a positive denominator rate and the ratio
        objective is non-degenerate).
    discount:
        Discount factor for the value-iteration check.
    reward_scale:
        ``max |r|`` across both channels -- what scale-aware
        tolerances normalize by.
    """

    cls: str
    seed: int
    mdp: MDP
    discount: float = 0.9
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def num(self) -> Dict[str, float]:
        return {"num": 1.0}

    @property
    def den(self) -> Dict[str, float]:
        return {"den": 1.0}

    @property
    def reward_scale(self) -> float:
        return max(float(np.abs(r).max())
                   for r in self.mdp.rewards.values())


def _dyadic_probs(rng: np.random.Generator, n: int,
                  ensure_start: bool = True) -> np.ndarray:
    """A random probability row on the ``k/64`` grid (exact in float),
    with a guaranteed path back to state 0 when ``ensure_start``."""
    weights = rng.multinomial(_PROB_GRID, np.full(n, 1.0 / n))
    if ensure_start and weights[0] < _PROB_GRID // 4:
        # Move mass onto the return-to-start edge so every policy's
        # chain is unichain with fast mixing.
        donor = int(np.argmax(weights[1:])) + 1
        move = min(_PROB_GRID // 4 - weights[0], weights[donor])
        weights[0] += move
        weights[donor] -= move
    return weights / _PROB_GRID


def _dyadic_reward(rng: np.random.Generator, lo: int = 0,
                   hi: int = _PROB_GRID) -> float:
    """A reward on the ``k/64`` grid within ``[lo/64, hi/64]``."""
    return int(rng.integers(lo, hi + 1)) / _PROB_GRID


def _random_unichain(rng: np.random.Generator, n_states: int,
                     n_actions: int, num_scale: float = 1.0,
                     den_scale: float = 1.0) -> MDPBuilder:
    """Shared skeleton: every (state, action) row returns to state 0
    with probability >= 1/4, so *every* policy is unichain and mixes
    fast (subdominant eigenvalue <= 3/4)."""
    b = MDPBuilder(actions=[f"a{i}" for i in range(n_actions)],
                   channels=["num", "den"])
    for s in range(n_states):
        for a in range(n_actions):
            probs = _dyadic_probs(rng, n_states)
            num = _dyadic_reward(rng) * num_scale
            # Denominator rewards stay in [1/2, 3/2] * den_scale:
            # strictly positive for every (state, action) pair.
            den = _dyadic_reward(rng, _PROB_GRID // 2,
                                 3 * _PROB_GRID // 2) * den_scale
            for t in range(n_states):
                if probs[t] > 0:
                    b.add(s, f"a{a}", t, float(probs[t]),
                          num=num, den=den)
    return b


def _make_unichain(seed: int) -> QAInstance:
    rng = np.random.default_rng(seed + 7000)
    b = _random_unichain(rng, n_states=6, n_actions=2)
    return QAInstance("unichain", seed, b.build(start=0))


def _make_periodic(seed: int) -> QAInstance:
    """A deterministic n-cycle: the chain has period n, so undamped
    value-style iterations oscillate forever.  Single action -- the
    point is numerical robustness on a periodic chain, not control."""
    rng = np.random.default_rng(seed + 7001)
    n = 5 + seed % 3
    b = MDPBuilder(actions=["cycle"], channels=["num", "den"])
    for s in range(n):
        b.add(s, "cycle", (s + 1) % n, 1.0,
              num=_dyadic_reward(rng),
              den=_dyadic_reward(rng, _PROB_GRID // 2,
                                 3 * _PROB_GRID // 2))
    return QAInstance("periodic", seed, b.build(start=0))


def _make_near_degenerate(seed: int) -> QAInstance:
    """Unichain core plus a rare state entered with probability
    ``2**-40`` from every (state, action) pair.  Stationary mass spans
    ~12 orders of magnitude; probability floors and residual checks
    that assume O(1) entries break here."""
    rng = np.random.default_rng(seed + 7002)
    n_core, n_actions = 5, 2
    rare = n_core  # index of the rare state
    b = MDPBuilder(actions=[f"a{i}" for i in range(n_actions)],
                   channels=["num", "den"])
    keep = 1.0 - RARE_MASS
    for s in range(n_core):
        for a in range(n_actions):
            probs = _dyadic_probs(rng, n_core)
            num = _dyadic_reward(rng)
            den = _dyadic_reward(rng, _PROB_GRID // 2,
                                 3 * _PROB_GRID // 2)
            for t in range(n_core):
                if probs[t] > 0:
                    # probs[t] is k/64 and keep is 1 - 2**-40, so the
                    # product is still exactly representable.
                    b.add(s, f"a{a}", t, float(probs[t] * keep),
                          num=num, den=den)
            b.add(s, f"a{a}", rare, RARE_MASS, num=num, den=den)
    for a in range(n_actions):
        # The rare state returns to the core deterministically: rare
        # transitions do not slow mixing, they only shrink mass.
        b.add(rare, f"a{a}", 0, 1.0, num=1.0, den=1.0)
    return QAInstance("near-degenerate", seed, b.build(start=0))


def _make_wide_scale(seed: int) -> QAInstance:
    """Reward channels scaled by powers of two spanning ~8 decimal
    orders of magnitude (2**-13 .. 2**13), with the denominator channel
    additionally shrunk by 2**-20 -- the configuration on which an
    absolute denominator floor or acceptance tolerance silently changes
    the solved accuracy."""
    rng = np.random.default_rng(seed + 7003)
    num_exp = int(rng.integers(-13, 14))
    den_exp = int(rng.integers(-13, 14)) - 20
    b = _random_unichain(rng, n_states=6, n_actions=2,
                         num_scale=2.0 ** num_exp,
                         den_scale=2.0 ** den_exp)
    inst = QAInstance("wide-scale", seed, b.build(start=0))
    inst.notes.update(num_exp=num_exp, den_exp=den_exp)
    return inst


def _make_duplicate_action(seed: int) -> QAInstance:
    rng = np.random.default_rng(seed + 7004)
    b = _random_unichain(rng, n_states=6, n_actions=2)
    mdp = b.build(start=0)
    return QAInstance("duplicate-action", seed,
                      with_duplicate_action(mdp, "a0"))


def _make_race(seed: int) -> QAInstance:
    """Three actions over a start state and three levels of two
    states.  Every row sends at least 1/4 of its mass back to the
    start and the rest one level deeper; the deepest level returns
    to the start surely.  With the transitions into the start
    removed the union graph is acyclic, which selects the renewal
    evaluation path."""
    rng = np.random.default_rng(seed + 7006)
    depth, width, n_actions = 3, 2, 3
    levels = [[0]] + [list(range(1 + k * width, 1 + (k + 1) * width))
                      for k in range(depth)] + [[]]
    b = MDPBuilder(actions=[f"a{i}" for i in range(n_actions)],
                   channels=["num", "den"])
    for here, deeper in zip(levels, levels[1:]):
        targets = [0] + deeper
        for s in here:
            for a in range(n_actions):
                probs = _dyadic_probs(rng, len(targets))
                num = _dyadic_reward(rng)
                den = _dyadic_reward(rng, _PROB_GRID // 2,
                                     3 * _PROB_GRID // 2)
                for t, prob in zip(targets, probs):
                    if prob > 0:
                        b.add(s, f"a{a}", t, float(prob),
                              num=num, den=den)
    return QAInstance("race", seed, b.build(start=0))


def _make_multichain(seed: int) -> QAInstance:
    """Two disjoint recurrent classes; chains induced by any policy
    are reducible, so global stationary systems are singular."""
    rng = np.random.default_rng(seed + 7005)
    n_class = 3
    b = MDPBuilder(actions=["a0"], channels=["num", "den"])
    for block, offset in enumerate((0, n_class)):
        for s in range(n_class):
            probs = _dyadic_probs(rng, n_class)
            num = _dyadic_reward(rng) + block  # classes earn differently
            for t in range(n_class):
                if probs[t] > 0:
                    b.add(offset + s, "a0", offset + t, float(probs[t]),
                          num=num, den=1.0)
    return QAInstance("multichain", seed, b.build(start=0))


_MAKERS = {
    "unichain": _make_unichain,
    "periodic": _make_periodic,
    "near-degenerate": _make_near_degenerate,
    "wide-scale": _make_wide_scale,
    "duplicate-action": _make_duplicate_action,
    "race": _make_race,
    "multichain": _make_multichain,
}


def make_instance(cls: str, seed: int) -> QAInstance:
    """Build the deterministic instance identified by ``(cls, seed)``."""
    maker = _MAKERS.get(cls)
    if maker is None:
        raise ReproError(
            f"unknown QA instance class {cls!r}; known: "
            f"{sorted(_MAKERS)}")
    return maker(int(seed))


# -- metamorphic transforms ------------------------------------------------

def permute_mdp(mdp: MDP, perm: Sequence[int]) -> MDP:
    """Relabel states by ``perm`` (state ``s`` becomes ``perm[s]``).

    Solver outputs must be equivariant: gains are invariant, value
    vectors and policies permute.  Used by the ``meta-permute``
    conformance check.
    """
    perm = np.asarray(perm, dtype=int)
    n = mdp.n_states
    if sorted(perm.tolist()) != list(range(n)):
        raise ReproError("perm must be a permutation of range(n_states)")
    # Permutation matrix Q with Q[perm[s], s] = 1: P' = Q P Q^T.
    q = sparse.csr_matrix((np.ones(n), (perm, np.arange(n))),
                          shape=(n, n))
    transition = [sparse.csr_matrix(q @ p @ q.T) for p in mdp.transition]
    # r'[a, perm[s]] = r[a, s]  <=>  r'[a, t] = r[a, inv[t]].
    inv = np.argsort(perm)
    rewards = {name: r[:, inv] for name, r in mdp.rewards.items()}
    available = mdp.available[:, inv]
    keys: List = [None] * n
    for s, key in enumerate(mdp.state_keys):
        keys[perm[s]] = key
    return MDP(state_keys=keys, actions=list(mdp.actions),
               transition=transition, rewards=rewards,
               available=available, start=int(perm[mdp.start]))


def with_duplicate_action(mdp: MDP, action: str,
                          alias: Optional[str] = None) -> MDP:
    """Append a copy of ``action`` under a new name.  A pure no-op for
    every solver output except the policy labels."""
    a = mdp.action_index(action)
    alias = alias if alias is not None else f"{action}-dup"
    if alias in mdp.actions:
        raise ReproError(f"alias {alias!r} already an action")
    transition = list(mdp.transition) + [mdp.transition[a].copy()]
    rewards = {name: np.vstack([r, r[a]])
               for name, r in mdp.rewards.items()}
    available = np.vstack([mdp.available, mdp.available[a]])
    return MDP(state_keys=list(mdp.state_keys),
               actions=list(mdp.actions) + [alias],
               transition=transition, rewards=rewards,
               available=available, start=mdp.start)


def shift_reward(mdp: MDP, channel: str, delta: float) -> MDP:
    """Add ``delta`` to every *available* (state, action) entry of one
    channel; average-reward gains must shift by exactly ``delta``."""
    rewards = {name: r.copy() for name, r in mdp.rewards.items()}
    rewards[channel] = np.where(mdp.available,
                                rewards[channel] + delta,
                                rewards[channel])
    return MDP(state_keys=list(mdp.state_keys), actions=list(mdp.actions),
               transition=list(mdp.transition), rewards=rewards,
               available=mdp.available, start=mdp.start)


def scale_reward(mdp: MDP, channel: str, factor: float) -> MDP:
    """Multiply one channel by ``factor``; gains scale by ``factor``."""
    rewards = {name: r.copy() for name, r in mdp.rewards.items()}
    rewards[channel] = rewards[channel] * factor
    return MDP(state_keys=list(mdp.state_keys), actions=list(mdp.actions),
               transition=list(mdp.transition), rewards=rewards,
               available=mdp.available, start=mdp.start)


def random_permutation(seed: int, n: int) -> Tuple[int, ...]:
    """A deterministic non-trivial permutation of ``range(n)``."""
    rng = np.random.default_rng(seed + 7100)
    while True:
        perm = rng.permutation(n)
        if n < 2 or not np.array_equal(perm, np.arange(n)):
            return tuple(int(p) for p in perm)
