"""Incremental MDP construction.

The builder interns state keys, accumulates transitions as flat
coordinate lists, merges duplicate (state, action, next) entries by
summing probabilities (with probability-weighted rewards, the way the
paper's Table 1 merges events that lead to the same state), and
validates row-stochasticity when :meth:`MDPBuilder.build` is called.

``add`` is the hottest pure-Python call in the attack-MDP build (one
call per generated transition, ~180k for the 30,595-state setting-2
model), so it does nothing but append to flat lists; all merging and
matrix assembly happens vectorized in :meth:`MDPBuilder.build` (CSR
construction from COO triplets sums duplicates, ``np.add.at``
accumulates expected rewards).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import InvalidTransitionError, MDPError
from repro.mdp.model import MDP, PROB_TOL


class MDPBuilder:
    """Builds an :class:`repro.mdp.model.MDP` incrementally."""

    def __init__(self, actions: Sequence[str],
                 channels: Sequence[str]) -> None:
        if len(set(actions)) != len(actions):
            raise MDPError("duplicate action names")
        if len(set(channels)) != len(channels):
            raise MDPError("duplicate channel names")
        self.actions: List[str] = list(actions)
        self.channels: List[str] = list(channels)
        self._action_index = {a: i for i, a in enumerate(self.actions)}
        self._keys: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        # Flat COO-style triplet lists, one entry per add() call.
        self._src: List[int] = []
        self._act: List[int] = []
        self._dst: List[int] = []
        self._prob: List[float] = []
        # Per-channel expected-reward scatter lists: (state, action,
        # prob * reward) triplets, appended only for nonzero rewards.
        self._rew: Dict[str, Tuple[List[int], List[int], List[float]]] = {
            c: ([], [], []) for c in self.channels}

    def state_id(self, key: Hashable) -> int:
        """Intern ``key`` and return its state index."""
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._keys)
            self._index[key] = idx
            self._keys.append(key)
        return idx

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    @property
    def n_states(self) -> int:
        """Number of states interned so far."""
        return len(self._keys)

    def add(self, state: Hashable, action: str, next_state: Hashable,
            prob: float, **rewards: float) -> None:
        """Record a transition.

        ``rewards`` are the channel rewards received *if this event
        happens*; the builder converts them to expected rewards when
        multiple events merge.
        """
        if prob < 0 or prob > 1 + PROB_TOL:
            raise InvalidTransitionError(f"probability {prob} out of range")
        if prob == 0:
            return
        a = self._action_index.get(action)
        if a is None:
            raise MDPError(f"unknown action {action!r}")
        s = self.state_id(state)
        t = self.state_id(next_state)
        self._src.append(s)
        self._act.append(a)
        self._dst.append(t)
        self._prob.append(prob)
        if rewards:
            rew = self._rew
            for name, value in rewards.items():
                lists = rew.get(name)
                if lists is None:
                    unknown = sorted(set(rewards) - set(self.channels))
                    raise MDPError(f"unknown reward channels {unknown}")
                if value != 0.0:
                    lists[0].append(s)
                    lists[1].append(a)
                    lists[2].append(prob * value)

    def extend(self, transitions) -> None:
        """Bulk-record an iterable of raw ``(state, action,
        next_state, prob, rewards)`` tuples.

        Equivalent to calling :meth:`add` once per entry but with the
        per-call overhead (argument packing, attribute lookups) hoisted
        out of the loop -- this is the path the attack-MDP build uses
        for its ~180k generated transitions.
        """
        index = self._index
        keys = self._keys
        action_index = self._action_index
        src_append = self._src.append
        act_append = self._act.append
        dst_append = self._dst.append
        prob_append = self._prob.append
        rew = self._rew
        for state, action, next_state, prob, rewards in transitions:
            if prob < 0 or prob > 1 + PROB_TOL:
                raise InvalidTransitionError(
                    f"probability {prob} out of range")
            if prob == 0:
                continue
            a = action_index.get(action)
            if a is None:
                raise MDPError(f"unknown action {action!r}")
            s = index.get(state)
            if s is None:
                s = len(keys)
                index[state] = s
                keys.append(state)
            t = index.get(next_state)
            if t is None:
                t = len(keys)
                index[next_state] = t
                keys.append(next_state)
            src_append(s)
            act_append(a)
            dst_append(t)
            prob_append(prob)
            for name, value in rewards.items():
                lists = rew.get(name)
                if lists is None:
                    unknown = sorted(set(rewards) - set(self.channels))
                    raise MDPError(f"unknown reward channels {unknown}")
                if value != 0.0:
                    lists[0].append(s)
                    lists[1].append(a)
                    lists[2].append(prob * value)

    def build(self, start: Hashable, validate: bool = True) -> MDP:
        """Assemble the MDP.  ``start`` must be an interned state key.

        Row-stochasticity is checked by the assembled
        :class:`~repro.mdp.model.MDP`'s own validator (pass
        ``validate=False`` to skip it, e.g. for deliberately partial
        test fixtures).
        """
        if start not in self._index:
            raise MDPError(f"unknown start state {start!r}")
        rew = {name: (np.asarray(ss, dtype=np.intp),
                      np.asarray(aa, dtype=np.intp),
                      np.asarray(vv, dtype=float))
               for name, (ss, aa, vv) in self._rew.items()}
        return assemble_mdp(self._keys, self.actions,
                            np.asarray(self._src, dtype=np.intp),
                            np.asarray(self._act, dtype=np.intp),
                            np.asarray(self._dst, dtype=np.intp),
                            np.asarray(self._prob, dtype=float), rew,
                            self._index[start], validate=validate)


def assemble_mdp(keys, actions, src, act, dst, prob, rew_scatter,
                 start_index, validate: bool = True) -> MDP:
    """Assemble an :class:`~repro.mdp.model.MDP` from flat COO-style
    arrays.

    Shared by :meth:`MDPBuilder.build` and the vectorized attack-MDP
    fast path.  ``src``/``act``/``dst``/``prob`` are parallel arrays
    (one entry per recorded transition); ``rew_scatter`` maps each
    channel name to ``(state_idx, action_idx, value)`` scatter arrays
    of *expected* (probability-weighted) rewards.
    """
    n = len(keys)
    n_actions = len(actions)
    available = np.zeros((n_actions, n), dtype=bool)
    available[act, src] = True

    rewards = {}
    for name, (ss, aa, vv) in rew_scatter.items():
        arr = np.zeros((n_actions, n))
        if len(ss):
            np.add.at(arr, (aa, ss), vv)
        rewards[name] = arr

    mats: List[sparse.csr_matrix] = []
    for a in range(n_actions):
        mask = act == a
        # The CSR constructor sums duplicate (row, col) entries,
        # which performs the (state, action, next) merge.
        mats.append(sparse.csr_matrix(
            (prob[mask], (src[mask], dst[mask])), shape=(n, n)))
    return MDP(state_keys=keys, actions=actions, transition=mats,
               rewards=rewards, available=available, start=start_index,
               validate=validate)
