"""Optimal selfish mining in Bitcoin (Sapirshtein et al. 2016).

The attacker privately extends its own chain and strategically releases
blocks to orphan honest work.  States are ``(a, h, fork)`` where ``a``
and ``h`` are the attacker's private and the honest public chain
lengths since the last common ancestor and ``fork`` tracks whether a
*match* (publishing ``h`` blocks to tie the honest chain) is feasible
or ongoing.  The tie-winning parameter ``tie_power`` is the fraction of
honest mining power that mines on the attacker's branch during an
active match -- the paper's "P(win a tie)".

Reward channels mirror :mod:`repro.core.transitions`: ``alice`` /
``others`` for blocks locked into the blockchain, ``alice_orphans`` /
``others_orphans`` for orphaned blocks, and ``ds`` for double-spend
bonuses (used by :mod:`repro.baselines.selfish_ds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core.double_spend import DEFAULT_CONFIRMATIONS, double_spend_bonus
from repro.errors import ReproError
from repro.mdp.builder import MDPBuilder
from repro.mdp.model import MDP
from repro.mdp.policy import Policy
from repro.runtime.supervisor import solve_ratio

IRRELEVANT, RELEVANT, ACTIVE = "irrelevant", "relevant", "active"

ADOPT, OVERRIDE, MATCH, WAIT = "adopt", "override", "match", "wait"

CHANNELS = ("alice", "others", "alice_orphans", "others_orphans", "ds")


@dataclass(frozen=True)
class SelfishMiningConfig:
    """Parameters of the selfish-mining MDP.

    Attributes
    ----------
    alpha:
        Attacker's mining power share.
    tie_power:
        Fraction of honest power mining on the attacker's branch during
        an active match (0 = attacker never wins ties from honest help,
        1 = "the attacker wins all equal-length block races").
    max_len:
        Truncation depth of either chain; at the cap the attacker is
        forced to resolve (adopt or override).
    rds:
        Double-spend value in block rewards (0 disables the combined
        attack and yields plain selfish mining).
    confirmations:
        Merchant confirmation count for double-spending.
    """

    alpha: float
    tie_power: float = 0.0
    max_len: int = 24
    rds: float = 0.0
    confirmations: int = DEFAULT_CONFIRMATIONS

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 0.5:
            raise ReproError("alpha must lie in (0, 0.5)")
        if not 0 <= self.tie_power <= 1:
            raise ReproError("tie_power must lie in [0, 1]")
        if self.max_len < 4:
            raise ReproError("max_len must be at least 4")
        if self.rds < 0:
            raise ReproError("rds cannot be negative")


State = Tuple[int, int, str]


def _transitions(config: SelfishMiningConfig) -> Iterator[tuple]:
    """Yield ``(state, action, next_state, prob, rewards)`` tuples."""
    alpha = config.alpha
    honest = 1.0 - alpha
    tie = config.tie_power
    cap = config.max_len

    def ds(orphaned: int) -> float:
        return double_spend_bonus(orphaned, config.rds, config.confirmations)

    for a in range(cap + 1):
        for h in range(cap + 1):
            for fork in (IRRELEVANT, RELEVANT, ACTIVE):
                state: State = (a, h, fork)
                if fork is ACTIVE and (h == 0 or a < h):
                    continue  # a match requires h >= 1 and a >= h
                if fork is RELEVANT and h == 0:
                    continue  # "last block honest" implies h >= 1
                # -- adopt: abandon the private chain --------------
                if h >= 1:
                    rewards = {"others": float(h),
                               "alice_orphans": float(a)}
                    yield (state, ADOPT, (1, 0, IRRELEVANT), alpha, rewards)
                    yield (state, ADOPT, (0, 1, IRRELEVANT), honest, rewards)
                # -- override: publish h+1 blocks ------------------
                if a > h:
                    rewards = {"alice": float(h + 1),
                               "others_orphans": float(h),
                               "ds": ds(h)}
                    yield (state, OVERRIDE, (a - h, 0, IRRELEVANT),
                           alpha, rewards)
                    yield (state, OVERRIDE, (a - h - 1, 1, RELEVANT),
                           honest, rewards)
                # -- wait / match ----------------------------------
                if fork is ACTIVE:
                    # Match ongoing: honest power is split.
                    if a < cap:
                        yield (state, WAIT, (a + 1, h, ACTIVE), alpha, {})
                        win = {"alice": float(h),
                               "others_orphans": float(h),
                               "ds": ds(h)}
                        yield (state, WAIT, (a - h, 1, RELEVANT),
                               tie * honest, win)
                        if h < cap:
                            yield (state, WAIT, (a, h + 1, RELEVANT),
                                   (1 - tie) * honest, {})
                        else:
                            rewards = {"others": float(h + 1),
                                       "alice_orphans": float(a)}
                            yield (state, WAIT, (0, 0, IRRELEVANT),
                                   (1 - tie) * honest, rewards)
                else:
                    if a < cap and h < cap:
                        yield (state, WAIT, (a + 1, h, fork), alpha, {})
                        yield (state, WAIT, (a, h + 1, RELEVANT), honest, {})
                    if (fork is RELEVANT and a >= h and h >= 1
                            and a < cap):
                        yield (state, MATCH, (a + 1, h, ACTIVE), alpha, {})
                        win = {"alice": float(h),
                               "others_orphans": float(h),
                               "ds": ds(h)}
                        yield (state, MATCH, (a - h, 1, RELEVANT),
                               tie * honest, win)
                        if h < cap:
                            yield (state, MATCH, (a, h + 1, RELEVANT),
                                   (1 - tie) * honest, {})
                        else:
                            rewards = {"others": float(h + 1),
                                       "alice_orphans": float(a)}
                            yield (state, MATCH, (0, 0, IRRELEVANT),
                                   (1 - tie) * honest, rewards)


def build_selfish_mdp(config: SelfishMiningConfig) -> MDP:
    """Build the selfish-mining MDP (reachable states only)."""
    builder = MDPBuilder(actions=[ADOPT, OVERRIDE, MATCH, WAIT],
                         channels=list(CHANNELS))
    start: State = (0, 0, IRRELEVANT)
    transitions = {}
    for tr in _transitions(config):
        transitions.setdefault(tr[0], []).append(tr)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for _s, action, nxt, prob, rewards in transitions.get(state, []):
            builder.add(state, action, nxt, prob, **rewards)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return builder.build(start=start)


@dataclass
class SelfishMiningResult:
    """Outcome of an optimal selfish-mining solve.

    Attributes
    ----------
    relative_revenue:
        Attacker's share of blockchain blocks under the optimal policy.
    policy:
        The optimal policy over ``(a, h, fork)`` states.
    config:
        The analyzed configuration.
    """

    relative_revenue: float
    policy: Policy
    config: SelfishMiningConfig


def solve_selfish_mining(config: SelfishMiningConfig,
                         tol: float = 1e-7) -> SelfishMiningResult:
    """Maximize the attacker's relative revenue (plain selfish mining)."""
    mdp = build_selfish_mdp(config)
    solution = solve_ratio(mdp, num={"alice": 1.0},
                           den={"alice": 1.0, "others": 1.0},
                           lo=0.0, hi=1.0, tol=tol).result
    return SelfishMiningResult(relative_revenue=solution.value,
                               policy=Policy(mdp, solution.policy),
                               config=config)


def eyal_sirer_revenue(alpha: float, tie_power: float) -> float:
    """Closed-form relative revenue of the fixed Eyal-Sirer SM1 strategy
    (used as a lower bound when testing the optimal MDP).

    Formula from Eyal & Sirer (2014), with ``gamma`` the honest power
    fraction mining on the attacker's branch during ties.
    """
    if not 0 < alpha < 0.5:
        raise ReproError("alpha must lie in (0, 0.5)")
    g = tie_power
    num = (alpha * (1 - alpha) ** 2 * (4 * alpha + g * (1 - 2 * alpha))
           - alpha ** 3)
    den = 1 - alpha * (1 + (2 - alpha) * alpha)
    return num / den
