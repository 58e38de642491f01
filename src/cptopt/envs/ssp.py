"""Episodic absorbing-state MDP with softmax policies.

State 0 is reward-free and absorbing; an episode starts at ``start``, follows
the policy until it reaches state 0 (or hits the step cap), and its return is
the sum of per-step rewards.  Used as a black-box return distribution for the
optimizers: the policy class is Boltzmann in linear features, so the episode
return distribution is a smooth function of the feature weights.

Sampling reads cached cdfs.  Every choice, of an action or of a next state,
draws one double ``u = rng.random()`` and takes ``bisect_right(cdf, u)``: the
index, and the one double consumed, that ``Generator.choice(k, p=p)`` gives,
because the cdf is built with choice's own checks, cumsum and normalization.
An ``SspMdp`` builds its kernel rows' cdfs once, at construction; a
``BoltzmannPolicy`` builds a state's action cdf on the state's first visit, so
a state that is never visited is never evaluated.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .._codec import check_int_fields
from .base import ReturnEnv

__all__ = [
    "SspMdp",
    "BoltzmannPolicy",
    "EpisodeResult",
    "boltzmann_probs",
    "ssp_episode",
    "SspReturnEnv",
    "two_state_chain",
    "one_step_chain",
]

_ROW_ATOL = 1e-9
# the tolerance ``Generator.choice`` allows on the sum of its probabilities
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _choice_cdf(p: np.ndarray) -> tuple[float, ...]:
    """The cdf ``Generator.choice(len(p), p=p)`` searches, after its checks."""
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0.0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


@dataclass(frozen=True)
class SspMdp:
    """Tabular episodic MDP.

    ``transitions[s][a][s']`` is given for every non-absorbing state s >= 1;
    state 0 carries no actions.  ``features[s][a]`` is the policy feature
    vector of action a in state s; all feature vectors share one length.
    """

    transitions: tuple[tuple[tuple[float, ...], ...], ...]
    rewards: tuple[tuple[float, ...], ...]
    features: tuple[tuple[tuple[float, ...], ...], ...]
    start: int = 1
    t_max: int = 10_000

    def __post_init__(self) -> None:
        check_int_fields(self)
        n_states = len(self.transitions) + 1
        if len(self.rewards) != n_states - 1 or len(self.features) != n_states - 1:
            raise ValueError("transitions, rewards and features must cover states 1..L")
        if not 0 <= self.start < n_states:
            raise ValueError(f"start state {self.start} out of range")
        if self.t_max < 1:
            raise ValueError("t_max must be positive")
        dims = set()
        for s, per_action in enumerate(self.transitions, start=1):
            if len(per_action) == 0:
                raise ValueError(f"state {s} has an empty action set")
            if len(self.rewards[s - 1]) != len(per_action):
                raise ValueError(f"state {s}: rewards do not match the action set")
            if len(self.features[s - 1]) != len(per_action):
                raise ValueError(f"state {s}: features do not match the action set")
            for a, row in enumerate(per_action):
                if len(row) != n_states:
                    raise ValueError(f"state {s} action {a}: kernel row has wrong length")
                total = float(np.sum(row))
                if not (abs(total - 1.0) <= _ROW_ATOL and min(row) >= 0.0):
                    raise ValueError(
                        f"state {s} action {a}: kernel row must be a distribution, "
                        f"sums to {total!r}"
                    )
                if not np.all(np.isfinite(self.rewards[s - 1][a])):
                    raise ValueError(f"state {s} action {a}: reward must be finite")
                if not np.isfinite(self.features[s - 1][a]).all():
                    raise ValueError(f"state {s} action {a}: features must be finite")
                dims.add(len(self.features[s - 1][a]))
        if len(dims) != 1:
            raise ValueError("all feature vectors must share one length")
        object.__setattr__(self, "_dim", dims.pop())
        # next-state cdfs by [s - 1][a], from the normalized row as sampled
        kernel = tuple(
            tuple(_choice_cdf(row / row.sum()) for row in map(np.asarray, per_action))
            for per_action in self.transitions
        )
        object.__setattr__(self, "_kernel_cdfs", kernel)

    @property
    def n_states(self) -> int:
        return len(self.transitions) + 1

    @property
    def feature_dim(self) -> int:
        return self._dim  # type: ignore[attr-defined]

    def action_features(self, state: int) -> np.ndarray:
        return np.asarray(self.features[state - 1], dtype=float)


@dataclass(frozen=True)
class BoltzmannPolicy:
    """Action probabilities proportional to exp(theta . phi(s, a))."""

    theta: tuple[float, ...]
    mdp: SspMdp

    def __post_init__(self) -> None:
        theta = tuple(float(v) for v in np.atleast_1d(np.asarray(self.theta, float)))
        if len(theta) != self.mdp.feature_dim:
            raise ValueError(
                f"theta has length {len(theta)}, features have length "
                f"{self.mdp.feature_dim}"
            )
        if not all(map(math.isfinite, theta)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "_action_cdfs", {})

    def action_cdf(self, state: int) -> tuple[float, ...]:
        """The state's action cdf, built from ``boltzmann_probs`` on first use."""
        cdf = self._action_cdfs.get(state)  # type: ignore[attr-defined]
        if cdf is None:
            cdf = _choice_cdf(boltzmann_probs(self, state))
            self._action_cdfs[state] = cdf  # type: ignore[attr-defined]
        return cdf


def boltzmann_probs(policy: BoltzmannPolicy, state: int) -> np.ndarray:
    """Softmax over the state's actions, stabilized by max-subtraction."""
    if not 1 <= state < policy.mdp.n_states:
        raise ValueError(f"state {state} has no actions")
    scores = policy.mdp.action_features(state) @ np.asarray(policy.theta)
    scores -= scores.max()
    weights = np.exp(scores)
    return weights / weights.sum()


class EpisodeResult(NamedTuple):
    ret: float
    length: int
    truncated: bool


def ssp_episode(
    mdp: SspMdp, policy: BoltzmannPolicy, rng: np.random.Generator
) -> EpisodeResult:
    """Roll out one episode; truncates (with a flag) at the step cap.

    Each step draws two doubles: the action's, then the next state's.
    """
    kernel = mdp._kernel_cdfs  # type: ignore[attr-defined]
    random = rng.random
    state = mdp.start
    total = 0.0
    steps = 0
    while state != 0:
        if steps >= mdp.t_max:
            return EpisodeResult(total, steps, True)
        action = bisect_right(policy.action_cdf(state), random())
        total += mdp.rewards[state - 1][action]
        state = bisect_right(kernel[state - 1][action], random())
        steps += 1
    return EpisodeResult(total, steps, False)


class SspReturnEnv(ReturnEnv):
    """Adapter: episode returns of a softmax policy as a return distribution."""

    def __init__(self, mdp: SspMdp):
        self.mdp = mdp

    @property
    def dim(self) -> int:
        return self.mdp.feature_dim

    def _sample(self, theta: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
        policy = BoltzmannPolicy(tuple(theta), self.mdp)
        return np.asarray([ssp_episode(self.mdp, policy, rng).ret for _ in range(m)])


def one_step_chain(reward: float = 1.0) -> SspMdp:
    """Single transient state whose every action absorbs immediately."""
    return SspMdp(
        transitions=(((1.0, 0.0),),),
        rewards=((reward,),),
        features=(((1.0,),),),
        start=1,
    )


def two_state_chain(
    absorb_reward: float = 0.0,
    loop_reward: float = 1.0,
    continue_prob: float = 0.5,
    t_max: int = 10_000,
) -> SspMdp:
    """One transient state, two actions.

    Action 0 absorbs with ``absorb_reward``; action 1 collects ``loop_reward``
    and stays with probability ``continue_prob``.  Under the uniform policy the
    expected return solves R = (1/2) a + (1/2)(b + continue_prob * R).
    """
    if not 0.0 <= continue_prob < 1.0:
        raise ValueError("continue_prob must lie in [0, 1)")
    return SspMdp(
        transitions=(
            (
                (1.0, 0.0),
                (1.0 - continue_prob, continue_prob),
            ),
        ),
        rewards=((absorb_reward, loop_reward),),
        features=(((1.0, 0.0), (0.0, 1.0)),),
        start=1,
        t_max=t_max,
    )
