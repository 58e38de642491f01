"""Toy signalized grid network producing per-path delay samples.

Junctions sit on a rows-by-cols grid.  Each junction joins two one-way lanes,
an east-west and a north-south one, and each step one of its two sign
configurations is green (0 = EW, 1 = NS).  Traffic runs along fixed paths:
one EW path per grid row and one NS path per grid column, entering at the
edge and crossing every junction of its row/column.  Arrivals are Poisson per
path, optionally with rare bursts, and a green lane serves up to
``service_rate`` queued vehicles per step (vehicles advance one junction per
step at most).

A vehicle's delay is the number of steps between entering the network and
clearing its last junction; vehicles still queued when an episode ends
contribute the delay accrued so far.  Episodes report, per path, the
*difference* ``baseline - delay``: positive when a vehicle did better than the
fixed-cycle controller's cached average on that path, negative when worse.
The baseline table is simulated once per grid from a dedicated seed.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Optional, Protocol, Sequence

import numpy as np

from .._codec import checked_keys
from ..rng import substream

__all__ = [
    "TrafficConfig",
    "TrafficGrid",
    "TrafficSim",
    "TrafficEpisode",
    "BoltzmannSignPolicy",
    "FixedCyclePolicy",
    "ConstantPolicy",
    "traffic_episode",
]

EW, NS = 0, 1


@dataclass(frozen=True)
class TrafficConfig:
    """Grid shape, demand and service parameters.

    ``arrival_rates`` has one entry per path (rows EW paths first, then cols
    NS paths); ``None`` uses ``ew_rate`` for the east-west arterials and
    ``ns_rate`` for the lighter north-south crossings.  With probability
    ``burst_prob`` a step additionally injects ``burst_size`` vehicles on a
    path; these rare platoons create queue spikes well above routine levels
    (the top queue bin only triggers during them) and give the delay
    distribution a loss tail.  ``switch_loss`` is the per-phase-change lost
    time: a lane that just turned green serves that many fewer vehicles on
    its first step, so frequent rescues of a lightly loaded lane (which cap
    its worst-case delay) cost throughput on the busy one.
    """

    rows: int = 2
    cols: int = 2
    arrival_rates: Optional[tuple[float, ...]] = None
    ew_rate: float = 0.55
    ns_rate: float = 0.25
    burst_prob: float = 0.004
    burst_size: int = 20
    service_rate: int = 3
    switch_loss: int = 1
    baseline_seed: int = 181_173
    baseline_cycle: int = 3
    baseline_horizon: int = 2_000
    queue_bins: tuple[int, int] = (4, 12)
    timer_bin: int = 5

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        n_paths = self.rows + self.cols
        if self.arrival_rates is not None:
            rates = tuple(float(r) for r in self.arrival_rates)
            if len(rates) != n_paths or any(r < 0 for r in rates):
                raise ValueError(f"need {n_paths} nonnegative arrival rates")
            object.__setattr__(self, "arrival_rates", rates)
        if self.ew_rate < 0 or self.ns_rate < 0:
            raise ValueError("arrival rates must be nonnegative")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ValueError("burst_prob must lie in [0, 1]")
        if self.burst_size < 0 or self.service_rate < 1:
            raise ValueError("burst_size must be >= 0 and service_rate >= 1")
        if not 0 <= self.switch_loss <= self.service_rate:
            raise ValueError("switch_loss must lie in [0, service_rate]")
        if self.baseline_cycle < 1 or self.baseline_horizon < 1:
            raise ValueError("baseline_cycle and baseline_horizon must be >= 1")
        if not self.queue_bins[0] < self.queue_bins[1]:
            raise ValueError("queue_bins must be increasing")
        if self.timer_bin < 1:
            raise ValueError("timer_bin must be >= 1")

    @property
    def rates(self) -> tuple[float, ...]:
        if self.arrival_rates is not None:
            return self.arrival_rates
        return (self.ew_rate,) * self.rows + (self.ns_rate,) * self.cols

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["arrival_rates"] = list(self.arrival_rates) if self.arrival_rates else None
        out["queue_bins"] = list(self.queue_bins)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficConfig":
        kwargs = checked_keys("traffic config", data, (f.name for f in fields(cls)))
        if "arrival_rates" in kwargs and kwargs["arrival_rates"] is not None:
            kwargs["arrival_rates"] = tuple(kwargs["arrival_rates"])
        if "queue_bins" in kwargs:
            kwargs["queue_bins"] = tuple(kwargs["queue_bins"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrafficConfig":
        return cls.from_dict(json.loads(text))


class SignPolicy(Protocol):
    """Per-step choice of one sign configuration per junction."""

    def choose_configs(
        self,
        t: int,
        queues: Sequence[int],
        timers: Sequence[int],
        rng: np.random.Generator,
    ) -> tuple[int, ...]: ...


class TrafficGrid:
    """Immutable simulation template; per-episode state lives in TrafficSim."""

    def __init__(self, config: TrafficConfig = TrafficConfig()):
        self.config = config
        self.n_junctions = config.rows * config.cols
        self.n_lanes = 2 * self.n_junctions
        self.n_paths = config.rows + config.cols
        # hops[path] = ordered lane ids the path crosses
        hops = []
        for r in range(config.rows):
            hops.append(tuple(self.lane_id(r * config.cols + c, EW) for c in range(config.cols)))
        for c in range(config.cols):
            hops.append(tuple(self.lane_id(r * config.cols + c, NS) for r in range(config.rows)))
        self.path_hops: tuple[tuple[int, ...], ...] = tuple(hops)
        # routing tables for the simulator: where a path's vehicles enter,
        # the lane a vehicle served on a lane moves to (-1: it departs), and
        # the path each lane belongs to (each lane is on exactly one path)
        self.first_lane: tuple[int, ...] = tuple(lanes[0] for lanes in self.path_hops)
        next_lane = [-1] * self.n_lanes
        lane_of_path = [-1] * self.n_lanes
        for p, lanes in enumerate(self.path_hops):
            for lane, nxt in zip(lanes, lanes[1:] + (-1,)):
                next_lane[lane] = nxt
                lane_of_path[lane] = p
        self.next_lane: tuple[int, ...] = tuple(next_lane)
        self.lane_of_path: tuple[int, ...] = tuple(lane_of_path)
        self._baseline: Optional[tuple[float, ...]] = None

    @staticmethod
    def lane_id(junction: int, axis: int) -> int:
        return junction * 2 + axis

    @property
    def feature_dim(self) -> int:
        """Junctions x 2 configurations x (3 queue bins x 2 timer bins)."""
        return self.n_junctions * 12

    def queue_bin(self, q: int) -> int:
        lo, hi = self.config.queue_bins
        return 0 if q < lo else (1 if q < hi else 2)

    def timer_bin(self, t: int) -> int:
        return 0 if t < self.config.timer_bin else 1

    def feature_index(self, junction: int, config: int, qbin: int, tbin: int) -> int:
        return (junction * 2 + config) * 6 + qbin * 2 + tbin

    def active_feature(
        self, junction: int, config: int, queues: Sequence[int], timers: Sequence[int]
    ) -> int:
        """Index of the single indicator a junction/config pair activates."""
        green = self.lane_id(junction, config)
        red = self.lane_id(junction, 1 - config)
        return self.feature_index(
            junction, config, self.queue_bin(queues[green]), self.timer_bin(timers[red])
        )

    def features(
        self, queues: Sequence[int], timers: Sequence[int], configs: Sequence[int]
    ) -> np.ndarray:
        """Joint-action feature vector (one indicator per junction)."""
        phi = np.zeros(self.feature_dim)
        for j, c in enumerate(configs):
            phi[self.active_feature(j, c, queues, timers)] = 1.0
        return phi

    @property
    def baseline_delays(self) -> tuple[float, ...]:
        """Per-path mean delay of the fixed-cycle controller (cached)."""
        if self._baseline is None:
            sim = TrafficSim(self, substream(self.config.baseline_seed))
            policy = FixedCyclePolicy(self.config.baseline_cycle)
            for t in range(self.config.baseline_horizon):
                sim.step(t, policy)
            raw = sim.raw_delays(self.config.baseline_horizon)
            self._baseline = tuple(
                float(np.mean(d)) if d else 0.0 for d in raw
            )
        return self._baseline


class BoltzmannSignPolicy:
    """Softmax choice per junction with per-(junction, config) indicator scores.

    The joint feature vector activates one indicator per junction, so scores
    add across junctions and the joint softmax factorizes into independent
    per-junction two-way softmaxes.  ``choose_configs`` computes the active
    indices inline; ``TrafficGrid.active_feature`` is their definition.
    """

    def __init__(self, theta: np.ndarray, grid: TrafficGrid):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (grid.feature_dim,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({grid.feature_dim},)"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        self.theta = theta
        self.grid = grid
        self._scores = theta.tolist()

    def choose_configs(self, t, queues, timers, rng) -> tuple[int, ...]:
        grid = self.grid
        scores = self._scores
        lo, hi = grid.config.queue_bins
        timer_bin = grid.config.timer_bin
        draws = rng.random(grid.n_junctions).tolist()
        configs = []
        # junction j's EW lane is 2j and its NS lane 2j+1; its EW indicators
        # start at 12j and its NS ones at 12j+6 (2 per queue bin, +1 once the
        # red lane's timer reaches timer_bin)
        for base, q_ew, q_ns, t_ew, t_ns, u in zip(
            range(0, 12 * grid.n_junctions, 12),
            queues[0::2], queues[1::2], timers[0::2], timers[1::2], draws,
        ):
            s_ew = scores[
                base + (0 if q_ew < lo else 2 if q_ew < hi else 4) + (t_ns >= timer_bin)
            ]
            s_ns = scores[
                base + 6 + (0 if q_ns < lo else 2 if q_ns < hi else 4) + (t_ew >= timer_bin)
            ]
            configs.append(NS if u < 1.0 / (1.0 + math.exp(s_ew - s_ns)) else EW)
        return tuple(configs)


class FixedCyclePolicy:
    """Pre-timed controller: all junctions alternate EW/NS every ``cycle`` steps."""

    def __init__(self, cycle: int = 2):
        if cycle < 1:
            raise ValueError("cycle must be >= 1")
        self.cycle = cycle

    def choose_configs(self, t, queues, timers, rng) -> tuple[int, ...]:
        phase = EW if (t // self.cycle) % 2 == 0 else NS
        return (phase,) * (len(queues) // 2)


class ConstantPolicy:
    """Always the same configuration at every junction."""

    def __init__(self, config: int):
        if config not in (EW, NS):
            raise ValueError("config must be 0 (EW) or 1 (NS)")
        self.config = config

    def choose_configs(self, t, queues, timers, rng) -> tuple[int, ...]:
        return (self.config,) * (len(queues) // 2)


_ARRIVAL_BLOCK = 256


class TrafficSim:
    """Mutable episode state: per-lane FIFO queues of vehicle entry steps.

    Arrival randomness is drawn in fixed-size blocks (a throughput detail;
    the consumption order, and hence every result, stays deterministic).
    """

    def __init__(self, grid: TrafficGrid, rng: np.random.Generator):
        self.grid = grid
        self.rng = rng
        self.queues: list[deque] = [deque() for _ in range(grid.n_lanes)]
        self.timers: list[int] = [0] * grid.n_lanes
        self.injected = 0
        self.departed = 0
        self.delays: list[list[int]] = [[] for _ in range(grid.n_paths)]
        self._arrivals: list[list[int]] = []
        self._cursor = _ARRIVAL_BLOCK
        self._last_configs: Optional[tuple[int, ...]] = None

    @property
    def queued(self) -> int:
        return sum(len(q) for q in self.queues)

    def _next_arrivals(self) -> list[int]:
        if self._cursor == _ARRIVAL_BLOCK:
            cfg = self.grid.config
            shape = (_ARRIVAL_BLOCK, self.grid.n_paths)
            counts = self.rng.poisson(cfg.rates, shape)
            if cfg.burst_prob > 0.0:
                bursts = self.rng.random(shape) < cfg.burst_prob
                counts = counts + bursts * cfg.burst_size
            self._arrivals = counts.tolist()
            self._cursor = 0
        row = self._arrivals[self._cursor]
        self._cursor += 1
        return row

    def step(self, t: int, policy: SignPolicy) -> None:
        grid = self.grid
        cfg = grid.config
        queues = self.queues
        timers = self.timers

        for lane, k in zip(grid.first_lane, self._next_arrivals()):
            if k:
                queues[lane].extend([t] * k)
                self.injected += k

        # signal decision on the post-arrival state
        configs = policy.choose_configs(t, list(map(len, queues)), timers, self.rng)

        # serve green lanes and advance the elapsed-red timers.  A lane's next
        # lane always sits at a later junction (one column or one row on), so
        # serving junctions from last to first lets a moved vehicle join its
        # next queue at once: that queue was already served this step, and
        # the vehicle only becomes serviceable next step, as it must.
        service_rate, switch_loss = cfg.service_rate, cfg.switch_loss
        previous = self._last_configs
        for j in range(len(configs) - 1, -1, -1):
            c = configs[j]
            green = 2 * j + c  # TrafficGrid.lane_id(j, c); its red lane is green ^ 1
            timers[green] = 0
            timers[green ^ 1] += 1
            queue = queues[green]
            served = service_rate
            if previous is not None and previous[j] != c:
                served -= switch_loss  # phase-change lost time
            if served > len(queue):
                served = len(queue)
            if not served:
                continue
            popleft = queue.popleft
            nxt = grid.next_lane[green]
            if nxt < 0:
                self.departed += served
                delays = self.delays[grid.lane_of_path[green]]
                for _ in range(served):
                    delays.append(t - popleft())
            else:
                push = queues[nxt].append
                for _ in range(served):
                    push(popleft())
        self._last_configs = tuple(configs)

    def raw_delays(self, horizon: int) -> list[list[int]]:
        """Recorded delays plus the accrued delay of still-queued vehicles."""
        out = [list(d) for d in self.delays]
        for path, queue in zip(self.grid.lane_of_path, self.queues):
            out[path].extend(horizon - entered for entered in queue)
        return out


@dataclass(frozen=True)
class TrafficEpisode:
    """Per-path delay-difference samples plus flow counters."""

    samples: tuple[tuple[float, ...], ...]
    injected: int
    departed: int
    queued: int

    def as_lists(self) -> list[list[float]]:
        return [list(s) for s in self.samples]


def traffic_episode(
    grid: TrafficGrid,
    policy: SignPolicy,
    horizon: int,
    rng: np.random.Generator,
) -> TrafficEpisode:
    """Simulate ``horizon`` steps and return baseline-relative delay samples.

    Each sample is ``baseline_mean_delay[path] - delay``: a gain when the
    vehicle beats the fixed-cycle reference, a loss when it does worse.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sim = TrafficSim(grid, rng)
    for t in range(horizon):
        sim.step(t, policy)
    baseline = grid.baseline_delays
    raw = sim.raw_delays(horizon)
    samples = tuple(
        tuple(baseline[p] - d for d in delays) for p, delays in enumerate(raw)
    )
    return TrafficEpisode(
        samples=samples, injected=sim.injected, departed=sim.departed, queued=sim.queued
    )
