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

The simulator stores no vehicles.  Its state is a queue count and a red timer
per lane; lanes on a path are FIFO and no vehicle overtakes, so the delays are
rebuilt at episode end from the arrival counts and each path's per-step
outflow.  A signal policy hands the simulator a table of P(NS) per junction
and queue/timer-bin state (the Boltzmann policy computes its softmax once) and
one array of uniform draws per 256-step arrival block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .._codec import JsonRecord, as_int, check_int_fields
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
class TrafficConfig(JsonRecord):
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
        check_int_fields(self)
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        n_paths = self.rows + self.cols
        if self.arrival_rates is not None:
            rates = tuple(float(r) for r in self.arrival_rates)
            if len(rates) != n_paths or not all(0.0 <= r < math.inf for r in rates):
                raise ValueError(f"arrival_rates: need {n_paths} finite nonnegative rates")
            object.__setattr__(self, "arrival_rates", rates)
        for name in ("ew_rate", "ns_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {rate}")
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


class SignPolicy(Protocol):
    """Signal controller, read by the simulator as a table plus uniform draws.

    Junction ``j`` picks NS at step ``t`` exactly when
    ``draws[t - t0, j] < p_ns[36 * j + state]``, else EW.  ``state`` indexes
    the junction's (EW queue bin, NS timer bin, NS queue bin, EW timer bin),
    3 x 2 x 3 x 2 entries in that order.  ``draws`` is asked once per arrival
    block for a ``(k, n_junctions)`` array, one row per step.
    """

    def p_ns_table(self, n_junctions: int) -> Sequence[float]: ...

    def draws(
        self, t0: int, k: int, n_junctions: int, rng: np.random.Generator
    ) -> np.ndarray: ...


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
        # routing tables for the simulator: where a path's vehicles enter, and
        # the lane a vehicle served on a lane moves to (-1: it departs)
        self.first_lane: tuple[int, ...] = tuple(lanes[0] for lanes in self.path_hops)
        next_lane = [-1] * self.n_lanes
        for lanes in self.path_hops:
            for lane, nxt in zip(lanes, lanes[1:] + (-1,)):
                next_lane[lane] = nxt
        self.next_lane: tuple[int, ...] = tuple(next_lane)
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

    @staticmethod
    def feature_index(junction: int, config: int, qbin: int, tbin: int) -> int:
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
            sim = TrafficSim(
                self,
                FixedCyclePolicy(self.config.baseline_cycle),
                self.config.baseline_horizon,
                substream(self.config.baseline_seed),
            )
            sim.run()
            self._baseline = tuple(
                float(np.mean(d)) if d.size else 0.0 for d in sim.raw_delays()
            )
        return self._baseline


# (EW, NS) indicator offsets inside a junction's 12 features, over the 36
# (EW queue bin, NS timer bin, NS queue bin, EW timer bin) states in table order
_INDICATOR_PAIRS = tuple(
    (TrafficGrid.feature_index(0, EW, qb_ew, tb_ns), TrafficGrid.feature_index(0, NS, qb_ns, tb_ew))
    for qb_ew, tb_ns, qb_ns, tb_ew in itertools.product(range(3), range(2), range(3), range(2))
)


class BoltzmannSignPolicy:
    """Softmax choice per junction with per-(junction, config) indicator scores.

    The joint feature vector activates one indicator per junction, so scores
    add across junctions and the joint softmax factorizes into independent
    per-junction two-way softmaxes.  The 36 P(NS) values of each junction,
    ``1 / (1 + exp(s_ew - s_ns))`` over the active EW and NS indicators
    (``TrafficGrid.active_feature`` defines them), are computed once here; a
    score gap too large for ``exp`` gives 0.0, the limit of ``1 / (1 + inf)``.
    The uniforms are one ``rng.random((k, n_junctions))`` per block, the same
    values, in the same stream order, as ``k`` per-step draws.
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
        scores = theta.tolist()
        table = []
        for j0 in range(0, grid.feature_dim, 12):
            for ew, ns in _INDICATOR_PAIRS:
                try:
                    table.append(1.0 / (1.0 + math.exp(scores[j0 + ew] - scores[j0 + ns])))
                except OverflowError:
                    table.append(0.0)
        self._p_ns = tuple(table)

    def p_ns_table(self, n_junctions: int) -> tuple[float, ...]:
        if n_junctions != self.grid.n_junctions:
            raise ValueError(
                f"policy has {self.grid.n_junctions} junctions, grid has {n_junctions}"
            )
        return self._p_ns

    def draws(self, t0, k, n_junctions, rng) -> np.ndarray:
        return rng.random((k, n_junctions))


class FixedCyclePolicy:
    """Pre-timed controller: all junctions alternate EW/NS every ``cycle`` steps.

    Its draws are 0.0 (NS) or 1.0 (EW) against P(NS) = 0.5; it uses no rng.
    """

    def __init__(self, cycle: int = 2):
        cycle = as_int("cycle", cycle)
        if cycle < 1:
            raise ValueError("cycle must be >= 1")
        self.cycle = cycle

    def p_ns_table(self, n_junctions: int) -> tuple[float, ...]:
        return (0.5,) * (36 * n_junctions)

    def draws(self, t0, k, n_junctions, rng) -> np.ndarray:
        ew = 1.0 - np.arange(t0, t0 + k) // self.cycle % 2  # 1.0 on EW steps
        return np.broadcast_to(ew[:, None], (k, n_junctions))


class ConstantPolicy:
    """Always the same configuration at every junction (no rng use)."""

    def __init__(self, config: int):
        config = as_int("config", config)
        if config not in (EW, NS):
            raise ValueError("config must be 0 (EW) or 1 (NS)")
        self.config = config

    def p_ns_table(self, n_junctions: int) -> tuple[float, ...]:
        return (0.5,) * (36 * n_junctions)

    def draws(self, t0, k, n_junctions, rng) -> np.ndarray:
        return np.full((k, n_junctions), 0.0 if self.config == NS else 1.0)


_ARRIVAL_BLOCK = 256


class TrafficSim:
    """Mutable episode state: per-lane queue counts and red timers.

    No vehicle is stored.  A path is a chain of FIFO lanes and no vehicle
    overtakes, so the k-th vehicle to leave a path is the k-th to enter it;
    the sim keeps the arrival blocks and each path's outflow (what its last
    lane served at each step), and ``raw_delays`` rebuilds every delay.

    Randomness is drawn per 256-step block: the arrival counts, then the
    policy's uniforms for the block's steps inside the horizon.  A decision
    at step t reads only the junction's own queues and timers, that step's
    arrivals and what upstream junctions served at t - 1, and no draw depends
    on state.  So ``run`` takes the steps up to the next block edge (or
    ``until``) one junction at a time, upstream first, each from four local
    counters, and feeds a junction's per-step service downstream a step later.
    """

    def __init__(
        self,
        grid: TrafficGrid,
        policy: SignPolicy,
        horizon: int,
        rng: np.random.Generator,
    ):
        horizon = as_int("horizon", horizon)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.grid = grid
        self.policy = policy
        self.horizon = horizon
        self.rng = rng
        self.t = 0
        self.queues: list[int] = [0] * grid.n_lanes
        self.timers: list[int] = [0] * grid.n_lanes
        self.injected = 0
        self.departed = 0
        self._p_ns = policy.p_ns_table(grid.n_junctions)
        self._blocks: list[np.ndarray] = []
        # the current block by column: arrivals per path, uniforms per junction
        self._arrivals: list[list[int]] = []
        self._uniforms: list[list[float]] = []
        # per path: what its last lane served at each simulated step
        self._outflow: list[list[int]] = [[] for _ in range(grid.n_paths)]

    @property
    def queued(self) -> int:
        return sum(self.queues)

    def _draw_block(self, t0: int) -> None:
        cfg = self.grid.config
        shape = (_ARRIVAL_BLOCK, self.grid.n_paths)
        counts = self.rng.poisson(cfg.rates, shape)
        if cfg.burst_prob > 0.0:
            bursts = self.rng.random(shape) < cfg.burst_prob
            counts = counts + bursts * cfg.burst_size
        self._blocks.append(counts)
        self._arrivals = counts.T.tolist()
        k = min(_ARRIVAL_BLOCK, self.horizon - t0)
        self._uniforms = self.policy.draws(t0, k, self.grid.n_junctions, self.rng).T.tolist()

    def run(self, until: Optional[int] = None) -> None:
        """Simulate up to step ``until`` (default: the horizon)."""
        until = self.horizon if until is None else until
        if not self.t <= until <= self.horizon:
            raise ValueError(f"until must lie in [{self.t}, {self.horizon}]")
        grid = self.grid
        cfg = grid.config
        lo, hi = cfg.queue_bins
        timer_bin = cfg.timer_bin
        rate = cfg.service_rate
        switched_rate = rate - cfg.switch_loss
        queues, timers, p_ns = self.queues, self.timers, self._p_ns
        # a lane's inflow: its path's arrivals (first lanes) or what its
        # upstream lane served one step earlier
        entry = {lane: path for path, lane in enumerate(grid.first_lane)}
        upstream = {nxt: lane for lane, nxt in enumerate(grid.next_lane) if nxt >= 0}
        injected, departed = self.injected, self.departed
        t = self.t
        while t < until:
            offset = t % _ARRIVAL_BLOCK
            if offset == 0:
                self._draw_block(t)
            n = min(until - t, _ARRIVAL_BLOCK - offset)
            arrivals = [column[offset : offset + n] for column in self._arrivals]
            injected += sum(map(sum, arrivals))
            out: list[list[int]] = [[]] * grid.n_lanes  # vehicles served per lane and step
            for j, uniforms in enumerate(self._uniforms):
                ew, ns = 2 * j, 2 * j + 1
                in_ew, in_ns = (
                    arrivals[entry[lane]] if lane in entry else [0, *out[upstream[lane]][:-1]]
                    for lane in (ew, ns)
                )
                p = p_ns[36 * j : 36 * j + 36]  # P(NS) per queue/timer-bin state
                q_ew, q_ns, t_ew, t_ns = queues[ew], queues[ns], timers[ew], timers[ns]
                out[ew], out[ns] = out_ew, out_ns = [0] * n, [0] * n
                for i, a_ew, a_ns, u in zip(range(n), in_ew, in_ns, uniforms[offset : offset + n]):
                    q_ew += a_ew
                    q_ns += a_ns
                    state = (
                        (0 if q_ew < lo else 12 if q_ew < hi else 24)
                        + (6 if t_ns >= timer_bin else 0)
                        + (0 if q_ns < lo else 2 if q_ns < hi else 4)
                        + (t_ew >= timer_bin)
                    )
                    # a lane that was red last step (timer > 0) just turned
                    # green and loses switch_loss of its service
                    if u < p[state]:
                        served = switched_rate if t_ns else rate
                        if served > q_ns:
                            served = q_ns
                        q_ns -= served
                        out_ns[i] = served
                        t_ns, t_ew = 0, t_ew + 1
                    else:
                        served = switched_rate if t_ew else rate
                        if served > q_ew:
                            served = q_ew
                        q_ew -= served
                        out_ew[i] = served
                        t_ew, t_ns = 0, t_ns + 1
                queues[ew], queues[ns], timers[ew], timers[ns] = q_ew, q_ns, t_ew, t_ns
            # what a lane served on the chunk's last step now waits downstream
            for lane, up in upstream.items():
                queues[lane] += out[up][-1]
            for outflow, hops in zip(self._outflow, grid.path_hops):
                outflow += out[hops[-1]]
                departed += sum(out[hops[-1]])
            t += n
        self.t, self.injected, self.departed = t, injected, departed

    def raw_delays(self) -> list[np.ndarray]:
        """Per-path delays: departed vehicles in departure order, then the
        accrued delay of still-queued ones.

        The still-queued vehicles are a path's newest entries, the newest at
        its first hop; they follow hop by hop, oldest first within a hop.
        """
        t = self.t
        arrivals = np.concatenate(self._blocks or [np.zeros((0, self.grid.n_paths), int)])
        out = []
        for path, hops in enumerate(self.grid.path_hops):
            entered = np.repeat(np.arange(t), arrivals[:t, path])
            left = np.repeat(np.arange(t), self._outflow[path])
            queued, end = [], entered.size
            for lane in hops:
                queued.append(entered[end - self.queues[lane] : end])
                end -= self.queues[lane]
            out.append(np.concatenate([left - entered[: left.size], t - np.concatenate(queued)]))
        return out


@dataclass(frozen=True)
class TrafficEpisode:
    """Per-path delay-difference samples plus flow counters."""

    samples: tuple[tuple[float, ...], ...]
    injected: int
    departed: int
    queued: int


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
    sim = TrafficSim(grid, policy, horizon, rng)
    sim.run()
    samples = tuple(
        tuple((baseline - delays).tolist())
        for baseline, delays in zip(grid.baseline_delays, sim.raw_delays())
    )
    return TrafficEpisode(
        samples=samples, injected=sim.injected, departed=sim.departed, queued=sim.queued
    )
