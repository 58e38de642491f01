"""Traffic grid simulator: conservation, delays, determinism, golden master."""

import csv
import hashlib
import importlib.util
import itertools
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cptopt.envs.traffic import (
    EW,
    NS,
    BoltzmannSignPolicy,
    FixedCyclePolicy,
    TrafficConfig,
    TrafficGrid,
    TrafficSim,
    traffic_episode,
)
from cptopt.rng import substream

GOLDEN = Path(__file__).parent / "data" / "traffic_golden.csv"
GOLDEN_2X3 = Path(__file__).parent / "data" / "traffic_golden_2x3.json"
DIGEST_MATRIX = Path(__file__).parent / "data" / "traffic_digest_matrix.json"

# the golden-master generator, loaded from its file; it also defines ConstantPolicy
_spec = importlib.util.spec_from_file_location(
    "make_traffic_golden", GOLDEN.parent / "make_traffic_golden.py"
)
GENERATOR = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(GENERATOR)
ConstantPolicy = GENERATOR.ConstantPolicy


def uniform_policy(grid):
    return BoltzmannSignPolicy(np.ones(grid.feature_dim), grid)


def green_configs(sim):
    """Configurations of the last simulated step: a green lane's timer is 0."""
    return tuple(EW if sim.timers[2 * j] == 0 else NS for j in range(sim.grid.n_junctions))


class TestTopology:
    def test_default_grid_shape(self):
        grid = TrafficGrid(TrafficConfig())
        assert grid.n_junctions == 4
        assert grid.n_lanes == 8
        assert grid.n_paths == 4
        assert grid.feature_dim == 48

    def test_each_lane_belongs_to_one_path(self):
        grid = TrafficGrid(TrafficConfig())
        seen = [lane for hops in grid.path_hops for lane in hops]
        assert sorted(seen) == list(range(grid.n_lanes))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (2, 3), (3, 1)])
    def test_routing_tables_follow_path_hops(self, rows, cols):
        grid = TrafficGrid(TrafficConfig(rows=rows, cols=cols))
        assert grid.first_lane == tuple(hops[0] for hops in grid.path_hops)
        for hops in grid.path_hops:
            assert [grid.next_lane[lane] for lane in hops] == list(hops[1:]) + [-1]
        # TrafficSim.run simulates junctions in index order, each after the
        # upstream junctions whose service it takes in; this order relies on it
        for lane, nxt in enumerate(grid.next_lane):
            assert nxt < 0 or nxt // 2 > lane // 2

    def test_single_junction_grid(self):
        grid = TrafficGrid(TrafficConfig(rows=1, cols=1))
        assert grid.n_paths == 2
        assert grid.feature_dim == 12

    def test_feature_vector_one_indicator_per_junction(self):
        grid = TrafficGrid(TrafficConfig())
        phi = features(grid, [0] * 8, [0] * 8, (0, 1, 0, 1))
        assert phi.sum() == 4.0
        assert set(np.unique(phi)) == {0.0, 1.0}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(arrival_rates=(0.1, 0.2))
        with pytest.raises(ValueError):
            TrafficConfig(burst_prob=1.5)
        with pytest.raises(ValueError):
            TrafficConfig(service_rate=2, switch_loss=3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rows", 1.5), ("cols", 2.0), ("burst_size", 1.5), ("service_rate", 2.5),
            ("switch_loss", 0.5), ("baseline_seed", 1.5), ("baseline_cycle", 3.0),
            ("baseline_horizon", 2000.0), ("timer_bin", 2.5), ("queue_bins", (4.5, 12)),
            ("rows", True), ("service_rate", np.True_), ("queue_bins", (4, True)),
        ],
    )
    def test_non_integer_in_an_int_field_is_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            TrafficConfig(**{field: value})

    def test_integer_like_fields_are_stored_as_int(self):
        config = TrafficConfig(rows=np.int64(1), queue_bins=(np.int32(3), 9))
        assert type(config.rows) is int and config.rows == 1
        assert [type(b) for b in config.queue_bins] == [int, int]

    def test_config_json_round_trip(self):
        config = TrafficConfig(arrival_rates=(0.5, 0.5, 0.2, 0.2), burst_prob=0.01)
        again = TrafficConfig.from_json(config.to_json())
        assert again == config


class TestEpisode:
    @pytest.mark.parametrize("cycle", [2.5, 3.0, True])
    def test_non_integer_cycle_rejected(self, cycle):
        with pytest.raises(TypeError, match="cycle must be an integer"):
            FixedCyclePolicy(cycle)

    @pytest.mark.parametrize("horizon", [2.5, 300.0, True])
    def test_non_integer_horizon_rejected(self, horizon):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(TypeError, match="horizon must be an integer"):
            TrafficSim(grid, FixedCyclePolicy(3), horizon, substream(0))
        with pytest.raises(TypeError, match="horizon must be an integer"):
            traffic_episode(grid, FixedCyclePolicy(3), horizon, substream(0))

    def test_zero_arrivals_give_empty_samples(self):
        config = TrafficConfig(arrival_rates=(0.0, 0.0, 0.0, 0.0), burst_prob=0.0)
        grid = TrafficGrid(config)
        episode = traffic_episode(grid, uniform_policy(grid), 50, substream(0))
        assert all(len(s) == 0 for s in episode.samples)
        assert episode.injected == 0

    def test_always_green_unlimited_service_means_zero_delay(self):
        # a 1x1 grid with the EW lane always green and ample service: every
        # EW vehicle is served the step it arrives, so its delay is 0 and its
        # sample equals the path baseline
        config = TrafficConfig(
            rows=1,
            cols=1,
            arrival_rates=(0.3, 0.0),
            burst_prob=0.0,
            service_rate=999,
            switch_loss=0,
        )
        grid = TrafficGrid(config)
        episode = traffic_episode(grid, ConstantPolicy(EW), 100, substream(5))
        assert episode.injected > 0
        baseline = grid.baseline_delays[0]
        assert all(s == baseline for s in episode.samples[0])

    def test_conservation_at_every_step(self):
        grid = TrafficGrid(TrafficConfig())
        sim = TrafficSim(grid, uniform_policy(grid), 300, substream(3))
        for t in range(1, 301):
            sim.run(t)
            assert sim.injected == sim.departed + sim.queued

    def test_episode_counters_consistent(self):
        grid = TrafficGrid(TrafficConfig())
        episode = traffic_episode(grid, uniform_policy(grid), 400, substream(1))
        assert episode.injected == episode.departed + episode.queued
        n_samples = sum(len(s) for s in episode.samples)
        assert n_samples == episode.injected  # stragglers included

    def test_determinism(self):
        grid = TrafficGrid(TrafficConfig())
        a = traffic_episode(grid, uniform_policy(grid), 250, substream(8, 1))
        b = traffic_episode(grid, uniform_policy(grid), 250, substream(8, 1))
        assert a == b

    def test_switch_loss_reduces_first_green_service(self):
        config = TrafficConfig(
            rows=1, cols=1, arrival_rates=(0.0, 0.0), burst_prob=0.0,
            service_rate=2, switch_loss=1,
        )
        grid = TrafficGrid(config)
        # FixedCyclePolicy(1) shows EW, NS, EW on steps 0, 1, 2
        sim = TrafficSim(grid, FixedCyclePolicy(1), 3, substream(0))
        sim.queues[0] = 4  # four vehicles waiting on the EW lane
        sim.run(1)
        assert sim.departed == 2  # first step: no previous phase, full service
        sim.run(2)  # switch to NS (empty)
        assert green_configs(sim) == (NS,)
        sim.run(3)  # switched back: one lost slot
        assert sim.departed == 3

    def test_fixed_cycle_alternates(self):
        grid = TrafficGrid(TrafficConfig())
        sim = TrafficSim(grid, FixedCyclePolicy(cycle=2), 6, substream(0))
        configs = []
        for t in range(1, 7):
            sim.run(t)
            configs.append(green_configs(sim))
        assert configs[0] == configs[1] == (0, 0, 0, 0)
        assert configs[2] == configs[3] == (1, 1, 1, 1)
        assert configs[4] == (0, 0, 0, 0)

    def test_boltzmann_policy_rejects_bad_theta(self):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(ValueError):
            BoltzmannSignPolicy(np.ones(3), grid)
        with pytest.raises(ValueError):
            BoltzmannSignPolicy(np.full(grid.feature_dim, np.nan), grid)

    @pytest.mark.parametrize("config", [1.0, True, 0.0, "1"])
    def test_constant_policy_rejects_non_integer_config(self, config):
        with pytest.raises(TypeError, match="config must be an integer"):
            ConstantPolicy(config)

    def test_constant_policy_stores_an_int(self):
        policy = ConstantPolicy(np.int64(NS))
        assert type(policy.config) is int and policy.config == NS
        with pytest.raises(ValueError, match="config must be 0"):
            ConstantPolicy(2)

    def test_saturated_scores_pin_the_choice(self):
        grid = TrafficGrid(TrafficConfig())
        theta = np.zeros(grid.feature_dim)
        for j in range(grid.n_junctions):
            for qb in range(3):
                for tb in range(2):
                    theta[grid.feature_index(j, EW, qb, tb)] = 60.0
        sim = TrafficSim(grid, BoltzmannSignPolicy(theta, grid), 50, substream(2))
        for t in range(1, 51):
            sim.run(t)
            assert green_configs(sim) == (0, 0, 0, 0)

    def test_score_gap_beyond_exp_range_pins_ew(self):
        # a gap of 799 overflows math.exp; P(NS) is then 0.0, the limit of 1/(1+inf)
        grid = TrafficGrid(TrafficConfig())
        theta = np.ones(grid.feature_dim)
        theta[0::12] = 800.0  # EW indicator at EW queue bin 0, NS timer bin 0
        policy = BoltzmannSignPolicy(theta, grid)
        episode = traffic_episode(grid, policy, 500, substream(4))
        assert episode.injected == episode.departed + episode.queued
        table = np.reshape(policy.p_ns_table(grid.n_junctions), (4, 3, 2, 3, 2))
        assert np.all(table[:, 0, 0] == 0.0)
        table[:, 0, 0] = 0.5
        assert np.all(table == 0.5)  # every other gap is 0
        # empty lanes keep EW's queue bin and NS's timer bin at 0 for the
        # first timer_bin steps, so EW is green on each of them
        empty = TrafficGrid(TrafficConfig(arrival_rates=(0.0,) * 4, burst_prob=0.0))
        sim = TrafficSim(empty, BoltzmannSignPolicy(theta, empty), 5, substream(4))
        for t in range(1, 6):
            sim.run(t)
            assert green_configs(sim) == (EW,) * 4

    def test_run_bounds(self):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(ValueError):
            TrafficSim(grid, uniform_policy(grid), 0, substream(0))
        sim = TrafficSim(grid, uniform_policy(grid), 10, substream(0))
        sim.run(4)
        for until in (3, 11):
            with pytest.raises(ValueError):
                sim.run(until)


def queue_bin(grid, q: int) -> int:
    lo, hi = grid.config.queue_bins
    return 0 if q < lo else (1 if q < hi else 2)


def timer_bin(grid, t: int) -> int:
    return 0 if t < grid.config.timer_bin else 1


def active_feature(grid, junction: int, config: int, queues, timers) -> int:
    """Index of the single indicator a junction/config pair activates."""
    green = grid.lane_id(junction, config)
    red = grid.lane_id(junction, 1 - config)
    return grid.feature_index(
        junction, config, queue_bin(grid, queues[green]), timer_bin(grid, timers[red])
    )


def features(grid, queues, timers, configs) -> np.ndarray:
    """Joint-action feature vector (one indicator per junction)."""
    phi = np.zeros(grid.feature_dim)
    for j, c in enumerate(configs):
        phi[active_feature(grid, j, c, queues, timers)] = 1.0
    return phi


def reference_configs(grid, theta, queues, timers, rng):
    """Boltzmann choice spelled out with the feature definition above."""
    draws = rng.random(grid.n_junctions)
    configs = []
    for j in range(grid.n_junctions):
        s_ew = theta[active_feature(grid, j, EW, queues, timers)]
        s_ns = theta[active_feature(grid, j, NS, queues, timers)]
        configs.append(NS if draws[j] < 1.0 / (1.0 + math.exp(s_ew - s_ns)) else EW)
    return tuple(configs)


@st.composite
def policy_inputs(draw):
    lo = draw(st.integers(0, 8))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    # no arrivals: a zero Poisson rate draws nothing, so a one-step episode
    # consumes exactly the policy's uniforms
    config = TrafficConfig(
        rows=rows,
        cols=cols,
        arrival_rates=(0.0,) * (rows + cols),
        burst_prob=0.0,
        queue_bins=(lo, lo + draw(st.integers(1, 8))),
        timer_bin=draw(st.integers(1, 6)),
    )
    grid = TrafficGrid(config)
    lanes = st.lists(st.integers(0, 25), min_size=grid.n_lanes, max_size=grid.n_lanes)
    theta = draw(st.lists(
        st.floats(-300.0, 300.0), min_size=grid.feature_dim, max_size=grid.feature_dim
    ))
    return grid, np.array(theta), draw(lanes), draw(lanes), draw(st.integers(0, 2**32 - 1))


class TestTableDrivenProperties:
    @settings(max_examples=200, deadline=None)
    @given(policy_inputs())
    def test_boltzmann_choice_matches_feature_definition(self, case):
        grid, theta, queues, timers, seed = case
        policy = BoltzmannSignPolicy(theta, grid)
        rng, ref_rng = substream(seed), substream(seed)
        for _ in range(3):
            sim = TrafficSim(grid, policy, 1, rng)
            sim.queues, sim.timers = list(queues), list(timers)
            sim.run()
            got = green_configs(sim)
            assert got == reference_configs(grid, theta, queues, timers, ref_rng)
        assert rng.random() == ref_rng.random()  # same draws consumed

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 3),
        cols=st.integers(1, 4),
        burst_prob=st.sampled_from([0.0, 0.01, 0.1]),
        steps=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conservation_on_non_square_grids(self, rows, cols, burst_prob, steps, seed):
        assume(rows != cols)
        grid = TrafficGrid(TrafficConfig(rows=rows, cols=cols, burst_prob=burst_prob))
        theta = substream(seed, 1).uniform(-2.0, 2.0, grid.feature_dim)
        policy = BoltzmannSignPolicy(theta, grid)
        sim = TrafficSim(grid, policy, steps, substream(seed))
        for t in range(1, steps + 1):
            sim.run(t)
            assert sim.injected == sim.departed + sim.queued
        assert sum(len(d) for d in sim.raw_delays()) == sim.injected

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 3),
        cols=st.integers(1, 3),
        steps=st.integers(1, 700),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_run_equals_one_run(self, rows, cols, steps, cuts, seed):
        grid = TrafficGrid(TrafficConfig(rows=rows, cols=cols, burst_prob=0.02))
        policy = BoltzmannSignPolicy(substream(seed, 1).normal(0.0, 2.0, grid.feature_dim), grid)
        whole = TrafficSim(grid, policy, steps, substream(seed))
        whole.run()
        pieces = TrafficSim(grid, policy, steps, substream(seed))
        for until in sorted(int(c * steps) for c in cuts) + [steps]:
            pieces.run(until)
        delays = [d.tolist() for d in whole.raw_delays()]
        assert [d.tolist() for d in pieces.raw_delays()] == delays
        assert (pieces.injected, pieces.departed, pieces.queues) == (
            whole.injected, whole.departed, whole.queues
        )
        assert pieces.rng.random() == whole.rng.random()


def _step_major_sim(grid, policy, horizon, rng):
    """State of the step-major reference simulator (``_step_major_run``).

    It builds its own P(NS) table, from ``TrafficGrid.feature_index``, and
    draws its own uniforms, so it shares no code with ``TrafficSim`` beyond
    the grid's routing tables.
    """
    if isinstance(policy, BoltzmannSignPolicy):
        scores = policy.theta.tolist()
        p_ns = []
        for j in range(grid.n_junctions):
            for qb_ew, tb_ns, qb_ns, tb_ew in itertools.product(
                range(3), range(2), range(3), range(2)
            ):
                gap = (
                    scores[grid.feature_index(j, EW, qb_ew, tb_ns)]
                    - scores[grid.feature_index(j, NS, qb_ns, tb_ew)]
                )
                try:
                    p_ns.append(1.0 / (1.0 + math.exp(gap)))
                except OverflowError:
                    p_ns.append(0.0)
    else:
        p_ns = [0.5] * (36 * grid.n_junctions)
    return types.SimpleNamespace(
        grid=grid, policy=policy, horizon=horizon, rng=rng, t=0,
        queues=[0] * grid.n_lanes, timers=[0] * grid.n_lanes,
        injected=0, departed=0, p_ns=tuple(p_ns), blocks=[], rows=[], draws=[],
        left_at=[[] for _ in range(grid.n_lanes)],
        left_n=[[] for _ in range(grid.n_lanes)],
    )


def _step_major_draws(policy, t0, k, n_junctions, rng):
    if isinstance(policy, BoltzmannSignPolicy):
        return rng.random((k, n_junctions)).tolist()
    if isinstance(policy, FixedCyclePolicy):
        ew, ns = [1.0] * n_junctions, [0.0] * n_junctions
        return [ns if (t // policy.cycle) % 2 else ew for t in range(t0, t0 + k)]
    return [[0.0 if policy.config == NS else 1.0] * n_junctions] * k


def _step_major_run(sim, until):
    """Step-major reference loop: one step at a time, junctions last to
    first, each decision made in the same pass that serves the junction."""
    grid = sim.grid
    cfg = grid.config
    lo, hi = cfg.queue_bins
    timer_bin = cfg.timer_bin
    rate = cfg.service_rate
    switched_rate = rate - cfg.switch_loss
    queues, timers, p_ns = sim.queues, sim.timers, sim.p_ns
    first_lane, next_lane = grid.first_lane, grid.next_lane
    left_at, left_n = sim.left_at, sim.left_n
    junctions = [(j, 2 * j, 2 * j + 1, 36 * j) for j in reversed(range(grid.n_junctions))]
    injected, departed = sim.injected, sim.departed
    t = sim.t
    while t < until:
        offset = t % 256
        if offset == 0:
            shape = (256, grid.n_paths)
            counts = sim.rng.poisson(cfg.rates, shape)
            if cfg.burst_prob > 0.0:
                bursts = sim.rng.random(shape) < cfg.burst_prob
                counts = counts + bursts * cfg.burst_size
            sim.blocks.append(counts)
            sim.rows = counts.tolist()
            k = min(256, sim.horizon - t)
            sim.draws = _step_major_draws(sim.policy, t, k, grid.n_junctions, sim.rng)
        stop = offset + min(until - t, 256 - offset)
        for arrivals, draws in zip(sim.rows[offset:stop], sim.draws[offset:stop]):
            for lane, k in zip(first_lane, arrivals):
                if k:
                    queues[lane] += k
                    injected += k
            for j, ew, ns, base in junctions:
                q_ew, q_ns, t_ew, t_ns = queues[ew], queues[ns], timers[ew], timers[ns]
                state = (
                    (0 if q_ew < lo else 12 if q_ew < hi else 24)
                    + (6 if t_ns >= timer_bin else 0)
                    + (0 if q_ns < lo else 2 if q_ns < hi else 4)
                    + (t_ew >= timer_bin)
                )
                if draws[j] < p_ns[base + state]:
                    green, queue, served = ns, q_ns, switched_rate if t_ns else rate
                    timers[ns] = 0
                    timers[ew] = t_ew + 1
                else:
                    green, queue, served = ew, q_ew, switched_rate if t_ew else rate
                    timers[ew] = 0
                    timers[ns] = t_ns + 1
                if served > queue:
                    served = queue
                if served:
                    queues[green] = queue - served
                    nxt = next_lane[green]
                    if nxt < 0:
                        left_at[green].append(t)
                        left_n[green].append(served)
                        departed += served
                    else:
                        queues[nxt] += served
            t += 1
    sim.t, sim.injected, sim.departed = t, injected, departed


def _step_major_delays(sim):
    t = sim.t
    arrivals = np.concatenate(sim.blocks or [np.zeros((0, sim.grid.n_paths), int)])
    out = []
    for path, hops in enumerate(sim.grid.path_hops):
        entered = np.repeat(np.arange(t), arrivals[:t, path])
        left = np.repeat(np.asarray(sim.left_at[hops[-1]], dtype=int), sim.left_n[hops[-1]])
        queued, end = [], entered.size
        for lane in hops:
            queued.append(entered[end - sim.queues[lane] : end])
            end -= sim.queues[lane]
        out.append(np.concatenate([left - entered[: left.size], t - np.concatenate(queued)]))
    return out


def _delays_or_error(raw_delays):
    """Delays as lists, or the error's type: overwritten queues can hold more
    vehicles than ever entered, and then both simulators must fail alike."""
    try:
        return [d.tolist() for d in raw_delays()]
    except (IndexError, ValueError) as exc:
        return type(exc).__name__


@st.composite
def step_major_cases(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    burst = draw(st.sampled_from([0.0, 0.02, 0.1]))
    grid = TrafficGrid(TrafficConfig(rows=rows, cols=cols, burst_prob=burst))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["uniform", "random", "fixed-cycle", "constant"]))
    if kind == "uniform":
        policy = uniform_policy(grid)
    elif kind == "random":
        # a scale of 400 puts many score gaps beyond math.exp's range
        scale = draw(st.sampled_from([0.5, 3.0, 400.0]))
        policy = BoltzmannSignPolicy(substream(seed, 1).normal(0.0, scale, grid.feature_dim), grid)
    elif kind == "fixed-cycle":
        policy = FixedCyclePolicy(draw(st.integers(1, 4)))
    else:
        policy = ConstantPolicy(draw(st.sampled_from([EW, NS])))
    horizon = draw(st.integers(1, 700))
    cuts = sorted(draw(st.lists(st.integers(0, horizon), max_size=4))) + [horizon]
    lanes = st.lists(st.integers(0, 30), min_size=grid.n_lanes, max_size=grid.n_lanes)
    # state written into both simulators before each run(until) call, or None
    states = [draw(st.none() | st.tuples(lanes, lanes)) for _ in cuts]
    return grid, policy, horizon, seed, cuts, states


def _uniform_case(rows, cols, horizon, cuts):
    grid = TrafficGrid(TrafficConfig(rows=rows, cols=cols, burst_prob=0.1))
    return grid, uniform_policy(grid), horizon, 3, cuts, [None] * len(cuts)


class TestStepMajorEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(step_major_cases())
    @example(_uniform_case(1, 4, horizon=257, cuts=[256, 257]))
    @example(_uniform_case(4, 1, horizon=700, cuts=[1, 700]))
    def test_matches_step_major_loop(self, case):
        grid, policy, horizon, seed, cuts, states = case
        sim = TrafficSim(grid, policy, horizon, substream(seed))
        ref = _step_major_sim(grid, policy, horizon, substream(seed))
        for until, state in zip(cuts, states):
            if state is not None:
                sim.queues, sim.timers = list(state[0]), list(state[1])
                ref.queues, ref.timers = list(state[0]), list(state[1])
            sim.run(until)
            _step_major_run(ref, until)
            assert (sim.t, sim.queues, sim.timers) == (ref.t, ref.queues, ref.timers)
            assert (sim.injected, sim.departed) == (ref.injected, ref.departed)
            assert sim.queued == sum(ref.queues)
        assert _delays_or_error(sim.raw_delays) == _delays_or_error(
            lambda: _step_major_delays(ref)
        )
        assert sim.rng.random() == ref.rng.random()


class TestGoldenMaster:
    def test_default_grid_uniform_policy_regression(self):
        """Frozen reference output of the default configuration.

        Regenerate tests/data/traffic_golden.csv with
        ``python tests/data/make_traffic_golden.py`` after an intentional
        behavior change.
        """
        grid = TrafficGrid(TrafficConfig())
        episode = traffic_episode(grid, uniform_policy(grid), 120, substream(2024))
        expected: dict[int, list[float]] = {}
        with open(GOLDEN, newline="") as fh:
            for row in csv.DictReader(fh):
                expected.setdefault(int(row["path"]), []).append(float(row["sample"]))
        assert len(episode.samples) == len(expected)
        for path, samples in expected.items():
            assert list(episode.samples[path]) == pytest.approx(samples, abs=0.0)

    def test_non_square_grid_bursts_across_arrival_blocks(self):
        """2x3 grid, bursts, non-uniform theta, 600 steps (three arrival blocks).

        The frozen file holds the inputs next to the expected samples and
        flow counters; regenerate it with the same script as above.
        """
        doc = json.loads(GOLDEN_2X3.read_text())
        grid = TrafficGrid(TrafficConfig.from_dict(doc["config"]))
        assert (grid.config.rows, grid.config.cols) == (2, 3)
        assert grid.config.burst_prob > 0.0 and doc["horizon"] > 512
        policy = BoltzmannSignPolicy(np.array(doc["theta"]), grid)
        episode = traffic_episode(grid, policy, doc["horizon"], substream(doc["seed"]))
        assert episode.injected == doc["injected"]
        assert episode.departed == doc["departed"]
        assert episode.queued == doc["queued"]
        assert len(episode.samples) == len(doc["samples"]) == grid.n_paths
        for got, expected in zip(episode.samples, doc["samples"]):
            assert list(got) == pytest.approx(expected, abs=0.0)

    def test_digest_matrix(self):
        """Grid x burst rate x policy x horizon, each case then a pooled episode.

        Each case hashes both episodes' samples (``float.hex``), their flow
        counters and the generator's next ``random()``; regenerate the file
        with the same script as above.
        """
        doc = json.loads(DIGEST_MATRIX.read_text())
        policies = {
            "boltzmann-uniform": uniform_policy,
            "boltzmann-random": lambda grid: BoltzmannSignPolicy(
                substream(91).uniform(-3.0, 3.0, grid.feature_dim), grid
            ),
            "fixed-cycle-3": lambda grid: FixedCyclePolicy(3),
            "constant-ns": lambda grid: ConstantPolicy(NS),
        }
        got = {}
        for (rows, cols), burst in itertools.product(doc["grids"], doc["burst_probs"]):
            grid = TrafficGrid(TrafficConfig(rows=rows, cols=cols, burst_prob=burst))
            for name, horizon, seed in itertools.product(
                doc["policies"], doc["horizons"], doc["seeds"]
            ):
                rng = substream(seed)
                digest = hashlib.sha256()
                for steps in (horizon, doc["pooled_horizon"]):
                    episode = traffic_episode(grid, policies[name](grid), steps, rng)
                    for samples in episode.samples:
                        digest.update(" ".join(map(float.hex, samples)).encode() + b"\n")
                    counters = (episode.injected, episode.departed, episode.queued)
                    digest.update(("%d %d %d\n" % counters).encode())
                digest.update(float.hex(rng.random()).encode())
                got[f"{rows}x{cols}/{burst!r}/{name}/{horizon}/{seed}"] = digest.hexdigest()
        assert len(got) == len(doc["digests"]) == 560
        assert [k for k in got if got[k] != doc["digests"][k]] == []
