"""Each constructor's range and structure checks, one case per check.

Every case builds something invalid and names the error it must raise, with
the whole message, so a check that goes missing or starts to say something
else fails here.  Type checks on the fields themselves are in
``test_typed_fields.py``.
"""

import dataclasses
import re

import numpy as np
import pytest

from cptopt import (
    BoxConstraint,
    DiscreteDist,
    ExperimentConfig,
    GaussianMeanEnv,
    SpsaSchedules,
    UtilitySpec,
    WeightSpec,
    ascend,
    estimate_cpt_discrete,
    psd_project,
)
from cptopt.envs.ssp import SspMdp, two_state_chain
from cptopt.envs.traffic import (
    BoltzmannSignPolicy,
    FixedCyclePolicy,
    TrafficConfig,
    TrafficGrid,
)
from cptopt.models import CptModel, Exponential, Gaussian, TwoPoint, Uniform

CHAIN = two_state_chain()


def _mdp(**fields) -> SspMdp:
    return dataclasses.replace(CHAIN, **fields)


def _junction_mismatch():
    grid = TrafficGrid(TrafficConfig())
    BoltzmannSignPolicy(np.ones(grid.feature_dim), grid).p_ns_table(6)


_THREE_ATOMS = DiscreteDist((-1.0, 0.0, 2.0), (0.25, 0.25, 0.5), 1)

# id -> (a call that must fail, its error type, its whole message)
CASES = {
    # SspMdp's structure, two_state_chain's continue_prob
    "SspMdp.cover": (
        lambda: _mdp(rewards=CHAIN.rewards * 2),
        ValueError, "transitions, rewards and features must cover states 1..L",
    ),
    "SspMdp.start": (lambda: _mdp(start=2), ValueError, "start state 2 out of range"),
    "SspMdp.t_max": (lambda: _mdp(t_max=0), ValueError, "t_max must be positive"),
    "SspMdp.empty_actions": (
        lambda: SspMdp(transitions=((),), rewards=((),), features=((),)),
        ValueError, "state 1 has an empty action set",
    ),
    "SspMdp.rewards": (
        lambda: _mdp(rewards=((0.0,),)),
        ValueError, "state 1: rewards do not match the action set",
    ),
    "SspMdp.features": (
        lambda: _mdp(features=(((1.0, 0.0),),)),
        ValueError, "state 1: features do not match the action set",
    ),
    "SspMdp.row_length": (
        lambda: _mdp(transitions=(((1.0,), (0.5, 0.5)),)),
        ValueError, "state 1 action 0: kernel row has wrong length",
    ),
    "SspMdp.row_sum": (
        lambda: _mdp(transitions=(((1.0, 0.0), (0.5, 0.4)),)),
        ValueError, "state 1 action 1: kernel row must be a distribution, sums to 0.9",
    ),
    "SspMdp.row_negative": (
        lambda: _mdp(transitions=(((1.0, 0.0), (1.5, -0.5)),)),
        ValueError, "state 1 action 1: kernel row must be a distribution, sums to 1.0",
    ),
    "SspMdp.feature_length": (
        lambda: _mdp(features=(((1.0, 0.0), (1.0,)),)),
        ValueError, "all feature vectors must share one length",
    ),
    "two_state_chain.continue_prob": (
        lambda: two_state_chain(continue_prob=1.0),
        ValueError, "continue_prob must lie in [0, 1)",
    ),
    # TrafficConfig's ranges, FixedCyclePolicy, the junction count
    "TrafficConfig.rows": (
        lambda: TrafficConfig(rows=0),
        ValueError, "grid must have at least one row and one column",
    ),
    "TrafficConfig.cols": (
        lambda: TrafficConfig(cols=0),
        ValueError, "grid must have at least one row and one column",
    ),
    "TrafficConfig.arrival_rates.count": (
        lambda: TrafficConfig(arrival_rates=(0.5,) * 3),
        ValueError, "arrival_rates: need 4 finite nonnegative rates",
    ),
    "TrafficConfig.arrival_rates.negative": (
        lambda: TrafficConfig(arrival_rates=(0.5, 0.5, 0.5, -0.5)),
        ValueError, "arrival_rates: need 4 finite nonnegative rates",
    ),
    "TrafficConfig.ew_rate": (
        lambda: TrafficConfig(ew_rate=-0.5), ValueError, "ew_rate must be nonnegative, got -0.5"
    ),
    "TrafficConfig.ns_rate": (
        lambda: TrafficConfig(ns_rate=-1), ValueError, "ns_rate must be nonnegative, got -1"
    ),
    "TrafficConfig.burst_prob": (
        lambda: TrafficConfig(burst_prob=1.5), ValueError, "burst_prob must lie in [0, 1]"
    ),
    "TrafficConfig.burst_size": (
        lambda: TrafficConfig(burst_size=-1),
        ValueError, "burst_size must be >= 0 and service_rate >= 1",
    ),
    "TrafficConfig.service_rate": (
        lambda: TrafficConfig(service_rate=0, switch_loss=0),
        ValueError, "burst_size must be >= 0 and service_rate >= 1",
    ),
    "TrafficConfig.switch_loss": (
        lambda: TrafficConfig(switch_loss=4),
        ValueError, "switch_loss must lie in [0, service_rate]",
    ),
    "TrafficConfig.baseline_cycle": (
        lambda: TrafficConfig(baseline_cycle=0),
        ValueError, "baseline_cycle and baseline_horizon must be >= 1",
    ),
    "TrafficConfig.baseline_horizon": (
        lambda: TrafficConfig(baseline_horizon=0),
        ValueError, "baseline_cycle and baseline_horizon must be >= 1",
    ),
    "TrafficConfig.queue_bins": (
        lambda: TrafficConfig(queue_bins=(12, 12)), ValueError, "queue_bins must be increasing"
    ),
    "TrafficConfig.timer_bin": (
        lambda: TrafficConfig(timer_bin=0), ValueError, "timer_bin must be >= 1"
    ),
    "FixedCyclePolicy.cycle": (lambda: FixedCyclePolicy(0), ValueError, "cycle must be >= 1"),
    "BoltzmannSignPolicy.p_ns_table": (
        _junction_mismatch, ValueError, "policy has 4 junctions, grid has 6"
    ),
    # the model specs' kinds and ranges
    "UtilitySpec.kind": (
        lambda: UtilitySpec("linear"), ValueError, "unknown utility kind 'linear'"
    ),
    "UtilitySpec.sigma_plus": (
        lambda: UtilitySpec.piecewise_power(1.5, 0.5, 2.0),
        ValueError, "sigma_plus must lie in (0, 1], got 1.5",
    ),
    "UtilitySpec.sigma_minus": (
        lambda: UtilitySpec.piecewise_power(0.5, 0.0, 2.0),
        ValueError, "sigma_minus must lie in (0, 1], got 0.0",
    ),
    "UtilitySpec.loss_aversion": (
        lambda: UtilitySpec.piecewise_power(0.5, 0.5, 0.5),
        ValueError, "loss_aversion must be >= 1, got 0.5",
    ),
    "UtilitySpec.identity": (
        lambda: UtilitySpec("identity", loss_aversion=2.0),
        ValueError, "identity utility requires unit exponents and loss_aversion",
    ),
    "WeightSpec.kind": (lambda: WeightSpec("cubic"), ValueError, "unknown weight kind 'cubic'"),
    "WeightSpec.eta": (
        lambda: WeightSpec.power(0.0), ValueError, "eta must be positive, got 0.0"
    ),
    "WeightSpec.identity": (
        lambda: WeightSpec("identity", 0.5), ValueError, "identity weight requires eta == 1"
    ),
    "WeightSpec.tversky_kahneman.low": (
        lambda: WeightSpec.tversky_kahneman(0.2),
        ValueError, "tversky_kahneman eta must lie in [0.3, 1] (non-monotone below), got 0.2",
    ),
    "WeightSpec.tversky_kahneman.high": (
        lambda: WeightSpec.tversky_kahneman(1.5),
        ValueError, "tversky_kahneman eta must lie in [0.3, 1] (non-monotone below), got 1.5",
    ),
    "WeightSpec.prelec": (
        lambda: WeightSpec.prelec(1.5), ValueError, "prelec eta must lie in (0, 1], got 1.5"
    ),
    "WeightSpec.p": (
        lambda: WeightSpec.power(2.0)(1.5),
        ValueError, "probability must lie in [0, 1], got 1.5",
    ),
    # SpsaSchedules, BoxConstraint, psd_project, ascend
    "SpsaSchedules.a0": (
        lambda: SpsaSchedules(a0=0.0), ValueError, "a0 must be positive, got 0.0"
    ),
    "SpsaSchedules.delta0": (
        lambda: SpsaSchedules(delta0=-1.0), ValueError, "delta0 must be positive, got -1.0"
    ),
    "SpsaSchedules.m0": (lambda: SpsaSchedules(m0=0), ValueError, "m0 must be positive, got 0"),
    "SpsaSchedules.nu": (
        lambda: SpsaSchedules(nu=-0.5), ValueError, "nu must be positive, got -0.5"
    ),
    "SpsaSchedules.a_offset": (
        lambda: SpsaSchedules(a_offset=-1.0),
        ValueError, "a_offset must be nonnegative, got -1.0",
    ),
    "SpsaSchedules.alpha": (
        lambda: SpsaSchedules(alpha=1.5), ValueError, "alpha must lie in (0, 1], got 1.5"
    ),
    "SpsaSchedules.delta_exp": (
        lambda: SpsaSchedules(delta_exp=0.5),
        ValueError,
        "delta_exp must lie in (0, 0.5): got 0.5 "
        "(at 0.5 and above, sum gamma_n^2/delta_n^2 diverges)",
    ),
    "SpsaSchedules.bias": (
        lambda: SpsaSchedules(delta_exp=0.3, nu=0.5),
        ValueError,
        "need delta_exp < nu*alpha/2 for the estimator bias to vanish: 0.3 >= 0.25",
    ),
    "BoxConstraint.lengths": (
        lambda: BoxConstraint((0.0, 0.0), (1.0,)),
        ValueError, "lo and hi must be matching nonempty vectors",
    ),
    "BoxConstraint.empty": (
        lambda: BoxConstraint((), ()), ValueError, "lo and hi must be matching nonempty vectors"
    ),
    "BoxConstraint.order": (
        lambda: BoxConstraint((0.0, 1.0), (1.0, 1.0)),
        ValueError, "each lower bound must be strictly below its upper bound",
    ),
    "BoxConstraint.cube.dim": (
        lambda: BoxConstraint.cube(0.0, 1.0, 0), ValueError, "dim must be >= 1, got 0"
    ),
    "psd_project.h": (
        lambda: psd_project(np.ones((2, 3)), 0.1), ValueError, "h must be square, got shape (2, 3)"
    ),
    "ascend.iters": (
        lambda: ascend(
            lambda theta, m, rng: 0.0, SpsaSchedules(), BoxConstraint.cube(0.0, 1.0, 1),
            np.array([0.5]), -1, 0,
        ),
        ValueError, "iters must be nonnegative",
    ),
    # DiscreteDist's probabilities and split, negative tallies
    "DiscreteDist.probs.negative": (
        lambda: DiscreteDist((0.0, 1.0), (1.5, -0.5), 1),
        ValueError, "probabilities must be nonnegative",
    ),
    "DiscreteDist.probs.sum": (
        lambda: DiscreteDist((0.0, 1.0), (0.5, 0.25), 1),
        ValueError, "probabilities must sum to 1, got 0.75",
    ),
    "DiscreteDist.split": (
        lambda: DiscreteDist((0.0, 1.0), (0.5, 0.5), 3),
        ValueError, "split must lie in [0, 2], got 3",
    ),
    "DiscreteDist.split.negative": (
        lambda: DiscreteDist((0.0, 1.0), (0.5, 0.5), -1),
        ValueError, "split must lie in [0, 2], got -1",
    ),
    "DiscreteDist.sample_counts.n": (
        lambda: _THREE_ATOMS.sample_counts(np.random.default_rng(0), -1),
        ValueError, "n must be >= 0, got -1",
    ),
    "estimate_cpt_discrete.counts": (
        lambda: estimate_cpt_discrete([3, -1, 2], _THREE_ATOMS, CptModel()),
        ValueError, "counts must be nonnegative integers",
    ),
    # ExperimentConfig's iterations, horizons and starting point
    "ExperimentConfig.train_iters": (
        lambda: ExperimentConfig(train_iters=-1),
        ValueError, "train_iters must be >= 0 and test_reps >= 1",
    ),
    "ExperimentConfig.test_reps": (
        lambda: ExperimentConfig(test_reps=0),
        ValueError, "train_iters must be >= 0 and test_reps >= 1",
    ),
    "ExperimentConfig.train_horizon": (
        lambda: ExperimentConfig(train_horizon=0), ValueError, "horizons must be >= 1"
    ),
    "ExperimentConfig.test_horizon": (
        lambda: ExperimentConfig(test_horizon=0), ValueError, "horizons must be >= 1"
    ),
    "ExperimentConfig.theta_init.low": (
        lambda: ExperimentConfig(theta_init=0.1),
        ValueError, "theta_init must lie strictly inside the box",
    ),
    "ExperimentConfig.theta_init.high": (
        lambda: ExperimentConfig(box_hi=0.5),
        ValueError, "theta_init must lie strictly inside the box",
    ),
    "ExperimentConfig.mu.count": (
        lambda: ExperimentConfig(mu=(0.5, 0.5)), ValueError, "mu must have 4 entries"
    ),
    # GaussianMeanEnv and the analytic distributions
    "GaussianMeanEnv.curvatures": (
        lambda: GaussianMeanEnv(curvatures=(1.0, 0.0), optimum=(1.0, 1.0)),
        ValueError, "curvatures must be positive",
    ),
    "GaussianMeanEnv.noise_std": (
        lambda: GaussianMeanEnv(noise_std=-0.1),
        ValueError, "noise_std must be nonnegative, got -0.1",
    ),
    "Uniform": (lambda: Uniform(1.0, 1.0), ValueError, "uniform bounds must satisfy lo < hi"),
    "Gaussian": (lambda: Gaussian(0.0, 0.0), ValueError, "std must be positive"),
    "TwoPoint": (lambda: TwoPoint(0.0, 1.5, 1.0), ValueError, "p1 must lie in [0, 1]"),
    "Exponential": (lambda: Exponential(-1.0), ValueError, "rate must be positive"),
}


@pytest.mark.parametrize("case", CASES)
def test_check_raises_its_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
