"""Return environments: determinism, episode mechanics, policy invariances."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cptopt import CptModel, GaussianMeanEnv, ReturnEnv, estimate_cpt, substream
from cptopt.envs.ssp import (
    BoltzmannPolicy,
    EpisodeResult,
    SspMdp,
    SspReturnEnv,
    boltzmann_probs,
    ssp_episode,
    two_state_chain,
)
from cptopt.envs.traffic import TrafficConfig

NAN, INF = float("nan"), float("inf")


def one_step_chain(reward: float = 1.0) -> SspMdp:
    """Single transient state whose every action absorbs immediately."""
    return SspMdp(
        transitions=(((1.0, 0.0),),),
        rewards=((reward,),),
        features=(((1.0,),),),
        start=1,
    )


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: TrafficConfig(ew_rate=NAN), "ew_rate"),
        (lambda: TrafficConfig(ns_rate=INF), "ns_rate"),
        (lambda: TrafficConfig(arrival_rates=(NAN,) * 4), "arrival_rates"),
        (lambda: TrafficConfig(arrival_rates=(0.5, INF, 0.2, 0.2)), "arrival_rates"),
        (lambda: GaussianMeanEnv(optimum=NAN), "optimum"),
        (lambda: GaussianMeanEnv(optimum=(2.0, INF), curvatures=1.0), "optimum"),
        (lambda: GaussianMeanEnv(curvatures=NAN), "curvatures"),
        (lambda: GaussianMeanEnv(curvatures=INF), "curvatures"),
        (lambda: GaussianMeanEnv(noise_std=NAN), "noise_std"),
    ],
    ids=[
        "traffic-ew-nan", "traffic-ns-inf", "traffic-rates-nan", "traffic-rates-inf",
        "gaussian-optimum-nan", "gaussian-optimum-inf", "gaussian-curvature-nan",
        "gaussian-curvature-inf", "gaussian-noise-nan",
    ],
)
def test_non_finite_parameters_rejected_at_construction(build, field):
    with pytest.raises(ValueError, match=field):
        build()


class TestGaussianMeanEnv:
    def test_mean_at_optimum(self):
        env = GaussianMeanEnv(optimum=2.0, curvatures=2.0, noise_std=0.1)
        samples = env.sample_returns([2.0], 100_000, substream(0))
        assert abs(samples.mean()) <= 0.004

    def test_identical_substream_identical_samples(self):
        env = GaussianMeanEnv()
        a = env.sample_returns([1.0], 50, substream(3, 1, 2))
        b = env.sample_returns([1.0], 50, substream(3, 1, 2))
        assert np.array_equal(a, b)

    def test_single_sample(self):
        env = GaussianMeanEnv()
        out = env.sample_returns([0.5], 1, substream(1))
        assert out.shape == (1,)
        assert np.isfinite(out[0])

    def test_domain_errors(self):
        env = GaussianMeanEnv()
        with pytest.raises(ValueError):
            env.sample_returns([np.nan], 5, substream(0))
        with pytest.raises(ValueError):
            env.sample_returns([1.0, 2.0], 5, substream(0))
        with pytest.raises(ValueError):
            env.sample_returns([1.0], 0, substream(0))

    @pytest.mark.parametrize("m", [2.5, 1.9, True, "3"])
    def test_non_integer_batch_size_rejected(self, m):
        env = GaussianMeanEnv()
        with pytest.raises(TypeError, match="m must be an integer"):
            env.sample_returns([1.0], m, substream(0))

    def test_integer_like_batch_size_accepted(self):
        env = GaussianMeanEnv()
        assert env.sample_returns([1.0], np.int64(3), substream(0)).shape == (3,)

    def test_substream_batches_are_independent(self):
        # chi-square independence on paired batches from sibling substreams
        env = GaussianMeanEnv()
        a = env.sample_returns([1.0], 4_000, substream(5, 0))
        b = env.sample_returns([1.0], 4_000, substream(5, 1))
        qa = np.quantile(a, [0.25, 0.5, 0.75])
        qb = np.quantile(b, [0.25, 0.5, 0.75])
        table = np.zeros((4, 4))
        for x, y in zip(a, b):
            table[np.searchsorted(qa, x), np.searchsorted(qb, y)] += 1
        result = stats.chi2_contingency(table)
        assert result.pvalue > 1e-3


class TestBoltzmannPolicy:
    def test_zero_weights_uniform(self):
        mdp = two_state_chain()
        policy = BoltzmannPolicy((0.0, 0.0), mdp)
        assert boltzmann_probs(policy, 1) == pytest.approx([0.5, 0.5])

    def test_equal_scores_uniform(self):
        mdp = two_state_chain()
        policy = BoltzmannPolicy((1.0, 1.0), mdp)
        assert boltzmann_probs(policy, 1) == pytest.approx([0.5, 0.5])

    def test_log3_scores(self):
        mdp = two_state_chain()
        policy = BoltzmannPolicy((np.log(3.0), 0.0), mdp)
        assert boltzmann_probs(policy, 1) == pytest.approx([0.75, 0.25])

    @pytest.mark.parametrize("theta", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_theta_rejected_at_construction(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            BoltzmannPolicy(theta, two_state_chain())

    def test_probabilities_sum_to_one(self):
        mdp = two_state_chain()
        rng = np.random.default_rng(0)
        for _ in range(100):
            policy = BoltzmannPolicy(tuple(rng.normal(size=2) * 50), mdp)
            probs = boltzmann_probs(policy, 1)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0.0)

    def test_shift_invariance(self):
        # adding a constant vector to every action's features leaves the
        # distribution unchanged
        base = two_state_chain()
        shift = (7.5, -3.25)
        shifted = SspMdp(
            transitions=base.transitions,
            rewards=base.rewards,
            features=(
                tuple(
                    tuple(f + s for f, s in zip(feat, shift))
                    for feat in base.features[0]
                ),
            ),
            start=1,
        )
        theta = (0.37, -1.2)
        assert boltzmann_probs(BoltzmannPolicy(theta, base), 1) == pytest.approx(
            boltzmann_probs(BoltzmannPolicy(theta, shifted), 1)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BoltzmannPolicy((1.0,), two_state_chain())

    def test_absorbing_state_has_no_actions(self):
        policy = BoltzmannPolicy((0.0, 0.0), two_state_chain())
        with pytest.raises(ValueError):
            boltzmann_probs(policy, 0)


class TestSspEpisode:
    def test_forced_one_step_absorption(self):
        mdp = one_step_chain(reward=1.0)
        result = ssp_episode(mdp, BoltzmannPolicy((0.0,), mdp), substream(0))
        assert result.ret == 1.0
        assert result.length == 1
        assert not result.truncated

    def test_geometric_series_mean(self):
        # uniform policy: R = 1/2 * 0 + 1/2 * (1 + 1/2 * R)  =>  R = 2/3
        mdp = two_state_chain()
        policy = BoltzmannPolicy((0.0, 0.0), mdp)
        rng = substream(42)
        returns = np.array([ssp_episode(mdp, policy, rng).ret for _ in range(100_000)])
        se = returns.std(ddof=1) / np.sqrt(returns.size)
        assert abs(returns.mean() - 2.0 / 3.0) <= 3 * se

    def test_saturated_policy_mostly_one_step(self):
        mdp = two_state_chain()
        policy = BoltzmannPolicy((50.0, 0.0), mdp)  # absorbing action dominates
        rng = substream(7)
        lengths = [ssp_episode(mdp, policy, rng).length for _ in range(5_000)]
        assert np.mean(np.asarray(lengths) == 1) >= 0.99

    def test_truncation_flag(self):
        mdp = two_state_chain(continue_prob=0.999, t_max=3)
        policy = BoltzmannPolicy((-50.0, 50.0), mdp)  # loop action dominates
        result = ssp_episode(mdp, policy, substream(1))
        assert result.truncated
        assert result.length == 3

    @pytest.mark.parametrize("field, value", [("start", 1.0), ("start", True), ("t_max", 2.5)])
    def test_non_integer_start_or_t_max_rejected_at_construction(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            dataclasses.replace(two_state_chain(), **{field: value})

    def test_malformed_kernel_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SspMdp(
                transitions=(((0.5, 0.4),),),  # row sums to 0.9
                rewards=((1.0,),),
                features=(((1.0,),),),
            )

    def test_non_finite_features_rejected_at_construction(self):
        with pytest.raises(ValueError, match="features must be finite"):
            SspMdp(
                transitions=(((1.0, 0.0), (0.5, 0.5)),),
                rewards=((0.0, 1.0),),
                features=(((np.inf,), (0.0,)),),
            )

    def test_nan_kernel_entry_rejected_at_construction(self):
        with pytest.raises(ValueError, match="transitions must be finite"):
            SspMdp(
                transitions=(((1.0, 0.0), (np.nan, 1.0)),),
                rewards=((0.0, 1.0),),
                features=(((1.0,), (0.0,)),),
            )

    def test_identity_cpt_matches_expected_return(self):
        # with identity utilities/weights the estimated value of the return
        # distribution is the expected return
        mdp = two_state_chain()
        env = SspReturnEnv(mdp)
        returns = env.sample_returns([0.0, 0.0], 100_000, substream(11))
        est = estimate_cpt(
            returns, CptModel.identity(),
        )
        se = returns.std(ddof=1) / np.sqrt(returns.size)
        assert abs(est.value - 2.0 / 3.0) <= 3 * se


class TestSspReturnEnv:
    def test_determinism(self):
        env = SspReturnEnv(two_state_chain())
        a = env.sample_returns([0.3, -0.2], 200, substream(9, 4))
        b = env.sample_returns([0.3, -0.2], 200, substream(9, 4))
        assert np.array_equal(a, b)

    def test_dim(self):
        assert SspReturnEnv(two_state_chain()).dim == 2

    def test_is_a_return_env(self):
        assert isinstance(SspReturnEnv(two_state_chain()), ReturnEnv)

    @pytest.mark.parametrize(
        "theta, m, message",
        [
            ([0.3], 5, r"theta has shape \(1,\), expected \(2,\)"),
            ([0.3, -0.2, 0.1], 5, r"theta has shape \(3,\), expected \(2,\)"),
            ([np.nan, 0.0], 5, "theta must be finite"),
            ([0.0, np.inf], 5, "theta must be finite"),
            ([0.3, -0.2], 0, "need at least one sample"),
        ],
    )
    def test_shared_checks_reject_bad_input(self, theta, m, message):
        env = SspReturnEnv(two_state_chain())
        with pytest.raises(ValueError, match=message):
            env.sample_returns(theta, m, substream(0))


def _choice_episode(mdp, policy, rng):
    """The sampler as first written: one ``Generator.choice`` per draw."""
    state = mdp.start
    total = 0.0
    steps = 0
    while state != 0:
        if steps >= mdp.t_max:
            return EpisodeResult(total, steps, True)
        probs = boltzmann_probs(policy, state)
        action = int(rng.choice(len(probs), p=probs))
        total += mdp.rewards[state - 1][action]
        row = np.asarray(mdp.transitions[state - 1][action])
        state = int(rng.choice(mdp.n_states, p=row / row.sum()))
        steps += 1
    return EpisodeResult(total, steps, False)


def _random_mdp(rng: np.random.Generator) -> SspMdp:
    """1-4 transient states, 1-3 actions each, feature dim 1-3, t_max 1-60."""
    n_transient = int(rng.integers(1, 5))
    dim = int(rng.integers(1, 4))
    transitions, rewards, features = [], [], []
    for _ in range(n_transient):
        n_actions = int(rng.integers(1, 4))
        rows = []
        for _ in range(n_actions):
            row = rng.random(n_transient + 1)
            row[rng.random(row.size) < 0.3] = 0.0  # some unreachable successors
            if row.sum() == 0.0:
                row[0] = 1.0
            rows.append(tuple((row / row.sum()).tolist()))
        transitions.append(tuple(rows))
        rewards.append(tuple(rng.normal(size=n_actions).tolist()))
        features.append(tuple(tuple(f) for f in rng.normal(size=(n_actions, dim)).tolist()))
    return SspMdp(
        transitions=tuple(transitions),
        rewards=tuple(rewards),
        features=tuple(features),
        start=0 if rng.random() < 0.1 else int(rng.integers(1, n_transient + 1)),
        t_max=int(rng.integers(1, 61)),
    )


def _assert_same_draws(mdp, theta, n_episodes, seed):
    policy = BoltzmannPolicy(tuple(theta), mdp)
    ours, reference = substream(seed, 8), substream(seed, 8)
    got = [ssp_episode(mdp, policy, ours) for _ in range(n_episodes)]
    want = [_choice_episode(mdp, policy, reference) for _ in range(n_episodes)]
    assert got == want
    assert ours.random() == reference.random()


class TestSspSamplerEquivalence:
    """``ssp_episode`` draws exactly what one ``Generator.choice`` per draw would."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_mdps(self, seed):
        rng = np.random.default_rng(seed)
        mdp = _random_mdp(rng)
        theta = rng.normal(scale=3.0, size=mdp.feature_dim)
        _assert_same_draws(mdp, theta, 50, seed)

    @pytest.mark.parametrize(
        "mdp, theta",
        [
            (two_state_chain(continue_prob=0.999, t_max=3), (-50.0, 50.0)),
            (two_state_chain(), (50.0, 0.0)),
            (one_step_chain(), (0.0,)),
            (two_state_chain(), (1.0, 1.0)),
        ],
        ids=["truncating", "saturated", "one-step", "default"],
    )
    def test_chains(self, mdp, theta):
        _assert_same_draws(mdp, theta, 2000, 3)

    def test_unvisited_state_is_never_evaluated(self):
        # state 2 is unreachable from state 1; its scores overflow at this theta
        mdp = SspMdp(
            transitions=(((1.0, 0.0, 0.0),), ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))),
            rewards=((1.0,), (0.0, 0.0)),
            features=(((0.0,),), ((10.0,), (0.0,))),
        )
        env = SspReturnEnv(mdp)
        assert env.sample_returns([1e308], 5, substream(0)).tolist() == [1.0] * 5
        started_in_2 = SspReturnEnv(dataclasses.replace(mdp, start=2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="Probabilities contain NaN"):
                started_in_2.sample_returns([1e308], 5, substream(0))

    def test_overflowing_scores_raise(self):
        base = two_state_chain()
        mdp = SspMdp(
            transitions=base.transitions,
            rewards=base.rewards,
            features=(((10.0, 0.0), (0.0, 10.0)),),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="Probabilities contain NaN"):
                SspReturnEnv(mdp).sample_returns([1e308, 0.0], 5, substream(0))
            with pytest.raises(ValueError, match="Probabilities contain NaN"):
                _choice_episode(mdp, BoltzmannPolicy((1e308, 0.0), mdp), substream(0))
