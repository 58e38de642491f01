"""Composite objective and the avg/eut/cpt experiment pipeline."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptopt import CptModel, composite_cpt, estimate_cpt, harness
from cptopt.envs.traffic import BoltzmannSignPolicy, TrafficConfig, TrafficGrid, traffic_episode
from cptopt.harness import (
    ExperimentConfig,
    TrafficObjective,
    VARIANTS,
    path_cpt_scores,
    run_experiment,
)
from cptopt.rng import substream
from cptopt.spsa import SpsaSchedules

IDENTITY = CptModel.identity()

SMALL = ExperimentConfig(
    traffic=TrafficConfig(),
    master_seed=7,
    train_iters=3,
    test_reps=4,
    train_horizon=120,
    test_horizon=150,
)


class TestCompositeCpt:
    def test_single_path_equals_plain_estimate(self):
        samples = [0.3, -1.2, 4.0, 2.2]
        value = composite_cpt([samples], [1.0], IDENTITY)
        assert value == estimate_cpt(samples, IDENTITY).value

    def test_identical_paths_collapse(self):
        samples = [0.3, -1.2, 4.0, 2.2]
        value = composite_cpt([samples, samples], [0.5, 0.5], IDENTITY)
        assert value == pytest.approx(estimate_cpt(samples, IDENTITY).value, abs=1e-15)

    def test_hand_weighted_sum(self):
        # per-path values 2.5 and -1.5, weights 0.25/0.75
        value = composite_cpt(
            [[1.0, 2.0, 3.0, 4.0], [-1.0, -2.0]], [0.25, 0.75], IDENTITY
        )
        assert value == pytest.approx(-0.5, abs=1e-15)

    def test_short_path_contributes_zero_and_warns(self):
        with pytest.warns(RuntimeWarning):
            value = composite_cpt([[1.0, 2.0, 3.0, 4.0], [5.0]], [0.5, 0.5], IDENTITY)
        assert value == pytest.approx(1.25, abs=1e-15)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composite_cpt([[1.0, 2.0]], [0.5, 0.5], IDENTITY)
        with pytest.raises(ValueError):
            composite_cpt([[1.0, 2.0], [3.0, 4.0]], [0.9, 0.3], IDENTITY)

    def test_identity_model_matches_order_statistic_identity(self):
        # with identity utilities/weights each path's estimate is its sample mean
        rng = np.random.default_rng(5)
        paths = [rng.normal(size=n).tolist() for n in (5, 9, 17)]
        mu = (0.2, 0.3, 0.5)
        expected = sum(w * np.mean(p) for w, p in zip(mu, paths))
        assert composite_cpt(paths, mu, IDENTITY) == pytest.approx(expected, abs=1e-12)

    def test_path_scores_align(self):
        paths = [[1.0, 2.0, 3.0, 4.0], [-1.0, -2.0]]
        scores = path_cpt_scores(paths, IDENTITY)
        assert scores == pytest.approx([2.5, -1.5], abs=1e-15)


class TestExperimentConfig:
    def test_variant_models(self):
        models = SMALL.variant_models()
        assert models["avg"] == CptModel.identity()
        assert models["eut"].weight_plus.kind == "identity"
        assert models["eut"].utility.loss_aversion == 2.25
        assert models["cpt"].weight_plus.eta == 0.61
        assert models["cpt"].weight_minus.eta == 0.69

    def test_json_round_trip(self):
        doc = json.dumps(SMALL.to_dict())
        again = ExperimentConfig.from_json(doc)
        assert again == SMALL

    def test_loss_aversion_key_aliases(self):
        assert ExperimentConfig.from_dict({"lambda": 1.5}).loss_aversion == 1.5
        assert ExperimentConfig.from_dict({"loss_aversion": 1.5}).loss_aversion == 1.5
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig.from_dict({"lambda": 1.5, "loss_aversion": 1.5})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"train_iter": 5}, "train_iter"),
            ({"max_workers": 4}, "max_workers"),
            ({"traffic": {"rows": 2, "colums": 3}}, "colums"),
            ({"schedules": {"alpha": 0.61, "m_0": 15.0}}, "m_0"),
            ({"traffic": {"t_max": 10_000}}, "t_max"),
        ],
    )
    def test_unknown_keys_name_the_key(self, doc, key):
        with pytest.raises(ValueError, match=f"'{key}'.*allowed: "):
            ExperimentConfig.from_dict(doc)

    def test_uniform_path_weights(self):
        assert SMALL.path_weights() == (0.25, 0.25, 0.25, 0.25)

    def test_invalid_mu_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mu=(0.5, 0.5))

    @pytest.mark.parametrize(
        "mu",
        [(1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.5, -0.5), (0.25, 0.25, 0.25, 0.2499), (np.nan,) * 4],
    )
    def test_mu_must_be_a_distribution(self, mu):
        with pytest.raises(ValueError, match="mu must be nonnegative and sum to 1"):
            ExperimentConfig(mu=mu)

    def test_mu_checked_on_load(self):
        with pytest.raises(ValueError, match="mu must be nonnegative and sum to 1"):
            ExperimentConfig.from_dict({"mu": [1, 1, 1, 1]})
        assert ExperimentConfig.from_dict({"mu": [0.1, 0.2, 0.3, 0.4]}).mu == (0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize(
        "etas, alpha",
        [((0.35, 0.69), 0.61), ((0.61, 0.5), 0.61), ((0.61, 0.69), 1.0)],
    )
    def test_schedule_alpha_above_the_weights_holder_order_rejected(self, etas, alpha):
        # at alpha 0.61 the bias condition holds (0.101 < 0.1525) although at
        # the weights' true order 0.35 it fails (0.101 >= 0.0875)
        schedules = SpsaSchedules(alpha=alpha, m0=15.0, nu=0.5)
        with pytest.raises(ValueError, match=r"Holder order min\(eta_gain, eta_loss\)"):
            ExperimentConfig(eta_gain=etas[0], eta_loss=etas[1], schedules=schedules)

    def test_schedule_alpha_at_the_weights_holder_order_accepted(self):
        schedules = SpsaSchedules(alpha=0.35, m0=15.0, delta_exp=0.05)
        assert ExperimentConfig(eta_gain=0.35, schedules=schedules).schedules.alpha == 0.35


class TestTrafficObjective:
    @pytest.mark.parametrize("horizon", [0, -3])
    def test_nonpositive_horizon_rejected(self, horizon):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(ValueError, match="horizon"):
            TrafficObjective(grid, (0.25,) * 4, IDENTITY, horizon)

    @pytest.mark.parametrize("horizon", [2.5, 100.0])
    def test_non_integer_horizon_rejected(self, horizon):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(TypeError):
            TrafficObjective(grid, (0.25,) * 4, IDENTITY, horizon)

    @pytest.mark.parametrize("mu", [(0.5, 0.5), (0.2,) * 5])
    def test_path_weight_count_must_match_grid(self, mu):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(ValueError, match="path weights"):
            TrafficObjective(grid, mu, IDENTITY, 100)

    @pytest.mark.parametrize("mu", [(0.5,) * 4, (0.5, 0.5, 0.5, -0.5)])
    def test_path_weights_must_be_a_distribution(self, mu):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(ValueError, match="path weights must be nonnegative and sum to 1"):
            TrafficObjective(grid, mu, IDENTITY, 100)


class TestRunExperiment:
    def test_zero_training_scores_identical_across_variants(self):
        config = ExperimentConfig(
            master_seed=3, train_iters=0, test_reps=5, train_horizon=100,
            test_horizon=120,
        )
        result = run_experiment(config)
        # same starting policy + shared test streams => identical score vectors
        assert np.array_equal(result.scores["avg"], result.scores["eut"])
        assert np.array_equal(result.scores["avg"], result.scores["cpt"])

    def test_outputs_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(SMALL, out_a)
        run_experiment(SMALL, out_b)
        names = ["summary.json"]
        names += [f"scores_{v}.csv" for v in VARIANTS]
        names += [f"trace_{v}.csv" for v in VARIANTS]
        for name in names:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_summary_validates_against_shipped_schema(self, tmp_path):
        import jsonschema

        result = run_experiment(SMALL, tmp_path)
        schema_path = (
            Path(__file__).parent.parent / "src" / "cptopt" / "schemas"
            / "summary.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, schema)
        assert summary == result.summary

    def test_scores_csv_shape(self, tmp_path):
        run_experiment(SMALL, tmp_path)
        lines = (tmp_path / "scores_cpt.csv").read_text().splitlines()
        assert lines[0] == "replication,cpt_score,path_0,path_1,path_2,path_3"
        assert len(lines) == 1 + SMALL.test_reps

    def test_trace_csv_dimension(self, tmp_path):
        run_experiment(SMALL, tmp_path)
        header = (tmp_path / "trace_avg.csv").read_text().splitlines()[0]
        assert header.startswith("n,theta_0,")
        assert "theta_47" in header

    def test_only_short_path_warnings_are_silenced(self, monkeypatch):
        short_paths = []
        real_scores = harness.path_cpt_scores
        real_composite = harness.composite_cpt

        def counting_scores(path_samples, *args, **kwargs):
            short_paths.extend(i for i, s in enumerate(path_samples) if len(s) < 2)
            return real_scores(path_samples, *args, **kwargs)

        def overflowing_composite(*args, **kwargs):
            # stands in for a numpy overflow inside a training evaluation
            warnings.warn("overflow encountered in exp", RuntimeWarning)
            return real_composite(*args, **kwargs)

        monkeypatch.setattr(harness, "path_cpt_scores", counting_scores)
        monkeypatch.setattr(harness, "composite_cpt", overflowing_composite)
        config = ExperimentConfig(
            master_seed=5, train_iters=1, test_reps=2, train_horizon=3, test_horizon=3
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(config)
        messages = [str(w.message) for w in caught]
        assert short_paths, "the config must produce short paths"
        assert "overflow encountered in exp" in messages
        assert not [m for m in messages if re.match(r"path \d+ has", m)]

    @settings(max_examples=10, deadline=None)
    @given(
        master=st.integers(0, 2**32 - 1),
        order=st.permutations(range(5)),
        theta_seed=st.integers(0, 2**16),
    )
    def test_test_scores_do_not_depend_on_scoring_order(self, master, order, theta_seed):
        config = ExperimentConfig(master_seed=master, test_reps=5, test_horizon=60)
        grid = TrafficGrid(config.traffic)
        theta = substream(theta_seed).uniform(0.1, 10.0, grid.feature_dim)
        model = config.variant_models()["cpt"]
        _, per_path = harness._test_scores(config, grid, theta, model, master)
        policy = BoltzmannSignPolicy(theta, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # short paths score 0
            rows = {
                rep: path_cpt_scores(
                    traffic_episode(grid, policy, 60, substream(master, 1, rep)).samples,
                    model,
                )
                for rep in order
            }
        for rep in order:
            assert rows[rep] == per_path[rep].tolist()
