"""Composite objective and the avg/eut/cpt experiment pipeline."""

import json
import multiprocessing
import os
import re
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
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
from cptopt.spsa import OptimizationError, SpsaSchedules

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("master_seed", 3.7), ("train_iters", 2.5), ("test_reps", 1.5),
            ("train_horizon", True), ("test_horizon", 10.5),
        ],
    )
    def test_non_integer_in_an_int_field_is_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            ExperimentConfig(**{field: value})

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            ExperimentConfig(master_seed=-1)

    def test_integer_like_fields_are_stored_as_int(self):
        config = ExperimentConfig(master_seed=np.int64(3), test_reps=np.int32(2))
        assert type(config.master_seed) is int and type(config.test_reps) is int

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
        finite = not np.isnan(mu).any()
        message = "mu must be nonnegative and sum to 1" if finite else "mu must be finite"
        with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("horizon", [2.5, 100.0, True])
    def test_non_integer_horizon_rejected(self, horizon):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(TypeError, match="horizon must be an integer"):
            TrafficObjective(grid, (0.25,) * 4, IDENTITY, horizon)

    @pytest.mark.parametrize("m", [2.5, 1.9, True])
    def test_non_integer_batch_size_rejected(self, m):
        objective = TrafficObjective(TrafficGrid(TrafficConfig()), (0.25,) * 4, IDENTITY, 10)
        theta = np.ones(objective.grid.feature_dim)
        with pytest.raises(TypeError, match="m must be an integer"):
            objective(theta, m, substream(0))

    @pytest.mark.parametrize("mu", [(0.5, 0.5), (0.2,) * 5])
    def test_path_weight_count_must_match_grid(self, mu):
        grid = TrafficGrid(TrafficConfig())
        with pytest.raises(ValueError, match=r"mu has shape \(\d,\), expected \(4,\)"):
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

    def test_unusable_out_dir_fails_before_training(self, tmp_path, monkeypatch):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "_run_variant", no_training)
        monkeypatch.setattr(harness, "_start_worker", no_training)
        taken = tmp_path / "a_file"
        taken.write_text("")
        with pytest.raises(FileExistsError):
            run_experiment(SMALL, taken)

    def test_trace_csv_dimension(self, tmp_path):
        run_experiment(SMALL, tmp_path)
        header = (tmp_path / "trace_avg.csv").read_text().splitlines()[0]
        assert header.startswith("n,theta_0,")
        assert "theta_47" in header

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_only_short_path_warnings_are_silenced(self, cpus, monkeypatch):
        short_paths = []  # counted in this process only, so on one CPU
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
        _use_cpus(monkeypatch, cpus)
        config = ExperimentConfig(
            master_seed=5, train_iters=1, test_reps=2, train_horizon=3, test_horizon=3
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(config)
        messages = [str(w.message) for w in caught]
        if cpus == 1:
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
        policy = BoltzmannSignPolicy(theta, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # short paths score 0
            _, per_path = harness._test_scores(config, grid, theta, model)
            rows = {
                rep: path_cpt_scores(
                    traffic_episode(grid, policy, 60, substream(master, 1, rep)).samples,
                    model,
                )
                for rep in order
            }
        for rep in order:
            assert rows[rep] == per_path[rep].tolist()


def _use_cpus(monkeypatch, cpus):
    """Make ``run_experiment`` see ``cpus`` usable CPUs, so that two force the
    worker path on any host."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)


def _trains(objective, name):
    return objective.model == SMALL.variant_models()[name]


def _nan_at_iteration_2(objective):
    """``objective``, but NaN at its third evaluation, iteration 2's first."""
    calls = iter(range(1_000))

    def failing(theta, m, rng):
        return float("nan") if next(calls) == 2 else objective(theta, m, rng)

    return failing


def _warn_while_cpt_trains(monkeypatch):
    """Warn, naming the process, when the cpt variant starts training."""
    real_ascend = harness.ascend

    def warning_ascend(objective, *args, **kwargs):
        if _trains(objective, "cpt"):
            warnings.warn(f"cpt trained in process {os.getpid()}", UserWarning)
        return real_ascend(objective, *args, **kwargs)

    monkeypatch.setattr(harness, "ascend", warning_ascend)


def _output_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestWorkerTraining:
    """Each variant trains and scores in a forked worker when CPUs allow."""

    def test_worker_and_caller_paths_write_the_same_bytes(self, tmp_path, monkeypatch):
        real_ascend = harness.ascend
        pids = []

        def recording_ascend(*args, **kwargs):
            pids.append(os.getpid())  # appends in a worker stay in the worker
            return real_ascend(*args, **kwargs)

        monkeypatch.setattr(harness, "ascend", recording_ascend)
        _use_cpus(monkeypatch, 1)
        caller = run_experiment(SMALL, tmp_path / "caller")
        assert pids == [os.getpid()] * len(VARIANTS)
        _use_cpus(monkeypatch, 2)
        pids.clear()
        workers = run_experiment(SMALL, tmp_path / "workers")
        assert pids == []
        assert multiprocessing.active_children() == []
        assert len(_output_bytes(tmp_path / "workers")) == 1 + 2 * len(VARIANTS)
        assert _output_bytes(tmp_path / "workers") == _output_bytes(tmp_path / "caller")
        assert workers.summary == caller.summary
        for name in VARIANTS:
            assert np.array_equal(workers.scores[name], caller.scores[name])
            assert workers.traces[name].records == caller.traces[name].records

    @pytest.mark.parametrize(
        "cpus, methods, caller",
        [
            (1, ["fork", "spawn"], "main thread"),
            (2, ["spawn"], "main thread"),
            (2, ["fork"], "second thread"),
            (2, ["fork"], "pool worker"),
        ],
    )
    def test_no_pool_without_a_second_cpu_fork_or_a_lone_thread(
        self, cpus, methods, caller, monkeypatch
    ):
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker was started")

        _use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(harness, "_start_worker", no_worker)
        config = ExperimentConfig(
            master_seed=2, train_iters=1, test_reps=1, train_horizon=20, test_horizon=20
        )
        if caller == "second thread":
            with ThreadPoolExecutor(1) as pool:
                result = pool.submit(run_experiment, config).result(timeout=60)
        elif caller == "pool worker":  # daemonic, so it may not have children
            with multiprocessing.get_context("fork").Pool(1) as pool:
                result = pool.apply_async(run_experiment, (config,)).get(timeout=60)
        else:
            result = run_experiment(config)
        assert set(result.traces) == set(VARIANTS)

    def test_worker_warnings_reach_the_caller(self, monkeypatch):
        _warn_while_cpt_trains(monkeypatch)
        _use_cpus(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(SMALL)
        messages = [str(w.message) for w in caught if w.category is UserWarning]
        assert len(messages) == 1
        assert messages[0].startswith("cpt trained in process ")
        assert messages[0] != f"cpt trained in process {os.getpid()}"

    def test_caller_filters_apply_to_worker_warnings(self, monkeypatch):
        _warn_while_cpt_trains(monkeypatch)
        _use_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "cpt trained in process", UserWarning)
            with pytest.raises(UserWarning, match="cpt trained in process"):
                run_experiment(SMALL)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_repeated_training_warning_shows_once_per_variant_by_default(
        self, cpus, monkeypatch
    ):
        real_composite = harness.composite_cpt

        def warning_composite(*args, **kwargs):
            warnings.warn("every training evaluation", UserWarning)
            return real_composite(*args, **kwargs)

        monkeypatch.setattr(harness, "composite_cpt", warning_composite)
        _use_cpus(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_experiment(SMALL)
        # once per variant: each variant's warnings are re-emitted with a memory of their own
        messages = [str(w.message) for w in caught]
        assert messages == ["every training evaluation"] * len(VARIANTS)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_scoring_warnings_reach_the_caller_in_variant_order(self, cpus, monkeypatch):
        real_ascend = harness.ascend
        real_scores = harness.path_cpt_scores

        def naming_ascend(objective, *args, **kwargs):
            name = next(v for v in VARIANTS if _trains(objective, v))
            warnings.warn(f"{name} trains", UserWarning)
            return real_ascend(objective, *args, **kwargs)

        def warning_scores(*args, **kwargs):
            warnings.warn("scored", UserWarning)
            return real_scores(*args, **kwargs)

        monkeypatch.setattr(harness, "ascend", naming_ascend)
        monkeypatch.setattr(harness, "path_cpt_scores", warning_scores)
        _use_cpus(monkeypatch, cpus)
        # no training evaluation and one test episode: one scoring per variant
        config = ExperimentConfig(
            master_seed=7, train_iters=0, test_reps=1, train_horizon=120, test_horizon=150
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(config)
        messages = [str(w.message) for w in caught if w.category is UserWarning]
        assert messages == [m for name in VARIANTS for m in (f"{name} trains", "scored")]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", ["avg", "cpt"])
    def test_training_error_reaches_the_caller(self, failing, cpus, monkeypatch):
        real_ascend = harness.ascend

        def failing_ascend(objective, *args, **kwargs):
            if _trains(objective, failing):
                objective = _nan_at_iteration_2(objective)
            return real_ascend(objective, *args, **kwargs)

        monkeypatch.setattr(harness, "ascend", failing_ascend)
        _use_cpus(monkeypatch, cpus)
        with pytest.raises(OptimizationError, match="returned nan at iteration 2") as info:
            run_experiment(SMALL)
        assert info.value.iteration == 2
        assert [r.n for r in info.value.trace.records] == [1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", ["avg", "cpt"])
    def test_first_error_stops_the_other_workers(self, failing, monkeypatch):
        real_ascend = harness.ascend

        def ascend(objective, *args, **kwargs):
            if not _trains(objective, failing):
                time.sleep(60)
            return real_ascend(_nan_at_iteration_2(objective), *args, **kwargs)

        monkeypatch.setattr(harness, "ascend", ascend)
        _use_cpus(monkeypatch, 2)
        started = time.monotonic()
        with pytest.raises(OptimizationError, match="returned nan at iteration 2"):
            run_experiment(SMALL)
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_worker_error_carries_its_traceback(self, monkeypatch):
        real_ascend = harness.ascend

        def ascend(objective, *args, **kwargs):
            if _trains(objective, "eut"):
                raise KeyError("eut failed")
            return real_ascend(objective, *args, **kwargs)

        monkeypatch.setattr(harness, "ascend", ascend)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(KeyError, match="eut failed") as info:
            run_experiment(SMALL)
        assert "in ascend" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_reported(self, monkeypatch):
        real_ascend = harness.ascend

        def ascend(objective, *args, **kwargs):
            if _trains(objective, "cpt"):
                os._exit(3)
            return real_ascend(objective, *args, **kwargs)

        monkeypatch.setattr(harness, "ascend", ascend)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="worker running cpt exited without a result"):
            run_experiment(SMALL)
        assert multiprocessing.active_children() == []
