"""Command-line interface."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cptopt
from cptopt.cli import ENVS, _default_schedules, build_parser, main
from cptopt.models import CptModel
from cptopt import harness
from cptopt.harness import ExperimentConfig
from cptopt.spsa import BoxConstraint, SpsaSchedules, ascend, ascend_newton


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(CptModel.tversky_kahneman().to_json())
    return path


class TestEstimateCommand:
    def test_stdin_identity(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n3\n4\n"))
        assert main(["estimate"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "value": 2.5,
            "positive_part": 2.5,
            "negative_part": 0.0,
            "n": 4,
        }

    def test_file_with_model(self, capsys, tmp_path, model_file):
        samples = tmp_path / "samples.txt"
        samples.write_text("1.0\n2.0\n3.0\n4.0\n")
        assert main(["estimate", str(samples), "--model", str(model_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 4
        assert out["value"] == pytest.approx(
            out["positive_part"] - out["negative_part"]
        )

    def test_include_top_flag_is_rejected(self, capsys, tmp_path):
        samples = tmp_path / "samples.txt"
        samples.write_text("1.0\n2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(samples), "--include-top"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --include-top" in captured.err
        assert captured.out == ""


class TestOptimizeCommand:
    def test_gaussian_mean_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "optimize", "--env", "gaussian-mean", "--iters", "5",
            "--seed", "3", "--nu", "0.5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,theta_0,c_plus,c_minus,gamma,delta,m"
        assert len(lines) == 6
        assert "final theta" in capsys.readouterr().out

    def test_traffic_newton(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "optimize", "--env", "traffic-2x2", "--algo", "spsa-n",
            "--iters", "2", "--horizon", "60", "--out", str(out),
        ])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.count("theta_") == 48

    def test_ssp_chain(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "optimize", "--env", "ssp-chain", "--iters", "3",
            "--nu", "0.5", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[0].count("theta_") == 2

    def test_prelec_model_requires_alpha(self, capsys, tmp_path):
        model = tmp_path / "prelec.json"
        model.write_text(json.dumps({"weight_plus": {"kind": "prelec", "eta": 0.65}}))
        out = tmp_path / "trace.csv"
        args = ["optimize", "--env", "gaussian-mean", "--model", str(model),
                "--iters", "3", "--nu", "0.5", "--out", str(out)]
        assert main(args) == 2
        assert "--alpha" in capsys.readouterr().err
        assert not out.exists()
        # an explicit alpha still goes through the schedule's bias check ...
        assert main(args + ["--alpha", "0.3"]) == 2
        assert "delta_exp < nu*alpha/2" in capsys.readouterr().err
        # ... and runs once the check holds
        assert main(args + ["--alpha", "0.5"]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_alpha_above_the_models_holder_order_rejected(self, capsys, tmp_path, model_file):
        out = tmp_path / "trace.csv"
        args = ["optimize", "--env", "ssp-chain", "--model", str(model_file),
                "--iters", "1", "--nu", "0.5", "--out", str(out)]
        assert main(args + ["--alpha", "1.0"]) == 2
        assert "schedules.alpha 1.0 exceeds the model weights' Holder order 0.61" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        assert main(args + ["--alpha", "0.61"]) == 0

    @pytest.mark.parametrize("env", ["gaussian-mean", "ssp-chain"])
    def test_env_config_rejected_off_traffic(self, env, capsys, tmp_path):
        config = tmp_path / "traffic.json"
        config.write_text("{}")
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--env", env, "--env-config", str(config),
                     "--iters", "2", "--out", str(out)]) == 2
        assert f"--env-config does not apply to --env {env}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("env", ["gaussian-mean", "ssp-chain"])
    def test_horizon_rejected_off_traffic(self, env, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--env", env, "--horizon", "60",
                     "--iters", "2", "--out", str(out)]) == 2
        assert f"--horizon does not apply to --env {env}" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_horizon_rejected(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--env", "traffic-2x2", "--horizon", "0",
                     "--iters", "2", "--out", str(out)]) == 2
        assert "cptopt optimize: error: --horizon must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_iters_rejected(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--iters", "-1", "--out", str(out)]) == 2
        assert "cptopt optimize: error: --iters must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iters", ["0", "2"])
    def test_negative_seed_rejected(self, iters, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--seed", "-1", "--iters", iters, "--out", str(out)]) == 2
        assert "cptopt optimize: error: --seed must be nonnegative, got -1" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_inverted_box_rejected(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--box-lo", "5", "--box-hi", "1",
                     "--iters", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cptopt optimize: error: each lower bound must be strictly below" in err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/trace.csv", "."], ids=["no-dir", "a-dir"])
    def test_unusable_out_path_exits_2_before_any_run(self, out, capsys, tmp_path, monkeypatch):
        def no_run(*args):
            raise AssertionError("the optimizer ran")

        monkeypatch.setattr("cptopt.cli.ascend", no_run)
        assert main(["optimize", "--iters", "2", "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cptopt optimize: error: --out ")
        assert captured.out == "" and sorted(tmp_path.iterdir()) == []

    def test_run_failing_partway_leaves_no_trace(self, capsys, tmp_path, monkeypatch):
        calls = []

        def failing_on_the_third_call(theta, m, rng):
            calls.append(m)
            if len(calls) == 3:
                raise RuntimeError("simulator crashed")
            return 0.0

        entry = ENVS["gaussian-mean"]._replace(
            build=lambda args, model: (failing_on_the_third_call, 1)
        )
        monkeypatch.setitem(ENVS, "gaussian-mean", entry)
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--iters", "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("cptopt optimize: error: ")
        assert "at iteration 2" in captured.err and "simulator crashed" in captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("algo", ["spsa-g", "spsa-n"])
@pytest.mark.parametrize("env", sorted(ENVS))
def test_cli_trace_equals_direct_call(env, algo, tmp_path, model_file):
    """The CLI adds nothing to a direct ascend/ascend_newton call on its evaluator."""
    out = tmp_path / "trace.csv"
    argv = ["optimize", "--env", env, "--algo", algo, "--iters", "3", "--seed", "4",
            "--nu", "0.5", "--model", str(model_file), "--out", str(out)]
    if "horizon" in ENVS[env].flags:
        argv += ["--horizon", "40"]
    assert main(argv) == 0

    model = CptModel.from_json(model_file.read_text())
    evaluate, dim = ENVS[env].build(build_parser().parse_args(argv), model)
    box = BoxConstraint.cube(*ENVS[env].box, dim)
    climb = ascend if algo == "spsa-g" else ascend_newton
    direct = climb(evaluate, SpsaSchedules.for_model(model, nu=0.5), box, np.ones(dim), 3, 4)
    expected = io.StringIO()
    direct.write_csv(expected)
    assert out.read_text() == expected.getvalue()


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SpsaSchedules)])
def test_schedule_flag_per_field_defaults_to_none(field):
    """Each schedule value has one source: an unset flag leaves the dataclass default."""
    parser = build_parser()
    assert getattr(parser.parse_args(["optimize"]), field) is None
    flag = "--" + field.replace("_", "-")
    assert getattr(parser.parse_args(["optimize", flag, "0.25"]), field) == 0.25


@pytest.mark.parametrize(
    "model", [CptModel.identity(), CptModel.tversky_kahneman()], ids=["identity", "tk"]
)
def test_no_schedule_flags_give_the_model_defaults(model):
    args = build_parser().parse_args(["optimize"])
    assert _default_schedules(model, args) == SpsaSchedules.for_model(model)


class TestExperimentCommand:
    def test_writes_outputs(self, capsys, tmp_path):
        config = {
            "master_seed": 1,
            "train_iters": 2,
            "test_reps": 3,
            "train_horizon": 80,
            "test_horizon": 100,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        assert main(["experiment", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()
        for v in ("avg", "eut", "cpt"):
            assert (out_dir / f"scores_{v}.csv").exists()
            assert (out_dir / f"trace_{v}.csv").exists()
        printed = capsys.readouterr().out
        assert "median cpt score" in printed

    def test_out_is_a_file_exits_2_before_any_run(self, capsys, tmp_path, monkeypatch):
        def no_run(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("cptopt.cli.run_experiment", no_run)
        taken = tmp_path / "results"
        taken.write_text("kept")
        assert main(["experiment", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cptopt experiment: error: ")
        assert "File exists" in captured.err
        assert captured.out == "" and taken.read_text() == "kept"

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", ["avg", "cpt"])
    def test_run_failing_partway_exits_1_and_writes_nothing(
        self, failing, cpus, capsys, tmp_path, monkeypatch
    ):
        config = ExperimentConfig(master_seed=1, train_iters=3, test_reps=2,
                                  train_horizon=60, test_horizon=60)
        real_ascend = harness.ascend

        def failing_ascend(objective, *args, **kwargs):
            if objective.model == config.variant_models()[failing]:
                calls = iter(range(1_000))

                def objective(theta, m, rng, real=objective):
                    return float("nan") if next(calls) == 2 else real(theta, m, rng)

            return real_ascend(objective, *args, **kwargs)

        monkeypatch.setattr(harness, "ascend", failing_ascend)
        # two CPUs run each variant in a worker, which sends its error back
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(config.to_json())
        out_dir = tmp_path / "results"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("cptopt experiment: error: ")
        assert "returned nan at iteration 2" in captured.err
        assert captured.out == "" and sorted(out_dir.iterdir()) == []


QUICK_RUN = '"train_iters": 1, "test_reps": 1, "train_horizon": 10, "test_horizon": 10'


@pytest.mark.parametrize(
    "command, flag, text, message",
    [
        ("estimate", "--model", '{"utilty": {}}', "'utilty'"),
        ("estimate", "--model", '{"weight_plus": {"kind": "power", "eta": "2"}}',
         "CptModel.weight_plus.eta must be a number"),
        ("optimize", "--model", '{"utility": {"kind": "piecewise_power", "lambda": "2"}}',
         "CptModel.utility.lambda must be a number"),
        ("optimize", "--model", "{not json", "Expecting property name"),
        ("experiment", "--config", '{"train_iter": 5}', "'train_iter'"),
        ("experiment", "--config", '{"include_top": "no", ' + QUICK_RUN + "}",
         "unknown ExperimentConfig key(s) 'include_top'"),
        ("experiment", "--config", '{"master_seed": 3,}', "Expecting property name"),
        ("experiment", "--config", '{"mu": [1, 1, 1, 1], ' + QUICK_RUN + "}",
         "mu must be nonnegative and sum to 1"),
        ("experiment", "--config",
         '{"eta_gain": 0.35, "schedules": {"alpha": 0.61, "m0": 15, "nu": 0.5}, '
         + QUICK_RUN + "}",
         "exceeds the cpt weights' Holder order min(eta_gain, eta_loss) = 0.35"),
        ("experiment", "--config", '{"eta_gain": 1.5, ' + QUICK_RUN + "}",
         "tversky_kahneman eta must lie in [0.3, 1]"),
        ("experiment", "--config", '{"traffic": {"ew_rate": NaN}, ' + QUICK_RUN + "}",
         "ew_rate must be finite, got nan"),
        ("experiment", "--config",
         '{"traffic": {"ew_rate": 1' + "0" * 400 + "}, " + QUICK_RUN + "}",
         "ew_rate must be within the float range"),
        ("experiment", "--config", '{"master_seed": -1, ' + QUICK_RUN + "}",
         "master_seed must be >= 0, got -1"),
    ],
)
def test_bad_config_file_exits_2(command, flag, text, message, tmp_path, capsys, monkeypatch):
    """A config file that does not load is a usage error, reported before any run."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    argv = [command, flag, str(bad)]
    if command == "estimate":
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n"))
    else:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cptopt {command}: error: ")
    assert message in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--model"],
        ["optimize", "--model"],
        ["optimize", "--env", "traffic-2x2", "--env-config"],
        ["experiment", "--config"],
    ],
    ids=["estimate-model", "optimize-model", "optimize-env-config", "experiment-config"],
)
def test_missing_file_exits_2(argv, tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    out = tmp_path / "out"
    argv = argv + [str(missing)]
    if argv[0] == "estimate":
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n"))
    else:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cptopt {argv[0]}: error: ")
    assert "No such file or directory" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0\nabc\n", "could not convert string 'abc'"),
        ("1.0 2.0\n3.0\n", "the number of columns changed"),
        ("1.0\n", "need at least 2 samples, got 1"),
        ("1.0\nnan\n", "samples must be finite"),
    ],
    ids=["not-a-number", "ragged", "one-sample", "nan"],
)
def test_bad_samples_file_exits_2(text, message, tmp_path, capsys):
    samples = tmp_path / "samples.txt"
    samples.write_text(text)
    assert main(["estimate", str(samples)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cptopt estimate: error: ")
    assert message in captured.err
    assert captured.out == ""


def test_missing_samples_file_exits_2(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "missing.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cptopt estimate: error: ")
    assert "missing.txt not found" in captured.err


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_empty_samples_file_reports_only_its_error(text, tmp_path):
    """numpy's no-data warning stays off stderr; the sample count is the error."""
    samples = tmp_path / "samples.txt"
    samples.write_text(text)
    env = dict(os.environ)
    src = str(Path(cptopt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-m", "cptopt.cli", "estimate", str(samples)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2
    assert run.stderr == "cptopt estimate: error: need at least 2 samples, got 0\n"
    assert run.stdout == ""
