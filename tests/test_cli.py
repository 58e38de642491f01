"""Command-line interface."""

import json

import pytest

from cptopt.cli import main
from cptopt.models import CptModel


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
            "value": 1.5,
            "positive_part": 1.5,
            "negative_part": 0.0,
            "n": 4,
        }

    def test_file_with_model_and_include_top(self, capsys, tmp_path, model_file):
        samples = tmp_path / "samples.txt"
        samples.write_text("1.0\n2.0\n3.0\n4.0\n")
        assert main(["estimate", str(samples), "--model", str(model_file),
                     "--include-top"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 4
        assert out["value"] == pytest.approx(
            out["positive_part"] - out["negative_part"]
        )


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
