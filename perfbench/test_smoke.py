"""Structure checks of the benchmark itself, at tiny sizes; never timing.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cptopt = run.import_cptopt()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def make(name: str, workdir: Path):
    return WORKLOADS[name](cptopt, seed=7, workdir=workdir, small=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    result, meta = run.measure(make(name, tmp_path), seconds=0.0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, meta["problems"]
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def _shift(expected: dict, by: float) -> None:
    for key, value in expected.items():
        expected[key] = value + by


WRONG_EXPECTATIONS = {
    "experiment": lambda e: e.update(test_reps=e["test_reps"] + 1),
    "estimate": lambda e: _shift(e, 100.0),
    "optimize": lambda e: e.update(
        bowl_1d=e["bowl_1d"] + 1.0,
        bowl_2d=e["bowl_2d"] + 1.0,
        ssp_box=(np.array([-2.0, -2.0]), np.array([-1.0, -1.0])),
    ),
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_value_is_a_failed_operation(name, tmp_path):
    workload = make(name, tmp_path)
    workload.setup()
    WRONG_EXPECTATIONS[name](workload.expected)
    tally, _ = run.run_pass(workload.rounds(), run.plain_call, budget=0.0)
    assert len(tally.latencies) >= 1
    assert tally.failed == len(tally.latencies)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "optimize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
