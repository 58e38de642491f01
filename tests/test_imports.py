"""scipy loads only for the routines that use it."""

import os
import subprocess
import sys
from pathlib import Path

import cptopt

# Runs in a fresh interpreter: the package, the CLI and the paper's
# estimator and first-order loop must not import scipy; the quadrature
# oracle, Gaussian probabilities and SPSA-N load it on first use.
SCRIPT = """
import sys
import numpy as np
import cptopt, cptopt.cli
from cptopt import (
    BoxConstraint, CptModel, ExperimentConfig, Gaussian, GaussianMeanEnv,
    SpsaSchedules, cpt_value_quadrature, estimate_cpt, optimize_spsa_g,
    optimize_spsa_n, run_experiment,
)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

config = ExperimentConfig(train_iters=1, test_reps=1, train_horizon=20, test_horizon=20)
assert set(run_experiment(config).traces) == {"avg", "eut", "cpt"}
env = GaussianMeanEnv(optimum=2.0, curvatures=2.0, noise_std=0.1)
box = BoxConstraint.cube(0.0, 4.0, 1)
schedules = SpsaSchedules(alpha=0.6)
model = CptModel.tversky_kahneman()
assert len(optimize_spsa_g(env, model, schedules, box, [0.5], 3, 0).records) == 3
estimate_cpt(np.random.default_rng(0).normal(size=100), model)
loaded = scipy_modules()
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:5]} ..."

value = cpt_value_quadrature(Gaussian(0.4, 1.1), CptModel.identity())
assert abs(value - 0.4) < 1e-8, value
assert Gaussian(0.0, 1.0).prob_less(0.0) == 0.5
assert len(optimize_spsa_n(env, model, schedules, box, [0.5], 3, 0).records) == 3
assert scipy_modules() != []
print("ok")
"""


def test_scipy_loads_only_where_used():
    env = dict(os.environ)
    src = str(Path(cptopt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"
