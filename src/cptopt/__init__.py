"""Distorted-expectation (CPT) value estimation and derivative-free maximization.

The package has four layers:

* :mod:`cptopt.models`    -- utility/weight families, analytic distributions
  and the quadrature oracle for the rank-dependent value functional.
* :mod:`cptopt.estimator` -- order-statistics and finite-support estimators
  of that functional from samples, plus worst-case sample-size calculators.
* :mod:`cptopt.spsa`      -- first- and second-order simultaneous-perturbation
  optimizers maximizing the value of a parameterized return distribution.
* :mod:`cptopt.envs` / :mod:`cptopt.harness` -- black-box return environments
  and the avg/eut/cpt training comparison experiment.
"""

from .envs import GaussianMeanEnv, ReturnEnv
from .estimator import (
    CptEstimate,
    DiscreteDist,
    counts_from_samples,
    estimate_cpt,
    estimate_cpt_discrete,
    exact_cpt_discrete,
    required_samples_holder,
    required_samples_lipschitz,
)
from .harness import ExperimentConfig, composite_cpt, run_experiment
from .models import (
    AnalyticDist,
    CptModel,
    Exponential,
    Gaussian,
    IntegralDivergenceError,
    TwoPoint,
    Uniform,
    UtilitySpec,
    WeightSpec,
    cpt_value_quadrature,
)
from .rng import substream, subseed
from .spsa import (
    BoxConstraint,
    OptimizationError,
    RunTrace,
    SpsaSchedules,
    ascend,
    ascend_newton,
    optimize_spsa_g,
    optimize_spsa_n,
    psd_project,
    rademacher_vector,
    spsa_gradient,
    spsa_n_estimates,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticDist",
    "BoxConstraint",
    "CptEstimate",
    "CptModel",
    "DiscreteDist",
    "ExperimentConfig",
    "Exponential",
    "Gaussian",
    "GaussianMeanEnv",
    "IntegralDivergenceError",
    "OptimizationError",
    "ReturnEnv",
    "RunTrace",
    "SpsaSchedules",
    "TwoPoint",
    "Uniform",
    "UtilitySpec",
    "WeightSpec",
    "ascend",
    "ascend_newton",
    "composite_cpt",
    "counts_from_samples",
    "cpt_value_quadrature",
    "estimate_cpt",
    "estimate_cpt_discrete",
    "exact_cpt_discrete",
    "optimize_spsa_g",
    "optimize_spsa_n",
    "psd_project",
    "rademacher_vector",
    "required_samples_holder",
    "required_samples_lipschitz",
    "run_experiment",
    "spsa_gradient",
    "spsa_n_estimates",
    "substream",
    "subseed",
]
