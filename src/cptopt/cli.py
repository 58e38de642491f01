"""Command-line interface.

Subcommands:

* ``estimate``   -- distorted-value estimate of newline-delimited samples.
* ``optimize``   -- run one of the two perturbation optimizers on a named
  environment and write the iteration trace as CSV.
* ``experiment`` -- full train/test comparison of the avg/eut/cpt objectives.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .envs import GaussianMeanEnv, SspReturnEnv
from .envs.ssp import two_state_chain
from .envs.traffic import TrafficConfig, TrafficGrid
from .estimator import EstimatorConfig, estimate_cpt
from .harness import ExperimentConfig, TrafficObjective, run_experiment
from .models import CptModel
from .spsa import (
    BoxConstraint,
    HessianSchedule,
    SpsaSchedules,
    ascend,
    ascend_newton,
    optimize_spsa_g,
    optimize_spsa_n,
)

ENV_NAMES = ("gaussian-mean", "ssp-chain", "traffic-2x2")


def _load_model(path: str | None) -> CptModel:
    if path is None:
        return CptModel.identity()
    return CptModel.from_json(Path(path).read_text())


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.samples == "-":
        samples = np.loadtxt(sys.stdin, ndmin=1)
    else:
        samples = np.loadtxt(args.samples, ndmin=1)
    model = _load_model(args.model)
    cfg = EstimatorConfig(include_top_order_stat=args.include_top)
    est = estimate_cpt(samples, model, cfg)
    out = {
        "value": est.value,
        "positive_part": est.positive_part,
        "negative_part": est.negative_part,
        "n": est.n,
    }
    json.dump(out, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _default_schedules(model: CptModel, args: argparse.Namespace) -> SpsaSchedules:
    """Schedules from the flags; alpha is ``--alpha`` or the model's Holder order."""
    overrides = dict(
        a0=args.a0,
        a_offset=args.a_offset,
        delta0=args.delta0,
        delta_exp=args.delta_exp,
        m0=args.m0,
        nu=args.nu,
    )
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    elif model.holder_order is None:
        raise ValueError(
            "the model's weights (e.g. prelec) have no positive Holder order "
            "to take alpha from; pass --alpha"
        )
    return SpsaSchedules.for_model(model, **overrides)


def _box_bounds(args: argparse.Namespace, default_lo: float, default_hi: float):
    lo = args.box_lo if args.box_lo is not None else default_lo
    hi = args.box_hi if args.box_hi is not None else default_hi
    return lo, hi


def _cmd_optimize(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    try:
        schedules = _default_schedules(model, args)
    except ValueError as exc:
        print(f"cptopt optimize: error: {exc}", file=sys.stderr)
        return 2
    if args.env == "traffic-2x2":
        traffic = (
            TrafficConfig.from_json(Path(args.env_config).read_text())
            if args.env_config
            else TrafficConfig()
        )
        grid = TrafficGrid(traffic)
        dim = grid.feature_dim
        mu = (1.0 / grid.n_paths,) * grid.n_paths
        lo, hi = _box_bounds(args, 0.1, 10.0)
        box = BoxConstraint.cube(lo, hi, dim)
        theta0 = np.full(dim, float(np.clip(1.0, lo, hi)))
        objective = TrafficObjective(grid, mu, model, EstimatorConfig(), args.horizon)
        if args.algo == "spsa-g":
            trace = ascend(objective, schedules, box, theta0, args.iters, args.seed)
        else:
            trace = ascend_newton(
                objective, schedules, box, theta0, args.iters, args.seed,
                hessian=HessianSchedule(),
            )
    else:
        if args.env == "gaussian-mean":
            env = GaussianMeanEnv(optimum=2.0, curvatures=2.0, noise_std=0.1)
            lo, hi = _box_bounds(args, 0.0, 4.0)
        else:
            env = SspReturnEnv(two_state_chain())
            lo, hi = _box_bounds(args, 0.1, 10.0)
        box = BoxConstraint.cube(lo, hi, env.dim)
        theta0 = np.full(env.dim, float(np.clip(1.0, lo, hi)))
        if args.algo == "spsa-g":
            trace = optimize_spsa_g(env, model, schedules, box, theta0, args.iters, args.seed)
        else:
            trace = optimize_spsa_n(env, model, schedules, box, theta0, args.iters, args.seed)
    trace.write_csv(args.out)
    final = ", ".join(f"{v:.6g}" for v in trace.final_theta)
    print(f"final theta: [{final}]  ({args.iters} iterations, trace: {args.out})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = (
        ExperimentConfig.from_json(Path(args.config).read_text())
        if args.config
        else ExperimentConfig()
    )
    result = run_experiment(config, Path(args.out))
    for name, info in result.summary["variants"].items():
        print(f"{name}: median cpt score {info['median_cpt_score']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cptopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the value of sample data")
    p_est.add_argument("samples", nargs="?", default="-",
                       help="sample file (one value per line) or '-' for stdin")
    p_est.add_argument("--model", help="model JSON file (default: identity)")
    p_est.add_argument("--include-top", action="store_true",
                       help="give the top order statistic its telescoped weight")
    p_est.set_defaults(func=_cmd_estimate)

    p_opt = sub.add_parser("optimize", help="maximize an environment's value")
    p_opt.add_argument("--env", choices=ENV_NAMES, default="gaussian-mean")
    p_opt.add_argument("--env-config", help="environment config JSON (traffic only)")
    p_opt.add_argument("--model", help="model JSON file (default: identity)")
    p_opt.add_argument("--algo", choices=("spsa-g", "spsa-n"), default="spsa-g")
    p_opt.add_argument("--iters", type=int, default=200)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", default="trace.csv")
    p_opt.add_argument("--horizon", type=int, default=500,
                       help="episode length for the traffic objective")
    p_opt.add_argument("--box-lo", type=float, default=None, dest="box_lo",
                       help="override the environment's default box")
    p_opt.add_argument("--box-hi", type=float, default=None, dest="box_hi")
    p_opt.add_argument("--a0", type=float, default=1.0)
    p_opt.add_argument("--a-offset", type=float, default=50.0, dest="a_offset")
    p_opt.add_argument("--delta0", type=float, default=1.9)
    p_opt.add_argument("--delta-exp", type=float, default=0.101, dest="delta_exp")
    p_opt.add_argument("--m0", type=float, default=10.0)
    p_opt.add_argument("--nu", type=float, default=1.0)
    p_opt.add_argument("--alpha", type=float, default=None,
                       help="Holder order of the weights for the schedule checks "
                            "(default: the model's; required for prelec weights)")
    p_opt.set_defaults(func=_cmd_optimize)

    p_exp = sub.add_parser("experiment", help="avg/eut/cpt training comparison")
    p_exp.add_argument("--config", help="experiment config JSON")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
