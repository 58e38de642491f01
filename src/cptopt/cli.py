"""Command-line interface.

Subcommands:

* ``estimate``   -- distorted-value estimate of newline-delimited samples.
* ``optimize``   -- run one of the two perturbation optimizers on a named
  environment and write the iteration trace as CSV.
* ``experiment`` -- full train/test comparison of the avg/eut/cpt objectives.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .envs import GaussianMeanEnv, ReturnEnv, SspReturnEnv
from .envs.ssp import two_state_chain
from .envs.traffic import TrafficConfig, TrafficGrid
from .estimator import estimate_cpt
from .harness import ExperimentConfig, TrafficObjective, run_experiment
from .models import CptModel
from .spsa import (
    BoxConstraint,
    Evaluator,
    OptimizationError,
    SpsaSchedules,
    ascend,
    ascend_newton,
    return_evaluator,
)


def _error(command: str, exc: Exception, status: int = 2) -> int:
    """Report an error; exit status 2, as argparse uses, for bad input before
    any run starts, and 1 for a run that cannot continue."""
    print(f"cptopt {command}: error: {exc}", file=sys.stderr)
    return status


def _check_out_file(path: str) -> None:
    """Raise OSError now, creating nothing, if ``path``'s directory is
    missing or ``path`` is a directory: a run writes its output only when
    it has finished."""
    target = Path(path)
    if not target.parent.is_dir():
        raise FileNotFoundError(f"--out {path}: no directory {str(target.parent)!r}")
    if target.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")


def _load_model(path: str | None) -> CptModel:
    if path is None:
        return CptModel.identity()
    return CptModel.from_json(Path(path).read_text())


def _cmd_estimate(args: argparse.Namespace) -> int:
    try:
        model = _load_model(args.model)
        with warnings.catch_warnings():
            # an empty file is reported by estimate_cpt, as too few samples
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            samples = np.loadtxt(sys.stdin if args.samples == "-" else args.samples, ndmin=1)
        est = estimate_cpt(samples, model)
    except (OSError, ValueError) as exc:
        return _error("estimate", exc)
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
    """``SpsaSchedules`` defaults overridden by the schedule flags given; alpha
    is ``--alpha`` (at most the model's Holder order) or that order."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(SpsaSchedules)
        if getattr(args, f.name) is not None
    }
    if "alpha" not in overrides and model.holder_order is None:
        raise ValueError(
            "the model's weights (e.g. prelec) have no positive Holder order "
            "to take alpha from; pass --alpha"
        )
    return SpsaSchedules.for_model(model, **overrides)


def _sampled_returns(make_env: Callable[[], ReturnEnv]) -> Callable[..., tuple[Evaluator, int]]:
    """Builder valuing ``make_env()``'s sampled returns."""

    def build(args: argparse.Namespace, model: CptModel) -> tuple[Evaluator, int]:
        env = make_env()
        return return_evaluator(env, model), env.dim

    return build


def _traffic_2x2(args: argparse.Namespace, model: CptModel) -> tuple[Evaluator, int]:
    traffic = (
        TrafficConfig.from_json(Path(args.env_config).read_text())
        if args.env_config
        else TrafficConfig()
    )
    horizon = 500 if args.horizon is None else args.horizon
    if horizon < 1:
        raise ValueError(f"--horizon must be positive, got {horizon}")
    grid = TrafficGrid(traffic)
    mu = (1.0 / grid.n_paths,) * grid.n_paths
    return TrafficObjective(grid, mu, model, horizon), grid.feature_dim


class EnvEntry(NamedTuple):
    build: Callable[[argparse.Namespace, CptModel], tuple[Evaluator, int]]
    box: tuple[float, float]  # default bounds of every coordinate
    flags: tuple[str, ...] = ()  # the optional flags ``build`` reads


ENVS = {
    "gaussian-mean": EnvEntry(_sampled_returns(GaussianMeanEnv), (0.0, 4.0)),
    "ssp-chain": EnvEntry(_sampled_returns(lambda: SspReturnEnv(two_state_chain())), (0.1, 10.0)),
    "traffic-2x2": EnvEntry(_traffic_2x2, (0.1, 10.0), ("env_config", "horizon")),
}


def _cmd_optimize(args: argparse.Namespace) -> int:
    entry = ENVS[args.env]
    try:
        model = _load_model(args.model)
        for flag in ("env_config", "horizon"):
            if getattr(args, flag) is not None and flag not in entry.flags:
                raise ValueError(
                    f"--{flag.replace('_', '-')} does not apply to --env {args.env}"
                )
        for flag in ("iters", "seed"):
            if getattr(args, flag) < 0:
                raise ValueError(f"--{flag} must be nonnegative, got {getattr(args, flag)}")
        schedules = _default_schedules(model, args)
        evaluate, dim = entry.build(args, model)
        lo = entry.box[0] if args.box_lo is None else args.box_lo
        hi = entry.box[1] if args.box_hi is None else args.box_hi
        box = BoxConstraint.cube(lo, hi, dim)
        _check_out_file(args.out)
    except (OSError, ValueError) as exc:
        return _error("optimize", exc)
    theta0 = np.full(dim, float(np.clip(1.0, lo, hi)))
    climb = ascend if args.algo == "spsa-g" else ascend_newton
    try:
        trace = climb(evaluate, schedules, box, theta0, args.iters, args.seed)
    except OptimizationError as exc:  # no trace is written
        return _error("optimize", exc, 1)
    trace.write_csv(args.out)
    final = ", ".join(f"{v:.6g}" for v in trace.final_theta)
    print(f"final theta: [{final}]  ({args.iters} iterations, trace: {args.out})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        config = (
            ExperimentConfig.from_json(Path(args.config).read_text())
            if args.config
            else ExperimentConfig()
        )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _error("experiment", exc)
    try:
        result = run_experiment(config, out_dir)
    except OptimizationError as exc:  # run_experiment wrote nothing
        return _error("experiment", exc, 1)
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
    p_est.set_defaults(func=_cmd_estimate)

    p_opt = sub.add_parser("optimize", help="maximize an environment's value")
    p_opt.add_argument("--env", choices=tuple(ENVS), default="gaussian-mean")
    p_opt.add_argument("--env-config", help="environment config JSON (traffic only)")
    p_opt.add_argument("--model", help="model JSON file (default: identity)")
    p_opt.add_argument("--algo", choices=("spsa-g", "spsa-n"), default="spsa-g")
    p_opt.add_argument("--iters", type=int, default=200)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", default="trace.csv")
    p_opt.add_argument("--horizon", type=int, default=None,
                       help="episode length for the traffic objective (default: 500)")
    p_opt.add_argument("--box-lo", type=float, default=None, dest="box_lo",
                       help="override the environment's default box")
    p_opt.add_argument("--box-hi", type=float, default=None, dest="box_hi")
    # schedule flags; one not given keeps the SpsaSchedules default
    for f in dataclasses.fields(SpsaSchedules):
        if f.name != "alpha":
            p_opt.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=None)
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
