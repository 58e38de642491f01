"""Experiment runner comparing training objectives on the distorted-value axis.

Three variants share one traffic environment and differ only in the
preference model their training objective uses:

* ``avg`` -- identity utilities and weights (plain sample means),
* ``eut`` -- curved loss-averse utilities, undistorted probabilities,
* ``cpt`` -- the same utilities plus inverted-s probability weighting.

Each variant trains a signal policy with the first-order perturbation
optimizer against its own objective, then its frozen policy is evaluated on
shared test episodes and scored with the full distorted-value model, so the
variants are compared on one axis.

Training and scoring a variant is one job, and the jobs are independent, so
with two or more usable CPUs and the ``fork`` start method each job runs in
its own forked worker process; the simulator is pure Python and holds the
interpreter lock, so threads could not overlap them.  Each worker sends its
result back through a pipe, and the first error to arrive stops the workers
still running.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import threading
import traceback
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._codec import JsonRecord, as_array, as_int, check_fields
from .estimator import estimate_cpt
from .envs.traffic import BoltzmannSignPolicy, TrafficConfig, TrafficGrid, traffic_episode
from .models import CptModel
from .rng import stream_id, subseed, substream
from .spsa import BoxConstraint, RunTrace, SpsaSchedules, ascend

__all__ = [
    "VARIANTS",
    "ExperimentConfig",
    "ExperimentResult",
    "TrafficObjective",
    "composite_cpt",
    "path_cpt_scores",
    "run_experiment",
]

VARIANTS = ("avg", "eut", "cpt")

# substream roles under the master seed
_TRAIN, _TEST = 0, 1
# path_cpt_scores's zero-score warning; the harness silences only this one
_SHORT_PATH = r"path \d+ has .* sample"


def _check_path_weights(mu: np.ndarray, name: str = "path weights") -> None:
    if not (np.all(mu >= 0.0) and abs(mu.sum() - 1.0) <= 1e-9):
        raise ValueError(f"{name} must be nonnegative and sum to 1")


def path_cpt_scores(
    path_samples: Sequence[Sequence[float]], model: CptModel
) -> list[float]:
    """Per-path estimates; paths with fewer than two samples score 0 (flagged)."""
    scores = []
    for i, samples in enumerate(path_samples):
        if len(samples) < 2:
            warnings.warn(
                f"path {i} has {len(samples)} sample(s); it contributes 0",
                RuntimeWarning,
                stacklevel=2,
            )
            scores.append(0.0)
        else:
            scores.append(estimate_cpt(samples, model).value)
    return scores


def composite_cpt(
    path_samples: Sequence[Sequence[float]],
    mu: Sequence[float],
    model: CptModel,
) -> float:
    """Traffic-wide objective: user-proportion-weighted sum of per-path values."""
    mu = as_array("mu", mu, (len(path_samples),))
    _check_path_weights(mu)
    return float(np.dot(mu, path_cpt_scores(path_samples, model)))


class TrafficObjective:
    """Value-estimate callback for the optimizers.

    The optimizer's per-trajectory sample budget ``m`` is read as simulation
    steps: the evaluator runs ``ceil(m / horizon)`` fixed-horizon episodes and
    pools their per-path delay samples, so a growing batch schedule tightens
    the value estimates as training progresses.
    """

    def __init__(
        self,
        grid: TrafficGrid,
        mu: Sequence[float],
        model: CptModel,
        horizon: int,
    ):
        horizon = as_int("horizon", horizon)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        mu = as_array("mu", mu, (grid.n_paths,))
        _check_path_weights(mu)
        self.grid = grid
        self.mu = tuple(mu.tolist())
        self.model = model
        self.horizon = horizon

    def __call__(self, theta: np.ndarray, m: int, rng: np.random.Generator) -> float:
        policy = BoltzmannSignPolicy(theta, self.grid)
        episodes = max(1, -(-as_int("m", m) // self.horizon))
        pooled: list[list[float]] = [[] for _ in range(self.grid.n_paths)]
        for _ in range(episodes):
            episode = traffic_episode(self.grid, policy, self.horizon, rng)
            for path, samples in enumerate(episode.samples):
                pooled[path].extend(samples)
        return composite_cpt(pooled, self.mu, self.model)


@dataclass(frozen=True)
class ExperimentConfig(JsonRecord):
    """Everything a run needs; one master seed derives every substream."""

    traffic: TrafficConfig = TrafficConfig()
    master_seed: int = 0
    train_iters: int = 200
    test_reps: int = 100
    train_horizon: int = 500
    test_horizon: int = 1000
    sigma: float = 0.88
    loss_aversion: float = field(
        default=2.25, metadata={"key": "lambda", "aliases": ("loss_aversion",)}
    )
    eta_gain: float = 0.61
    eta_loss: float = 0.69
    box_lo: float = 0.1
    box_hi: float = 10.0
    theta_init: float = 1.0
    schedules: SpsaSchedules = field(
        default_factory=lambda: SpsaSchedules(alpha=0.61, m0=15.0)
    )
    mu: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.train_iters < 0 or self.test_reps < 1:
            raise ValueError("train_iters must be >= 0 and test_reps >= 1")
        if self.train_horizon < 1 or self.test_horizon < 1:
            raise ValueError("horizons must be >= 1")
        if not self.box_lo < self.theta_init < self.box_hi:
            raise ValueError("theta_init must lie strictly inside the box")
        # the cpt variant's weights set the Holder order the schedule's bias
        # condition (delta_exp < nu * alpha / 2) must be checked against;
        # building the models also checks sigma, lambda and the etas
        order = self.variant_models()["cpt"].holder_order
        if self.schedules.alpha > order:
            raise ValueError(
                f"schedules.alpha {self.schedules.alpha!r} exceeds the cpt weights' "
                f"Holder order min(eta_gain, eta_loss) = {order!r}"
            )
        if self.mu is not None:
            n_paths = self.traffic.rows + self.traffic.cols
            if len(self.mu) != n_paths:
                raise ValueError(f"mu must have {n_paths} entries")
            _check_path_weights(np.asarray(self.mu), "mu")

    def path_weights(self) -> tuple[float, ...]:
        if self.mu is not None:
            return self.mu
        n = self.traffic.rows + self.traffic.cols
        return (1.0 / n,) * n

    def variant_models(self) -> dict[str, CptModel]:
        return {
            "avg": CptModel.identity(),
            "eut": CptModel.expected_utility(self.sigma, self.loss_aversion),
            "cpt": CptModel.tversky_kahneman(
                self.sigma, self.loss_aversion, self.eta_gain, self.eta_loss
            ),
        }


@dataclass
class ExperimentResult:
    summary: dict
    out_dir: Optional[Path]
    traces: dict[str, RunTrace]
    scores: dict[str, np.ndarray]


def _test_scores(
    config: ExperimentConfig, grid: TrafficGrid, theta: np.ndarray, score_model: CptModel
) -> tuple[np.ndarray, np.ndarray]:
    """CPT-axis scores of a frozen policy over shared test substreams."""
    policy = BoltzmannSignPolicy(theta, grid)
    per_path = np.asarray([
        path_cpt_scores(
            traffic_episode(
                grid, policy, config.test_horizon, substream(config.master_seed, _TEST, rep)
            ).samples,
            score_model,
        )
        for rep in range(config.test_reps)
    ])
    return per_path @ np.asarray(config.path_weights()), per_path


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_workers() -> bool:
    """Whether each variant can run in a forked worker.

    On one CPU the workers would only take turns.  Forking is unsafe while
    other threads may hold locks, and a daemonic process (a
    ``multiprocessing.Pool`` worker) may not have children.
    """
    return (
        _usable_cpus() > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
        and not multiprocessing.current_process().daemon
    )


def _run_variant(
    config: ExperimentConfig, grid: TrafficGrid, name: str
) -> tuple[RunTrace, np.ndarray, np.ndarray, list[warnings.WarningMessage]]:
    """Train variant ``name``'s policy, then score it; the caller or a worker runs this.

    Returns the trace, the test scores (totals and per path) and the warnings
    raised meanwhile, bar the short-path ones, for the caller to re-emit
    under its own filters.
    """
    models = config.variant_models()
    objective = TrafficObjective(grid, config.path_weights(), models[name], config.train_horizon)
    box = BoxConstraint.cube(config.box_lo, config.box_hi, grid.feature_dim)
    theta0 = np.full(grid.feature_dim, config.theta_init)
    # one training stream for all variants: common random numbers make the
    # comparison a paired one, exactly as with the shared test streams
    train_seed = subseed(config.master_seed, _TRAIN)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", _SHORT_PATH, RuntimeWarning)
        trace = ascend(
            objective, config.schedules, box, theta0, config.train_iters, train_seed
        )
        totals, per_path = _test_scores(config, grid, trace.final_theta, models["cpt"])
    return trace, totals, per_path, caught


class _WorkerTraceback(Exception):
    """The formatted traceback of an error a worker raised, chained as its cause."""


def _run_in_worker(
    sender: Connection, config: ExperimentConfig, grid: TrafficGrid, name: str
) -> None:
    """A worker's body: send ``_run_variant``'s result, or the error it raised."""
    try:
        reply = (_run_variant(config, grid, name), None, None)
    except Exception as exc:
        reply = (None, exc, "".join(traceback.format_exception(exc)))
    sender.send(reply)


def _start_worker(
    stack: contextlib.ExitStack, config: ExperimentConfig, grid: TrafficGrid, name: str
) -> Connection:
    """Fork a worker that runs variant ``name``; returns the end its reply comes to.

    ``stack``'s exit stops the worker, so an error in another variant need
    not wait for this one.
    """
    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    worker = fork.Process(
        target=_run_in_worker, args=(sender, config, grid, name), daemon=True
    )
    worker.start()
    sender.close()  # so the receiver sees EOF if the worker dies
    stack.callback(worker.join)
    stack.callback(worker.terminate)
    stack.callback(receiver.close)
    return receiver


def _received(receiver: Connection, name: str):
    """A worker's ``_run_variant`` result; re-raises the worker's error here."""
    try:
        result, error, remote = receiver.recv()
    except EOFError:
        raise RuntimeError(f"the worker running {name} exited without a result") from None
    if error is not None:
        raise error from _WorkerTraceback(remote)
    return result


def run_experiment(
    config: ExperimentConfig, out_dir: Optional[Path] = None
) -> ExperimentResult:
    """Train each variant, score all of them on the distorted-value axis.

    When ``out_dir`` is given, creates it (and its parents) before any
    training, so an unusable path fails first, and writes ``summary.json``,
    ``scores_<variant>.csv`` (columns: replication, cpt_score, path scores)
    and ``trace_<variant>.csv`` once every variant is trained and scored,
    so a run that fails writes none of them.  Outputs are a pure function of
    the config, so reruns are byte-identical, whichever processes run the
    variants.

    Each variant is one job, :func:`_run_variant`, that trains its policy
    and scores it.  When :func:`_fork_workers` allows, one forked worker per
    variant runs its job and sends the result back through a pipe; the
    caller reads the replies as they arrive, so the first error is raised at
    once and stops the other workers, which live for this call only.
    Otherwise the caller runs the jobs in turn.  Either way the caller then
    re-emits each variant's warnings, builds the summary and writes the
    files, in ``VARIANTS`` order.
    """
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    master = config.master_seed
    grid = TrafficGrid(config.traffic)
    grid.baseline_delays  # simulated once here rather than once per worker

    with contextlib.ExitStack() as stack:
        if _fork_workers():
            pending = {_start_worker(stack, config, grid, name): name for name in VARIANTS}
            results = {}
            while pending:
                for receiver in wait(list(pending)):
                    name = pending.pop(receiver)
                    results[name] = _received(receiver, name)
        else:
            results = {name: _run_variant(config, grid, name) for name in VARIANTS}

    summary: dict = {
        "master_seed": master,
        "config": config.to_dict(),
        "variants": {},
    }
    for name in VARIANTS:
        trace, totals, _, caught = results[name]
        # the "default" action's memory, one per variant: a warning repeated
        # within a variant is shown once
        registry: dict = {}
        for w in caught:
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno, registry=registry
            )
        summary["variants"][name] = {
            "objective": name,
            "train_stream": stream_id(master, _TRAIN),
            "final_theta": [float(v) for v in trace.final_theta],
            "mean_cpt_score": float(np.mean(totals)),
            "median_cpt_score": float(np.median(totals)),
        }

    if out_dir is not None:
        for name in VARIANTS:
            trace, totals, per_path, _ = results[name]
            with open(out_dir / f"scores_{name}.csv", "w", newline="") as fh:
                header = ["replication", "cpt_score"]
                header += [f"path_{i}" for i in range(grid.n_paths)]
                fh.write(",".join(header) + "\n")
                for rep in range(config.test_reps):
                    row = [str(rep), repr(float(totals[rep]))]
                    row += [repr(float(v)) for v in per_path[rep]]
                    fh.write(",".join(row) + "\n")
            trace.write_csv(str(out_dir / f"trace_{name}.csv"))
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return ExperimentResult(
        summary=summary,
        out_dir=out_dir,
        traces={name: results[name][0] for name in VARIANTS},
        scores={name: results[name][1] for name in VARIANTS},
    )
