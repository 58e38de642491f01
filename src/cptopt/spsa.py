"""Simultaneous-perturbation ascent on a noisy value objective.

Both optimizers maximize ``theta -> C(X^theta)`` over a box, observing only
value *estimates* built from simulated returns.  Both run one iteration
loop: perturb the parameter along a random +/-1 direction, estimate the
objective at the perturbed points, record the iteration, and take a step
projected onto the box.  They differ only in the step rule:

* :func:`ascend` / :func:`optimize_spsa_g` -- two evaluations at
  ``theta +/- delta_n * Delta`` give the gradient estimate
  ``(c_plus - c_minus) / (2 delta_n Delta_i)``; the step is gamma_n times it.

* :func:`ascend_newton` / :func:`optimize_spsa_n` -- a second direction
  ``Delta_hat`` and a third (center) evaluation; the outer two sit at
  ``theta +/- delta_n (Delta + Delta_hat)`` and additionally give a curvature
  estimate ``(c_plus + c_minus - 2 c_center) / (delta_n^2 Delta_i Delta_hat_j)``,
  tracked on a faster timescale and inverted (after projection onto
  well-conditioned positive-definite matrices) for a Newton-style step.

``ascend``/``ascend_newton`` take any evaluator ``(theta, m, rng) -> value``;
``optimize_spsa_g``/``_n`` build one from an environment's sampled returns
with :func:`return_evaluator`.

Randomness is drawn from counter-based substreams keyed by
(iteration, role), so the per-iteration evaluations could run concurrently
without changing any result.

The Newton step's Cholesky solve calls LAPACK through ``scipy.linalg``,
imported on its first call; the gradient optimizer needs only numpy.

Sign convention: the running curvature matrix ``h_bar`` estimates the
objective's Hessian, which is negative-definite near a maximum.  The Newton
step therefore conditions ``-h_bar`` (the curvature of the climb) through the
eigenvalue floor and applies its inverse to the *ascent* gradient; this is
identical to running the textbook descent recursion on the negated objective.

Note the three-point curvature estimator as written averages to *twice* the
true Hessian under perturbation enumeration (the two cross terms of the
quadratic form contribute equally); ``hessian_scale=0.5`` compensates when
wanted.  A positive scalar on the step matrix does not change the set of
attractors, so the default leaves the estimator untouched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, IO, Optional, Union

import numpy as np
from numpy.linalg import LinAlgError

from ._codec import as_int
from .estimator import estimate_cpt
from .models import CptModel
from .rng import RootSeed, stream_id, substream

__all__ = [
    "BoxConstraint",
    "SpsaSchedules",
    "HessianSchedule",
    "NewtonState",
    "IterationRecord",
    "RunTrace",
    "OptimizationError",
    "rademacher_vector",
    "spsa_gradient",
    "spsa_n_estimates",
    "project_box",
    "psd_project",
    "ascend",
    "ascend_newton",
    "return_evaluator",
    "optimize_spsa_g",
    "optimize_spsa_n",
]

# substream roles within one iteration
_PERTURB, _TRAJ_PLUS, _TRAJ_MINUS, _TRAJ_CENTER = 0, 1, 2, 3

# (theta, sample budget, rng) -> objective value estimate
Evaluator = Callable[[np.ndarray, int, np.random.Generator], float]


class OptimizationError(RuntimeError):
    """Raised when an optimization run cannot continue; carries the partial trace."""

    def __init__(self, message: str, trace: "RunTrace", iteration: int):
        super().__init__(message)
        self.trace = trace
        self.iteration = iteration

    def __reduce__(self):
        # BaseException's pickles only ``args``, which lack trace and iteration
        return type(self), (self.args[0], self.trace, self.iteration)


@dataclass(frozen=True)
class BoxConstraint:
    """Axis-aligned feasible box; projection is the component-wise clamp."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ValueError("lo and hi must be matching nonempty vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "BoxConstraint":
        return cls((lo,) * dim, (hi,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(theta >= self.lo) and np.all(theta <= self.hi))

    def project(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        return np.clip(theta, self.lo, self.hi)


def project_box(theta: np.ndarray, box: BoxConstraint) -> np.ndarray:
    """Clamp ``theta`` into the box (idempotent; identity on feasible points)."""
    return box.project(theta)


@dataclass(frozen=True)
class SpsaSchedules:
    """Step, perturbation and batch schedules.

    gamma_n = a0 / (n + a_offset)      (step size)
    delta_n = delta0 / n**delta_exp    (perturbation radius)
    m_n     = ceil(m0 * n**nu)         (samples per trajectory)

    Validity conditions, checked at construction: the steps must sum to
    infinity while gamma_n^2/delta_n^2 stays summable (requires
    delta_exp < 1/2 for this family), and the estimator bias must vanish,
    i.e. 1/(m_n^(alpha/2) delta_n) -> 0, which requires
    delta_exp < nu * alpha / 2 where alpha is the weight functions' Holder
    order.  Defaults follow the standard guideline values.
    """

    a0: float = 1.0
    a_offset: float = 50.0
    delta0: float = 1.9
    delta_exp: float = 0.101
    m0: float = 10.0
    nu: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a0", "delta0", "m0", "nu"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")
        if not (math.isfinite(self.a_offset) and self.a_offset >= 0.0):
            raise ValueError(f"a_offset must be nonnegative and finite, got {self.a_offset!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not 0.0 < self.delta_exp < 0.5:
            raise ValueError(
                f"delta_exp must lie in (0, 0.5): got {self.delta_exp!r} "
                "(at 0.5 and above, sum gamma_n^2/delta_n^2 diverges)"
            )
        if self.delta_exp >= self.nu * self.alpha / 2.0:
            raise ValueError(
                f"need delta_exp < nu*alpha/2 for the estimator bias to vanish: "
                f"{self.delta_exp!r} >= {self.nu * self.alpha / 2.0!r}"
            )

    @classmethod
    def for_model(cls, model: CptModel, **overrides) -> "SpsaSchedules":
        """Defaults with alpha taken from the model's weight functions; an
        explicit alpha may not exceed their Holder order."""
        alpha = model.holder_order
        if alpha is None and "alpha" not in overrides:
            raise ValueError(
                "model weights have no Holder order; pass alpha explicitly"
            )
        overrides.setdefault("alpha", alpha)
        schedules = cls(**overrides)
        _check_alpha(schedules, model)
        return schedules

    def gamma(self, n: int) -> float:
        return self.a0 / (n + self.a_offset)

    def delta(self, n: int) -> float:
        return self.delta0 / n**self.delta_exp

    def batch(self, n: int) -> int:
        return int(math.ceil(self.m0 * n**self.nu))


def _check_alpha(schedules: SpsaSchedules, model: CptModel) -> None:
    """The bias condition holds only at or below the weights' Holder order."""
    order = model.holder_order
    if order is not None and schedules.alpha > order:
        raise ValueError(
            f"schedules.alpha {schedules.alpha!r} exceeds the model weights' "
            f"Holder order {order!r}"
        )


@dataclass(frozen=True)
class HessianSchedule:
    """Curvature averaging steps xi_n = xi0 / n**xi_exp.

    The exponent must sit in (0.5, 1): above 0.5 so the squared steps are
    summable, below 1 so the averaging runs on a faster timescale than any
    gamma_n = a0/(n + offset) parameter step (gamma_n/xi_n -> 0).  With
    xi0 = 1 the first update overwrites the initial matrix entirely.
    """

    xi0: float = 1.0
    xi_exp: float = 0.75

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xi0) and 0.0 < self.xi0 <= 1.0):
            raise ValueError(f"xi0 must lie in (0, 1], got {self.xi0!r}")
        if not 0.5 < self.xi_exp < 1.0:
            raise ValueError(f"xi_exp must lie in (0.5, 1), got {self.xi_exp!r}")

    def xi(self, n: int) -> float:
        return self.xi0 / n**self.xi_exp


@dataclass
class NewtonState:
    """Running curvature average and its conditioning floor."""

    h_bar: np.ndarray
    schedule: HessianSchedule = field(default_factory=HessianSchedule)
    pd_floor: float = 1e-4

    def __post_init__(self) -> None:
        self.h_bar = np.asarray(self.h_bar, dtype=float)
        if self.h_bar.ndim != 2 or self.h_bar.shape[0] != self.h_bar.shape[1]:
            raise ValueError("h_bar must be square")
        if not np.array_equal(self.h_bar, self.h_bar.T):
            raise ValueError("h_bar must be symmetric")
        if not (math.isfinite(self.pd_floor) and self.pd_floor > 0.0):
            raise ValueError(f"pd_floor must be positive and finite, got {self.pd_floor!r}")


@dataclass(frozen=True)
class IterationRecord:
    n: int
    theta: tuple[float, ...]
    c_plus: float
    c_minus: float
    gamma: float
    delta: float
    m: int
    stream: str
    c_center: Optional[float] = None


@dataclass
class RunTrace:
    """Append-only record of one optimization run."""

    records: list[IterationRecord] = field(default_factory=list)
    final_theta: Optional[np.ndarray] = None
    newton: Optional[NewtonState] = None

    def thetas(self) -> np.ndarray:
        return np.asarray([r.theta for r in self.records])

    def write_csv(self, out: Union[str, IO[str]]) -> None:
        """Columns: n, theta_0..theta_{d-1}, c_plus, c_minus, gamma, delta, m.

        SPSA-N traces (``newton`` set) add a trailing ``c_center`` column.
        """
        if isinstance(out, str):
            with open(out, "w", newline="") as fh:
                self.write_csv(fh)
            return
        dim = len(self.records[0].theta) if self.records else (
            len(self.final_theta) if self.final_theta is not None else 0
        )
        writer = csv.writer(out, lineterminator="\n")
        header = ["n"] + [f"theta_{i}" for i in range(dim)]
        header += ["c_plus", "c_minus", "gamma", "delta", "m"]
        if self.newton is not None:
            header.append("c_center")
        writer.writerow(header)
        for r in self.records:
            floats = (*r.theta, r.c_plus, r.c_minus, r.gamma, r.delta)
            row = [r.n, *[repr(float(v)) for v in floats], r.m]
            if self.newton is not None:
                row.append(repr(float(r.c_center)))
            writer.writerow(row)


def rademacher_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    """Vector of independent +/-1 entries, each sign with probability 1/2."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return rng.integers(0, 2, size=d) * 2.0 - 1.0


def _check_perturbation(perturb: np.ndarray) -> np.ndarray:
    perturb = np.asarray(perturb, dtype=float)
    if not np.all(np.abs(perturb) == 1.0):
        raise ValueError("perturbation entries must be +1 or -1")
    return perturb


def spsa_gradient(
    c_plus: float, c_minus: float, delta: float, perturb: np.ndarray
) -> np.ndarray:
    """Two-point gradient estimate (c_plus - c_minus) / (2 delta perturb_i)."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    perturb = _check_perturbation(perturb)
    return (c_plus - c_minus) / (2.0 * delta) * perturb  # 1/(+-1) == +-1


def spsa_n_estimates(
    c_plus: float,
    c_minus: float,
    c_center: float,
    delta: float,
    perturb: np.ndarray,
    perturb_hat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian estimates from three evaluations.

    The two outer evaluations sit at ``theta +/- delta (perturb + perturb_hat)``.
    Gradient component i divides the two-point difference by
    ``2 delta perturb_i``; curvature entry (i, j) divides the second
    difference by ``delta^2 perturb_i perturb_hat_j``.
    """
    grad = spsa_gradient(c_plus, c_minus, delta, perturb)
    perturb_hat = _check_perturbation(perturb_hat)
    curvature = (c_plus + c_minus - 2.0 * c_center) / delta**2
    hess = curvature * np.outer(perturb, perturb_hat)
    return grad, hess


def psd_project(h: np.ndarray, kappa: float) -> np.ndarray:
    """Nearest well-conditioned positive-definite matrix.

    Symmetrizes, then clamps every eigenvalue to at least ``kappa``.  The map
    is continuous and leaves inputs whose spectrum already clears the floor
    unchanged (exactly).
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    sym = (h + h.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals[0] >= kappa:
        return sym
    clamped = np.maximum(eigvals, kappa)
    out = (eigvecs * clamped) @ eigvecs.T
    return (out + out.T) / 2.0


def _validate_start(box: BoxConstraint, theta0: np.ndarray) -> np.ndarray:
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (box.dim,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({box.dim},)")
    if not box.contains(theta0):
        raise ValueError("theta0 must lie inside the feasible box")
    return theta0.copy()


def _evaluate(
    evaluate: Evaluator,
    theta: np.ndarray,
    m: int,
    rng: np.random.Generator,
    n: int,
    trace: RunTrace,
    label: str,
) -> float:
    try:
        value = float(evaluate(theta, m, rng))
    except Exception as exc:
        raise OptimizationError(
            f"objective evaluation ({label}) failed at iteration {n}", trace, n
        ) from exc
    if not math.isfinite(value):
        raise OptimizationError(
            f"objective evaluation ({label}) returned {value!r} at iteration {n}",
            trace,
            n,
        )
    return value


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve(cho_factor(a, lower=True), b)`` without scipy's wrappers.

    The same LAPACK routines (``dpotrf``, then ``dpotrs``) on the same
    arrays, so the bits are the same; the wrappers' finiteness checks and
    their not-positive-definite error are kept, in the wrappers' order.  (The
    factor of a finite positive-definite matrix is finite, so ``cho_solve``'s
    check of it is left out.)
    """
    from scipy.linalg import lapack

    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = lapack.dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    return lapack.dpotrs(c, b, lower=1)[0]


def _climb(
    evaluate: Evaluator,
    schedules: SpsaSchedules,
    box: BoxConstraint,
    theta0: np.ndarray,
    iters: int,
    seed: RootSeed,
    newton: Optional[NewtonState],
    hessian_scale: float = 1.0,
) -> RunTrace:
    """The shared iteration; ``newton=None`` takes plain gradient steps."""
    iters = as_int("iters", iters)
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    if not isinstance(seed, np.random.SeedSequence) and as_int("seed", seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    theta = _validate_start(box, theta0)
    trace = RunTrace(newton=newton)
    for n in range(1, iters + 1):
        gamma, delta, m = schedules.gamma(n), schedules.delta(n), schedules.batch(n)
        rng_perturb = substream(seed, n, _PERTURB)
        dv = rademacher_vector(rng_perturb, box.dim)
        if newton is None:
            shift = delta * dv
        else:
            dv_hat = rademacher_vector(rng_perturb, box.dim)
            shift = delta * (dv + dv_hat)
        c_plus = _evaluate(
            evaluate, theta + shift, m, substream(seed, n, _TRAJ_PLUS), n, trace, "+"
        )
        c_minus = _evaluate(
            evaluate, theta - shift, m, substream(seed, n, _TRAJ_MINUS), n, trace, "-"
        )
        c_center = None if newton is None else _evaluate(
            evaluate, theta, m, substream(seed, n, _TRAJ_CENTER), n, trace, "0"
        )
        trace.records.append(
            IterationRecord(
                n=n,
                theta=tuple(theta),
                c_plus=c_plus,
                c_minus=c_minus,
                gamma=gamma,
                delta=delta,
                m=m,
                stream=stream_id(seed, n),
                c_center=c_center,
            )
        )
        if newton is None:
            step = spsa_gradient(c_plus, c_minus, delta, dv)
        else:
            grad, hess = spsa_n_estimates(c_plus, c_minus, c_center, delta, dv, dv_hat)
            # symmetric scaled average; symmetry is preserved exactly under
            # element-wise scaling and addition
            sym = hessian_scale * (hess + hess.T) / 2.0
            xi = newton.schedule.xi(n)
            newton.h_bar = (1.0 - xi) * newton.h_bar + xi * sym
            # condition the curvature of the climb (-h_bar) and solve for the
            # step with LAPACK's dpotrf/dpotrs, the calls cho_factor/cho_solve make
            step = _cholesky_solve(psd_project(-newton.h_bar, newton.pd_floor), grad)
        theta = box.project(theta + gamma * step)
    trace.final_theta = theta
    return trace


def ascend(
    evaluate: Evaluator,
    schedules: SpsaSchedules,
    box: BoxConstraint,
    theta0: np.ndarray,
    iters: int,
    seed: RootSeed,
) -> RunTrace:
    """First-order projected ascent driven by two-point gradient estimates."""
    return _climb(evaluate, schedules, box, theta0, iters, seed, newton=None)


def ascend_newton(
    evaluate: Evaluator,
    schedules: SpsaSchedules,
    box: BoxConstraint,
    theta0: np.ndarray,
    iters: int,
    seed: RootSeed,
    hessian: HessianSchedule = HessianSchedule(),
    pd_floor: float = 1e-4,
    hessian_scale: float = 1.0,
) -> RunTrace:
    """Newton-style ascent with a fast-timescale running curvature average."""
    if not (math.isfinite(hessian_scale) and hessian_scale > 0.0):
        raise ValueError(f"hessian_scale must be positive and finite, got {hessian_scale!r}")
    newton = NewtonState(
        h_bar=np.zeros((box.dim, box.dim)), schedule=hessian, pd_floor=pd_floor
    )
    return _climb(evaluate, schedules, box, theta0, iters, seed, newton, hessian_scale)


def return_evaluator(env, model: CptModel) -> Evaluator:
    """Evaluator estimating the model value of ``env``'s sampled returns."""

    def evaluate(theta: np.ndarray, m: int, rng: np.random.Generator) -> float:
        return estimate_cpt(env.sample_returns(theta, m, rng), model).value

    return evaluate


def optimize_spsa_g(
    env,
    model: CptModel,
    schedules: SpsaSchedules,
    box: BoxConstraint,
    theta0: np.ndarray,
    iters: int,
    seed: RootSeed,
) -> RunTrace:
    """Maximize the model value of an environment's return distribution.

    Per iteration, ``m_n`` returns are sampled at each of the two perturbed
    parameters and fed through the order-statistics estimator.
    ``schedules.alpha`` may not exceed the model weights' Holder order.
    """
    _check_alpha(schedules, model)
    return ascend(return_evaluator(env, model), schedules, box, theta0, iters, seed)


def optimize_spsa_n(
    env,
    model: CptModel,
    schedules: SpsaSchedules,
    box: BoxConstraint,
    theta0: np.ndarray,
    iters: int,
    seed: RootSeed,
    hessian: HessianSchedule = HessianSchedule(),
    pd_floor: float = 1e-4,
    hessian_scale: float = 1.0,
) -> RunTrace:
    """Second-order variant of :func:`optimize_spsa_g` (three trajectories)."""
    _check_alpha(schedules, model)
    return ascend_newton(
        return_evaluator(env, model),
        schedules,
        box,
        theta0,
        iters,
        seed,
        hessian=hessian,
        pd_floor=pd_floor,
        hessian_scale=hessian_scale,
    )
