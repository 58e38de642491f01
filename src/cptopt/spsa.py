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
  averaged on a faster timescale with steps xi_n = n^-0.75 into the running
  curvature ``RunTrace.h_bar`` and inverted (after projection onto
  well-conditioned positive-definite matrices) for a Newton-style step.

``ascend``/``ascend_newton`` take any evaluator ``(theta, m, rng) -> value``;
``optimize_spsa_g``/``_n`` build one from an environment's sampled returns.
The loop builds every evaluation point inside the box and every batch size
itself, so they sample through the environment's ``_sample``, without
``sample_returns``' checks of theta and m, whenever the box and ``delta0``
keep every evaluation point finite (:func:`return_evaluator` keeps the
checks for other callers).

Randomness is drawn from counter-based substreams keyed by
(iteration, role), so the per-iteration evaluations could run concurrently
without changing any result.  The run's role streams, ``substream(seed, n,
role)``, are seeded a chunk of iterations at a time
(:func:`cptopt.rng._iteration_streams`), so an iteration only builds the
bit generators of its evaluations.  The perturbation role has no bit
generator at all: the chunk pass works out its +/-1 signs from the raw
64-bit outputs of each iteration's stream, the top bit of each 32-bit half,
low half first.  These are the draws :func:`rademacher_vector` makes on a
fresh ``Generator`` of the same stream: ``integers(0, 2)`` takes the top bit
of each 32-bit draw, and the bit generator splits a 64-bit output low half
first.  SPSA-N draws its two vectors as one run of 2d signs, since two
``rademacher_vector`` calls share a buffered half at odd d.

The Newton step calls LAPACK through ``scipy.linalg.lapack``, imported on
its first call: ``dsyevd`` for the eigenvalue floor, then ``dpotrf`` and
``dpotrs`` for the solve.  The gradient optimizer needs only numpy.

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
import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, IO, Optional, Union

import numpy as np
from numpy.linalg import LinAlgError
from numpy.random import Generator

from ._codec import _type_hints, as_array, as_float, as_int, check_fields, check_finite
from .estimator import estimate_cpt
from .models import CptModel
from .rng import RootSeed, _iteration_streams

__all__ = [
    "BoxConstraint",
    "SpsaSchedules",
    "IterationRecord",
    "RunTrace",
    "OptimizationError",
    "rademacher_vector",
    "spsa_gradient",
    "spsa_n_estimates",
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
        check_fields(self)
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be matching nonempty vectors")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ValueError("each lower bound must be strictly below its upper bound")
        # the bounds as arrays, made once rather than on every projection
        object.__setattr__(self, "_bounds", (np.asarray(self.lo), np.asarray(self.hi)))

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "BoxConstraint":
        dim = as_int("dim", dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return cls((lo,) * dim, (hi,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, theta: np.ndarray) -> bool:
        """Whether ``theta`` lies in the box; NaN lies outside it."""
        theta = as_array("theta", np.atleast_1d(theta), (self.dim,), finite=False)
        return bool(np.all(theta >= self.lo) and np.all(theta <= self.hi))

    def project(self, theta: np.ndarray) -> np.ndarray:
        return self._clamp(as_array("theta", theta, (self.dim,)))

    def _clamp(self, theta: np.ndarray) -> np.ndarray:
        """``np.clip(theta, lo, hi)`` without its wrapper, bit for bit: on a
        tie both give the bound, so a signed zero equal to a bound comes out
        as the bound's zero (``np.maximum(lo, theta)`` would keep theta's)."""
        lo, hi = self._bounds  # type: ignore[attr-defined]
        return np.minimum(np.maximum(theta, lo), hi)


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
        check_fields(self)
        for name in ("a0", "delta0", "m0", "nu"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.a_offset < 0.0:
            raise ValueError(f"a_offset must be nonnegative, got {self.a_offset!r}")
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
class IterationRecord:
    """One iteration: the parameter before its step, the objective estimates
    at the perturbed points (and at ``theta`` for SPSA-N), and the schedule
    values gamma_n, delta_n and m_n it used.  Its substreams are keyed by
    ``(seed, n)``; see :func:`cptopt.rng.stream_id`."""

    n: int
    theta: tuple[float, ...]
    c_plus: float
    c_minus: float
    gamma: float
    delta: float
    m: int
    c_center: Optional[float] = None


@dataclass
class RunTrace:
    """Append-only record of one optimization run."""

    records: list[IterationRecord] = field(default_factory=list)
    final_theta: Optional[np.ndarray] = None
    h_bar: Optional[np.ndarray] = None  # SPSA-N's running curvature average

    def thetas(self) -> np.ndarray:
        return np.asarray([r.theta for r in self.records])

    def write_csv(self, out: Union[str, IO[str]]) -> None:
        """One column per ``IterationRecord`` field, in field order; ``theta``
        spreads over theta_0..theta_{d-1}.

        An ``int`` is written as an integer and a ``float`` as
        ``repr(float(v))``.  An ``Optional`` field (``c_center``) is a column
        of every SPSA-N trace (``h_bar`` set), a zero-iteration one included,
        and of no SPSA-G trace.
        """
        if isinstance(out, str):
            with open(out, "w", newline="") as fh:
                self.write_csv(fh)
            return
        dim = len(self.records[0].theta) if self.records else (
            len(self.final_theta) if self.final_theta is not None else 0
        )
        hints = _type_hints(IterationRecord)
        writer = csv.writer(out, lineterminator="\n")
        header, columns = [], []  # columns: (field name, its cells' format)
        for f in dataclasses.fields(IterationRecord):
            tp = hints[f.name]
            if typing.get_origin(tp) is typing.Union:  # Optional[X]
                if self.h_bar is None:
                    continue
                tp = typing.get_args(tp)[0]
            spread = typing.get_origin(tp) is tuple
            header += [f"{f.name}_{i}" for i in range(dim)] if spread else [f.name]
            columns.append((f.name, _cell_format(tp)))
        writer.writerow(header)
        for r in self.records:
            writer.writerow([c for name, cells in columns for c in cells(getattr(r, name))])


def _cell_format(tp: Any) -> Callable[[Any], list]:
    """The CSV cells of a record field of annotation ``tp``, worked out once
    per column: one cell per item of a tuple."""
    if typing.get_origin(tp) is tuple:
        item = _cell_format(typing.get_args(tp)[0])
        return lambda value: [cell for v in value for cell in item(v)]
    if tp is int:
        return lambda value: [int(value)]
    return lambda value: [repr(float(value))]


def rademacher_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    """Vector of independent +/-1 entries, each sign with probability 1/2."""
    d = as_int("d", d)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return rng.integers(0, 2, size=d) * 2.0 - 1.0


def _check_perturbation(name: str, perturb: np.ndarray) -> np.ndarray:
    perturb = as_array(name, np.atleast_1d(perturb), 1, finite=False)
    if not perturb.size:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.abs(perturb) == 1.0):
        raise ValueError(f"{name} entries must be +1 or -1")
    return perturb


def _check_two_point(c_plus, c_minus, delta, perturb) -> tuple:
    """The two-point arguments, checked: finite readings, a positive delta and
    a +/-1 perturbation."""
    c_plus, c_minus = as_float("c_plus", c_plus), as_float("c_minus", c_minus)
    delta = as_float("delta", delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return c_plus, c_minus, delta, _check_perturbation("perturb", perturb)


def spsa_gradient(
    c_plus: float, c_minus: float, delta: float, perturb: np.ndarray
) -> np.ndarray:
    """Two-point gradient estimate (c_plus - c_minus) / (2 delta perturb_i)."""
    return _gradient(*_check_two_point(c_plus, c_minus, delta, perturb))


def _gradient(c_plus, c_minus, delta, perturb) -> np.ndarray:
    """:func:`spsa_gradient` without its checks."""
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
    c_plus, c_minus, delta, perturb = _check_two_point(c_plus, c_minus, delta, perturb)
    c_center = as_float("c_center", c_center)
    perturb_hat = _check_perturbation("perturb_hat", perturb_hat)
    if perturb_hat.size != perturb.size:
        raise ValueError(
            f"perturb_hat has length {perturb_hat.size}, but perturb has length {perturb.size}"
        )
    return _newton_estimates(c_plus, c_minus, c_center, delta, perturb, perturb_hat)


def _newton_estimates(
    c_plus, c_minus, c_center, delta, perturb, perturb_hat
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`spsa_n_estimates` without its checks."""
    grad = _gradient(c_plus, c_minus, delta, perturb)
    curvature = (c_plus + c_minus - 2.0 * c_center) / delta**2
    return grad, curvature * (perturb[:, None] * perturb_hat)


def psd_project(h: np.ndarray, kappa: float) -> np.ndarray:
    """Nearest well-conditioned positive-definite matrix.

    Symmetrizes, then clamps every eigenvalue to at least ``kappa``.  The map
    is continuous and leaves inputs whose spectrum already clears the floor
    unchanged (exactly).
    """
    kappa = as_float("kappa", kappa)
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    h = as_array("h", h, 2)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"h must be square, got shape {h.shape}")
    if not h.size:
        raise ValueError("h must not be empty")
    return _eigenvalue_floor(h, kappa)[0]


def _eigenvalue_floor(h: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`psd_project` without its checks, and the ascending eigenvalues
    of the symmetrized ``h`` before the floor.

    ``np.linalg.eigh`` without its wrapper: the LAPACK routine it calls,
    ``dsyevd`` on the lower triangle, gives the same eigenvalues and
    eigenvectors, and its error when they do not converge is kept.  The
    eigenvectors come back Fortran-ordered; they are made C-ordered, as
    ``eigh`` returns them, because the floor's matrix product can round
    differently on the other layout.
    """
    from scipy.linalg import lapack

    sym = (h + h.T) / 2.0
    eigvals, eigvecs, info = lapack.dsyevd(sym, compute_v=1, lower=1)
    if info > 0:
        raise LinAlgError("Eigenvalues did not converge")
    if eigvals[0] >= kappa:
        return sym, eigvals
    eigvecs = np.ascontiguousarray(eigvecs)
    clamped = np.maximum(eigvals, kappa)
    out = (eigvecs * clamped) @ eigvecs.T
    return (out + out.T) / 2.0, eigvals


def _validate_start(box: BoxConstraint, theta0: np.ndarray) -> np.ndarray:
    theta0 = as_array("theta0", theta0, (box.dim,))
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
            f"objective evaluation ({label}) failed at iteration {n}: "
            f"{type(exc).__name__}: {exc}",
            trace,
            n,
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
    pd_floor: Optional[float],
    hessian_scale: float = 1.0,
) -> RunTrace:
    """The shared iteration; ``pd_floor=None`` takes plain gradient steps."""
    iters = as_int("iters", iters)
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    if not isinstance(seed, np.random.SeedSequence) and as_int("seed", seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    theta = _validate_start(box, theta0)
    newton = pd_floor is not None
    roles = _TRAJ_CENTER + 1 if newton else _TRAJ_MINUS + 1
    trace = RunTrace(h_bar=np.zeros((box.dim, box.dim)) if newton else None)
    count = 2 * box.dim if newton else box.dim
    # the signs of substream(seed, n, _PERTURB) and the bit generators of the
    # evaluation roles' substreams, _TRAJ_PLUS first
    for n, (signs, bits) in enumerate(_iteration_streams(seed, iters, roles, count), 1):
        gamma, delta, m = schedules.gamma(n), schedules.delta(n), schedules.batch(n)
        if not newton:
            dv = signs
            shift = delta * dv
        else:
            dv, dv_hat = signs[: box.dim], signs[box.dim :]
            shift = delta * (dv + dv_hat)
        plus, minus, *center = [Generator(b) for b in bits]
        c_plus = _evaluate(evaluate, theta + shift, m, plus, n, trace, "+")
        c_minus = _evaluate(evaluate, theta - shift, m, minus, n, trace, "-")
        c_center = None if not newton else _evaluate(
            evaluate, theta, m, center[0], n, trace, "0"
        )
        trace.records.append(
            IterationRecord(
                n=n,
                theta=tuple(theta.tolist()),
                c_plus=c_plus,
                c_minus=c_minus,
                gamma=gamma,
                delta=delta,
                m=m,
                c_center=c_center,
            )
        )
        # the public helpers' kernels: every argument was built or checked
        # above, and only a value that can leave the float range is checked
        try:
            if not newton:
                step = _gradient(c_plus, c_minus, delta, dv)
            else:
                grad, hess = _newton_estimates(c_plus, c_minus, c_center, delta, dv, dv_hat)
                # symmetric scaled average; symmetry is preserved exactly under
                # element-wise scaling and addition
                sym = hessian_scale * (hess + hess.T) / 2.0
                # averaging steps xi_n = 1/n^0.75: the exponent lies in (0.5, 1), so
                # the squared steps are summable and gamma_n/xi_n -> 0 (a faster
                # timescale than the parameter); xi_1 = 1 overwrites the zeros
                xi = 1.0 / n**0.75
                trace.h_bar = (1.0 - xi) * trace.h_bar + xi * sym
                # condition the curvature of the climb (-h_bar) and solve for the step
                # with LAPACK's dpotrf/dpotrs, the calls cho_factor/cho_solve make
                floored, _ = _eigenvalue_floor(check_finite("h", -trace.h_bar), pd_floor)
                step = _cholesky_solve(floored, grad)
            theta = box._clamp(check_finite("theta", theta + gamma * step))
        except (ValueError, ArithmeticError) as exc:  # a step that leaves the float range
            raise OptimizationError(f"step failed at iteration {n}: {exc}", trace, n) from exc
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
    return _climb(evaluate, schedules, box, theta0, iters, seed, pd_floor=None)


def ascend_newton(
    evaluate: Evaluator,
    schedules: SpsaSchedules,
    box: BoxConstraint,
    theta0: np.ndarray,
    iters: int,
    seed: RootSeed,
    pd_floor: float = 1e-4,
    hessian_scale: float = 1.0,
) -> RunTrace:
    """Newton-style ascent with a fast-timescale running curvature average,
    left in the trace's ``h_bar``."""
    for name, value in (("hessian_scale", hessian_scale), ("pd_floor", pd_floor)):
        if as_float(name, value) <= 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    return _climb(evaluate, schedules, box, theta0, iters, seed, pd_floor, hessian_scale)


def return_evaluator(env, model: CptModel) -> Evaluator:
    """Evaluator estimating the model value of ``env``'s sampled returns."""
    return _returns_evaluator(env.sample_returns, model)


def _returns_evaluator(sample, model: CptModel) -> Evaluator:
    def evaluate(theta: np.ndarray, m: int, rng: np.random.Generator) -> float:
        return estimate_cpt(sample(theta, m, rng), model).value

    return evaluate


def _env_evaluator(
    env, model: CptModel, schedules: SpsaSchedules, box: BoxConstraint
) -> Evaluator:
    """Both environment optimizers' checks before iteration 1, and their
    evaluator.

    The loop evaluates at theta and ``theta +/- s``, with theta in the box,
    every entry of ``s`` at most ``2 delta_n <= 2 delta0`` in magnitude and
    batch sizes of at least 1, so ``sample_returns``' checks can only fail on
    an evaluation point that overflows.  When the box's largest magnitude plus
    2 delta0 is finite, none can, and the returns are drawn by ``_sample``
    without the checks; otherwise by ``sample_returns``, whose "theta must be
    finite" names the failure.
    """
    _check_alpha(schedules, model)
    if box.dim != env.dim:
        raise ValueError(
            f"box has dimension {box.dim} but the environment's parameter has "
            f"dimension {env.dim}"
        )
    reach = max(map(abs, box.lo + box.hi)) + 2.0 * schedules.delta0
    return _returns_evaluator(env._sample if math.isfinite(reach) else env.sample_returns, model)


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
    ``schedules.alpha`` may not exceed the model weights' Holder order, and
    the box must have the environment's dimension.
    """
    evaluate = _env_evaluator(env, model, schedules, box)
    return ascend(evaluate, schedules, box, theta0, iters, seed)


def optimize_spsa_n(
    env,
    model: CptModel,
    schedules: SpsaSchedules,
    box: BoxConstraint,
    theta0: np.ndarray,
    iters: int,
    seed: RootSeed,
    pd_floor: float = 1e-4,
    hessian_scale: float = 1.0,
) -> RunTrace:
    """Second-order variant of :func:`optimize_spsa_g` (three trajectories)."""
    evaluate = _env_evaluator(env, model, schedules, box)
    return ascend_newton(
        evaluate,
        schedules,
        box,
        theta0,
        iters,
        seed,
        pd_floor=pd_floor,
        hessian_scale=hessian_scale,
    )
