"""Sampling estimators for the rank-dependent value functional.

Two schemes:

* :func:`estimate_cpt` works on raw i.i.d. samples: it is the model value
  of their empirical distribution.  Sort ascending as
  ``X[1] <= ... <= X[n]``; then

      pos = sum_{i=1}^{n} u+(X[i]) * (w+((n+1-i)/n) - w+((n-i)/n))
      neg = sum_{i=1}^{n} u-(X[i]) * (w-(i/n)     - w-((i-1)/n))

  and the estimate is ``pos - neg``.  Each order statistic stands in for a
  quantile of the transformed outcome, and the weight increments discretize
  the distorted tail integral.  The increments on each side telescope from
  ``w(0)`` to ``w(1)``, so, up to rounding, a constant sample ``c``
  estimates ``u(c)``, tied samples give the value of
  :func:`estimate_cpt_discrete` on their tallies, and under identity weights
  and utilities the estimate is the sample mean.

  Each sum runs only over its own side of the reference (``u+`` vanishes at
  and below it, ``u-`` at and above it) and is a pairwise ``np.add.reduce``,
  not a BLAS dot product, so no result depends on the BLAS thread count.

  Within a run of tied order statistics ``X[a+1] = ... = X[b]`` the terms
  share one utility and their weight increments telescope, so the run
  contributes ``u-(X[b]) * (w-(b/n) - w-(a/n))`` (and the gain side
  likewise with the tail shares ``(n-a)/n`` and ``(n-b)/n``): the weights
  and utilities are evaluated once per distinct value, on the same j/n grid
  points.  Tie-free input keeps the per-sample j/n grid, term by term.

* :func:`estimate_cpt_discrete` works on per-atom counts for a known finite
  support, distorting cumulated-from-the-tail probabilities:
  ``F_k`` cumulates from below over losses (k <= split) and from above over
  gains (k > split).  :func:`exact_cpt_discrete` applies the same formula to
  the true atom probabilities and is the estimator's consistency oracle.

:func:`required_samples_holder` and :func:`required_samples_lipschitz` give
worst-case sample counts for an (eps, delta) accuracy target under Holder or
Lipschitz weights; both read the confidence parameter as "failure probability
at most delta".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .models import CptModel

__all__ = [
    "CptEstimate",
    "DiscreteDist",
    "counts_from_samples",
    "estimate_cpt",
    "estimate_cpt_discrete",
    "exact_cpt_discrete",
    "required_samples_holder",
    "required_samples_lipschitz",
]

_PROB_ATOL = 1e-12


@dataclass(frozen=True)
class CptEstimate:
    """Estimate split into its gain and loss contributions.

    ``value`` is ``positive_part - negative_part``, computed on each read.
    """

    n: int
    positive_part: float
    negative_part: float

    @property
    def value(self) -> float:
        return self.positive_part - self.negative_part


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support distribution with a gain/loss split index.

    ``split`` is the number of support points on the loss side:
    ``support[split-1] <= reference <= support[split]``.  Duplicate support
    points are merged at construction: the support is sorted stably, each
    value keeps its first spelling (``-0.0`` before ``0.0`` stays ``-0.0``),
    and its probabilities are summed in that order.
    """

    support: tuple[float, ...]
    probs: tuple[float, ...]
    split: int

    def __post_init__(self) -> None:
        xs = np.asarray(self.support, dtype=float)
        ps = np.asarray(self.probs, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape or xs.size == 0:
            raise ValueError("support and probs must be matching nonempty 1-d sequences")
        if not np.all(np.isfinite(xs)):
            raise ValueError("support must be finite")
        if np.isnan(ps).any():
            raise ValueError(f"probabilities must not be NaN, got {tuple(ps.tolist())}")
        if np.any(ps < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(ps.sum() - 1.0) > _PROB_ATOL:
            raise ValueError(f"probabilities must sum to 1, got {ps.sum()!r}")
        order = np.argsort(xs, kind="stable")
        xs, ps = xs[order], ps[order]
        first = np.concatenate(([True], xs[1:] != xs[:-1]))
        object.__setattr__(self, "support", tuple(xs[first].tolist()))
        # bincount adds each value's probabilities one by one, in sorted order
        merged = np.bincount(np.cumsum(first) - 1, weights=ps)
        object.__setattr__(self, "probs", tuple(merged.tolist()))
        if not 0 <= self.split <= self.size:
            raise ValueError(f"split must lie in [0, {self.size}], got {self.split}")

    @classmethod
    def from_outcomes(
        cls,
        support: Sequence[float],
        probs: Sequence[float],
        reference: float = 0.0,
    ) -> "DiscreteDist":
        """Build with the split derived from a reference point (ties go to losses)."""
        xs = np.asarray(support, dtype=float)
        split = int(np.sum(np.unique(xs) <= reference))
        return cls(tuple(support), tuple(probs), split)

    @property
    def size(self) -> int:
        return len(self.support)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def split_consistent_with(self, reference: float) -> bool:
        left_ok = self.split == 0 or self.support[self.split - 1] <= reference
        right_ok = self.split == self.size or self.support[self.split] >= reference
        return left_ok and right_ok

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(np.asarray(self.support), size=size, p=np.asarray(self.probs))

    def sample_counts(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Multinomial tallies of ``n`` draws, aligned with ``support``."""
        return rng.multinomial(n, np.asarray(self.probs))


def counts_from_samples(samples: Sequence[float], dist: DiscreteDist) -> np.ndarray:
    """Tally raw samples onto the support; unknown values are an error."""
    arr = np.asarray(samples, dtype=float)
    support = np.asarray(dist.support)
    idx = np.searchsorted(support, arr)
    idx_clipped = np.minimum(idx, dist.size - 1)
    if not np.all(support[idx_clipped] == arr):
        bad = arr[support[idx_clipped] != arr]
        raise ValueError(f"sample value {bad[0]!r} is not a support point")
    return np.bincount(idx_clipped, minlength=dist.size)


def _validate_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if arr.size < 2:
        raise ValueError(f"need at least 2 samples, got {arr.size}")
    return arr


def estimate_cpt(samples: Sequence[float], model: CptModel) -> CptEstimate:
    """Order-statistics estimate of the model value from i.i.d. samples.

    Input order never affects the result.  Each side's utility and weight
    grid prefix are evaluated on its own order statistics only, once per
    distinct value; the pairwise sums' O(eps log n) rounding is negligible
    at n = 1e6.
    """
    arr = _validate_samples(samples)
    n = arr.size
    xs = np.sort(arr)
    # NaN sorts last and infinities to the ends, so the ends show them all
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise ValueError("samples must be finite")
    first = np.empty(n + 1, dtype=bool)  # first[j]: j == n or xs[j] opens a run
    first[0] = first[n] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:n])
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))  # xs[k:] are the gains
    m = int(xs.searchsorted(ref, "left"))  # xs[:m] are the losses
    if np.count_nonzero(first) == n + 1:  # no ties: each sample is a run
        values = xs
        grid = np.arange(max(n - k, m) + 1) / n  # exact rationals j/n
        gain_grid, loss_grid = grid[: n - k + 1], grid[: m + 1]
    else:
        below = first.nonzero()[0]  # samples under each run, ending at n
        values = xs[below[:-1]]
        k, m = int(below.searchsorted(k)), int(below.searchsorted(m))  # in runs
        # a run's per-sample increments telescope to one over the whole run
        gain_grid, loss_grid = (n - below[k:][::-1]) / n, below[: m + 1] / n

    # gain run i (0-based, k <= i) pairs with w+(P(X >= x_i)) - w+(P(X > x_i))
    w_plus = model.weight_plus.apply(gain_grid)
    d_plus = (w_plus[1:] - w_plus[:-1])[::-1]
    pos = float(np.add.reduce(model.utility.gain_values(values[k:]) * d_plus))
    # loss run i (0 <= i < m) pairs with w-(P(X <= x_i)) - w-(P(X < x_i))
    w_minus = model.weight_minus.apply(loss_grid)
    d_minus = w_minus[1:] - w_minus[:-1]
    neg = float(np.add.reduce(model.utility.loss_values(values[:m]) * d_minus))
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


def _distorted_sum(
    p: np.ndarray, dist: DiscreteDist, model: CptModel, total: float = 1.0
) -> tuple[float, float]:
    """Gain and loss parts of the discrete formula for atom masses p of sum
    ``total``.

    Integer counts with their total keep every cumulated probability one
    rounding from exact, so a full side weighs ``w(1.0)``: under a weight
    with an unbounded slope at 1 (Tversky-Kahneman eta < 1), a cumulated
    ``1 - 2**-53`` moves the estimate by about 1e-8.
    """
    xs = np.asarray(dist.support)
    l = dist.split
    k = dist.size

    neg = 0.0
    if l > 0:
        f_loss = np.cumsum(p[:l]) / total  # cumulated from the worst loss upward
        w = model.weight_minus.apply(np.clip(f_loss, 0.0, 1.0))
        increments = np.diff(np.concatenate(([0.0], w)))
        neg = float(np.dot(model.utility.loss_values(xs[:l]), increments))

    pos = 0.0
    if l < k:
        f_gain = np.cumsum(p[l:][::-1])[::-1] / total  # from the best gain downward
        w = model.weight_plus.apply(np.clip(f_gain, 0.0, 1.0))
        increments = np.diff(np.concatenate((w, [0.0]))) * -1.0
        pos = float(np.dot(model.utility.gain_values(xs[l:]), increments))

    return pos, neg


def _check_split(dist: DiscreteDist, model: CptModel) -> None:
    if not dist.split_consistent_with(model.utility.reference):
        raise ValueError(
            f"distribution split {dist.split} is inconsistent with the model "
            f"reference {model.utility.reference}"
        )


def estimate_cpt_discrete(
    counts: Union[Sequence[int], Mapping[float, int]],
    dist: DiscreteDist,
    model: CptModel,
) -> CptEstimate:
    """Plug-in estimate from per-atom tallies on a known support."""
    _check_split(dist, model)
    if isinstance(counts, Mapping):
        arr = np.zeros(dist.size)
        support = {x: i for i, x in enumerate(dist.support)}
        for value, count in counts.items():
            if value not in support:
                raise ValueError(f"count given for unknown support point {value!r}")
            arr[support[value]] += count
    else:
        arr = np.asarray(counts, dtype=float)
        if arr.shape != (dist.size,):
            raise ValueError(
                f"counts must align with the {dist.size}-point support, got shape {arr.shape}"
            )
    if np.any(arr < 0) or np.any(arr != np.floor(arr)):
        raise ValueError("counts must be nonnegative integers")
    n = int(arr.sum())
    if n < 1:
        raise ValueError("need at least one sample")
    pos, neg = _distorted_sum(arr, dist, model, n)
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


def exact_cpt_discrete(dist: DiscreteDist, model: CptModel) -> float:
    """The discrete formula at the true atom probabilities."""
    _check_split(dist, model)
    pos, neg = _distorted_sum(np.asarray(dist.probs), dist, model)
    return pos - neg


def _validate_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def required_samples_holder(
    eps: float, delta: float, holder_const: float, utility_bound: float, alpha: float
) -> int:
    """Samples guaranteeing accuracy eps with failure probability at most delta,
    for weights of Holder order alpha with constant ``holder_const`` and
    utilities bounded by ``utility_bound``:

        n = ceil(ln(1/delta) * 4 H^2 M^2 / eps^(2/alpha))
    """
    _validate_positive(eps=eps, holder_const=holder_const, utility_bound=utility_bound)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    bound = (
        math.log(1.0 / delta)
        * 4.0
        * holder_const**2
        * utility_bound**2
        / eps ** (2.0 / alpha)
    )
    return int(math.ceil(bound))


def required_samples_lipschitz(
    eps: float, delta: float, lipschitz_const: float, utility_bound: float
) -> int:
    """Lipschitz-weight specialization (Holder order 1):

        n = ceil(ln(1/delta) * 4 L^2 M^2 / eps^2)
    """
    return required_samples_holder(eps, delta, lipschitz_const, utility_bound, 1.0)
