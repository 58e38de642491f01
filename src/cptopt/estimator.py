"""Sampling estimators for the rank-dependent value functional.

:func:`estimate_cpt` works on raw i.i.d. samples: it is the model value of
their empirical distribution.  Sort ascending as ``X[1] <= ... <= X[n]``; then

    pos = sum_{i=1}^{n} u+(X[i]) * (w+((n+1-i)/n) - w+((n-i)/n))
    neg = sum_{i=1}^{n} u-(X[i]) * (w-(i/n)     - w-((i-1)/n))

and the estimate is ``pos - neg``.  Each order statistic stands in for a
quantile of the transformed outcome, and the weight increments discretize the
distorted tail integral.  The increments on each side telescope from ``w(0)``
to ``w(1)``, so, up to rounding, a constant sample ``c`` estimates ``u(c)``,
and under identity weights and utilities the estimate is the sample mean.

Within a run of tied order statistics ``X[a+1] = ... = X[b]`` the terms share
one utility and their increments telescope, so the run contributes
``u-(X[b]) * (w-(b/n) - w-(a/n))`` (the gain side likewise with the tail
shares ``(n-a)/n`` and ``(n-b)/n``).  The estimate is thus one rank-weighted
sum over the distinct values: each value's utility times the weight increment
across its share, cumulated from its side's tail.  Weights and utilities are
evaluated once per distinct value; tie-free input keeps the per-sample j/n
grid, term by term.

:func:`estimate_cpt_discrete` is the same sum on per-atom tallies for a known
finite support, the shares being the tallies cumulated from each side's tail
and divided by n: on the samples' own support, samples and their tallies give
the same bits.  :func:`exact_cpt_discrete` takes it at the true atom
probabilities and is the estimator's consistency oracle.

Each side's sum runs only over its own side of the reference (``u+`` vanishes
at and below it, ``u-`` at and above it) and is a pairwise ``np.add.reduce``,
never a BLAS dot product, so no result depends on the BLAS thread count.

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
        return float(np.add.reduce(np.multiply(self.support, self.probs)))

    def split_consistent_with(self, reference: float) -> bool:
        left_ok = self.split == 0 or self.support[self.split - 1] <= reference
        right_ok = self.split == self.size or self.support[self.split] >= reference
        return left_ok and right_ok

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(np.asarray(self.support), size=size, p=np.asarray(self.probs))

    def sample_counts(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Multinomial tallies of ``n`` draws, aligned with ``support``."""
        # a merged atom may pass 1.0 by as much as the sum check allows
        return rng.multinomial(n, np.minimum(self.probs, 1.0))


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

    pos, neg = _rank_weighted_sum(values, k, m, gain_grid, loss_grid, model)
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


def _rank_weighted_sum(values, k, m, gain_grid, loss_grid, model) -> tuple[float, float]:
    """Gain and loss parts over the ascending distinct ``values``, of which
    ``values[k:]`` are gains and ``values[:m]`` losses; ``gain_grid`` and
    ``loss_grid`` cumulate their shares from each side's tail, from 0."""
    # gain i (0-based, k <= i) pairs with w+(P(X >= x_i)) - w+(P(X > x_i))
    w_plus = model.weight_plus.apply(gain_grid)
    d_plus = (w_plus[1:] - w_plus[:-1])[::-1]
    pos = float(np.add.reduce(model.utility.gain_values(values[k:]) * d_plus))
    # loss i (0 <= i < m) pairs with w-(P(X <= x_i)) - w-(P(X < x_i))
    w_minus = model.weight_minus.apply(loss_grid)
    d_minus = w_minus[1:] - w_minus[:-1]
    neg = float(np.add.reduce(model.utility.loss_values(values[:m]) * d_minus))
    return pos, neg


def _tally_sum(masses, total, dist, model) -> tuple[float, float]:
    """Gain and loss parts for atom ``masses`` of sum ``total``; cumulating
    before the division lets integer tallies reach a full side's 1.0 exactly."""
    _check_split(dist, model)
    xs = np.asarray(dist.support)
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))  # xs[k:] are the gains
    m = int(xs.searchsorted(ref, "left"))  # xs[:m] are the losses
    cum_gain = np.concatenate(([0.0], np.cumsum(masses[k:][::-1])))  # from the best gain down
    cum_loss = np.concatenate(([0.0], np.cumsum(masses[:m])))  # from the worst loss up
    grids = (np.minimum(cum / total, 1.0) for cum in (cum_gain, cum_loss))
    return _rank_weighted_sum(xs, k, m, *grids, model)


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
    pos, neg = _tally_sum(arr, n, dist, model)
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


def exact_cpt_discrete(dist: DiscreteDist, model: CptModel) -> float:
    """The discrete formula at the true atom probabilities."""
    pos, neg = _tally_sum(np.asarray(dist.probs), 1.0, dist, model)
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
