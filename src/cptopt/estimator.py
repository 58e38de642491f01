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
never a BLAS dot product, so no result depends on the BLAS thread count.  The
terms (grid points, weight increments, utilities and their products) are
evaluated ``_BLOCK`` at a time, each written over its own entry of a private
ascending array (the sorted copy, the runs' values or a copy of the support),
so the sorted copy and the run marks are the only length-n arrays; each side
is then reduced once over all its terms, so no bit depends on the block size.
A tie-free batch of at most 1024 samples, the optimizers' case, is one block
whose weight increments depend only on the two weight specs and n: they come
from a module cache of read-only arrays (at most 256 entries of 16 KiB,
cleared when full), so a repeated batch size evaluates no weight at all.

:func:`required_samples_holder` and :func:`required_samples_lipschitz` give
worst-case sample counts for an (eps, delta) accuracy target under Holder or
Lipschitz weights; both read the confidence parameter as "failure probability
at most delta".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._codec import as_array, as_float, as_int
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
# terms of each side evaluated at a time: small enough that a block's
# temporaries stay in cache, large enough that numpy's per-call cost is small
_BLOCK = 8192
# (kind and eta of weight_plus, of weight_minus, n) -> both sides' read-only
# weight increments w((j+1)/n) - w(j/n), j = 0..n-1, for tie-free batches of
# n <= _CACHED_MAX_N (the fields, not the frozen specs, whose generated hash
# rebuilds a tuple on every call); an entry is at most 16 KiB, so the
# cleared-when-full dict holds at most 4 MiB.  An entry is a pure function of
# its key, so threads racing on the dict can only recompute an entry, never
# read a wrong one.
_INCREMENTS: dict = {}
_INCREMENTS_MAX = 256
_CACHED_MAX_N = 1024


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
        xs = as_array("support", self.support, 1)
        ps = as_array("probs", self.probs, xs.shape)
        if np.any(ps < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(ps.sum() - 1.0) > _PROB_ATOL:
            raise ValueError(f"probabilities must sum to 1, got {float(ps.sum())!r}")
        order = np.argsort(xs, kind="stable")
        xs, ps = xs[order], ps[order]
        first = np.concatenate(([True], xs[1:] != xs[:-1]))
        object.__setattr__(self, "support", tuple(xs[first].tolist()))
        # bincount adds each value's probabilities one by one, in sorted order
        merged = np.bincount(np.cumsum(first) - 1, weights=ps)
        object.__setattr__(self, "probs", tuple(merged.tolist()))
        if not 0 <= as_int("split", self.split) <= self.size:
            raise ValueError(f"split must lie in [0, {self.size}], got {self.split}")

    @classmethod
    def from_outcomes(
        cls,
        support: Sequence[float],
        probs: Sequence[float],
        reference: float = 0.0,
    ) -> "DiscreteDist":
        """Build with the split derived from a reference point (ties go to losses)."""
        xs = as_array("support", support, 1)
        split = int(np.sum(np.unique(xs) <= as_float("reference", reference)))
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
        n = as_int("n", n)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        # a merged atom may pass 1.0 by as much as the sum check allows
        return rng.multinomial(n, np.minimum(self.probs, 1.0))


def counts_from_samples(samples: Sequence[float], dist: DiscreteDist) -> np.ndarray:
    """Tally raw samples onto the support; unknown values are an error."""
    arr = as_array("samples", samples, 1)
    support = np.asarray(dist.support)
    idx = np.searchsorted(support, arr)
    idx_clipped = np.minimum(idx, dist.size - 1)
    if not np.all(support[idx_clipped] == arr):
        bad = arr[support[idx_clipped] != arr]
        raise ValueError(f"sample value {float(bad[0])!r} is not a support point")
    return np.bincount(idx_clipped, minlength=dist.size)


def estimate_cpt(samples: Sequence[float], model: CptModel) -> CptEstimate:
    """Order-statistics estimate of the model value from i.i.d. samples.

    Input order never affects the result.  Each side's utility and weight
    grid prefix are evaluated on its own order statistics only, once per
    distinct value (a tie-free batch of n <= 1024 reads its weight
    increments from the cache instead); the pairwise sums' O(eps log n)
    rounding is negligible at n = 1e6.
    ``samples`` holds integers or floats; only the dtype is checked, so numpy's
    float64 reading of ``[True, 2.5]`` as ``[1.0, 2.5]`` stands.
    """
    arr = as_array("samples", samples, 1, finite=False)
    n = arr.size
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    xs = np.sort(arr)
    # NaN sorts last and infinities to the ends, so the ends show them all
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise ValueError("samples must be finite")
    # the one comparison pass: first[j] marks j == 0, j == n or xs[j] opening
    # a run; the inner marks alone decide whether there is a tie, and only a
    # tied batch, which needs the runs, marks the ends
    first = np.empty(n + 1, dtype=bool)
    inner = first[1:n]
    np.not_equal(xs[1:], xs[:-1], inner)
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))  # xs[k:] are the gains
    m = int(xs.searchsorted(ref, "left"))  # xs[:m] are the losses
    if np.count_nonzero(inner) == n - 1:  # no ties: each sample is a run
        if n <= _CACHED_MAX_N:
            return _tie_free_sum(xs, k, m, model)
        values = xs

        def shares(lo, hi):  # one exact j/n grid serves both sides
            grid = np.arange(lo, hi) / n
            return grid, grid

    else:
        first[0] = first[n] = True
        below = first.nonzero()[0]  # samples under each run, ending at n
        values = xs[below[:-1]]
        k, m = int(below.searchsorted(k)), int(below.searchsorted(m))  # in runs
        runs = values.size  # below[runs] == n

        def shares(lo, hi):
            # a run's per-sample increments telescope to one over the whole run
            gains = below[max(runs + 1 - hi, k) : runs + 1 - lo][::-1]
            return (n - gains) / n, below[lo : min(hi, m + 1)] / n

    pos, neg = _rank_weighted_sum(values, k, m, shares, model)
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


def _increments(weight_plus, weight_minus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' weight increments on the j/n grid, from the module cache."""
    key = (weight_plus.kind, weight_plus.eta, weight_minus.kind, weight_minus.eta, n)
    entry = _INCREMENTS.get(key)
    if entry is None:
        grid = np.arange(n + 1) / n
        entry = tuple(np.diff(w.apply(grid)) for w in (weight_plus, weight_minus))
        for d in entry:
            d.flags.writeable = False
        if len(_INCREMENTS) >= _INCREMENTS_MAX:
            _INCREMENTS.clear()
        _INCREMENTS[key] = entry
    return entry


def _tie_free_sum(xs, k, m, model) -> CptEstimate:
    """:func:`_rank_weighted_sum`'s one block on a small tie-free ``xs``, the
    sorted copy, with its weight increments taken from the cache.

    Each side's products are written over its own part of ``xs`` in place,
    in the utility's order: the distance from the reference, its power when
    the exponent is not 1, then (losses) the loss aversion, then the weight
    increment.  ``xs[k:]`` lie strictly above the reference and ``xs[:m]``
    strictly below it, so every distance is positive and the utilities'
    clamp at zero changes nothing: the bits are those of ``gain_values`` and
    ``loss_values``.  Each side is then reduced once.
    """
    n, u = xs.size, model.utility
    d_plus, d_minus = _increments(model.weight_plus, model.weight_minus, n)
    gains, losses = xs[k:], xs[:m]
    np.subtract(gains, u.reference, gains)
    if u.sigma_plus != 1.0:
        np.power(gains, u.sigma_plus, gains)
    # the j-th gain from the top pairs with w+((j+1)/n) - w+(j/n)
    np.multiply(gains, d_plus[: n - k][::-1], gains)
    np.subtract(u.reference, losses, losses)
    if u.sigma_minus != 1.0:
        np.power(losses, u.sigma_minus, losses)
    if u.loss_aversion != 1.0:  # a product with 1.0 is exact
        np.multiply(losses, u.loss_aversion, losses)
    np.multiply(losses, d_minus[:m], losses)
    return CptEstimate(n, float(np.add.reduce(gains)), float(np.add.reduce(losses)))


def _rank_weighted_sum(values, k, m, shares, model) -> tuple[float, float]:
    """Gain and loss parts over the ascending distinct ``values``, of which
    ``values[k:]`` are gains and ``values[:m]`` losses.

    ``shares(lo, hi)`` returns the gain and the loss grid's points ``lo`` to
    ``hi - 1``, or to the side's last point if that comes first (points past
    it are ignored): each side's shares cumulated from its own tail, from 0.
    The terms are evaluated ``_BLOCK`` at a time, and each is written over
    its own entry of ``values``, which the caller must own; each side is
    then reduced once, so no bit depends on the block size.
    """
    u, size = model.utility, values.size
    gains = size - k
    longest = max(gains, m)
    for lo in range(0, longest, _BLOCK):
        hi = min(lo + _BLOCK, longest)  # terms lo..hi-1 from each side's tail
        gain_grid, loss_grid = shares(lo, hi + 1)
        if lo < gains:
            # the j-th gain from the top pairs with w+(s[j+1]) - w+(s[j])
            top = min(hi, gains)
            w = model.weight_plus.apply(gain_grid[: top - lo + 1])
            block = values[size - top : size - lo]
            np.multiply(u.gain_values(block), (w[1:] - w[:-1])[::-1], block)
        if lo < m:
            # the j-th loss from the bottom pairs with w-(s[j+1]) - w-(s[j])
            top = min(hi, m)
            w = model.weight_minus.apply(loss_grid[: top - lo + 1])
            block = values[lo:top]
            np.multiply(u.loss_values(block), w[1:] - w[:-1], block)
    return float(np.add.reduce(values[k:])), float(np.add.reduce(values[:m]))


def _tally_sum(masses, total, dist, model) -> tuple[float, float]:
    """Gain and loss parts for atom ``masses`` of sum ``total``; cumulating
    before the division lets integer tallies reach a full side's 1.0 exactly."""
    _check_split(dist, model)
    xs = np.asarray(dist.support)  # a new array each call: the sum writes over it
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))  # xs[k:] are the gains
    m = int(xs.searchsorted(ref, "left"))  # xs[:m] are the losses
    cum_gain = np.concatenate(([0.0], np.cumsum(masses[k:][::-1])))  # from the best gain down
    cum_loss = np.concatenate(([0.0], np.cumsum(masses[:m])))  # from the worst loss up
    gain_grid, loss_grid = (np.minimum(cum / total, 1.0) for cum in (cum_gain, cum_loss))

    def shares(lo, hi):
        return gain_grid[lo:hi], loss_grid[lo:hi]

    return _rank_weighted_sum(xs, k, m, shares, model)


def _check_split(dist: DiscreteDist, model: CptModel) -> None:
    if not dist.split_consistent_with(model.utility.reference):
        raise ValueError(
            f"distribution split {dist.split} is inconsistent with the model "
            f"reference {model.utility.reference}"
        )


def estimate_cpt_discrete(
    counts: Sequence[int], dist: DiscreteDist, model: CptModel
) -> CptEstimate:
    """Plug-in estimate from per-atom tallies on a known support.

    ``counts`` is a sequence aligned with ``dist.support``, one nonnegative
    integer tally per atom, as :func:`counts_from_samples` or
    :meth:`DiscreteDist.sample_counts` return it.
    """
    arr = np.asarray(counts)
    # True would count as one sample; numpy reads [True, 2] as the ints [1, 2],
    # so a sequence's items are checked too
    if arr.dtype.kind not in "iu" or (
        arr.ndim == 1
        and not isinstance(counts, np.ndarray)
        and any(isinstance(c, (bool, np.bool_)) for c in counts)
    ):
        raise TypeError(f"counts must be integers, got {counts!r}")
    if arr.shape != (dist.size,):
        raise ValueError(
            f"counts must align with the {dist.size}-point support, got shape {arr.shape}"
        )
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative integers")
    n = sum(arr.tolist())  # exact, in Python ints
    if n < 1:
        raise ValueError("need at least one sample")
    if n > np.iinfo(np.int64).max:
        raise ValueError(f"counts must sum to at most 2**63 - 1, got {n}")
    pos, neg = _tally_sum(arr, n, dist, model)
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


def exact_cpt_discrete(dist: DiscreteDist, model: CptModel) -> float:
    """The discrete formula at the true atom probabilities."""
    pos, neg = _tally_sum(np.asarray(dist.probs), 1.0, dist, model)
    return pos - neg


def required_samples_holder(
    eps: float, delta: float, holder_const: float, utility_bound: float, alpha: float
) -> int:
    """Samples guaranteeing accuracy eps with failure probability at most delta,
    for weights of Holder order alpha with constant ``holder_const`` and
    utilities bounded by ``utility_bound``:

        n = ceil(ln(1/delta) * 4 H^2 M^2 / eps^(2/alpha))
    """
    return _required_samples(eps, delta, utility_bound, alpha, holder_const=holder_const)


def required_samples_lipschitz(
    eps: float, delta: float, lipschitz_const: float, utility_bound: float
) -> int:
    """Lipschitz-weight specialization (Holder order 1):

        n = ceil(ln(1/delta) * 4 L^2 M^2 / eps^2)
    """
    return _required_samples(eps, delta, utility_bound, 1.0, lipschitz_const=lipschitz_const)


def _required_samples(eps, delta, utility_bound, alpha, **const) -> int:
    """The bound above; ``const`` is the one weight constant, by its argument name.

    The arithmetic runs on the Python numbers :func:`as_float` returns, so a
    numpy float32 argument cannot overflow in float32.
    """
    positive = []
    for name, value in (("eps", eps), *const.items(), ("utility_bound", utility_bound)):
        positive.append(as_float(name, value))
        if positive[-1] <= 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    eps, weight_const, utility_bound = positive
    delta, alpha = as_float("delta", delta), as_float("alpha", alpha)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    try:
        bound = (
            math.log(1.0 / delta)
            * 4.0
            * weight_const**2
            * utility_bound**2
            / eps ** (2.0 / alpha)
        )
    except (OverflowError, ZeroDivisionError):  # a term left the float range
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(
            "the required sample count is not a finite number: "
            "eps is too small or a constant too large for a float"
        )
    return int(math.ceil(bound))
