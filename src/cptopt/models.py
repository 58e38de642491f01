"""Preference models and the rank-dependent value functional.

A :class:`CptModel` bundles a gain/loss utility pair with a probability
weighting function for each side of the reference point.  The value it
assigns to a random outcome ``X`` is

    C(X) = int_0^inf w+(P(u+(X) > z)) dz  -  int_0^inf w-(P(u-(X) > z)) dz,

i.e. the expectation of the utility-transformed gains and losses, computed
against *distorted* tail probabilities instead of raw ones.  With identity
utilities and identity weights this reduces to ``E[X - reference]``.

:func:`cpt_value_quadrature` evaluates the two tail integrals for
distributions with closed-form CDFs and serves as the ground-truth oracle
against which the sampling estimators in :mod:`cptopt.estimator` are tested.

Only two routines here use scipy, and each imports it on first call: the
quadrature oracle (``scipy.integrate.quad``) and :class:`Gaussian`'s
probabilities (``scipy.special.ndtr``).  The models, the other test
distributions and the estimators need only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._codec import JsonRecord, as_float, check_fields

__all__ = [
    "UtilitySpec",
    "WeightSpec",
    "CptModel",
    "AnalyticDist",
    "Uniform",
    "Gaussian",
    "TwoPoint",
    "Exponential",
    "IntegralDivergenceError",
    "cpt_value_quadrature",
]

UTILITY_KINDS = ("identity", "piecewise_power")
WEIGHT_KINDS = ("identity", "tversky_kahneman", "prelec", "power")

# Below roughly eta = 0.28 the Tversky-Kahneman form dips mid-range and is no
# longer nondecreasing; reject with margin.
TK_MIN_ETA = 0.3


class IntegralDivergenceError(ValueError):
    """The distorted tail integral fails the decay check and has no finite value."""


@dataclass(frozen=True)
class UtilitySpec(JsonRecord):
    """Gain/loss utility pair split at a reference point.

    Gains above ``reference`` score ``(x - reference) ** sigma_plus``; losses
    below it score ``loss_aversion * (reference - x) ** sigma_minus``.  Both
    maps return nonnegative magnitudes: the loss branch *grows* with the loss,
    and the caller subtracts it.  ``kind="identity"`` pins both exponents and
    the loss multiplier to 1.
    """

    kind: str = "identity"
    sigma_plus: float = 1.0
    sigma_minus: float = 1.0
    loss_aversion: float = field(default=1.0, metadata={"key": "lambda"})
    reference: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        for name in ("sigma_plus", "sigma_minus"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        if self.loss_aversion < 1.0:
            raise ValueError(f"loss_aversion must be >= 1, got {self.loss_aversion}")
        if self.kind == "identity" and (
            self.sigma_plus != 1.0 or self.sigma_minus != 1.0 or self.loss_aversion != 1.0
        ):
            raise ValueError("identity utility requires unit exponents and loss_aversion")

    @classmethod
    def identity(cls, reference: float = 0.0) -> "UtilitySpec":
        return cls(kind="identity", reference=reference)

    @classmethod
    def piecewise_power(
        cls,
        sigma_plus: float,
        sigma_minus: float,
        loss_aversion: float,
        reference: float = 0.0,
    ) -> "UtilitySpec":
        return cls("piecewise_power", sigma_plus, sigma_minus, loss_aversion, reference)

    def gain_values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized gain utility; zero at and below the reference."""
        shifted = np.maximum(np.asarray(x, dtype=float) - self.reference, 0.0)
        if self.sigma_plus == 1.0:
            return shifted
        return np.power(shifted, self.sigma_plus)

    def loss_values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized loss magnitude; zero at and above the reference."""
        shifted = np.maximum(self.reference - np.asarray(x, dtype=float), 0.0)
        if self.sigma_minus == 1.0:
            return self.loss_aversion * shifted
        return self.loss_aversion * np.power(shifted, self.sigma_minus)

    def gain_inverse(self, z: float) -> float:
        """Outcome threshold t with u+(x) > z iff x > t, for z >= 0."""
        return self.reference + z ** (1.0 / self.sigma_plus)

    def loss_inverse(self, z: float) -> float:
        """Outcome threshold t with u-(x) > z iff x < t, for z >= 0."""
        return self.reference - (z / self.loss_aversion) ** (1.0 / self.sigma_minus)


@dataclass(frozen=True)
class WeightSpec(JsonRecord):
    """Probability distortion w: [0,1] -> [0,1], nondecreasing with w(0)=0, w(1)=1.

    Families:

    * ``identity``        -- w(p) = p (no distortion).
    * ``tversky_kahneman``-- w(p) = p^eta / (p^eta + (1-p)^eta)^(1/eta); the
      inverted-s curve that inflates small probabilities.  Requires
      eta >= 0.3: below that the curve is not monotone.
    * ``prelec``          -- w(p) = exp(-(-ln p)^eta), with w(0) := 0 by
      continuous extension.
    * ``power``           -- w(p) = p^eta, a test-only family with convenient
      closed-form integrals.
    """

    kind: str = "identity"
    eta: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        eta = self.eta
        if eta <= 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
        if self.kind == "identity" and eta != 1.0:
            raise ValueError("identity weight requires eta == 1")
        if self.kind == "tversky_kahneman" and not TK_MIN_ETA <= eta <= 1.0:
            raise ValueError(
                f"tversky_kahneman eta must lie in [{TK_MIN_ETA}, 1] "
                f"(non-monotone below), got {eta}"
            )
        if self.kind == "prelec" and eta > 1.0:
            raise ValueError(f"prelec eta must lie in (0, 1], got {eta}")

    @classmethod
    def identity(cls) -> "WeightSpec":
        return cls()

    @classmethod
    def tversky_kahneman(cls, eta: float) -> "WeightSpec":
        return cls("tversky_kahneman", eta)

    @classmethod
    def prelec(cls, eta: float) -> "WeightSpec":
        return cls("prelec", eta)

    @classmethod
    def power(cls, exponent: float) -> "WeightSpec":
        return cls("power", exponent)

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; assumes entries already lie in [0, 1]."""
        p = np.asarray(p, dtype=float)
        if self.kind == "identity":
            return p
        if self.kind == "power":
            return np.power(p, self.eta)
        if self.kind == "tversky_kahneman":
            a = np.power(p, self.eta)
            b = np.power(1.0 - p, self.eta)
            return a / np.power(a + b, 1.0 / self.eta)
        # prelec: force the endpoint values; the formula is undefined at p=0
        # and exp(-0) at p=1 is exact anyway.
        out = np.zeros_like(p)
        inner = (p > 0.0) & (p < 1.0)
        with np.errstate(divide="ignore"):
            out[inner] = np.exp(-np.power(-np.log(p[inner]), self.eta))
        out[p >= 1.0] = 1.0
        return out

    def __call__(self, p: float) -> float:
        p = as_float("p", p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        return float(self.apply(np.asarray(p)))

    @property
    def holder_order(self) -> Optional[float]:
        """Largest alpha with |w(p)-w(q)| <= H |p-q|^alpha, if one exists.

        The prelec family decays slower than any positive power near p=0, so
        it admits no positive order (``None``); pass an explicit alpha to
        schedule validation when using it.
        """
        if self.kind == "identity":
            return 1.0
        if self.kind == "tversky_kahneman":
            return self.eta
        if self.kind == "power":
            return min(self.eta, 1.0)
        return 1.0 if self.eta == 1.0 else None


@dataclass(frozen=True)
class CptModel(JsonRecord):
    """Utility pair plus one weighting function per side of the reference."""

    utility: UtilitySpec = UtilitySpec()
    weight_plus: WeightSpec = WeightSpec()
    weight_minus: WeightSpec = WeightSpec()

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def identity(cls, reference: float = 0.0) -> "CptModel":
        """Undistorted model; the value functional reduces to E[X - reference]."""
        return cls(UtilitySpec.identity(reference), WeightSpec(), WeightSpec())

    @classmethod
    def expected_utility(
        cls,
        sigma: float = 0.88,
        loss_aversion: float = 2.25,
        reference: float = 0.0,
    ) -> "CptModel":
        """Curved gain/loss utilities, no probability distortion."""
        utility = UtilitySpec.piecewise_power(sigma, sigma, loss_aversion, reference)
        return cls(utility, WeightSpec(), WeightSpec())

    @classmethod
    def tversky_kahneman(
        cls,
        sigma: float = 0.88,
        loss_aversion: float = 2.25,
        eta_gain: float = 0.61,
        eta_loss: float = 0.69,
        reference: float = 0.0,
    ) -> "CptModel":
        """The standard median-estimate parameterization."""
        utility = UtilitySpec.piecewise_power(sigma, sigma, loss_aversion, reference)
        return cls(
            utility,
            WeightSpec.tversky_kahneman(eta_gain),
            WeightSpec.tversky_kahneman(eta_loss),
        )

    @property
    def holder_order(self) -> Optional[float]:
        orders = (self.weight_plus.holder_order, self.weight_minus.holder_order)
        if any(o is None for o in orders):
            return None
        return min(orders)  # type: ignore[type-var]


# ---------------------------------------------------------------------------
# Analytic test distributions


class AnalyticDist:
    """A distribution with exact CDF/tail evaluations and a matching sampler.

    Subclasses are dataclasses of float parameters, each required finite.
    """

    def __post_init__(self) -> None:
        check_fields(self)

    def mean(self) -> float:
        raise NotImplementedError

    def prob_greater(self, x: float) -> float:
        """P(X > x)."""
        raise NotImplementedError

    def prob_less(self, x: float) -> float:
        """P(X < x)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def atoms(self) -> Optional[Sequence[tuple[float, float]]]:
        """Point masses as (value, probability), or None for continuous laws."""
        return None


@dataclass(frozen=True)
class Uniform(AnalyticDist):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.lo < self.hi:
            raise ValueError("uniform bounds must satisfy lo < hi")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def prob_greater(self, x: float) -> float:
        return float(np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0))

    def prob_less(self, x: float) -> float:
        return float(np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Gaussian(AnalyticDist):
    mu: float = 0.0
    std: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.std <= 0.0:
            raise ValueError("std must be positive")

    def mean(self) -> float:
        return self.mu

    def prob_greater(self, x: float) -> float:
        from scipy.special import ndtr

        return float(ndtr((self.mu - x) / self.std))

    def prob_less(self, x: float) -> float:
        from scipy.special import ndtr

        return float(ndtr((x - self.mu) / self.std))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mu, self.std, size)


@dataclass(frozen=True)
class TwoPoint(AnalyticDist):
    """Mass p1 at x1 and 1 - p1 at x2."""

    x1: float = 0.0
    p1: float = 0.5
    x2: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError("p1 must lie in [0, 1]")

    def mean(self) -> float:
        return self.p1 * self.x1 + (1.0 - self.p1) * self.x2

    def prob_greater(self, x: float) -> float:
        return self.p1 * (self.x1 > x) + (1.0 - self.p1) * (self.x2 > x)

    def prob_less(self, x: float) -> float:
        return self.p1 * (self.x1 < x) + (1.0 - self.p1) * (self.x2 < x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        picks = rng.random(size) < self.p1
        return np.where(picks, self.x1, self.x2)

    def atoms(self) -> Sequence[tuple[float, float]]:
        return ((self.x1, self.p1), (self.x2, 1.0 - self.p1))


@dataclass(frozen=True)
class Exponential(AnalyticDist):
    rate: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")

    def mean(self) -> float:
        return 1.0 / self.rate

    def prob_greater(self, x: float) -> float:
        return 1.0 if x < 0.0 else float(math.exp(-self.rate * x))

    def prob_less(self, x: float) -> float:
        return 0.0 if x <= 0.0 else float(-math.expm1(-self.rate * x))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)


# ---------------------------------------------------------------------------
# Quadrature oracle

# Truncation search stops once the integrand is below tol / TRUNCATION_MARGIN.
TRUNCATION_MARGIN = 100.0
# Doubling past this point means the integrand is not decaying integrably.
_Z_CEILING = 2.0**128


def _tail_breakpoints(dist: AnalyticDist, utility: UtilitySpec, side: int) -> list[float]:
    atoms = dist.atoms()
    if atoms is None:
        return []
    if side > 0:
        values = utility.gain_values(np.asarray([a for a, _ in atoms]))
    else:
        values = utility.loss_values(np.asarray([a for a, _ in atoms]))
    return sorted(float(v) for v in values if v > 0.0)


def _tail_integral(
    dist: AnalyticDist,
    model: CptModel,
    side: int,
    tol: float,
) -> float:
    """Integral of the distorted tail of one side of the reference point."""
    from scipy.integrate import quad

    utility = model.utility
    if side > 0:
        weight = model.weight_plus

        def integrand(z: float) -> float:
            return weight(dist.prob_greater(utility.gain_inverse(z)))

    else:
        weight = model.weight_minus

        def integrand(z: float) -> float:
            return weight(dist.prob_less(utility.loss_inverse(z)))

    if integrand(0.0) == 0.0:
        # the integrand is nonincreasing, so no mass on this side at all
        return 0.0

    # Truncate once the integrand is below cutoff AND the crude tail-mass
    # bound g(z) * z is too; a pointwise-small but slowly decaying tail
    # (e.g. z**(-2/3), whose integral does not exist) never satisfies the
    # second condition and is reported as divergent.
    cutoff = tol / TRUNCATION_MARGIN
    z_max = 1.0
    while True:
        g = integrand(z_max)
        if g < cutoff and g * z_max < cutoff:
            break
        z_max *= 2.0
        if z_max > _Z_CEILING:
            raise IntegralDivergenceError(
                "distorted tail probability is not decaying fast enough to "
                "integrate to the requested accuracy; a tail falling like "
                "z**(-2/3) has no finite integral"
            )

    points = [b for b in _tail_breakpoints(dist, utility, side) if 0.0 < b < z_max]
    value, _ = quad(
        integrand,
        0.0,
        z_max,
        epsabs=tol / 2.0,
        epsrel=1e-12,
        limit=400,
        points=points or None,
    )
    return value


def cpt_value_quadrature(dist: AnalyticDist, model: CptModel, tol: float = 1e-9) -> float:
    """Ground-truth model value of an analytic distribution.

    Adaptive quadrature of the two distorted tail integrals, each truncated
    where the integrand falls below ``tol / 100`` (found by doubling search)
    and evaluated to absolute accuracy ``tol / 2``.  Raises
    :class:`IntegralDivergenceError` when the truncation search fails, i.e.
    the distorted tail is not integrable.
    """
    if as_float("tol", tol) <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    pos = _tail_integral(dist, model, +1, tol)
    neg = _tail_integral(dist, model, -1, tol)
    return pos - neg
