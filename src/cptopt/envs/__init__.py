"""Black-box return environments.

An environment maps a parameter vector to a distribution of scalar returns
and exposes only a sampler: given (theta, count, rng) it yields i.i.d. draws.
Distinct substreams give independent batches; the same substream and theta
reproduce the same batch exactly.
"""

from __future__ import annotations

import numpy as np

from .._codec import as_array, as_float
from .base import ReturnEnv
from .ssp import BoltzmannPolicy, SspMdp, SspReturnEnv, boltzmann_probs, ssp_episode
from .traffic import TrafficConfig, TrafficGrid, TrafficSim, traffic_episode

__all__ = [
    "ReturnEnv",
    "GaussianMeanEnv",
    "SspMdp",
    "BoltzmannPolicy",
    "SspReturnEnv",
    "boltzmann_probs",
    "ssp_episode",
    "TrafficConfig",
    "TrafficGrid",
    "TrafficSim",
    "traffic_episode",
]


class GaussianMeanEnv(ReturnEnv):
    """Gaussian returns centered on a concave quadratic of the parameter.

    X^theta ~ Normal(-0.5 * sum_i curvature_i (theta_i - optimum_i)^2, noise_std).
    The default scalar configuration has mean ``-(theta - 2)^2`` and its
    maximum-value parameter at 2.
    """

    def __init__(self, optimum=2.0, curvatures=2.0, noise_std: float = 0.1):
        self._optimum = as_array("optimum", np.atleast_1d(optimum), 1)
        curvatures = as_array("curvatures", np.atleast_1d(curvatures), 1)
        shape = self._optimum.shape
        try:
            self._curvatures = np.broadcast_to(curvatures, shape).copy()
        except ValueError:
            raise ValueError(f"curvatures of shape {curvatures.shape} do not fit {shape}") from None
        if not np.all(self._curvatures > 0.0):
            raise ValueError("curvatures must be positive")
        if as_float("noise_std", noise_std) < 0.0:
            raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
        self._noise_std = float(noise_std)

    @property
    def dim(self) -> int:
        return self._optimum.size

    def _sample(self, theta: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
        gap = theta - self._optimum
        mean = float(-0.5 * np.dot(self._curvatures, gap * gap))
        return rng.normal(mean, self._noise_std, m)
