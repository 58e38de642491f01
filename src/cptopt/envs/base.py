"""The sampler contract shared by every return environment."""

from __future__ import annotations

import numpy as np

from .._codec import as_array, as_int

__all__ = ["ReturnEnv"]


class ReturnEnv:
    """Sampler interface for parameterized return distributions.

    Subclasses implement ``dim`` and ``_sample``, which receives checked input.
    ``optimize_spsa_g`` and ``optimize_spsa_n`` call ``_sample`` directly
    with evaluation points and batch sizes the loop built itself, so an
    override of ``sample_returns`` does not reach them.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def sample_returns(
        self, theta: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``m`` i.i.d. returns at parameter ``theta``."""
        theta = as_array("theta", np.atleast_1d(theta), (self.dim,))
        m = as_int("m", m)
        if m < 1:
            raise ValueError("need at least one sample")
        return self._sample(theta, m, rng)

    def _sample(self, theta: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError
