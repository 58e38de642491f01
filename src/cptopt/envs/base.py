"""The sampler contract shared by every return environment."""

from __future__ import annotations

import numpy as np

__all__ = ["ReturnEnv"]


class ReturnEnv:
    """Sampler interface for parameterized return distributions.

    Subclasses implement ``dim`` and ``_sample``, which receives checked input.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def sample_returns(
        self, theta: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``m`` i.i.d. returns at parameter ``theta``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite")
        if m < 1:
            raise ValueError("need at least one sample")
        return self._sample(theta, int(m), rng)

    def _sample(self, theta: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError
