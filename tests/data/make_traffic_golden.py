"""Regenerate the traffic golden-master files after an intentional change.

Two frozen cases:

* ``traffic_golden.csv`` -- default 2x2 grid, uniform Boltzmann policy,
  120 steps (inside the first 256-step arrival block);
* ``traffic_golden_2x3.json`` -- a 2x3 grid with frequent bursts, a seeded
  non-uniform ``theta`` and 600 steps (three arrival blocks).  The file holds
  its inputs (config, theta, horizon, episode seed) next to the samples and
  flow counters.
"""

import json
from pathlib import Path

import numpy as np

from cptopt.envs.traffic import BoltzmannSignPolicy, TrafficConfig, TrafficGrid, traffic_episode
from cptopt.rng import substream

HERE = Path(__file__).parent

GRID_2X3 = TrafficConfig(rows=2, cols=3, burst_prob=0.02, burst_size=7)
HORIZON_2X3 = 600
EPISODE_SEED_2X3 = 2025


def theta_2x3(grid: TrafficGrid) -> np.ndarray:
    """Seeded non-uniform policy weights for the 2x3 case."""
    return substream(77).uniform(-2.0, 2.0, grid.feature_dim)


def main() -> None:
    grid = TrafficGrid(TrafficConfig())
    policy = BoltzmannSignPolicy(np.ones(grid.feature_dim), grid)
    episode = traffic_episode(grid, policy, 120, substream(2024))
    out = HERE / "traffic_golden.csv"
    with open(out, "w", newline="") as fh:
        fh.write("path,sample\n")
        for path, samples in enumerate(episode.samples):
            for sample in samples:
                fh.write(f"{path},{sample!r}\n")
    print(f"wrote {out}")

    grid = TrafficGrid(GRID_2X3)
    policy = BoltzmannSignPolicy(theta_2x3(grid), grid)
    episode = traffic_episode(grid, policy, HORIZON_2X3, substream(EPISODE_SEED_2X3))
    out = HERE / "traffic_golden_2x3.json"
    doc = {
        "config": GRID_2X3.to_dict(),
        "theta": [float(v) for v in policy.theta],
        "horizon": HORIZON_2X3,
        "seed": EPISODE_SEED_2X3,
        "injected": episode.injected,
        "departed": episode.departed,
        "queued": episode.queued,
        "samples": episode.as_lists(),
    }
    out.write_text(json.dumps(doc) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
