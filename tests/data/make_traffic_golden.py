"""Regenerate the traffic golden-master files after an intentional change.

Three frozen files:

* ``traffic_golden.csv`` -- default 2x2 grid, uniform Boltzmann policy,
  120 steps (inside the first 256-step arrival block);
* ``traffic_golden_2x3.json`` -- a 2x3 grid with frequent bursts, a seeded
  non-uniform ``theta`` and 600 steps (three arrival blocks).  The file holds
  its inputs (config, theta, horizon, episode seed) next to the samples and
  flow counters;
* ``traffic_digest_matrix.json`` -- one sha256 per case of a grid x burst
  rate x policy x horizon x seed matrix.  Each case runs an episode and then a
  pooled episode on the same generator, and hashes both episodes' samples
  (as ``float.hex``), their flow counters and the generator's next
  ``random()``, so a change in random-number consumption shows too.  The file
  holds the matrix axes next to the digests.

The matrix's ``constant-ns`` policy is :class:`ConstantPolicy`, defined here
and also used by ``tests/test_traffic.py``.

Run with ``PYTHONPATH=src python tests/data/make_traffic_golden.py``.  With
``--check`` the three files are regenerated in memory and compared with the
committed bytes instead: nothing is written, and the script exits 1 naming
the first file that differs (for the digest matrix, its first case).
"""

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from cptopt._codec import as_int
from cptopt.envs.traffic import (
    EW,
    NS,
    BoltzmannSignPolicy,
    FixedCyclePolicy,
    TrafficConfig,
    TrafficGrid,
    traffic_episode,
)
from cptopt.rng import substream

HERE = Path(__file__).parent


class ConstantPolicy:
    """Always the same configuration at every junction (no rng use)."""

    def __init__(self, config: int):
        config = as_int("config", config)
        if config not in (EW, NS):
            raise ValueError("config must be 0 (EW) or 1 (NS)")
        self.config = config

    def p_ns_table(self, n_junctions: int) -> tuple[float, ...]:
        return (0.5,) * (36 * n_junctions)

    def draws(self, t0, k, n_junctions, rng) -> np.ndarray:
        return np.full((k, n_junctions), 0.0 if self.config == NS else 1.0)


GRID_2X3 = TrafficConfig(rows=2, cols=3, burst_prob=0.02, burst_size=7)
HORIZON_2X3 = 600
EPISODE_SEED_2X3 = 2025


def theta_2x3(grid: TrafficGrid) -> np.ndarray:
    """Seeded non-uniform policy weights for the 2x3 case."""
    return substream(77).uniform(-2.0, 2.0, grid.feature_dim)


MATRIX = {
    "grids": [[1, 1], [2, 2], [2, 3], [3, 2], [6, 6], [1, 4], [4, 1]],
    "burst_probs": [0.0, 0.004, 0.02, 0.05],
    "policies": ["boltzmann-uniform", "boltzmann-random", "fixed-cycle-3", "constant-ns"],
    "horizons": [1, 255, 256, 257, 700],
    "seeds": [0],
    "pooled_horizon": 300,
}


def matrix_policy(name: str, grid: TrafficGrid):
    if name == "boltzmann-uniform":
        return BoltzmannSignPolicy(np.ones(grid.feature_dim), grid)
    if name == "boltzmann-random":
        return BoltzmannSignPolicy(substream(91).uniform(-3.0, 3.0, grid.feature_dim), grid)
    if name == "fixed-cycle-3":
        return FixedCyclePolicy(3)
    if name == "constant-ns":
        return ConstantPolicy(NS)
    raise ValueError(f"unknown policy {name!r}")


def matrix_digest(grid, policy, horizon: int, seed: int, pooled_horizon: int) -> str:
    rng = substream(seed)
    digest = hashlib.sha256()
    for steps in (horizon, pooled_horizon):
        episode = traffic_episode(grid, policy, steps, rng)
        for samples in episode.samples:
            digest.update(" ".join(float.hex(v) for v in samples).encode() + b"\n")
        digest.update(f"{episode.injected} {episode.departed} {episode.queued}\n".encode())
    digest.update(float.hex(rng.random()).encode())
    return digest.hexdigest()


def matrix_cases(matrix: dict):
    """Yield ``(case id, grid, policy name, horizon, seed)`` over the matrix."""
    for (rows, cols), burst in itertools.product(matrix["grids"], matrix["burst_probs"]):
        grid = TrafficGrid(TrafficConfig(rows=rows, cols=cols, burst_prob=burst))
        for name, horizon, seed in itertools.product(
            matrix["policies"], matrix["horizons"], matrix["seeds"]
        ):
            yield f"{rows}x{cols}/{burst!r}/{name}/{horizon}/{seed}", grid, name, horizon, seed


def render() -> dict[str, str]:
    """File name -> text of each golden file, in the order they are checked."""
    grid = TrafficGrid(TrafficConfig())
    policy = BoltzmannSignPolicy(np.ones(grid.feature_dim), grid)
    episode = traffic_episode(grid, policy, 120, substream(2024))
    rows = [
        f"{path},{sample!r}\n"
        for path, samples in enumerate(episode.samples)
        for sample in samples
    ]
    files = {"traffic_golden.csv": "path,sample\n" + "".join(rows)}

    grid = TrafficGrid(GRID_2X3)
    policy = BoltzmannSignPolicy(theta_2x3(grid), grid)
    episode = traffic_episode(grid, policy, HORIZON_2X3, substream(EPISODE_SEED_2X3))
    doc = {
        "config": GRID_2X3.to_dict(),
        "theta": [float(v) for v in policy.theta],
        "horizon": HORIZON_2X3,
        "seed": EPISODE_SEED_2X3,
        "injected": episode.injected,
        "departed": episode.departed,
        "queued": episode.queued,
        "samples": [list(s) for s in episode.samples],
    }
    files["traffic_golden_2x3.json"] = json.dumps(doc) + "\n"

    digests = {
        case_id: matrix_digest(
            grid, matrix_policy(name, grid), horizon, seed, MATRIX["pooled_horizon"]
        )
        for case_id, grid, name, horizon, seed in matrix_cases(MATRIX)
    }
    files["traffic_digest_matrix.json"] = json.dumps({**MATRIX, "digests": digests}, indent=1) + "\n"
    return files


def first_difference(name: str, text: str, committed: bytes) -> str:
    """The first differing digest-matrix case, else the file itself."""
    if name == "traffic_digest_matrix.json":
        try:
            old = json.loads(committed)["digests"]
        except (ValueError, KeyError):
            return name
        for case_id, digest in json.loads(text)["digests"].items():
            if old.get(case_id) != digest:
                return f"{name} case {case_id}"
    return name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)
    for name, text in render().items():
        out = HERE / name
        if not args.check:
            out.write_text(text)
            print(f"wrote {out}")
            continue
        committed = out.read_bytes() if out.exists() else b""
        if committed != text.encode():
            print(f"differs: {first_difference(name, text, committed)}")
            return 1
        print(f"{name}: unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
