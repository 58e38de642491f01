"""Regenerate the SPSA golden master after an intentional change.

``spsa_golden.json`` freezes eight optimizer runs: SPSA-G and SPSA-N on a 2-d
anisotropic Gaussian bowl (identity model; SPSA-N with ``hessian_scale=0.5``
and ``pd_floor=1.0``) and on the two-state SSP chain (Tversky-Kahneman
model); SPSA-N on a 3-d bowl for 300 iterations, past the 256 iterations
whose streams are seeded together, with a ``pd_floor`` of 2.0 that the
eigenvalue floor binds at most iterations; SPSA-G on a 5-d bowl, whose
five signs take three raw 64-bit outputs; SPSA-G on a 1-d bowl under the
Tversky-Kahneman model, whose tie-free batches take the small estimator path
with a utility exponent below 1; and SPSA-G on a chain that continues with
probability 0.9 and truncates after 5 steps, so most episodes hit the cap.
Each case holds its inputs next to the run's records, final theta
and (SPSA-N) running curvature matrix.  Every float is stored as
``float.hex`` so the comparison is exact.

Run with ``PYTHONPATH=src python tests/data/make_spsa_golden.py``.  With
``--check`` the file is regenerated in memory and compared with the
committed bytes instead: nothing is written, and the script exits 1 naming
each case that differs (or the file, if no single case does) with the number
of float fields that differ and their largest relative difference, so a
rounding-level change shows as such.
"""

import argparse
import json
import sys
from pathlib import Path

from cptopt.envs import GaussianMeanEnv, SspReturnEnv
from cptopt.envs.ssp import two_state_chain
from cptopt.models import CptModel
from cptopt.rng import stream_id
from cptopt.spsa import BoxConstraint, SpsaSchedules, optimize_spsa_g, optimize_spsa_n

HERE = Path(__file__).parent

BOWL = {"kind": "gaussian", "optimum": [2.0, 2.0], "curvatures": [1.0, 10.0], "noise_std": 0.1}
BOWL_3D = {"kind": "gaussian", "optimum": [2.0, 2.0, 2.0], "curvatures": [1.0, 4.0, 10.0],
           "noise_std": 0.1}
BOWL_5D = {"kind": "gaussian", "optimum": [2.0] * 5, "curvatures": [1.0, 2.0, 4.0, 6.0, 10.0],
           "noise_std": 0.1}
BOWL_1D = {"kind": "gaussian", "optimum": [2.0], "curvatures": [2.0], "noise_std": 0.1}
CHAIN = {"kind": "ssp_two_state_chain"}
TRUNCATING_CHAIN = {"kind": "ssp_two_state_chain", "continue_prob": 0.9, "t_max": 5}
BOWL_SCHEDULES = {"a0": 1.0, "a_offset": 0.0, "nu": 0.5, "alpha": 1.0}
CHAIN_SCHEDULES = {"nu": 0.5, "alpha": 0.61}

CASES = [
    {"name": "g_bowl", "algo": "spsa-g", "env": BOWL, "model": CptModel.identity().to_dict(),
     "schedules": BOWL_SCHEDULES, "box": [0.0, 4.0], "theta0": [0.5, 0.5],
     "iters": 40, "seed": 11, "newton": None},
    {"name": "n_bowl", "algo": "spsa-n", "env": BOWL, "model": CptModel.identity().to_dict(),
     "schedules": BOWL_SCHEDULES, "box": [0.0, 4.0], "theta0": [0.5, 0.5],
     "iters": 40, "seed": 12, "newton": {"hessian_scale": 0.5, "pd_floor": 1.0}},
    {"name": "g_ssp", "algo": "spsa-g", "env": CHAIN,
     "model": CptModel.tversky_kahneman().to_dict(), "schedules": CHAIN_SCHEDULES,
     "box": [0.1, 10.0], "theta0": [1.0, 1.0], "iters": 20, "seed": 13, "newton": None},
    {"name": "n_ssp", "algo": "spsa-n", "env": CHAIN,
     "model": CptModel.tversky_kahneman().to_dict(), "schedules": CHAIN_SCHEDULES,
     "box": [0.1, 10.0], "theta0": [1.0, 1.0], "iters": 20, "seed": 14,
     "newton": {"hessian_scale": 1.0, "pd_floor": 1e-4}},
    {"name": "n_bowl_3d", "algo": "spsa-n", "env": BOWL_3D, "model": CptModel.identity().to_dict(),
     "schedules": BOWL_SCHEDULES, "box": [0.0, 4.0], "theta0": [0.5, 0.5, 0.5],
     "iters": 300, "seed": 15, "newton": {"hessian_scale": 0.5, "pd_floor": 2.0}},
    {"name": "g_bowl_5d", "algo": "spsa-g", "env": BOWL_5D, "model": CptModel.identity().to_dict(),
     "schedules": BOWL_SCHEDULES, "box": [0.0, 4.0], "theta0": [0.5] * 5,
     "iters": 40, "seed": 16, "newton": None},
    {"name": "g_bowl_tk", "algo": "spsa-g", "env": BOWL_1D,
     "model": CptModel.tversky_kahneman().to_dict(), "schedules": CHAIN_SCHEDULES,
     "box": [0.0, 4.0], "theta0": [1.0], "iters": 40, "seed": 17, "newton": None},
    {"name": "g_ssp_trunc", "algo": "spsa-g", "env": TRUNCATING_CHAIN,
     "model": CptModel.tversky_kahneman().to_dict(), "schedules": CHAIN_SCHEDULES,
     "box": [-10.0, 10.0], "theta0": [-2.0, 2.0], "iters": 20, "seed": 18, "newton": None},
]


def run_case(case: dict):
    spec = case["env"]
    if spec["kind"] == "gaussian":
        env = GaussianMeanEnv(spec["optimum"], spec["curvatures"], spec["noise_std"])
    else:
        env = SspReturnEnv(two_state_chain(**{k: v for k, v in spec.items() if k != "kind"}))
    model = CptModel.from_dict(case["model"])
    schedules = SpsaSchedules(**case["schedules"])
    box = BoxConstraint.cube(*case["box"], env.dim)
    args = (env, model, schedules, box, case["theta0"], case["iters"], case["seed"])
    if case["algo"] == "spsa-g":
        return optimize_spsa_g(*args)
    return optimize_spsa_n(*args, **case["newton"])


def _hex(v) -> str:
    return float(v).hex()


def encode(trace, seed: int) -> dict:
    """Every record field, the final theta and h_bar, floats as ``float.hex``.

    Each record also keeps ``stream_id(seed, n)``, which pins the id format
    that run summaries record.
    """
    records = [
        {
            "n": r.n,
            "theta": [_hex(v) for v in r.theta],
            "c_plus": _hex(r.c_plus),
            "c_minus": _hex(r.c_minus),
            "c_center": None if r.c_center is None else _hex(r.c_center),
            "gamma": _hex(r.gamma),
            "delta": _hex(r.delta),
            "m": r.m,
            "stream": stream_id(seed, r.n),
        }
        for r in trace.records
    ]
    h_bar = None if trace.h_bar is None else [[_hex(v) for v in row] for row in trace.h_bar]
    return {
        "records": records,
        "final_theta": [_hex(v) for v in trace.final_theta],
        "h_bar": h_bar,
    }


def render() -> str:
    doc = [dict(case, trace=encode(run_case(case), case["seed"])) for case in CASES]
    return json.dumps(doc, indent=1) + "\n"


def float_differences(new, old) -> tuple[int, float, bool]:
    """Count the ``float.hex`` fields that differ between two case entries and
    their largest relative difference; the flag is set when anything other
    than a float value differs (keys, lengths, counts, names)."""
    if new == old:
        return 0, 0.0, False
    if isinstance(new, dict) and isinstance(old, dict) and new.keys() == old.keys():
        pairs = [(new[key], old[key]) for key in new]
    elif isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        pairs = list(zip(new, old))
    elif isinstance(new, str) and isinstance(old, str) and "0x" in new and "0x" in old:
        a, b = float.fromhex(new), float.fromhex(old)
        scale = max(abs(a), abs(b))
        return 1, abs(a - b) / scale if scale else 0.0, False
    else:
        return 0, 0.0, True
    count, largest, other = 0, 0.0, False
    for a, b in pairs:
        c, r, o = float_differences(a, b)
        count, largest, other = count + c, max(largest, r), other or o
    return count, largest, other


def differences(text: str, committed: bytes) -> list[str]:
    """One line per case whose entry differs, with the size of the change;
    the file itself if no single case does."""
    try:
        old = {case["name"]: case for case in json.loads(committed)}
    except ValueError:
        return ["spsa_golden.json (not JSON)"]
    lines = []
    for case in json.loads(text):
        before = old.get(case["name"])
        if before == case:
            continue
        line = f"spsa_golden.json case {case['name']!r}"
        if before is not None:
            count, largest, other = float_differences(case, before)
            line += (
                f": {count} float fields differ, largest relative difference {largest:.3g}"
            )
            if other:
                line += "; non-float fields differ too"
        lines.append(line)
    return lines or ["spsa_golden.json"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)
    text = render()
    out = HERE / "spsa_golden.json"
    if not args.check:
        out.write_text(text)
        print(f"wrote {out}")
        return 0
    committed = out.read_bytes() if out.exists() else b""
    if committed == text.encode():
        print(f"{out.name}: unchanged")
        return 0
    for line in differences(text, committed):
        print(f"differs: {line}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
