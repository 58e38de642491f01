"""cptopt benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload experiment|estimate|optimize \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0`` (timings at reference speed, see ``reference_time``), the
per-layer metrics of a traced pass with ``--trace 1``.  The line before it is
``{"meta": ...}``: machine and version details, load average, the output
digest, unscaled timings, sample counts and the set-up breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _metric_units(section: str) -> dict:
    """Metric name -> unit, for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


SETUP_REPEATS = 3
# fresh interpreters whose ``import cptopt`` is timed for ``setup_s``
IMPORT_REPEATS = 5
# Typical time of ``reference_time``'s kernel on a 2-CPU x86-64 VM at its
# usual speed.  Timed metrics are scaled by REFERENCE_S / (the kernel's time
# measured next to them), which cancels most of the drift in the speed of a
# shared host over a run and between runs.
REFERENCE_S = 0.0025
REFERENCE_EVERY_S = 0.5
# the traced run measures an untraced pass of this share of --seconds, then
# repeats exactly its operations with tracing on
TRACE_PASS_SHARE = 0.5


def import_cptopt():
    """Import the package from this checkout's ``src/``; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "cptopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cptopt sources under {src}")
    sys.path.insert(0, str(src))
    import cptopt

    if Path(cptopt.__file__).resolve().parent != (src / "cptopt").resolve():
        raise SystemExit(f"perfbench: imported cptopt from {cptopt.__file__}, not {src}")
    return cptopt


_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import cptopt
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
from run import reference_time
print(elapsed, reference_time())
"""


def import_times(repeats: int) -> list[float]:
    """``import cptopt`` in fresh interpreters, each at reference speed."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, reference = map(float, done.stdout.split())
        times.append(elapsed * REFERENCE_S / reference)
    return times


def reference_time() -> float:
    """Median time of a fixed interpreter-plus-numpy kernel: the host's current speed."""
    import numpy as np

    data = np.random.default_rng(0).random(20_000)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        np.sort(data)
        np.power(data, 0.61)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Latencies, work and failures of the operations of one pass.

    ``scaled_latencies`` are at reference speed.  The
    reference kernel runs between operations at least every
    REFERENCE_EVERY_S seconds and after each round; an operation's latency is
    scaled by REFERENCE_S over the mean of the kernel times measured just
    before and just after its stretch of operations.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scaled_latencies: list[float] = []
        self.references: list[float] = []
        self.work = 0.0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0
        self.rounds = 0


def run_pass(rounds, invoke, budget: float) -> tuple[Tally, list]:
    """Run whole rounds until the next one would end past ``budget`` seconds.

    ``rounds`` is either a round iterator or a list of rounds to replay
    exactly; returns the tally and the rounds that ran.
    """
    tally, done = Tally(), []
    started = time.perf_counter()
    tally.references.append(reference_time())
    stretch_start, stretch_began = 0, time.perf_counter()

    def close_stretch() -> None:
        nonlocal stretch_start, stretch_began
        tally.references.append(reference_time())
        speed = REFERENCE_S / statistics.mean(tally.references[-2:])
        stretch = tally.latencies[stretch_start:]
        tally.scaled_latencies.extend(t * speed for t in stretch)
        stretch_start, stretch_began = len(tally.latencies), time.perf_counter()

    for ops in rounds:
        for op in ops:
            if time.perf_counter() - stretch_began >= REFERENCE_EVERY_S:
                close_stretch()
            args = op.prepare()
            t0 = time.perf_counter()
            try:
                out = invoke(op, args)
            except Exception as exc:  # a raising call is a failed operation
                tally.latencies.append(time.perf_counter() - t0)
                tally.failed += 1
                tally.problems.append(f"{op.span}: {type(exc).__name__}: {exc}")
                op.cleanup(args)
                continue
            tally.latencies.append(time.perf_counter() - t0)
            tally.work += op.work
            try:
                problems = op.check(args, out)
                tally.digest.update(op.digest(args, out))
            except Exception as exc:  # unreadable output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                tally.failed += 1
                tally.problems.extend(problems)
            op.cleanup(args)
        done.append(ops)
        close_stretch()
        tally.rounds += 1
        tally.wall = time.perf_counter() - started
        if isinstance(rounds, list):
            continue
        if tally.wall + tally.wall / tally.rounds > budget:
            break
    return tally, done


def plain_call(op, args):
    return op.fn(*args, **op.kwargs)


def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata() -> dict:
    import numpy
    import scipy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def measure(
    workload, seconds: float, trace: bool, import_reps: tuple = (), spans_path=None
) -> tuple[dict, dict]:
    """Set up ``workload`` and run one timed or traced measurement.

    ``import_reps`` are the reference-speed times of ``import_times``; set-up
    time is their median plus the median of SETUP_REPEATS set-ups, each
    scaled by the reference kernel timed right after it.  Returns the result
    object (the last output line) and the run's metadata.  A traced run
    writes its spans to ``spans_path`` when one is given.
    """
    import numpy as np

    setups, setup_references = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        setup_references.append(reference_time())
    import_s = statistics.median(import_reps) if import_reps else 0.0
    setup_s = import_s + statistics.median(
        t * REFERENCE_S / ref for t, ref in zip(setups, setup_references)
    )
    meta: dict = {
        "import_reps_s": list(import_reps),
        "setup_reps_s": setups,
        "setup_references_s": setup_references,
        "setup_timings": dict(workload.setup_timings),
    }

    if not trace:
        tally, _ = run_pass(workload.rounds(), plain_call, seconds)
        attempted = len(tally.latencies)
        rate = tally.work / sum(tally.scaled_latencies)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": rate,
            "call_p50_ms": float(np.percentile(tally.scaled_latencies, 50)) * 1e3,
            "call_p95_ms": float(np.percentile(tally.scaled_latencies, 95)) * 1e3,
        }
        meta["named"] = {workload.work_name: rate}
        refs = tally.references
        meta["reference_s"] = {
            "median": statistics.median(refs),
            "min": min(refs),
            "max": max(refs),
            "count": len(refs),
        }
        meta["unscaled"] = {
            "work_per_s": tally.work / sum(tally.latencies),
            "call_p50_ms": float(np.percentile(tally.latencies, 50)) * 1e3,
            "call_p95_ms": float(np.percentile(tally.latencies, 95)) * 1e3,
        }
        meta["samples"] = {name: attempted for name in metrics if name.startswith("call_")}
        meta["samples"]["setup_s"] = len(setups)
        meta["samples"]["import"] = len(import_reps)
        failed, problems, passes = tally.failed, tally.problems, [tally]
        units = _metric_units("end_to_end")
    else:
        from tracing import Tracer, layer_metrics, write_spans

        plain, replay = run_pass(workload.rounds(), plain_call, seconds * TRACE_PASS_SHARE)
        with Tracer() as tracer:
            traced, _ = run_pass(
                replay, lambda op, args: tracer.call(op.span, op.fn, args, op.kwargs), seconds
            )
        metrics = layer_metrics(tracer.spans)
        if spans_path is not None:
            write_spans(tracer.spans, spans_path)
            meta["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics["envs.traffic.baseline_s"] = workload.setup_timings.get("baseline_s", 0.0)
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        metrics["trace.overhead_share"] = (traced.wall - plain.wall) / plain.wall
        meta["trace_missing"] = tracer.missing
        meta["trace_digest_match"] = plain.digest.digest() == traced.digest.digest()
        attempted = len(plain.latencies) + len(traced.latencies)
        failed = plain.failed + traced.failed + (not meta["trace_digest_match"])
        problems, passes = plain.problems + traced.problems, [plain, traced]
        units = _metric_units("per_layer")

    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta["rounds"] = [p.rounds for p in passes]
    meta["digest"] = passes[0].digest.hexdigest()
    meta["problems"] = problems[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    cptopt = import_cptopt()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](cptopt, args.seed, workdir)
        spans_path = ROOT / ".perfbench-spans" / f"{args.workload}-seed{args.seed}.csv.gz"
        import_reps = () if args.trace else tuple(import_times(IMPORT_REPEATS))
        result, meta = measure(workload, args.seconds, bool(args.trace), import_reps, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()
    nproc = os.cpu_count() or 1
    meta.update(metadata())
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        loadavg_before=load_before,
        loadavg_after=load_after,
        busy=load_before[0] >= nproc,
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
