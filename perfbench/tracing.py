"""Span tracing around the calls into each ``cptopt`` layer.

The traced run replaces the public names that ``cptopt`` resolves at call
time (module globals and class attributes) with wrappers that record one span
per call: name, start, end, parent span and thread.  Nothing inside ``src/``
is edited, and the timed run never installs the wrappers.  Spans stay in
memory until the traced pass is over; then :func:`layer_metrics` turns them
into the per-layer figures and :func:`write_spans` writes them out.

A span's self time is the processor time of its thread during the span
minus that of its children.  The parent of a span is the innermost open span
*of the same thread*, so episodes scored on the harness's worker threads have
self times of their own, and time a thread spends waiting for the interpreter
lock while another thread runs counts for neither.  Wall-clock start and end
are kept too, for the harness's train/test/write phases.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# (module, attribute, span name); the attribute is a module global or a class
# attribute that the calling code looks up at call time
TARGETS = (
    ("cptopt.harness", "traffic_episode", "envs.traffic.episode"),
    ("cptopt.harness", "estimate_cpt", "estimator.estimate_cpt"),
    ("cptopt.harness", "ascend", "spsa.ascend"),
    ("cptopt.harness", "path_cpt_scores", "harness.path_cpt_scores"),
    ("cptopt.harness", "TrafficObjective.__call__", "harness.objective"),
    ("cptopt.spsa", "estimate_cpt", "estimator.estimate_cpt"),
    ("cptopt.spsa", "substream", "rng.substream"),
    ("cptopt.spsa", "stream_id", "rng.stream_id"),
    ("cptopt.envs.ssp", "ssp_episode", "envs.ssp.episode"),
    ("cptopt.envs.ssp", "SspReturnEnv.sample_returns", "envs.ssp.sample_returns"),
    ("cptopt.envs", "ReturnEnv.sample_returns", "envs.gaussian.sample_returns"),
    ("cptopt.models", "WeightSpec.apply", "models.weight"),
    ("cptopt.models", "UtilitySpec.gain_values", "models.utility"),
    ("cptopt.models", "UtilitySpec.loss_values", "models.utility"),
)

LAYERS = (
    "models",
    "estimator",
    "spsa",
    "rng",
    "envs.gaussian",
    "envs.ssp",
    "envs.traffic",
    "harness",
)

# estimator self-time buckets by batch size n: [lo, hi)
SIZE_BUCKETS = (("small", 0, 1_000), ("mid", 1_000, 100_000), ("large", 100_000, None))


def layer_of(span_name: str) -> str:
    for layer in _LONGEST_FIRST:
        if span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


_LONGEST_FIRST = sorted(LAYERS, key=len, reverse=True)


class Span:
    __slots__ = (
        "name", "start", "end", "cpu_start", "cpu_end", "parent", "thread", "attrs",
        "error", "child_cpu",
    )

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0  # wall clock
        self.cpu_start = self.cpu_end = 0.0  # this thread's processor time
        self.attrs: dict = {}
        self.error: Optional[str] = None
        # processor time of children, plus the bookkeeping done after each
        # child ended (attribute extraction), which is not this span's work
        self.child_cpu = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.cpu_end - self.cpu_start - self.child_cpu


def _span_attrs(name: str, args: tuple, out) -> dict:
    """Counts read at the boundary from a call's arguments and result."""
    if name in ("models.weight", "models.utility"):
        return {"points": int(np.size(args[1]))}
    if name == "estimator.estimate_cpt":
        _, counts = np.unique(np.asarray(args[0], dtype=float), return_counts=True)
        return {
            "n": int(out.n),
            "key": (args[1], int(out.n)),  # (model, n)
            "tied": int(counts[counts > 1].sum()),  # samples equal to another one
            "distinct": int(counts.size),
        }
    if name in ("spsa.ascend", "spsa.optimize_g", "spsa.optimize_n"):
        return {"iterations": len(out.records), "kind": "n" if name.endswith("_n") else "g"}
    if name in ("envs.gaussian.sample_returns", "envs.ssp.sample_returns"):
        return {"samples": int(args[2])}
    if name == "envs.ssp.episode":
        return {"steps": int(out.length), "truncated": int(bool(out.truncated))}
    if name == "envs.traffic.episode":
        return {
            "steps": int(args[2]),
            "injected": out.injected,
            "departed": out.departed,
            "queued_at_end": out.queued,
        }
    if name == "harness.path_cpt_scores":
        return {"short_paths": sum(len(s) < 2 for s in args[0])}
    return {}


class Tracer:
    """Collects spans in memory while installed; restores every name on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, attrs=_span_attrs):
        """Run ``fn`` inside a span; also used for the benchmark's own operations."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        span.cpu_start = time.thread_time()
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span.end = time.perf_counter()
            span.cpu_end = time.thread_time()
            span.error = type(exc).__name__
            raise
        else:
            span.end = time.perf_counter()
            span.cpu_end = time.thread_time()
            span.attrs = attrs(name, args, out)
            return out
        finally:
            stack.pop()
            self.spans.append(span)
            if span.parent is not None:
                span.parent.child_cpu += time.thread_time() - span.cpu_start

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()


def write_spans(spans: list[Span], path: Path) -> None:
    """One CSV row per span, in end order; ``parent`` is a row index or -1."""
    index = {id(span): i for i, span in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["name", "start_s", "end_s", "cpu_s", "self_cpu_s", "parent", "thread", "error"]
        )
        for span in spans:
            writer.writerow([
                span.name,
                f"{span.start:.9f}",
                f"{span.end:.9f}",
                f"{span.cpu_end - span.cpu_start:.9f}",
                f"{span.self_time:.9f}",
                index[id(span.parent)] if span.parent is not None else -1,
                span.thread,
                span.error or "",
            ])


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _under(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def _harness_phases(spans: list[Span]) -> tuple[float, float, float]:
    """Train, test and write wall time of each ``run_experiment`` call.

    Train is the ``ascend`` spans; test is the union of the episode and
    scoring spans outside any objective call, on any thread; write is the gap
    between the last test span of a variant and the next training run (or
    the end of the call), where the harness writes that variant's files.
    """
    runs = [s for s in spans if s.name == "harness.run_experiment"]
    test_spans = [
        s
        for s in spans
        if s.name in ("envs.traffic.episode", "harness.path_cpt_scores")
        and not _under(s, "harness.objective")
    ]
    train = test = write = 0.0
    for run in runs:
        ascends = sorted(
            (s for s in spans if s.name == "spsa.ascend" and s.parent is run),
            key=lambda s: s.start,
        )
        train += sum(s.duration for s in ascends)
        inside = [s for s in test_spans if run.start <= s.start and s.end <= run.end]
        test += _union_length([(s.start, s.end) for s in inside])
        bounds = [a.start for a in ascends[1:]] + [run.end]
        for ascend, bound in zip(ascends, bounds):
            phase = [s.end for s in inside if ascend.end <= s.start < bound]
            if phase:
                write += bound - max(phase)
    return train, test, write


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, unit costs and self-time shares from one traced pass."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, [])]

    def total(items, key) -> float:
        return float(sum(key(s) for s in items))

    out: dict[str, float] = {}

    for kind in ("weight", "utility"):
        items = named(f"models.{kind}")
        points = total(items, lambda s: s.attrs.get("points", 0))
        out[f"models.{kind}.points"] = points
        out[f"models.{kind}.ns_per_point"] = _ratio(
            total(items, lambda s: s.self_time) * 1e9, points
        )

    est = named("estimator.estimate_cpt")
    ok = [s for s in est if s.error is None]
    out["estimator.calls"] = float(len(est))
    out["estimator.samples"] = total(ok, lambda s: s.attrs["n"])
    for label, lo, hi in SIZE_BUCKETS:
        bucket = [s for s in ok if s.attrs["n"] >= lo and (hi is None or s.attrs["n"] < hi)]
        out[f"estimator.self_ns_per_sample.{label}"] = _ratio(
            total(bucket, lambda s: s.self_time) * 1e9, total(bucket, lambda s: s.attrs["n"])
        )
    seen: set = set()
    repeats = 0
    for s in sorted(ok, key=lambda s: s.start):
        repeats += s.attrs["key"] in seen
        seen.add(s.attrs["key"])
    out["estimator.repeat_n_share"] = _ratio(repeats, len(ok))
    out["estimator.tie_share"] = _ratio(
        total(ok, lambda s: s.attrs["tied"]), out["estimator.samples"]
    )
    tied = [s for s in ok if s.attrs["tied"]]
    out["estimator.distinct_per_tied_call"] = _ratio(
        total(tied, lambda s: s.attrs["distinct"]), len(tied)
    )

    runs = named("spsa.ascend", "spsa.optimize_g", "spsa.optimize_n")
    out["spsa.iterations"] = total(runs, lambda s: s.attrs.get("iterations", 0))
    out["spsa.evaluations_failed"] = float(
        sum(s.error == "OptimizationError" for s in runs)
    )
    for kind in ("g", "n"):
        items = [s for s in runs if s.attrs.get("kind") == kind]
        out[f"spsa.self_us_per_iter.{kind}"] = _ratio(
            total(items, lambda s: s.self_time) * 1e6,
            total(items, lambda s: s.attrs["iterations"]),
        )

    subs = named("rng.substream")
    out["rng.substreams"] = float(len(subs))
    out["rng.stream_ids"] = float(len(named("rng.stream_id")))
    out["rng.us_per_substream"] = _ratio(total(subs, lambda s: s.self_time) * 1e6, len(subs))

    gauss = named("envs.gaussian.sample_returns")
    out["envs.gaussian.samples"] = total(gauss, lambda s: s.attrs.get("samples", 0))
    out["envs.gaussian.ns_per_sample"] = _ratio(
        total(gauss, lambda s: s.self_time) * 1e9, out["envs.gaussian.samples"]
    )

    episodes = named("envs.ssp.episode")
    out["envs.ssp.episodes"] = float(len(episodes))
    out["envs.ssp.steps"] = total(episodes, lambda s: s.attrs.get("steps", 0))
    out["envs.ssp.truncated"] = total(episodes, lambda s: s.attrs.get("truncated", 0))
    out["envs.ssp.us_per_step"] = _ratio(
        total(named("envs.ssp.episode", "envs.ssp.sample_returns"), lambda s: s.self_time)
        * 1e6,
        out["envs.ssp.steps"],
    )

    traffic = named("envs.traffic.episode")
    out["envs.traffic.episodes"] = float(len(traffic))
    out["envs.traffic.steps"] = total(traffic, lambda s: s.attrs.get("steps", 0))
    for phase, in_train in (("train", True), ("test", False)):
        items = [s for s in traffic if _under(s, "harness.objective") == in_train]
        out[f"envs.traffic.us_per_step.{phase}"] = _ratio(
            total(items, lambda s: s.self_time) * 1e6,
            total(items, lambda s: s.attrs.get("steps", 0)),
        )
    for counter in ("injected", "departed", "queued_at_end"):
        out[f"envs.traffic.{counter}"] = total(traffic, lambda s: s.attrs.get(counter, 0))

    objective = named("harness.objective")
    out["harness.objective_calls"] = float(len(objective))
    out["harness.episodes_per_call"] = _ratio(
        sum(s.parent is not None and s.parent.name == "harness.objective" for s in traffic),
        len(objective),
    )
    out["harness.objective_ms"] = _ratio(
        total(objective, lambda s: s.duration) * 1e3, len(objective)
    )
    train, test, write = _harness_phases(spans)
    runs_total = total(named("harness.run_experiment"), lambda s: s.duration)
    out["harness.train_s"] = train
    out["harness.test_s"] = test
    out["harness.write_s"] = write
    out["harness.self_s"] = max(0.0, runs_total - train - test - write)
    out["harness.short_path_zero_scores"] = total(
        named("harness.path_cpt_scores"), lambda s: s.attrs.get("short_paths", 0)
    )

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        self_by_layer[layer_of(span.name)] += span.self_time
    traced = sum(self_by_layer.values())
    for layer, value in self_by_layer.items():
        out[f"share.{layer}"] = _ratio(value, traced)
    out["trace.spans"] = float(len(spans))
    return out
