"""In-memory span recorder and the layer wrappers of the traced run.

A span records its name, start, end, parent span and run id, plus the
work counts its wrapper read off the call's arguments and result.
Spans stay in memory until the run ends; :func:`self_times` turns them
into self time (a span's duration minus the part of it that its child
spans cover).

The wrappers sit where the experiment modules bound the layer functions
(``repro.experiments.e09.build_cdag`` and so on), plus a few class
methods patched on the class itself, so nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

#: Layers of the program, named after its packages.  A span's layer is
#: the first component of its name.
LAYERS = (
    "cdag", "schedules", "pebbling", "bounds", "routing", "tracesim",
    "parallel", "autotune",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans of one run; the span id is its index in ``spans``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Time the ``with`` body; yields the span's mutable counts."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.run_id, counts)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp.counts
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def as_dicts(self) -> list[dict]:
        return [dict(asdict(sp), id=i) for i, sp in enumerate(self.spans)]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part of its
    interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            parent = spans[sp.parent]
            children.setdefault(sp.parent, []).append(
                (max(sp.start, parent.start), min(sp.end, parent.end))
            )
    return [
        (sp.end - sp.start) - _covered(children.get(i, []))
        for i, sp in enumerate(spans)
    ]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    totals: dict[str, float] = {}
    for sp, own in zip(spans, self_times(spans)):
        totals[sp.layer] = totals.get(sp.layer, 0.0) + own
    return totals


# ---- what each wrapper counts ---------------------------------------


def _steps(result, args, kwargs):
    return {"steps": len(result)} if hasattr(result, "__len__") else {}


def _paths(result, args, kwargs):
    if hasattr(result, "paths"):
        return {"paths": len(result.paths)}
    if hasattr(result, "report"):  # Theorem2Certificate
        return {"paths": result.report.n_paths}
    return {}


def _single_run(result, args, kwargs):
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return {"io": result.total, "steps": len(schedule)}


#: counts read off a wrapped call, by span name (or layer, as a fallback).
COUNTS = {
    "cdag.build_cdag": lambda r, a, k: {"vertices": r.n_vertices},
    "schedules": _steps,
    "routing": _paths,
    "pebbling.CacheExecutor.run": _single_run,
    "bounds.verify_hk_partition": lambda r, a, k: {"parts": r["n_parts"]},
    "tracesim.FullyAssociativeLRU.run": lambda r, a, k: {"accesses": r.accesses},
    "autotune.LocalEvaluator.evaluate": lambda r, a, k: {"evaluations": len(r)},
}

#: class methods wrapped on the class, so library-internal callers are
#: timed too (``simulate_io`` and the autotuner reach ``run`` this way).
CLASS_METHODS = {
    "pebbling": {
        "CacheExecutor": ("run",),
        "SegmentAnalysis": ("__init__", "analyze"),
    },
    "tracesim": {"FullyAssociativeLRU": ("run",)},
    "autotune": {"AutoTuner": ("run",), "LocalEvaluator": ("evaluate",)},
}


def _wrap(recorder: Recorder, name: str, fn):
    counter = COUNTS.get(name) or COUNTS.get(name.split(".", 1)[0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as counts:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts.update(counter(result, args, kwargs))
        return result

    return wrapper


def _wrap_run_many(recorder: Recorder, fn):
    """``CacheExecutor.run_many`` run one policy at a time, so LRU and
    Belady time separate.  Results are per configuration, so splitting
    the grid changes no result."""

    @functools.wraps(fn)
    def wrapper(self, schedule, cache_sizes, policies=("lru",), *args, **kwargs):
        results = {}
        for policy in policies:
            with recorder.span("pebbling.CacheExecutor.run_many",
                               policy=policy) as counts:
                part = fn(self, schedule, cache_sizes, (policy,), *args, **kwargs)
                counts.update(
                    configs=len(part),
                    steps=len(part) * len(schedule),
                    io=sum(res.total for res in part.values()),
                )
            results.update(part)
        return {(int(M), str(p)): results[(int(M), str(p))]
                for M in cache_sizes for p in policies}

    return wrapper


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def instrument(recorder: Recorder, modules) -> list[tuple[object, str, object]]:
    """Wrap every layer function bound in ``modules`` (the experiment
    modules) plus :data:`CLASS_METHODS`.  Returns the undo list for
    :func:`restore`."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module in modules:
        for attr, value in list(vars(module).items()):
            layer = _layer_of(value)
            if layer is not None and inspect.isfunction(value):
                patch(module, attr, _wrap(recorder, f"{layer}.{value.__name__}", value))
    for layer, classes in CLASS_METHODS.items():
        package = importlib.import_module(f"repro.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(package, cls_name)
            for method in methods:
                patch(cls, method,
                      _wrap(recorder, f"{layer}.{cls_name}.{method}",
                            cls.__dict__[method]))
    executor = importlib.import_module("repro.pebbling").CacheExecutor
    patch(executor, "run_many",
          _wrap_run_many(recorder, executor.__dict__["run_many"]))
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
