"""Workloads, the output gate and the per-layer metrics.

Every function here runs inside one fresh interpreter started by
``run.py`` (see ``child.py``); nothing here starts a process except the
sweep runner's own pool.

Workloads (each a closed loop from one process, at most two workers):

- ``e9_io_sweep``: E9 at defaults, the pebble-game I/O sweep.  Loads
  ``pebbling``/``simcore`` and ``schedules``; it is the bypass workload
  for every ``bounds`` change.
- ``e14_hk_dominators``: E14 at defaults, almost all Hong-Kung dominator
  max-flows in ``bounds``; the bypass workload for every ``pebbling`` or
  ``schedules`` change.
- ``sweep_rest``: the other thirteen experiments as sweep jobs on two
  workers, cold against a fresh result store and then warm from it.
  Loads ``runner`` and the small-instance layers, whose simulations are
  many short single-configuration runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

from spans import layer_self_times

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"

WORKLOADS = {
    "e9_io_sweep": ("E9",),
    "e14_hk_dominators": ("E14",),
    "sweep_rest": ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10",
                   "E11", "E12", "E13", "E15"),
}
#: experiments whose run takes a seed; the benchmark's seed goes to them.
SEEDED = ("E8", "E13")
SWEEP_WORKERS = 2


def experiment_seed(experiment_id: str, seed: int) -> int | None:
    return seed if experiment_id in SEEDED else None


def load_fingerprints(path: Path = FINGERPRINTS) -> dict:
    return json.loads(path.read_text())


def report_digest(result) -> str:
    """SHA-256 of the rendered report with its check lines in name order.

    A report read back from the result store lists its checks in name
    order (the store writes sorted JSON) where a freshly computed one
    lists them in the order the experiment made them, so check order is
    left out of the fingerprint; tables and verdicts are in it.
    """
    canonical = dataclasses.replace(result, checks=dict(sorted(result.checks.items())))
    return hashlib.sha256(canonical.render().encode("utf-8")).hexdigest()


# ---- output gate ----------------------------------------------------


class Gate:
    """Counts attempted and failed operations.

    An operation is one paper check of a report, one comparison of a
    report's fingerprint with the recorded one, or one sweep job.  A
    fingerprint is compared only where the report was made with the
    seed it was recorded with; under any other seed the paper checks
    alone are the gate.
    """

    def __init__(self, fingerprints: dict):
        self.reports = fingerprints["reports"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def report(self, experiment_id: str, seed: int | None, result) -> None:
        for name, ok in result.checks.items():
            self._op(bool(ok), f"{experiment_id}: check failed: {name}")
        recorded = self.reports[experiment_id]
        if recorded["seed"] == seed:
            self._op(
                report_digest(result) == recorded["sha256"],
                f"{experiment_id}: report differs from its recorded fingerprint",
            )

    def error(self, what: str) -> None:
        self._op(False, what)

    def job(self, outcome) -> None:
        self._op(outcome.ok, f"{outcome.spec.label}: sweep job {outcome.status}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---- running the workloads ------------------------------------------


def _span(recorder, name: str, **counts):
    return nullcontext() if recorder is None else recorder.span(name, **counts)


def run_experiment(experiment_id: str, seed: int, gate: Gate) -> None:
    """One experiment at defaults in this process, rendered and gated."""
    from repro.experiments import get_experiment

    exp_seed = experiment_seed(experiment_id, seed)
    kwargs = {} if exp_seed is None else {"seed": exp_seed}
    result = get_experiment(experiment_id)(**kwargs)
    result.render()  # part of what a user of `repro experiments` waits for
    gate.report(experiment_id, exp_seed, result)


def run_in_process(ids, seed: int, gate: Gate, recorder=None) -> None:
    """Each experiment in turn, under an ``experiments.<id>`` span when
    ``recorder`` is given."""
    for experiment_id in ids:
        with _span(recorder, f"experiments.{experiment_id}"):
            run_experiment(experiment_id, seed, gate)


def run_sweep_pass(ids, seed: int, gate: Gate, scratch: Path, recorder=None) -> dict:
    """Sweep ``ids`` cold against a fresh store, then warm from it.

    Returns the runner's figures; every job and report is gated.
    """
    from repro.runner import JobSpec, ResultStore, payload_to_result, run_sweep

    specs = [JobSpec(i, seed=experiment_seed(i, seed)) for i in ids]
    store_dir = scratch / f"store-{os.getpid()}"
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ResultStore(store_dir)
    passes = {}
    try:
        for name in ("cold", "warm"):
            t0 = time.perf_counter()
            with _span(recorder, f"runner.{name}", jobs=len(specs)):
                outcomes = run_sweep(specs, store, workers=SWEEP_WORKERS,
                                     progress=False)
            passes[name] = (time.perf_counter() - t0, outcomes)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    for _, outcomes in passes.values():
        for outcome in outcomes:
            gate.job(outcome)
            if outcome.ok:
                gate.report(outcome.spec.experiment_id, outcome.spec.seed,
                            payload_to_result(outcome.payload))
    cold_s, cold = passes["cold"]
    warm_s, warm = passes["warm"]
    busy = sum(a.duration or 0.0 for o in cold for a in o.attempts)
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "jobs": len(cold),
        "jobs_failed": sum(not o.ok for o in cold + warm),
        "retries": sum(max(0, len(o.attempts) - 1) for o in cold),
        "store_hit_ratio": sum(o.cached for o in warm) / len(warm),
        "worker_busy_share": busy / (SWEEP_WORKERS * cold_s),
    }


# ---- per-layer metrics ----------------------------------------------

RUN = "pebbling.CacheExecutor.run"
RUN_MANY = "pebbling.CacheExecutor.run_many"
SEGMENTS = ("pebbling.SegmentAnalysis.__init__", "pebbling.SegmentAnalysis.analyze")
SELF_LAYERS = ("experiments", "cdag", "schedules", "pebbling", "bounds",
               "routing", "tracesim", "parallel", "autotune")


def aggregate(spans) -> dict:
    """Per span name: total duration ``s``, call count ``n`` and summed
    counts.  ``run_many`` spans are also keyed by policy."""
    agg: dict[str, dict] = {}
    for sp in spans:
        keys = [sp.name]
        if sp.name == RUN_MANY:
            keys.append(f"{RUN_MANY}[{sp.counts['policy']}]")
        for key in keys:
            row = agg.setdefault(key, {"s": 0.0, "n": 0})
            row["s"] += sp.end - sp.start
            row["n"] += 1
            for k, v in sp.counts.items():
                if isinstance(v, (int, float)):
                    row[k] = row.get(k, 0) + v
    return agg


def _sum(agg, field, names):
    return sum(agg.get(name, {}).get(field, 0) for name in names)


def _layer_sum(agg, field, layer):
    return sum(row.get(field, 0) for name, row in agg.items()
               if name.startswith(layer + ".") and "[" not in name)


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(spans, runner: dict | None) -> dict:
    """Every per-layer metric except ``bench.trace_overhead_share``,
    which ``run.py`` adds from a second, untraced pass."""
    a = aggregate(spans)
    self_s = layer_self_times(spans)
    runner = runner or {}
    s = lambda *names: _sum(a, "s", names)  # noqa: E731
    n = lambda *names: _sum(a, "n", names)  # noqa: E731
    c = lambda field, *names: _sum(a, field, names)  # noqa: E731

    sim_steps = c("steps", RUN_MANY, RUN)
    verify_hk_s = s("bounds.verify_hk_partition")
    hk_parts = c("parts", "bounds.verify_hk_partition")
    m = {
        "pebbling.run_many_s": (s(RUN_MANY), "s"),
        "pebbling.lru_s": (s(f"{RUN_MANY}[lru]"), "s"),
        "pebbling.belady_s": (s(f"{RUN_MANY}[belady]"), "s"),
        "pebbling.configs": (c("configs", RUN_MANY), "count"),
        "pebbling.sim_steps": (sim_steps, "count"),
        "pebbling.ns_per_step": (_ratio(s(RUN_MANY, RUN), sim_steps, 1e9), "ns/step"),
        "pebbling.io_total": (c("io", RUN_MANY, RUN), "count"),
        "pebbling.simulate_io_s": (s(RUN), "s"),
        "pebbling.simulate_io_calls": (n(RUN), "count"),
        "pebbling.segments_s": (s(*SEGMENTS), "s"),
        "schedules.recursive_s": (s("schedules.recursive_schedule"), "s"),
        "schedules.rank_order_s": (s("schedules.rank_order_schedule"), "s"),
        "schedules.steps": (_layer_sum(a, "steps", "schedules"), "count"),
        "bounds.verify_hk_s": (verify_hk_s, "s"),
        "bounds.partition_s": (s("bounds.partition_by_io"), "s"),
        "bounds.hk_parts": (hk_parts, "count"),
        "bounds.ms_per_part": (_ratio(verify_hk_s, hk_parts, 1e3), "ms/part"),
        "bounds.expansion_s": (s("bounds.edge_expansion", "bounds.decoder_edge_expansion",
                                 "bounds.expansion_technique_applicable"), "s"),
        "routing.build_s": (s("routing.claim1_routing", "routing.lemma3_routing",
                              "routing.lemma4_routing", "routing.theorem2_routing",
                              "routing.theorem2_certificate"), "s"),
        "routing.verify_s": (s("routing.verify_routing", "routing.verify_path"), "s"),
        "routing.hall_s": (s("routing.hall_graph", "routing.base_matching",
                             "routing.check_hall_condition"), "s"),
        "routing.paths": (_layer_sum(a, "paths", "routing"), "count"),
        "cdag.metavertex_s": (s("cdag.compute_metavertices",
                                "cdag.compute_value_classes"), "s"),
        "tracesim.run_s": (s("tracesim.FullyAssociativeLRU.run"), "s"),
        "tracesim.accesses": (c("accesses", "tracesim.FullyAssociativeLRU.run"), "count"),
        "parallel.caps_s": (s("parallel.simulate_caps"), "s"),
        "parallel.partition_s": (s("parallel.partition_by_rank_balanced",
                                   "parallel.validate_rank_balanced",
                                   "parallel.communication_volume"), "s"),
        "autotune.tune_s": (s("autotune.AutoTuner.run"), "s"),
        "autotune.evaluations": (c("evaluations", "autotune.LocalEvaluator.evaluate"), "count"),
        "cdag.build_s": (s("cdag.build_cdag"), "s"),
        "cdag.build_calls": (n("cdag.build_cdag"), "count"),
        "cdag.vertices": (c("vertices", "cdag.build_cdag"), "count"),
        "runner.cold_s": (runner.get("cold_s", 0.0), "s"),
        "runner.warm_s": (runner.get("warm_s", 0.0), "s"),
        "runner.jobs": (runner.get("jobs", 0), "count"),
        "runner.jobs_failed": (runner.get("jobs_failed", 0), "count"),
        "runner.retries": (runner.get("retries", 0), "count"),
        "runner.store_hit_ratio": (runner.get("store_hit_ratio", 0.0), "share"),
        "runner.worker_busy_share": (runner.get("worker_busy_share", 0.0), "share"),
        "setup.import_s": (s("setup.import"), "s"),
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def record_fingerprints(path: Path = FINGERPRINTS) -> dict:
    """Fingerprint every experiment's report at its default parameters
    and seed, on the kernel path this process takes."""
    from repro.experiments import get_experiment
    from repro.simcore import active_mode

    reports = {}
    for experiment_id in sorted({i for ids in WORKLOADS.values() for i in ids},
                                key=lambda i: int(i[1:])):
        fn = get_experiment(experiment_id)
        seed = None
        if experiment_id in SEEDED:
            seed = inspect.signature(fn).parameters["seed"].default
        reports[experiment_id] = {
            "seed": seed,
            "sha256": report_digest(fn()),
        }
    doc = {"kernel_path": kernel_path(active_mode()), "reports": reports}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def kernel_path(mode: str) -> str:
    """``repro.simcore.active_mode()`` with ``off`` named for what it
    runs: the pure-Python fallback loops."""
    return "fallback" if mode == "off" else mode
