"""Micro-benchmarks of the library's hot paths.

Not tied to a paper figure; these keep the substrate's performance
honest (CDAG construction, pebble-game execution, routing construction,
the kernels) so the experiments stay fast as the code evolves.

Run it standalone::

    python benchmarks/bench_micro.py [--repeats K] [--select SUBSTR]
                                     [--json-out PATH]

It emits one machine-readable JSON document (median-of-k wall times per
case, derived speedups of the paired cases, and the telemetry counters
collected while running) via :mod:`repro.telemetry.export`, for
dashboards and CI artifacts.
"""

import argparse
import atexit
import json
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.bilinear import strassen
from repro.cdag import artifact, build_cdag, compute_metavertices
from repro.linalg import strassen_matmul
from repro.pebbling import CacheExecutor
from repro.routing import lemma3_routing, theorem2_routing
from repro.schedules import rank_order_schedule, recursive_schedule
from repro.tracesim import FullyAssociativeLRU, trace_blocked


def _reference_run():
    """The pre-vectorisation executor kept under ``tests/`` as the
    golden reference; benchmarked against the array core so the JSON
    artifact records the measured speedup."""
    import pathlib

    repo_root = str(pathlib.Path(__file__).resolve().parent.parent)
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    from tests.pebbling._reference import reference_run

    return reference_run


def make_cases() -> dict:
    """The benchmark cases, with setup hoisted out of the timed bodies;
    name -> zero-arg callable."""
    g2 = build_cdag(strassen(), 2)
    g3 = build_cdag(strassen(), 3)
    g4 = build_cdag(strassen(), 4)
    g5 = build_cdag(strassen(), 5)
    ex4 = CacheExecutor(g4)
    sched4 = ex4.validate_schedule(recursive_schedule(g4))
    ex3 = CacheExecutor(g3)
    sched3 = ex3.validate_schedule(recursive_schedule(g3))
    ex5 = CacheExecutor(g5)
    sched5 = ex5.validate_schedule(recursive_schedule(g5))
    rank5 = rank_order_schedule(g5)
    reference_run = _reference_run()
    e9_grid = [(sched5, "belady"), (sched5, "lru"), (rank5, "lru")]
    e9_Ms = (12, 24, 48, 96)

    def e9_n32_core():
        ex = CacheExecutor(g5)
        ex.run_many(sched5, e9_Ms, ("belady", "lru"))
        ex.run_many(rank5, e9_Ms, ("lru",))

    def e9_n32_reference():
        for M in e9_Ms:
            for sched, pol in e9_grid:
                reference_run(g5, sched, M, pol)

    # Paired kernel cases: the same E9 n=32 grid with the compiled
    # kernels pinned off vs compiled.  run_benchmarks derives their
    # ratio into "kernel_speedup".  The njit case only exists when
    # numba is importable — without it the kernel algorithm would run
    # under the plain interpreter (the equivalence-test mode, ~an order
    # of magnitude *slower* than the fallback loops), and a pair that
    # labels that "njit" would be noise, so the pair (and the derived
    # ratio) is emitted on compiled installs only.
    from repro.simcore import dispatch
    from repro.simcore.grid import run_grid

    def kernel_e09_python():
        with dispatch.forced_mode("off"):
            e9_n32_core()

    def kernel_e09_njit():
        with dispatch.forced_mode("jit"):
            e9_n32_core()

    # Paired lockstep cases: one E9-shaped configuration grid (cache
    # sizes x policies over the n=32 recursive schedule) run as a single
    # lockstep run_grid call vs one one-row run_grid call per cell.
    # Both legs are jit; the ratio ("grid_lockstep_speedup") isolates
    # what the (config, slot) batching + chunk threading buy over a
    # per-configuration loop.
    from repro.simcore import SchedulePlan

    plan5 = SchedulePlan(g5, sched5, validated=False)
    arrays5 = plan5.kernel_arrays()
    is_input5 = g5.in_degree() == 0
    is_output5 = np.zeros(g5.n_vertices, dtype=bool)
    is_output5[g5.outputs()] = True
    iu8_5 = np.ascontiguousarray(is_input5).view(np.uint8)
    ou8_5 = np.ascontiguousarray(is_output5).view(np.uint8)
    lock_Ms = np.array(
        [M for M in (8, 12, 16, 24, 32, 48, 64, 96) for _ in range(3)],
        dtype=np.int64,
    )
    lock_codes = np.array([0, 1, 2] * 8, dtype=np.int64)

    def grid_lockstep_batched():
        with dispatch.forced_mode("jit"):
            run_grid(arrays5, iu8_5, ou8_5, lock_Ms, lock_codes)

    def grid_lockstep_per_config():
        with dispatch.forced_mode("jit"):
            for M, code in zip(lock_Ms, lock_codes):
                run_grid(arrays5, iu8_5, ou8_5, [int(M)], [int(code)])
    # Paired graph-cache cases: the warm path loads every graph,
    # schedule and executor plan for the E9 depth ladder from a
    # pre-warmed bundle store through a *fresh* GraphCache instance per
    # call (a new instance has empty process-local maps — exactly what a
    # just-spawned sweep worker sees), while the cold path compiles
    # everything in-process with no cache active.  run_benchmarks
    # derives their ratio into "graphcache_warm_speedup".
    from repro.runner.graphcache import GraphCache

    gc_root = tempfile.mkdtemp(prefix="repro-bench-graphcache-")
    atexit.register(shutil.rmtree, gc_root, ignore_errors=True)
    GraphCache(gc_root).warm(strassen(), (2, 3, 4, 5))
    gc_rs = (2, 3, 4, 5)

    def _compile_ladder():
        for r in gc_rs:
            g = build_cdag(strassen(), r)
            ex = CacheExecutor(g)
            ex.compile(recursive_schedule(g))
            ex.compile(rank_order_schedule(g))

    def graphcache_cold():
        prev = artifact.set_active_cache(None)
        try:
            _compile_ladder()
        finally:
            artifact.set_active_cache(prev)

    def graphcache_warm():
        prev = artifact.set_active_cache(GraphCache(gc_root))
        try:
            _compile_ladder()
        finally:
            artifact.set_active_cache(prev)

    rng = np.random.default_rng(0)
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    return {
        "build_cdag_r4": lambda: build_cdag(strassen(), 4),
        "metavertices_r4": lambda: compute_metavertices(g4),
        "recursive_schedule_r4": lambda: recursive_schedule(g4),
        "executor_lru_r4": lambda: ex4.run(sched4, 64, "lru", False),
        "executor_belady_r3": lambda: ex3.run(sched3, 64, "belady", False),
        # Paired sweep cases: the batched API on one executor vs the
        # pre-run_many idiom (a fresh executor per configuration, so
        # validation and use-list precompute repeat).  run_benchmarks
        # derives their ratio into "executor_sweep_speedup".
        "executor_sweep_run_many": (
            lambda: ex4.run_many(sched4, (12, 48, 96), ("lru", "belady"))
        ),
        "executor_sweep_repeated_run": lambda: [
            CacheExecutor(g4).run(sched4, M, pol)
            for M in (12, 48, 96)
            for pol in ("lru", "belady")
        ],
        # The full E9 n=32 measurement grid (12 configurations) on the
        # array core + run_many vs the pre-vectorisation reference
        # simulator; their ratio lands in "executor_e9_n32_speedup".
        "executor_e9_n32_grid_core": e9_n32_core,
        "executor_e9_n32_grid_reference": e9_n32_reference,
        **(
            {
                "kernel_e09_python": kernel_e09_python,
                "kernel_e09_njit": kernel_e09_njit,
                "grid_lockstep_batched": grid_lockstep_batched,
                "grid_lockstep_per_config": grid_lockstep_per_config,
            }
            if dispatch.HAVE_NUMBA
            else {}
        ),
        "graphcache_e9_cold_compile": graphcache_cold,
        "graphcache_e9_warm_compile": graphcache_warm,
        "lemma3_routing_k3": lambda: lemma3_routing(g3),
        "theorem2_routing_k2": lambda: theorem2_routing(g2),
        "strassen_matmul_64": lambda: strassen_matmul(A, B, None, 8),
        "trace_sim_blocked_32": (
            lambda: FullyAssociativeLRU(192).run(trace_blocked(32, 8))
        ),
    }


def run_benchmarks(repeats: int = 3, select: str | None = None) -> dict:
    """Run the micro-benchmarks and return the machine-readable doc."""
    from repro import telemetry
    from repro.telemetry.export import telemetry_to_json

    was_enabled = telemetry.enabled()
    telemetry.enable()
    telemetry.reset()
    results: dict[str, dict] = {}
    try:
        for name, fn in make_cases().items():
            if select and select not in name:
                continue
            times = []
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            results[name] = {
                "median_s": statistics.median(times),
                "min_s": min(times),
                "repeats": len(times),
            }
    finally:
        if not was_enabled:
            telemetry.disable()
    doc = telemetry_to_json(
        registry=telemetry.metrics(),
        metadata={"tool": "bench_micro", "repeats": repeats},
    )
    doc["benchmarks"] = results
    derived = {}
    for label, fast, slow in (
        ("executor_sweep_speedup",
         "executor_sweep_run_many", "executor_sweep_repeated_run"),
        ("executor_e9_n32_speedup",
         "executor_e9_n32_grid_core", "executor_e9_n32_grid_reference"),
        ("kernel_speedup", "kernel_e09_njit", "kernel_e09_python"),
        ("grid_lockstep_speedup",
         "grid_lockstep_batched", "grid_lockstep_per_config"),
        ("graphcache_warm_speedup",
         "graphcache_e9_warm_compile", "graphcache_e9_cold_compile"),
    ):
        a, b = results.get(fast), results.get(slow)
        if a and b and a["median_s"] > 0:
            derived[label] = round(b["median_s"] / a["median_s"], 2)
    if derived:
        doc["derived"] = derived
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Micro-benchmarks with machine-readable JSON output."
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="timed runs per case; the median is reported (default 3)",
    )
    parser.add_argument(
        "--select", default=None, metavar="SUBSTR",
        help="run only cases whose name contains SUBSTR",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the JSON document here (default: stdout)",
    )
    args = parser.parse_args(argv)
    doc = run_benchmarks(repeats=args.repeats, select=args.select)
    if not doc["benchmarks"]:
        print(f"no case matches --select {args.select!r}", file=sys.stderr)
        return 2
    if args.json_out:
        from repro.telemetry.export import write_json

        write_json(args.json_out, doc)
        print(f"wrote {args.json_out} ({len(doc['benchmarks'])} cases)")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
