"""One pass of one workload in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Modes:

- ``setup``: only the set-up, ``import repro`` plus the experiment
  registry, timed from the parent's ``--t0``.
- ``record``: rewrite ``fingerprints.json`` from this checkout.
- ``run``: the workload as a user runs it, untraced.  Reports its wall
  time, its set-up time (from the parent's ``--t0`` on the shared
  monotonic clock to the first workload call) and its peak RSS.
- ``trace``: for ``sweep_rest`` the cold and warm sweep under
  ``runner.*`` spans first, then the workload's experiments in this
  process with every layer wrapped (for ``sweep_rest`` this is what
  attributes the sweep's compute to layers).  Writes the spans to
  ``--spans-out``.
- ``base``: the same as ``trace`` without the wrappers; the two
  in-process times (``compute_s``) give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import spans as spanlib
import workloads as wl


def _provenance() -> dict:
    import numpy
    import scipy

    from repro.simcore import HAVE_NUMBA, active_mode

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "kernel_path": wl.kernel_path(active_mode()),
        "have_numba": HAVE_NUMBA,
        "numba": numba_version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _peak_rss_mb() -> float:
    # The sweep pool shuts down without waiting; reap its workers so
    # their peaks are counted in RUSAGE_CHILDREN.
    for proc in multiprocessing.active_children():
        proc.join()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=("setup", "record", "run", "base", "trace"))
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="the parent's time.monotonic() just before the spawn")
    parser.add_argument("--scratch", default=".")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    recorder = spanlib.Recorder(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    with recorder.span("setup.import"):
        import repro  # noqa: F401
        from repro.experiments import get_experiment, list_experiments

        list_experiments()
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "provenance": _provenance()}))
        return 0
    if args.mode == "record":
        print(json.dumps(wl.record_fingerprints()))
        return 0

    ids = wl.WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    gate = wl.Gate(wl.load_fingerprints())
    out = {"setup_s": setup_s}
    runner = None
    compute_s = None
    traced = recorder if args.mode == "trace" else None
    t0 = time.perf_counter()
    try:
        if args.mode == "run":
            if args.workload == "sweep_rest":
                runner = wl.run_sweep_pass(ids, args.seed, gate, scratch)
            else:
                wl.run_in_process(ids, args.seed, gate)
        else:
            if args.workload == "sweep_rest":
                runner = wl.run_sweep_pass(ids, args.seed, gate, scratch, traced)
            undo = []
            if traced is not None:
                modules = [sys.modules[get_experiment(i).__module__]
                           for i in list_experiments()]
                undo = spanlib.instrument(traced, modules)
            t1 = time.perf_counter()
            try:
                wl.run_in_process(ids, args.seed, gate, traced)
            finally:
                spanlib.restore(undo)
            compute_s = time.perf_counter() - t1
    except Exception:  # reported as a failed operation, not a crash
        traceback.print_exc()
        gate.error(f"{args.workload}: {sys.exc_info()[1]!r}")
    wall_s = time.perf_counter() - t0

    out.update(
        wall_s=wall_s,
        compute_s=compute_s,
        peak_rss_mb=_peak_rss_mb(),
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        provenance=_provenance(),
    )
    if traced is not None:
        out["per_layer"] = wl.layer_metrics(traced.spans, runner)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(traced.as_dicts()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
