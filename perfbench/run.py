"""The repository's benchmark: E9 and E14 at defaults plus a sweep of
the other experiments, on the kernel path the default install takes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload e9_io_sweep --seed 1 --seconds 30 --trace 0

Workloads are listed in ``workloads.py``.  With ``--trace 0`` every
measured pass runs in a fresh interpreter (so no in-process cache
carries over between passes); passes repeat while the next one would
end within half a pass of ``--seconds`` (there is always at least one),
and the last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics: ``wall_s`` (median pass), ``setup_s``
(median of several set-ups), ``peak_rss_mb`` (largest pass, sweep
workers included) and ``ok_share`` (1 - failed / attempted).  With
``--trace 1`` one untraced and one traced pass give the per-layer
metrics instead; the spans land in ``.perfbench-out/``.

The line before the result holds the provenance: kernel path, numba /
numpy / scipy / Python versions, CPU count, git SHA and source digest,
and the simulation knobs.  The knobs (``REPRO_*`` below) are unset in
every pass unless given with ``--knob NAME=VALUE``.  Every report is
checked against its paper checks and, at the seed it was recorded
with, against the fingerprint in ``fingerprints.json``; the run is
refused when a pass takes another kernel path than the one the
fingerprints were recorded on.  ``--record-fingerprints`` rewrites
that file from the current checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

KNOBS = ("REPRO_GRAPH_CACHE", "REPRO_RUN_MANY_WORKERS", "REPRO_GRID_THREADS",
         "REPRO_FORCE_KERNELS", "REPRO_NO_JIT")
#: also unset: process-wide telemetry would add its own spans to every pass.
UNSET = KNOBS + ("REPRO_TELEMETRY",)
SETUP_PROBES = 6
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child_env(root: Path, knobs: dict, scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(knobs)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(scratch)
    return env


def _spawn(env: dict, mode: str, *extra: str) -> dict:
    """One fresh interpreter running ``child.py``; returns its JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, *extra,
           "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from None
    finally:
        try:  # the pass's own pool workers, should any outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _one_path(results: list[dict], knobs: dict) -> dict:
    """The provenance every pass shares.  Refuses passes on mixed kernel
    paths, and, unless knobs were passed, a path other than the one the
    fingerprints were recorded on."""
    paths = {r["provenance"]["kernel_path"] for r in results}
    recorded = wl.load_fingerprints()["kernel_path"]
    if len(paths) != 1 or (not knobs and paths != {recorded}):
        raise BenchError(
            f"passes took kernel path(s) {sorted(paths)}; the benchmark is "
            f"recorded on {recorded!r} and never mixes paths"
        )
    return results[-1]["provenance"]


def _measure(env, args, scratch) -> tuple[dict, list[dict], dict]:
    common = ("--workload", args.workload, "--seed", str(args.seed),
              "--scratch", str(scratch))
    _spawn(env, "setup")  # fills the bytecode cache; not a sample
    probes = [_spawn(env, "setup") for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(_spawn(env, "run", *common))
        last = time.monotonic() - t
        # Another pass only if it would end within half a pass of the
        # window, so a pass that nearly fills the window gets a second.
        if time.monotonic() - start + last / 2 > args.seconds:
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes + passes), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_share": (1.0 - failed / attempted if attempted else 0.0, "share"),
    }
    summary = {"passes": len(passes), "wall_s": [p["wall_s"] for p in passes],
               "setup_s": [p["setup_s"] for p in probes + passes]}
    return metrics, probes + passes, summary


def _trace(env, args, scratch, out_dir) -> tuple[dict, list[dict], dict]:
    common = ("--workload", args.workload, "--seed", str(args.seed),
              "--scratch", str(scratch))
    spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    base = _spawn(env, "base", *common)
    traced = _spawn(env, "trace", *common, "--spans-out", str(spans_out))
    per_layer = {k: (v["value"], v["unit"]) for k, v in traced["per_layer"].items()}
    per_layer["bench.trace_overhead_share"] = (
        (traced["compute_s"] - base["compute_s"]) / base["compute_s"], "share")
    summary = {"spans": str(spans_out.relative_to(out_dir.parent)),
               "base_compute_s": base["compute_s"],
               "traced_compute_s": traced["compute_s"]}
    return per_layer, [base, traced], summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--knob", action="append", default=[], metavar="NAME=VALUE",
                        help=f"set one of {', '.join(KNOBS)} in every pass")
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    knobs = {}
    for item in args.knob:
        name, sep, value = item.partition("=")
        if name not in KNOBS or not sep:
            parser.error(f"--knob takes NAME=VALUE with NAME in {KNOBS}")
        knobs[name] = value
    out_dir = root / ".perfbench-out"
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = _child_env(root, knobs, scratch)

    try:
        if args.record_fingerprints:
            print(json.dumps(_spawn(env, "record")))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            metrics, results, summary = _trace(env, args, scratch, out_dir)
        else:
            metrics, results, summary = _measure(env, args, scratch)
        provenance = dict(
            _one_path(results, knobs),
            nproc=os.cpu_count(),
            git_sha=_git_sha(root),
            source_sha256=_source_digest(root),
            knobs={k: knobs.get(k) for k in KNOBS},
            pythonhashseed="0",
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    failures = [f for r in results for f in r.get("failures", [])]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance, "summary": summary,
              "failures": failures, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"provenance": provenance, "summary": summary,
                      "failures": failures}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
