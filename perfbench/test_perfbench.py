"""Self-tests of the benchmark.  Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spans as spanlib
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent):
    return spanlib.Span(name, start, end, parent, "t")


def test_self_time_subtracts_children_once():
    spans = [
        _span("experiments.E0", 0.0, 10.0, None),
        _span("pebbling.a", 1.0, 4.0, 0),
        _span("cdag.b", 3.0, 6.0, 0),  # overlaps its sibling: counted once
        _span("bounds.c", 2.0, 3.0, 1),
        _span("cdag.d", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert spanlib.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    assert spanlib.layer_self_times(spans) == pytest.approx(
        {"experiments": 4.0, "pebbling": 2.0, "cdag": 6.0, "bounds": 1.0}
    )


def test_recorder_nests_spans_and_keeps_counts():
    rec = spanlib.Recorder("run-1")
    with rec.span("experiments.X"):
        with rec.span("cdag.build_cdag", vertices=3) as counts:
            counts["vertices"] += 1
        with rec.span("pebbling.run"):
            pass
    assert [sp.parent for sp in rec.spans] == [None, 0, 0]
    assert rec.spans[1].counts == {"vertices": 4}
    assert {sp.run_id for sp in rec.spans} == {"run-1"}
    own = spanlib.self_times(rec.spans)
    assert own[0] == pytest.approx(
        (rec.spans[0].end - rec.spans[0].start)
        - sum(sp.end - sp.start for sp in rec.spans[1:])
    )


def test_tampered_fingerprint_fails_the_gate():
    fingerprints = wl.load_fingerprints()
    gate = wl.Gate(fingerprints)
    wl.run_experiment("E7", 1, gate)
    assert gate.attempted > 0 and gate.failed_share == 0.0

    tampered = json.loads(json.dumps(fingerprints))
    tampered["reports"]["E7"]["sha256"] = "0" * 64
    gate = wl.Gate(tampered)
    wl.run_experiment("E7", 1, gate)
    assert gate.failed_share > 0.0
    assert gate.failures == ["E7: report differs from its recorded fingerprint"]


def test_fingerprint_only_at_the_recorded_seed():
    tampered = wl.load_fingerprints()
    tampered["reports"]["E8"]["sha256"] = "0" * 64
    recorded_seed = tampered["reports"]["E8"]["seed"]
    at_other = wl.Gate(tampered)
    wl.run_experiment("E8", recorded_seed + 1, at_other)
    at_recorded = wl.Gate(tampered)
    wl.run_experiment("E8", recorded_seed, at_recorded)
    assert at_other.failed == 0
    assert at_recorded.failed == 1


def test_warm_sweep_is_all_store_hits(tmp_path):
    gate = wl.Gate(wl.load_fingerprints())
    runner = wl.run_sweep_pass(("E1", "E7"), 1, gate, tmp_path)
    assert runner["store_hit_ratio"] == 1.0
    assert runner["jobs"] == 2 and runner["jobs_failed"] == 0
    assert gate.failed == 0
    assert not any(tmp_path.iterdir())  # the store is removed


def test_wrappers_change_no_result_and_restore_cleanly():
    from repro.experiments import get_experiment
    from repro.pebbling import CacheExecutor

    e9 = get_experiment("E9")
    module = sys.modules[e9.__module__]
    original = CacheExecutor.__dict__["run_many"], module.build_cdag
    plain = e9(r_max=3, r_big=None).render()

    rec = spanlib.Recorder("t")
    undo = spanlib.instrument(rec, [module])
    try:
        traced = e9(r_max=3, r_big=None).render()
    finally:
        spanlib.restore(undo)
    assert traced == plain
    assert (CacheExecutor.__dict__["run_many"], module.build_cdag) == original

    m = wl.layer_metrics(rec.spans, None)
    # r = 2, 3: recursive schedule x 4 sizes x 2 policies + rank order x 4
    assert m["pebbling.configs"]["value"] == 2 * (4 * 2 + 4)
    assert m["pebbling.lru_s"]["value"] > 0 and m["pebbling.belady_s"]["value"] > 0
    assert m["cdag.build_calls"]["value"] == 2
    assert m["bounds.verify_hk_s"]["value"] == 0


def test_benchmark_json_names_what_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "ok_share"}
    per_layer = {k: v["unit"] for k, v in wl.layer_metrics([], None).items()}
    per_layer["bench.trace_overhead_share"] = "share"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "sweep_rest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
