"""Belady heap compaction in the pure-Python fallback loop.

``_py_simulate_belady`` rebuilds its lazy max-heap from the live entries
(one current-key entry per cached vertex) whenever the heap outgrows
``max(HEAP_COMPACT_FACTOR * live, HEAP_COMPACT_FLOOR)``.  The rebuild
must leave every victim choice unchanged, and it must keep the heap
O(M + floor) instead of O(schedule length).
"""

import pytest

from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.pebbling import CacheExecutor, min_cache_size, trace_from_executor
from repro.schedules import recursive_schedule
from repro.simcore import dispatch, pyloops

from ._reference import reference_run
from .test_golden_equivalence import CASES


@pytest.fixture()
def compact_every_step(monkeypatch):
    """Floor 0 and factor 1: the limit is the live size itself, so the
    heap is compacted at the end of every step that leaves it larger
    than the previous compaction did."""
    monkeypatch.setattr(pyloops, "HEAP_COMPACT_FLOOR", 0)
    monkeypatch.setattr(pyloops, "HEAP_COMPACT_FACTOR", 1)


@pytest.mark.parametrize("label,g,sched", CASES, ids=[c[0] for c in CASES])
def test_compacted_belady_matches_reference(label, g, sched, compact_every_step):
    ex = CacheExecutor(g)
    m0 = min_cache_size(g)
    with dispatch.forced_mode("off"):
        for cache_size in (m0, m0 + 1, m0 + 3, 2 * m0, g.n_vertices + 1):
            trace_new: list[int] = []
            trace_ref: list[int] = []
            res_new, ev_new = ex._run(
                sched, cache_size, "belady", True, None, trace_new
            )
            res_ref, ev_ref = reference_run(
                g, sched, cache_size, "belady", io_trace=trace_ref
            )
            assert res_new == res_ref, (label, cache_size)
            assert ev_new == ev_ref, (label, cache_size)
            assert trace_new == trace_ref, (label, cache_size)
            # The same loop, replayed under the strict pebble game.
            game = trace_from_executor(g, sched, cache_size, "belady")
            assert game.io_count == res_ref.total, (label, cache_size)
            assert game.is_complete()


@pytest.mark.parametrize("cache_size", (12, 96))
def test_heap_stays_bounded_by_cache_not_schedule(cache_size, monkeypatch):
    g = build_cdag(strassen(), 4)
    sched = recursive_schedule(g)
    peak = 0
    real_push = pyloops.heappush

    def recording_push(heap, item):
        nonlocal peak
        real_push(heap, item)
        peak = max(peak, len(heap))

    monkeypatch.setattr(pyloops, "heappush", recording_push)
    with dispatch.forced_mode("off"):
        CacheExecutor(g).run(sched, cache_size, "belady")
    # After a compaction the heap holds at most one entry per cached
    # vertex; it is compacted again once past the limit, at the end of
    # a step that pushes at most one entry per operand plus the result.
    limit = max(pyloops.HEAP_COMPACT_FACTOR * cache_size,
                pyloops.HEAP_COMPACT_FLOOR)
    assert peak <= limit + min_cache_size(g), (peak, len(sched))
