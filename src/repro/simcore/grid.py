"""Batched grid simulation: ``(config, slot)`` 2-D state stepped in
lockstep by one compiled kernel.

``_grid_lockstep`` is the only compiled simulation kernel: a single
``(cache_size, policy)`` run is its one-row case.  The batch is
columnar: every kind of per-vertex state is one ``(config, slot)``
matrix (row = configuration, slot axis = vertex / heap entry / scalar
index), and the kernel advances *all* rows through schedule step ``t``
before moving to ``t + 1``.  The schedule, operand CSR and next-use
arrays are read once per step and shared across every row, so a
thousand-configuration sweep costs one pass over the plan instead of a
thousand.

Configurations are independent, so the interleaving cannot change any
row's result — bit-identity with single-config runs is structural, and
the hypothesis suite (``tests/simcore/``) asserts it anyway.

Threads
-------
Under numba the kernel releases the GIL, so the Python wrapper splits
the config rows into chunks and steps the chunks on a thread pool (up
to 8 threads, bounded by ``os.cpu_count()``): a whole grid saturates
the machine's cores from one process, and chunks also bound peak state
memory to ``chunk_rows x n_vertices``.  Without numba the threads would
just contend for the GIL, so the ``interp`` mode runs the grid
single-threaded.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.simcore.dispatch import (
    active_mode,
    count_path,
    njit,
    note_first_call,
)
from repro.simcore.policies import (
    READS,
    SC_LEN,
    STATUS,
    STATUS_OK,
    WRITES,
    _belady_step,
    _drain_outputs,
    _recency_step,
)

__all__ = ["run_grid"]


@njit(cache=True, nogil=True)
def _grid_lockstep(sched, indptr, ops, occ_next, first_use, uses_left0,
                   is_input, is_output, n, cache_sizes, policy_codes,
                   cached, dirty, in_slow, output_written, uses_left,
                   stampkey, pinned, heaps, aside, sc, trace):
    """Step every configuration row through the schedule in lockstep.

    All state matrices are ``(n_configs, slots)``; row ``j`` is
    configuration ``(cache_sizes[j], policy_codes[j])``'s private state,
    initialised here so callers can pass ``np.empty`` storage.
    ``stampkey`` row ``j`` is the recency stamp for LRU/FIFO rows and
    the next-use key for Belady rows — the policies never mix within a
    row.  Rows whose ``STATUS`` goes non-OK stop stepping; the rest of
    the grid continues.  ``trace`` is ``(n_configs, n_steps)`` to record
    each row's cumulative I/O after every successful step, or
    ``(n_configs, 0)`` to record nothing.
    """
    T = sched.shape[0]
    C = cache_sizes.shape[0]
    want_trace = trace.shape[1] != 0
    for j in range(C):
        for k in range(SC_LEN):
            sc[j, k] = 0
        for i in range(n):
            cached[j, i] = 0
            dirty[j, i] = 0
            in_slow[j, i] = is_input[i]
            output_written[j, i] = 0
            uses_left[j, i] = uses_left0[i]
            stampkey[j, i] = 0
            pinned[j, i] = -1
    for t in range(T):
        v = sched[t]
        start = indptr[t]
        end = indptr[t + 1]
        for j in range(C):
            if sc[j, STATUS] != STATUS_OK:
                continue
            if policy_codes[j] == 2:
                _belady_step(v, t, start, end, ops, occ_next, first_use,
                             n, T, cache_sizes[j], is_input, is_output,
                             cached[j], dirty[j], in_slow[j],
                             output_written[j], uses_left[j], stampkey[j],
                             pinned[j], heaps[j], sc[j])
            else:
                _recency_step(v, t, start, end, ops, n, cache_sizes[j],
                              policy_codes[j] == 0, is_input, is_output,
                              cached[j], dirty[j], in_slow[j],
                              output_written[j], uses_left[j], stampkey[j],
                              pinned[j], heaps[j], aside[j], sc[j])
            if want_trace and sc[j, STATUS] == STATUS_OK:
                trace[j, t] = sc[j, READS] + sc[j, WRITES]
    for j in range(C):
        if sc[j, STATUS] == STATUS_OK:
            _drain_outputs(n, is_output, dirty[j], output_written[j], sc[j])


#: Grids smaller than this never split across threads — the pool and
#: per-chunk state setup would dominate.
_MIN_CHUNK = 4


def run_grid(plan_arrays, is_input_u8, is_output_u8, cache_sizes,
             policy_codes, trace=None) -> np.ndarray:
    """Batched lockstep sweep over one plan: returns an
    ``(n_configs, SC_LEN)`` matrix, one scalar vector per
    ``(cache_size, policy)`` cell (first eight slots are the count
    tuple, then status/diagnostics).

    ``plan_arrays`` is the tuple from
    :meth:`SchedulePlan.kernel_arrays` — contiguous int64 arrays in
    ``PLAN_ARRAY_NAMES`` order, possibly read-only memmaps straight from
    a plan bundle (the kernel never writes them).  ``trace``, when
    given, is an ``(n_configs, n_steps)`` int64 matrix: row ``j``, step
    ``t`` receives config ``j``'s cumulative I/O after that step.

    Under numba the grid's config rows are chunked across a thread pool
    (the kernel is ``nogil``); see the module docstring.
    """
    sched, indptr, ops, occ_next, first_use, uses_left0 = plan_arrays
    Ms = np.ascontiguousarray(cache_sizes, dtype=np.int64)
    pols = np.ascontiguousarray(policy_codes, dtype=np.int64)
    C = Ms.shape[0]
    n = int(is_input_u8.shape[0])
    heap_cap = ops.shape[0] + sched.shape[0] + 2
    out = np.zeros((C, SC_LEN), dtype=np.int64)

    def _run_rows(lo: int, hi: int) -> None:
        c = hi - lo
        cached = np.empty((c, n), dtype=np.uint8)
        dirty = np.empty((c, n), dtype=np.uint8)
        in_slow = np.empty((c, n), dtype=np.uint8)
        output_written = np.empty((c, n), dtype=np.uint8)
        uses_left = np.empty((c, n), dtype=np.int64)
        stampkey = np.empty((c, n), dtype=np.int64)
        pinned = np.empty((c, n), dtype=np.int64)
        heaps = np.empty((c, heap_cap), dtype=np.int64)
        aside = np.empty((c, n), dtype=np.int64)
        rows = (trace[lo:hi] if trace is not None
                else np.empty((c, 0), dtype=np.int64))
        _grid_lockstep(sched, indptr, ops, occ_next, first_use, uses_left0,
                       is_input_u8, is_output_u8, n, Ms[lo:hi], pols[lo:hi],
                       cached, dirty, in_slow, output_written, uses_left,
                       stampkey, pinned, heaps, aside, out[lo:hi], rows)

    mode = active_mode()
    threads = min(os.cpu_count() or 1, 8) if mode == "jit" else 1
    n_chunks = min(threads, max(1, C // _MIN_CHUNK))
    t0 = time.perf_counter()
    if n_chunks <= 1:
        _run_rows(0, C)
    else:
        bounds = [round(i * C / n_chunks) for i in range(n_chunks + 1)]
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            list(pool.map(lambda b: _run_rows(*b),
                          zip(bounds[:-1], bounds[1:])))
    note_first_call(time.perf_counter() - t0)
    count_path(mode, C)
    return out
