"""One-pass LRU simulation for every cache size (stack distances).

The executor's LRU is a *stack algorithm* (Mattson, Gecsei, Slutz and
Traiger, "Evaluation techniques for storage hierarchies", IBM Systems
Journal 9(2), 1970): after every schedule step the cache of size ``M``
holds exactly the top ``M`` vertices of one recency order, whatever
``M`` is.  That order is the executor's victim order: vertices ranked by
``(last-touch step, vertex id)``, most recent first, where a step
touches its operands and its result (all pinned while it runs).  So one
pass over the schedule yields the I/O counts of every cache size:

- *touch tokens* are the ``(step, vertex)`` pairs of the schedule,
  de-duplicated and ordered by step, then vertex id; each token links
  to the previous touch of its vertex;
- the *position* of an operand use is the number of distinct vertices
  touched between the operand's previous touch ``a`` and the first
  token ``j0`` of the current step, ``#{i < j0 : prev[i] < a} - (a +
  1)``.  All positions come from one offline dominance count, a
  wavelet-matrix rank over the ``prev`` links (a use whose window holds
  fewer tokens than the smallest requested size skips the count: it
  hits at every size);
- a use misses at size ``M`` iff its position is ``>= M`` (an input's
  first load always misses), and a computed vertex that is neither an
  input nor an output pays one spill write iff its largest position is
  ``>= M`` (it was evicted while still live);
- every computed output is written once, the cache fills to ``peak =
  min(M, distinct vertices touched)``, and each load or compute beyond
  that evicts one value: ``evictions = reads + n_steps - peak``.

The counts are bit-identical to :func:`repro.simcore.pyloops.simulate_py`
with ``policy_code=0``; ``tests/simcore/test_stack_pass.py`` checks every
field against it.  Arrays stay int32 and are freed as the pass goes, so
the pass needs less memory than one per-size loop over Python lists.
"""

from __future__ import annotations

import numpy as np

from repro.simcore.dispatch import count_path
from repro.simcore.pyloops import simulate_py

__all__ = ["lru_counts"]


def lru_counts(plan, is_input, is_output, cache_sizes):
    """The raw count tuples ``(reads, writes, input_reads, spill_reads,
    spill_writes, output_writes, peak, evictions)`` of LRU over ``plan``
    at every cache size in ``cache_sizes`` (in that order), from one
    stack-distance pass.

    Raises what the loops raise: their
    :class:`~repro.errors.ScheduleError` (naming the first missing
    operand in execution order) on an unvalidated non-topological
    schedule, and their :class:`~repro.errors.CacheError` when a cache
    size is below the widest step.  An unvalidated schedule that
    computes a vertex twice, or computes an input, is outside the stack
    model: it runs through :func:`simulate_py` once per size instead.
    """
    cache_sizes = [int(M) for M in cache_sizes]
    if not cache_sizes:
        return []
    is_input = np.asarray(is_input, dtype=bool)
    n = len(is_input)
    sched = np.asarray(plan.schedule)
    T = len(sched)
    if not plan.validated and (
        is_input[sched].any() or (np.bincount(sched, minlength=n) > 1).any()
    ):
        return [simulate_py(plan, is_input, is_output, M, 0)
                for M in cache_sizes]
    count_path("stack", len(cache_sizes))

    tstep, tvert = _touch_tokens(plan, n)
    N = len(tvert)
    width = np.bincount(tstep, minlength=T)
    _raise_first_error(plan, is_input, is_output, cache_sizes, width)
    j0 = np.zeros(T + 1, dtype=np.int32)
    np.cumsum(width, out=j0[1:])
    del width

    # prev[i]: token index of the previous touch of tvert[i] (-1: first).
    order = np.argsort(tvert, kind="stable").astype(np.int32)
    grouped = tvert[order]
    same = grouped[1:] == grouped[:-1]
    del grouped
    prev = np.full(N, -1, dtype=np.int32)
    prev[order[1:][same]] = order[:-1][same]
    del order, same

    distinct = int(np.count_nonzero(prev < 0))
    # Operand uses: every token but the step's result.  A use whose
    # vertex was touched before has a position; the rest are first
    # loads of inputs (a non-input one would be a missing operand).
    use = tvert != sched[tstep]
    first_loads = int(np.count_nonzero(use & (prev < 0)))
    use &= prev >= 0
    q = np.flatnonzero(use).astype(np.int32)
    del use
    a = prev[q]
    ends = j0[tstep[q]]
    del j0, tstep
    # The position is at most the window length: a use with fewer than
    # min(cache_sizes) tokens in its window hits at every requested size,
    # and the length stands in for its position.
    pos = ends - a - 1
    far = np.flatnonzero(pos >= min(cache_sizes))
    pos[far] = _count_below(prev, ends[far], a[far]) - (a[far] + 1)
    del a, ends, far, prev
    qvert = tvert[q]
    del q, tvert

    q_input = is_input[qvert]
    input_pos = np.sort(pos[q_input])
    spill_pos = np.sort(pos[~q_input])
    # Largest position per vertex; only computed vertices that are
    # neither inputs nor outputs can be spilled.
    largest = np.full(n, -1, dtype=np.int32)
    np.maximum.at(largest, qvert[~q_input], pos[~q_input])
    del q_input, qvert, pos
    spillable = ~is_input
    spillable &= ~np.asarray(is_output, dtype=bool)
    spill_max = np.sort(largest[spillable])
    del largest, spillable
    output_writes = int(np.count_nonzero(np.asarray(is_output)[sched]))

    out = []
    for M in cache_sizes:
        input_reads = first_loads + _at_least(input_pos, M)
        spill_reads = _at_least(spill_pos, M)
        spill_writes = _at_least(spill_max, M)
        reads = input_reads + spill_reads
        peak = min(M, distinct)
        out.append((reads, spill_writes + output_writes, input_reads,
                    spill_reads, spill_writes, output_writes, peak,
                    reads + T - peak))
    return out


def _at_least(sorted_values: np.ndarray, M: int) -> int:
    """How many entries of an ascending array are ``>= M``."""
    return len(sorted_values) - int(np.searchsorted(sorted_values, M))


def _touch_tokens(plan, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The schedule's touches as int32 ``(step, vertex)`` arrays, ordered
    by step then vertex id, each pair once (an operand listed twice in
    one step is one touch)."""
    indptr = np.asarray(plan.step_indptr)
    T = plan.n_steps
    steps = np.arange(T, dtype=np.int64)
    keys = np.repeat(steps * n, np.diff(indptr))
    keys += plan.step_ops
    keys = np.concatenate([keys, steps * n + np.asarray(plan.schedule)])
    del steps
    keys.sort()
    if len(keys) > 1:
        keep = np.empty(len(keys), dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        del keep
    tstep = (keys // n).astype(np.int32)
    tvert = (keys - tstep.astype(np.int64) * n).astype(np.int32)
    return tstep, tvert


def _raise_first_error(plan, is_input, is_output, cache_sizes,
                       width) -> None:
    """Let the loop raise its own error at the first cache size (in
    order) that fails: any size, when an operand is neither an input
    nor computed at an earlier step (unvalidated plans only), else a
    size below the widest step."""
    bad = False
    if not plan.validated:
        ops = np.asarray(plan.step_ops)
        computed_at = np.full(len(is_input), plan.n_steps, dtype=np.int64)
        computed_at[np.asarray(plan.schedule)] = np.arange(plan.n_steps)
        occ_time = np.repeat(np.arange(plan.n_steps),
                             np.diff(np.asarray(plan.step_indptr)))
        bad = bool((~is_input[ops] & (computed_at[ops] >= occ_time)).any())
    widest = int(width.max(initial=0))
    for M in cache_sizes:
        if bad or widest > M:
            simulate_py(plan, is_input, is_output, M, 0)


def _count_below(values: np.ndarray, ends: np.ndarray,
                 bounds: np.ndarray) -> np.ndarray:
    """For every query ``k``: ``#{i < ends[k] : values[i] < bounds[k]}``
    (``values >= -1``).

    An offline dominance count over a wavelet matrix: the values
    (shifted to be non-negative) are split level by level on their bits,
    most significant first, and every query's prefix is narrowed in
    lockstep, adding the prefix's zero-bit count whenever its bound has a
    one at that level.  Each level costs O(len(values) + len(queries))
    and holds int32 arrays only.
    """
    n = len(values)
    x = values + np.int32(1)
    bounds = bounds + np.int32(1)
    lo = np.zeros(len(ends), dtype=np.int32)
    hi = np.array(ends, dtype=np.int32)
    count = np.zeros(len(ends), dtype=np.int32)
    ones_before = np.zeros(n + 1, dtype=np.int32)
    ones = np.empty(n, dtype=bool)
    scratch = np.empty_like(x)
    for level in range(int(n + 1).bit_length() - 1, -1, -1):
        bit = np.int32(1 << level)
        np.bitwise_and(x, bit, out=scratch)
        np.not_equal(scratch, 0, out=ones)
        np.cumsum(ones, out=ones_before[1:])
        n_zero = np.int32(n) - ones_before[-1]
        lo1 = ones_before[lo]
        hi1 = ones_before[hi]
        up = (bounds & bit) != 0
        count += np.where(up, (hi - hi1) - (lo - lo1), 0)
        lo = np.where(up, lo1 + n_zero, lo - lo1)
        hi = np.where(up, hi1 + n_zero, hi - hi1)
        if level:
            # Stable partition, zero bits first: the next level's order.
            np.compress(~ones, x, out=scratch[:n_zero])
            np.compress(ones, x, out=scratch[n_zero:])
            x, scratch = scratch, x
    return count
