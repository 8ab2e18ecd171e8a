"""The one-pass LRU stack simulation against the per-size LRU loop.

:func:`repro.simcore.stack.lru_counts` must return, for every cache
size, the exact raw count tuple of :func:`repro.simcore.pyloops.
simulate_py` with ``policy_code=0`` — all eight fields, ``peak`` and
``evictions`` included — and raise the same errors on bad schedules.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.bilinear import classical, strassen, winograd
from repro.cdag import build_cdag
from repro.errors import CacheError, ScheduleError
from repro.pebbling import min_cache_size
from repro.schedules import (
    random_topological_schedule,
    rank_order_schedule,
    recursive_schedule,
)
from repro.simcore import SchedulePlan
from repro.simcore.pyloops import simulate_py
from repro.simcore.stack import lru_counts

ALGORITHMS = {"strassen": strassen, "winograd": winograd,
              "classical": lambda: classical(2)}
_GRAPHS = {}


def graph(family: str, r: int):
    if (family, r) not in _GRAPHS:
        _GRAPHS[family, r] = build_cdag(ALGORITHMS[family](), r)
    return _GRAPHS[family, r]


def masks(g):
    is_input = g.in_degree() == 0
    is_output = np.zeros(g.n_vertices, dtype=bool)
    is_output[g.outputs()] = True
    return is_input, is_output


def schedule(g, kind: str, seed: int):
    if kind == "recursive":
        return recursive_schedule(g)
    if kind == "rank":
        return rank_order_schedule(g)
    return random_topological_schedule(g, seed=seed)


def loop_counts(plan, g, cache_sizes):
    is_input, is_output = masks(g)
    return [simulate_py(plan, is_input, is_output, M, 0) for M in cache_sizes]


def all_sizes(g):
    return list(range(min_cache_size(g), g.n_vertices + 2))


schedule_kinds = st.sampled_from(["recursive", "rank", "random"])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestAgainstTheLoop:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(sorted(ALGORITHMS)), st.integers(1, 2),
           schedule_kinds, seeds)
    def test_every_cache_size(self, family, r, kind, seed):
        """r <= 2: every M from the widest step to n + 1."""
        g = graph(family, r)
        plan = SchedulePlan(g, schedule(g, kind, seed), validated=True)
        sizes = all_sizes(g)
        assert lru_counts(plan, *masks(g), sizes) == loop_counts(
            plan, g, sizes
        )

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(sorted(ALGORITHMS)), schedule_kinds, seeds,
           st.data())
    def test_r3_sizes_drawn_from_the_full_range(self, family, kind, seed,
                                                data):
        """r = 3: one loop per M takes 11-16 ms, so comparing every M
        (over 2,000 of them) would take 23-46 s per schedule; the sizes
        compared are drawn from the whole range instead, and every M is
        covered by the monotonicity test below."""
        g = graph(family, 3)
        plan = SchedulePlan(g, schedule(g, kind, seed), validated=True)
        sizes = all_sizes(g)
        drawn = data.draw(st.lists(st.sampled_from(sizes), min_size=4,
                                   max_size=10, unique=True))
        assert lru_counts(plan, *masks(g), drawn) == loop_counts(
            plan, g, drawn
        )

    def test_r3_recursive_every_small_cache_size(self):
        """Strassen r = 3, recursive schedule: every M from the widest
        step to 128, which spans E9's sizes 12-96 (about 1 s of loops;
        all 2,142 sizes up to n + 1 would take about 20 s)."""
        g = graph("strassen", 3)
        plan = SchedulePlan(g, recursive_schedule(g), validated=True)
        sizes = list(range(min_cache_size(g), 129))
        assert lru_counts(plan, *masks(g), sizes) == loop_counts(
            plan, g, sizes
        )

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(sorted(ALGORITHMS)), st.integers(1, 3),
           schedule_kinds, seeds)
    def test_io_never_increases_with_the_cache(self, family, r, kind, seed):
        """LRU is a stack algorithm: over every M, reads and total I/O
        are non-increasing."""
        g = graph(family, r)
        plan = SchedulePlan(g, schedule(g, kind, seed), validated=True)
        counts = np.array(lru_counts(plan, *masks(g), all_sizes(g)))
        reads, writes = counts[:, 0], counts[:, 1]
        assert (np.diff(reads) <= 0).all()
        assert (np.diff(reads + writes) <= 0).all()

    def test_sizes_keep_their_order(self):
        g = graph("strassen", 2)
        plan = SchedulePlan(g, recursive_schedule(g), validated=True)
        sizes = [24, 8, 300, 8, 12]
        assert lru_counts(plan, *masks(g), sizes) == loop_counts(
            plan, g, sizes
        )
        assert lru_counts(plan, *masks(g), []) == []


def _outcome(fn):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", fn()
    except (ScheduleError, CacheError) as exc:
        return type(exc), str(exc)


class TestErrorParity:
    @pytest.mark.parametrize(
        "family,r", [("strassen", 1), ("strassen", 2), ("classical", 2)]
    )
    def test_reversed_schedule_names_the_same_operand(self, family, r):
        g = graph(family, r)
        plan = SchedulePlan(g, recursive_schedule(g)[::-1].copy(),
                            validated=False)
        M = min_cache_size(g) + 4
        with pytest.raises(ScheduleError) as via_loop:
            loop_counts(plan, g, [M])
        with pytest.raises(ScheduleError) as via_stack:
            lru_counts(plan, *masks(g), [M])
        assert str(via_stack.value) == str(via_loop.value)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(ALGORITHMS)), seeds,
           st.integers(min_value=0, max_value=12))
    def test_random_permutations(self, family, seed, extra):
        """Any order of the computable vertices (almost never
        topological), any size from one below the widest step: the same
        counts, or the same error and message."""
        g = graph(family, 1)
        is_input, _ = masks(g)
        rng = np.random.default_rng(seed)
        order = rng.permutation(np.flatnonzero(~is_input))
        plan = SchedulePlan(g, order, validated=False)
        M = min_cache_size(g) - 1 + extra
        assert _outcome(lambda: lru_counts(plan, *masks(g), [M])) == (
            _outcome(lambda: loop_counts(plan, g, [M]))
        )

    def test_cache_below_the_widest_step(self):
        g = graph("strassen", 1)
        plan = SchedulePlan(g, recursive_schedule(g), validated=True)
        with pytest.raises(CacheError, match="no eviction candidate"):
            lru_counts(plan, *masks(g), [min_cache_size(g) - 1, 12])


def test_schedules_outside_the_stack_model_take_the_loop():
    """An unvalidated schedule computing a vertex twice runs the
    per-size loop (counted on the fallback path) with its exact
    counts."""
    g = graph("strassen", 1)
    sched = recursive_schedule(g)
    twice = np.concatenate([sched, sched[-1:]])
    plan = SchedulePlan(g, twice, validated=False)
    sizes = [8, 12]
    telemetry.enable()
    telemetry.reset()
    try:
        assert lru_counts(plan, *masks(g), sizes) == loop_counts(
            plan, g, sizes
        )
        reg = telemetry.metrics()
        assert reg.counter("simcore.kernel.stack").value == 0
        assert reg.counter("simcore.kernel.fallback").value == 4
    finally:
        telemetry.disable()
        telemetry.reset()
