"""Hypothesis property suite for the compiled pebbling kernels.

The kernel algorithm (:mod:`repro.simcore.grid`) must be
bit-for-bit identical to the retained reference simulator on *every*
observable — IOResult fields, eviction counts and the cumulative
``io_trace`` — not just on the curated golden grid.  These tests
generate random small workloads (algorithm x depth x schedule family x
seed x policy x cache size, including synthetic algorithm variants with
duplicate products and split outputs) and compare the kernel path
against ``tests/pebbling/_reference.py`` directly.

Without numba the kernels run under the plain interpreter (the
``interp`` mode) — the exact code numba would compile, minus the
compilation; with numba installed the same suite exercises the ``jit``
path, so CI's compiled leg gets the full property sweep for free.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import classical, strassen, winograd
from repro.bilinear.synthetic import with_duplicate_product, with_split_output
from repro.cdag import build_cdag
from repro.pebbling import CacheExecutor, min_cache_size
from repro.pebbling.executor import _POLICY_CODES
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
    rank_order_schedule,
    recursive_schedule,
)
from repro.simcore import dispatch
from repro.simcore.grid import run_grid
from repro.simcore.plan import SchedulePlan
from repro.simcore.policies import STATUS, STATUS_OK

from ._reference import reference_run

KERNEL_MODE = "jit" if dispatch.HAVE_NUMBA else "interp"

_GRAPH_CACHE: dict = {}


def _graph(family: str, r: int):
    """Small CDAGs, built once per (family, r) across all examples."""
    g = _GRAPH_CACHE.get((family, r))
    if g is None:
        alg = {
            "strassen": strassen,
            "winograd": winograd,
            "classical2": lambda: classical(2),
            "dup": lambda: with_duplicate_product(strassen(), 0),
            "split": lambda: with_split_output(strassen(), 0),
        }[family]()
        g = _GRAPH_CACHE[(family, r)] = build_cdag(alg, r)
    return g


def _schedule(g, family: str, seed: int) -> np.ndarray:
    return {
        "rec": lambda: recursive_schedule(g),
        "rank": lambda: rank_order_schedule(g),
        "rand": lambda: random_topological_schedule(g, seed=seed),
        "prod": lambda: random_product_order_schedule(g, seed=seed),
    }[family]()


workloads = st.tuples(
    st.sampled_from(["strassen", "winograd", "classical2", "dup", "split"]),
    st.sampled_from([1, 2]),
    st.sampled_from(["rec", "rank", "rand", "prod"]),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["lru", "fifo", "belady"]),
    st.integers(min_value=0, max_value=40),
)


class TestKernelBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(workloads)
    def test_matches_reference(self, workload):
        family, r, sched_family, seed, policy, m_extra = workload
        g = _graph(family, r)
        sched = _schedule(g, sched_family, seed)
        cache_size = min_cache_size(g) + m_extra
        trace_kernel: list[int] = []
        trace_ref: list[int] = []
        with dispatch.forced_mode(KERNEL_MODE):
            res, ev = CacheExecutor(g)._run(
                sched, cache_size, policy, True, None, trace_kernel
            )
        ref, ev_ref = reference_run(
            g, sched, cache_size, policy, io_trace=trace_ref
        )
        assert res == ref
        assert ev == ev_ref
        assert trace_kernel == trace_ref

    @settings(max_examples=25, deadline=None)
    @given(workloads)
    def test_kernel_and_fallback_agree(self, workload):
        """The two executor paths agree with each other on arbitrary
        workloads (a direct A/B, independent of the reference)."""
        family, r, sched_family, seed, policy, m_extra = workload
        g = _graph(family, r)
        sched = _schedule(g, sched_family, seed)
        cache_size = min_cache_size(g) + m_extra
        runs = {}
        for mode in (KERNEL_MODE, "off"):
            trace: list[int] = []
            with dispatch.forced_mode(mode):
                res, ev = CacheExecutor(g)._run(
                    sched, cache_size, policy, True, None, trace
                )
            runs[mode] = (res, ev, trace)
        assert runs[KERNEL_MODE] == runs["off"]


class TestKernelEntryPoints:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_run_grid_matches_single_calls(self, seed):
        """The batched grid kernel returns exactly the per-config
        scalar vectors of one-row run_grid calls."""
        g = _graph("strassen", 2)
        sched = random_topological_schedule(g, seed=seed)
        ex = CacheExecutor(g)
        plan = ex.compile(sched)
        is_input = np.ascontiguousarray(ex.is_input).view(np.uint8)
        is_output = np.ascontiguousarray(ex.is_output).view(np.uint8)
        configs = [(M, p) for M in (8, 16, 48) for p in _POLICY_CODES]
        with dispatch.forced_mode(KERNEL_MODE):
            grid = run_grid(
                plan.kernel_arrays(), is_input, is_output,
                [M for M, _ in configs],
                [_POLICY_CODES[p] for _, p in configs],
            )
            for row, (M, p) in zip(grid, configs):
                (one,) = run_grid(
                    plan.kernel_arrays(), is_input, is_output,
                    [M], [_POLICY_CODES[p]],
                )
                assert list(row) == list(one), (M, p)

    def test_kernels_read_readonly_arrays(self):
        """The kernels must work on read-only plan arrays (bundle
        memmaps open with mmap_mode='r'): no in-place writes."""
        g = _graph("strassen", 2)
        sched = recursive_schedule(g)
        ex = CacheExecutor(g)
        arrays = ex.compile(sched).to_arrays()
        for arr in arrays.values():
            arr.setflags(write=False)
        plan = SchedulePlan.from_arrays(arrays, validated=True)
        with dispatch.forced_mode(KERNEL_MODE):
            (sc,) = run_grid(
                plan.kernel_arrays(),
                np.ascontiguousarray(ex.is_input).view(np.uint8),
                np.ascontiguousarray(ex.is_output).view(np.uint8),
                [12], [_POLICY_CODES["belady"]],
            )
        assert int(sc[STATUS]) == STATUS_OK
        ref, _ = reference_run(g, sched, 12, "belady")
        assert tuple(int(x) for x in sc[:2]) == (ref.reads, ref.writes)

    def test_mode_gating(self, monkeypatch):
        """REPRO_NO_JIT forces the fallback; set_mode validates."""
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        monkeypatch.delenv("REPRO_FORCE_KERNELS", raising=False)
        assert dispatch.active_mode() == (
            "jit" if dispatch.HAVE_NUMBA else "off"
        )
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        assert dispatch.active_mode() == "off"
        assert not dispatch.available()
        monkeypatch.delenv("REPRO_NO_JIT")
        monkeypatch.setenv("REPRO_FORCE_KERNELS", "1")
        if not dispatch.HAVE_NUMBA:
            assert dispatch.active_mode() == "interp"
        with dispatch.forced_mode("off"):
            assert dispatch.active_mode() == "off"
        with pytest.raises(ValueError):
            dispatch.set_mode("sideways")
        if not dispatch.HAVE_NUMBA:
            with pytest.raises(RuntimeError):
                dispatch.set_mode("jit")

    def test_schedule_error_surfaces_from_kernel(self):
        """An invalid (non-topological) schedule run without validation
        raises the same ScheduleError through the kernel path as the
        fallback does."""
        from repro.errors import ScheduleError

        g = _graph("strassen", 1)
        sched = recursive_schedule(g)[::-1].copy()
        for mode in (KERNEL_MODE, "off"):
            with dispatch.forced_mode(mode):
                with pytest.raises(ScheduleError):
                    CacheExecutor(g).run(
                        sched, 12, "lru", validate=False
                    )

    @pytest.mark.parametrize("mode", ["off", KERNEL_MODE])
    def test_unknown_policy_raises_cache_error(self, mode):
        """An unknown eviction policy raises CacheError through run()
        and run_many() alike, on every dispatch path."""
        from repro.errors import CacheError

        g = _graph("strassen", 1)
        sched = recursive_schedule(g)
        ex = CacheExecutor(g)
        with dispatch.forced_mode(mode):
            with pytest.raises(CacheError, match="unknown eviction policy"):
                ex.run(sched, 12, "lfu")
            with pytest.raises(CacheError, match="unknown eviction policy"):
                ex.run_many(sched, (12,), ("lfu",))
