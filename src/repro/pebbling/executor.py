"""Schedule executor: counts I/Os of a compute order under the paper's
two-level machine model.

Given a CDAG, a *schedule* (the computed vertices in execution order) and
a cache size ``M``, the executor simulates the machine:

- computing vertex ``v`` first loads any predecessor not in cache (one
  read I/O each — values already stored to slow memory are re-read, input
  values are read for the first time);
- evictions happen on demand, chosen by an eviction policy (LRU, FIFO or
  offline-MIN/Belady); evicting a *dirty* value (computed but never
  stored) that is still live — it has remaining uses or is an unfinished
  output — costs one write I/O; evicting a clean or dead value is free;
- at the end every output must reside in slow memory (final writes).

The predecessors of the current computation plus its result are pinned
and never evicted mid-step (hence ``M >= max_indegree + 1``).

The I/O-complexity of the *algorithm* is the minimum over schedules and
I/O placements; the executor provides the measurable upper side: the
paper's Theorem 1 lower bound must sit below every
``(schedule, policy)`` measurement, and the recursive schedule's
measurement should track the matching upper bound (experiment E9).

Implementation notes (the hot path)
-----------------------------------
The simulator is a thin view over the unified columnar core
(:mod:`repro.simcore`): a schedule is compiled once into a
:class:`~repro.simcore.plan.SchedulePlan` — flat CSR-style operand
arrays gathered from the CDAG's predecessor CSR, per-occurrence
*next-use* times (a backward-scan linked list, so Belady needs no
per-vertex Python lists or cursor dicts), per-vertex first-use times
and initial use counts.

Two simulation paths run over a plan, behind one dispatch function
(:func:`_simulate`, shared by :meth:`CacheExecutor.run`,
:meth:`CacheExecutor.run_many` and the pool workers):

- **the compiled kernel** (:func:`repro.simcore.grid.run_grid`): the
  lockstep grid kernel — ``(config, slot)`` 2-D state advanced through
  each schedule step for every configuration at once, one ``run_grid``
  call per batch (a single run is its one-row case, with an optional
  trace row).  It is taken whenever numba is importable and
  ``REPRO_NO_JIT`` is unset.  Plans loaded from graph-cache bundles
  feed the kernel straight from their read-only memmaps — no
  ``ensure_lists`` materialisation on this path;
- **pure-Python loops** (:mod:`repro.simcore.pyloops`, the fallback,
  kept bit-identical): dense flat structures indexed by vertex id (flat
  bitmaps for cached/dirty/in-slow, per-vertex stamp/key lists) with a
  lazy min-heap replacing the reference implementation's
  O(|candidates|) scans.

Both paths make the exact victim choices of the golden reference
simulator retained under ``tests/pebbling/_reference.py`` — the
golden-equivalence tests enforce bit-identity across schedules x
policies x cache sizes, and the core's
``simcore.kernel.{jit,interp,fallback}`` counters record which path
each configuration took.

Plans are cached on the executor and shared across cache sizes and
policies; :meth:`CacheExecutor.run_many` exposes that reuse as a batched
sweep API (validate once, precompute once, run every ``(M, policy)``
configuration — in one lockstep ``run_grid`` call on the kernel path —
optionally partitioned across a ``ProcessPoolExecutor`` via
``workers=`` for multi-core scaling).  On the fallback path, grids of at
least :data:`AUTO_PARTITION_MIN_STEPS` simulated steps are partitioned
across up to :data:`AUTO_PARTITION_MAX_WORKERS` usable CPUs by default;
``workers=1`` or ``REPRO_RUN_MANY_WORKERS=1`` keeps them serial.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cdag import artifact as _artifact
from repro.cdag.graph import CDAG
from repro.errors import CacheError, ScheduleError
from repro.pebbling.machine import MachineModel
from repro.simcore import dispatch as _dispatch
from repro.simcore import grid as _grid
from repro.simcore import policies as _policies
from repro.simcore.plan import SchedulePlan, gather_operands
from repro.simcore.pyloops import simulate_py
from repro.telemetry.metrics import metrics
from repro.telemetry.spans import enabled as _telemetry_enabled
from repro.telemetry.spans import span

__all__ = ["EXECUTOR_VERSION", "IOResult", "CacheExecutor", "simulate_io"]

#: Version of the compiled-plan format; folded into plan bundle keys so
#: any change to :class:`SchedulePlan`'s arrays (meaning, dtype, order)
#: re-keys every on-disk plan instead of mis-decoding it.
EXECUTOR_VERSION = "1"

#: Environment variable: worker count for :meth:`CacheExecutor.run_many`
#: grid partitioning when ``workers=`` is not given.  Any integer <= 1
#: means serial; unset (or empty) means the automatic choice of
#: :func:`_partition_count`.
ENV_RUN_MANY_WORKERS = "REPRO_RUN_MANY_WORKERS"

#: Automatic partitioning threshold: a fallback-path grid is split
#: across CPUs only when it simulates at least this many schedule steps
#: in total (``plan.n_steps * len(configs)``).  Set at the measured
#: serial-vs-pool crossover (2 vCPU VM, Python 3.11, two workers,
#: median of 9-11 alternating runs on Strassen grids): the pool lost
#: at 8,068 steps (1.55-1.60x the serial time) and 12,102 (1.12-1.19x)
#: and on E9's r=3 belady+lru grid at 16,136 (1.26-1.40x; an LRU-only
#: grid of that size won, 0.72x), and won every grid from 20,170 steps
#: up (0.57-0.78x; E9's r=4 grids 0.66-0.70x).
AUTO_PARTITION_MIN_STEPS = 1 << 14

#: Most partitions the automatic choice starts.  Every worker holds its
#: own copy of the plan's Python lists and simulation state, so the
#: footprint grows with the worker count.  E9 at defaults (2 vCPU VM,
#: peak of the parent's plus the workers' summed PSS, sampled every
#: 20 ms): 402 MB serial, 921 MB with two workers, 1,606 MB with four
#: (forced; the host has two CPUs, so the speed of four was not
#: measured).  ``workers=`` or :data:`ENV_RUN_MANY_WORKERS` go higher.
AUTO_PARTITION_MAX_WORKERS = 2

_POLICY_CODES = {"lru": 0, "fifo": 1, "belady": 2}


@dataclass(frozen=True)
class IOResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    reads / writes:
        Load and store I/O counts (``total = reads + writes``).
    input_reads:
        Subset of ``reads`` that loaded original inputs.
    spill_writes / spill_reads:
        Writes of intermediate values forced out of cache, and the reads
        that brought them back — the communication the blocking structure
        of a schedule controls.
    output_writes:
        Final stores of output values.
    peak_cache:
        Maximum number of cached values observed.
    """

    cache_size: int
    policy: str
    reads: int
    writes: int
    input_reads: int
    spill_reads: int
    spill_writes: int
    output_writes: int
    peak_cache: int

    @property
    def total(self) -> int:
        """Total I/O (reads + writes) — the paper's cost measure."""
        return self.reads + self.writes


# ----------------------------------------------------------------------
# Simulation core (module-level so pool workers can run configurations
# without shipping a CDAG or CacheExecutor across the process boundary).
# ----------------------------------------------------------------------


def _counts_to_result(
    counts, cache_size: int, policy: str, machine: MachineModel
) -> tuple[IOResult, int]:
    """Fold a raw count tuple into an :class:`IOResult` under the
    machine's I/O accounting switches; returns ``(result, evictions)``."""
    (reads, writes, input_reads, spill_reads, spill_writes,
     output_writes, peak, evictions) = counts
    if not machine.count_input_reads:
        reads -= input_reads
    if not machine.count_output_writes:
        writes -= output_writes
    result = IOResult(
        cache_size=cache_size,
        policy=policy,
        reads=reads,
        writes=writes,
        input_reads=input_reads if machine.count_input_reads else 0,
        spill_reads=spill_reads,
        spill_writes=spill_writes,
        output_writes=output_writes if machine.count_output_writes else 0,
        peak_cache=peak,
    )
    return result, evictions


def _raise_kernel_status(sc) -> None:
    """Map a kernel status code onto the executor's exception contract."""
    status = int(sc[_policies.STATUS])
    if status == _policies.STATUS_OPERAND_MISSING:
        raise ScheduleError(
            f"operand {int(sc[_policies.ERR_A])} of {int(sc[_policies.ERR_B])} "
            "is neither cached nor in slow memory"
        )
    if status == _policies.STATUS_NO_VICTIM:
        raise CacheError("no eviction candidate available")


def _policy_codes(configs) -> list[int]:
    """The kernel policy code of each ``(cache_size, policy)``
    configuration; raises :class:`CacheError` on an unknown name."""
    codes = []
    for _, policy in configs:
        code = _POLICY_CODES.get(policy)
        if code is None:
            raise CacheError(f"unknown eviction policy {policy!r}")
        codes.append(code)
    return codes


def _requested_workers(workers: int | None) -> int | None:
    """``workers=`` if given, else ``REPRO_RUN_MANY_WORKERS`` parsed as
    an integer; None when neither is set (automatic choice)."""
    if workers is not None:
        return int(workers)
    env = os.environ.get(ENV_RUN_MANY_WORKERS, "").strip()
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"{ENV_RUN_MANY_WORKERS} must be an integer, got {env!r}"
        ) from None


def _cgroup_cpu_limit(root: str = "/sys/fs/cgroup") -> int | None:
    """The CPU quota of the cgroup mounted at ``root`` in whole CPUs
    (rounded up): cgroup v2 ``cpu.max``, else v1
    ``cpu/cpu.cfs_quota_us`` over ``cpu/cpu.cfs_period_us``.  None when
    there is no quota or it cannot be read."""
    try:
        with open(os.path.join(root, "cpu.max")) as fh:
            quota, period = fh.read().split()[:2]
    except (OSError, ValueError):
        try:
            with open(os.path.join(root, "cpu", "cpu.cfs_quota_us")) as fh:
                quota = fh.read().strip()
            with open(os.path.join(root, "cpu", "cpu.cfs_period_us")) as fh:
                period = fh.read().strip()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max": no quota
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return -(-quota_us // period_us)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, capped by its cgroup's CPU quota (a container
    limited to two CPUs on a larger host gets two)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    return min(cpus, limit) if limit is not None else cpus


def _partition_count(workers: int | None, n_steps: int, n_configs: int) -> int:
    """How many pool partitions :meth:`CacheExecutor.run_many` uses.

    An explicit worker count (``workers=`` or the environment variable,
    see :func:`_requested_workers`) wins.  Otherwise a grid is split
    across the usable CPUs, at most :data:`AUTO_PARTITION_MAX_WORKERS`,
    only when all of these hold: it runs on the pure-Python fallback
    path (the kernel path steps a grid in one call), it simulates at
    least :data:`AUTO_PARTITION_MIN_STEPS` steps, and this process is
    not itself a multiprocessing child (no pool nested inside a sweep
    job or a partition worker).
    """
    if workers is None:
        workers = 1
        if (
            n_steps * n_configs >= AUTO_PARTITION_MIN_STEPS
            and _dispatch.active_mode() == "off"
        ):
            import multiprocessing

            if multiprocessing.parent_process() is None:
                workers = min(_usable_cpus(), AUTO_PARTITION_MAX_WORKERS)
    return max(1, min(workers, n_configs))


def _simulate(plan, is_input, is_output, configs, io_trace=None):
    """Run ``(cache_size, policy)`` configurations over a compiled plan:
    one lockstep ``run_grid`` call on the kernel path, one pure-Python
    loop per configuration otherwise (``REPRO_NO_JIT=1`` or numba
    absent).  Returns one raw count tuple ``(reads, writes,
    input_reads, spill_reads, spill_writes, output_writes, peak,
    evictions)`` per configuration.

    ``io_trace`` (single-configuration calls only) receives the
    cumulative I/O count after each schedule step.
    """
    codes = _policy_codes(configs)
    if _dispatch.active_mode() == "off":
        return [
            simulate_py(plan, is_input, is_output, M, code, io_trace)
            for (M, _), code in zip(configs, codes)
        ]
    trace = (
        np.zeros((1, plan.n_steps), dtype=np.int64)
        if io_trace is not None else None
    )
    grid = _grid.run_grid(
        plan.kernel_arrays(),
        np.ascontiguousarray(is_input).view(np.uint8),
        np.ascontiguousarray(is_output).view(np.uint8),
        [M for M, _ in configs], codes, trace,
    )
    for sc in grid:
        _raise_kernel_status(sc)
    if io_trace is not None:
        io_trace.extend(trace[0].tolist())
    return [tuple(int(x) for x in sc[:8]) for sc in grid]


def _partition_worker(arrays, is_input, is_output, configs):
    """Pool-worker entry for :meth:`CacheExecutor.run_many` grid
    partitioning: rebuild the plan from its (validated) arrays and run
    this partition's ``(M, policy)`` configurations.

    Telemetry is disabled in the worker — the parent re-emits the
    per-configuration spans and counters from the returned raw counts,
    so the batched sweep stays counter-identical to its serial
    equivalent.  Returns ``(wall_s, kernel_mode, [counts, ...])``.
    """
    from repro.telemetry import spans as _spans

    _spans.disable()
    t0 = time.perf_counter()
    plan = SchedulePlan.from_arrays(arrays, validated=True)
    out = _simulate(plan, is_input, is_output, configs)
    return time.perf_counter() - t0, _dispatch.active_mode(), out


class CacheExecutor:
    """Reusable executor for one CDAG (precomputes use lists once)."""

    _MAX_CACHED_PLANS = 8

    def __init__(self, cdag: CDAG):
        self.cdag = cdag
        self.is_output = np.zeros(cdag.n_vertices, dtype=bool)
        self.is_output[cdag.outputs()] = True
        self.is_input = cdag.in_degree() == 0
        self._plans: dict[bytes, SchedulePlan] = {}

    # ------------------------------------------------------------------

    def validate_schedule(self, schedule: np.ndarray) -> np.ndarray:
        """Check the schedule is a topological permutation of the
        non-input vertices; returns it as an int64 array."""
        schedule = np.ascontiguousarray(schedule, dtype=np.int64)
        n = self.cdag.n_vertices
        n_computable = int((~self.is_input).sum())
        if len(schedule) != n_computable:
            raise ScheduleError(
                f"schedule has {len(schedule)} entries; CDAG has "
                f"{n_computable} computable vertices"
            )
        out_of_range = (schedule < 0) | (schedule >= n)
        if out_of_range.any():
            v = int(schedule[int(np.argmax(out_of_range))])
            raise ScheduleError(f"vertex {v} out of range")
        T = len(schedule)
        # First occurrence of each vertex (reverse assignment: the
        # earliest index wins); an occurrence that is not the first, or
        # that names an input, is rejected exactly as the reference
        # per-step scan did.
        first_occ = np.full(n, -1, dtype=np.int64)
        first_occ[schedule[::-1]] = np.arange(T - 1, -1, -1, dtype=np.int64)
        bad = self.is_input[schedule]
        bad |= first_occ[schedule] != np.arange(T, dtype=np.int64)
        if bad.any():
            v = int(schedule[int(np.argmax(bad))])
            raise ScheduleError(f"vertex {v} scheduled twice (or is an input)")
        # Topological: every non-input operand must be scheduled
        # strictly before its use.
        _, step_ops, occ_time = gather_operands(self.cdag, schedule)
        viol = ~self.is_input[step_ops]
        viol &= first_occ[step_ops] >= occ_time
        if viol.any():
            i = int(np.argmax(viol))
            raise ScheduleError(
                f"vertex {int(schedule[occ_time[i]])} scheduled before "
                f"its predecessor {int(step_ops[i])}"
            )
        return schedule

    # ------------------------------------------------------------------

    def _plan(self, schedule, validate: bool) -> SchedulePlan:
        """Fetch or build the :class:`SchedulePlan` for ``schedule``
        (small content-keyed cache, so repeated ``run`` calls on the
        same schedule reuse the precompute like ``run_many`` does).

        When a graph cache is active, a miss here consults the on-disk
        plan bundle store before compiling — a warm process maps the
        occurrence arrays instead of re-deriving them.
        """
        schedule = np.ascontiguousarray(schedule, dtype=np.int64)
        key = hashlib.blake2b(schedule.tobytes(), digest_size=16).digest()
        plan = self._plans.get(key)
        if plan is None:
            metrics().inc("pebbling.plan.miss")
            cache = _artifact.active_cache()
            if cache is not None:
                plan = cache.get_plan(self, schedule, key.hex(), validate)
            if plan is None:
                if validate:
                    schedule = self.validate_schedule(schedule)
                plan = SchedulePlan(self.cdag, schedule, validated=validate)
            if len(self._plans) >= self._MAX_CACHED_PLANS:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
        else:
            # LRU touch: re-insert so neighbourhood searches that cycle
            # through more than _MAX_CACHED_PLANS candidates keep their
            # frequently re-evaluated incumbents compiled.
            metrics().inc("pebbling.plan.hit")
            self._plans.pop(key)
            self._plans[key] = plan
            if validate and not plan.validated:
                self.validate_schedule(schedule)
                plan.validated = True
        return plan

    def compile(self, schedule, validate: bool = True) -> SchedulePlan:
        """Public access to the compiled plan for ``schedule``.

        Used by cache warming and the cold/warm benchmarks to pay the
        acquisition cost (validate + occurrence precompute, or a bundle
        load) without running a simulation.
        """
        return self._plan(schedule, validate)

    def run(
        self,
        schedule,
        cache_size: int,
        policy: str = "lru",
        validate: bool = True,
        machine: MachineModel | None = None,
        io_trace: list[int] | None = None,
    ) -> IOResult:
        """Execute ``schedule`` with the given cache size and policy.

        When ``io_trace`` is a list, the cumulative I/O count after each
        scheduled computation is appended to it (one entry per schedule
        step) — used by the Hong-Kung partition machinery to cut
        executions every ``2M`` I/Os.
        """
        with span(
            "pebbling.run", policy=policy, cache_size=cache_size
        ) as sp:
            result, evictions = self._run(
                schedule, cache_size, policy, validate, machine, io_trace
            )
            # One enabled-check for the whole telemetry block: while
            # disabled, a run pays nothing beyond this bool (no span
            # counters, no belady-gap gauge / lower-bound evaluation).
            if _telemetry_enabled():
                self._record_run_counters(sp, result, evictions)
            return result

    def run_many(
        self,
        schedule,
        cache_sizes,
        policies=("lru",),
        validate: bool = True,
        workers: int | None = None,
    ) -> dict[tuple[int, str], IOResult]:
        """Batched sweep: run every ``(cache_size, policy)``
        configuration over one schedule, validating it and building the
        use-list precompute exactly once.

        On the compiled path the whole grid is stepped by one
        ``run_grid`` kernel call.  With ``workers > 1`` (or
        ``REPRO_RUN_MANY_WORKERS`` > 1) the grid is partitioned
        round-robin across a ``ProcessPoolExecutor`` — one
        ``pebbling.run_many.partition`` span per partition records the
        worker wall time and path taken.  With neither set, large
        grids on the fallback path are partitioned across up to
        :data:`AUTO_PARTITION_MAX_WORKERS` usable CPUs by default (see
        :func:`_partition_count`); pass
        ``workers=1`` or set ``REPRO_RUN_MANY_WORKERS=1`` to keep every
        grid serial.  Policy names and the environment variable are
        checked before the plan is built or a pool started.

        Returns ``{(cache_size, policy): IOResult}``.  The simulation
        runs inside one ``pebbling.run_many`` span; beneath it,
        telemetry is identical to the equivalent sequence of
        :meth:`run` calls (one ``pebbling.run`` span per configuration,
        counters included — the parent re-emits them for partitioned
        runs).
        """
        configs = [(int(M), str(p)) for M in cache_sizes for p in policies]
        # Everything that can reject the call runs before the plan
        # build and any pool fork.
        _policy_codes(configs)
        workers = _requested_workers(workers)
        machines: dict[int, MachineModel] = {}
        for M, _ in configs:
            if M not in machines:
                machines[M] = MachineModel(cache_size=M)
                machines[M].check_executable(self.cdag)
        plan = self._plan(schedule, validate)
        n_parts = _partition_count(workers, plan.n_steps, len(configs))
        record = _telemetry_enabled()

        with span(
            "pebbling.run_many", partitions=n_parts, configs=len(configs)
        ):
            if n_parts > 1:
                raw = self._run_partitions(plan, configs, n_parts, record)
            else:
                raw = _simulate(plan, self.is_input, self.is_output, configs)
            results: dict[tuple[int, str], IOResult] = {}
            for (M, policy), counts in zip(configs, raw):
                with span("pebbling.run", policy=policy, cache_size=M) as sp:
                    result, evictions = _counts_to_result(
                        counts, M, policy, machines[M]
                    )
                    if record:
                        self._record_run_counters(sp, result, evictions)
                results[(M, policy)] = result
        return results

    def _run_partitions(self, plan, configs, n_parts: int, record: bool):
        """Fan a config grid out round-robin over ``n_parts`` pool
        workers; returns the raw count tuples in ``configs`` order."""
        from concurrent.futures import ProcessPoolExecutor

        parts = [configs[i::n_parts] for i in range(n_parts)]
        # Plans may wrap read-only memmaps; to_arrays() yields plain
        # contiguous arrays that pickle by value.
        arrays = plan.to_arrays()
        raw: dict[tuple[int, str], tuple] = {}
        with ProcessPoolExecutor(max_workers=n_parts) as pool:
            futures = [
                pool.submit(
                    _partition_worker, arrays, self.is_input,
                    self.is_output, part,
                )
                for part in parts
            ]
            for i, (future, part) in enumerate(zip(futures, parts)):
                wall, mode, counts_list = future.result()
                # Attrs, not span counters: counters fold into the
                # registry, which holds only deterministic counts.
                with span(
                    "pebbling.run_many.partition", partition=i,
                    configs=len(part), worker_wall_s=round(wall, 6),
                    path=mode,
                ):
                    pass
                if record:
                    # Workers run with telemetry disabled, so the
                    # parent re-emits the core's path counters.
                    _dispatch.count_path(mode, len(part))
                raw.update(zip(part, counts_list))
        return [raw[cfg] for cfg in configs]

    def _record_run_counters(self, sp, result: IOResult, evictions: int) -> None:
        sp.add("scheduled", self.cdag.n_vertices - int(self.is_input.sum()))
        sp.add("reads", result.reads)
        sp.add("writes", result.writes)
        sp.add("evictions", evictions)
        sp.add("spill_reads", result.spill_reads)
        sp.add("spill_writes", result.spill_writes)
        sp.set("peak_cache", result.peak_cache)
        # Belady-gap gauge (measured total minus the Theorem-1 Ω-form
        # bound) on every run — the autotuner's objective, and the ad
        # hoc quantity the experiments used to derive locally.  It is a
        # registry gauge, not a span counter: the span counter set is an
        # exact observable contract (see the counter-identity suite).
        alg = getattr(self.cdag, "alg", None)
        if alg is not None:
            from repro.bounds.theorem1 import io_lower_bound

            lower = io_lower_bound(
                alg, alg.n0**self.cdag.r, result.cache_size
            )
            metrics().gauge("pebbling.belady_gap").set(
                result.total - lower
            )

    # ------------------------------------------------------------------

    def _run(
        self, schedule, cache_size, policy, validate, machine, io_trace
    ) -> tuple[IOResult, int]:
        machine = machine or MachineModel(cache_size=cache_size)
        if machine.cache_size != cache_size:
            raise CacheError("machine.cache_size disagrees with cache_size")
        plan = self._plan(schedule, validate)
        machine.check_executable(self.cdag)
        (counts,) = _simulate(
            plan, self.is_input, self.is_output, [(cache_size, policy)],
            io_trace,
        )
        return _counts_to_result(counts, cache_size, policy, machine)


# ----------------------------------------------------------------------
# Shared executors for the one-shot convenience path.
# ----------------------------------------------------------------------

_MAX_SHARED_EXECUTORS = 4
_shared_executors: "OrderedDict[str, CacheExecutor]" = OrderedDict()


def _shared_executor(cdag: CDAG) -> CacheExecutor:
    """A content-keyed process-local :class:`CacheExecutor` for
    ``cdag`` — so repeated :func:`simulate_io` calls (tests, notebooks)
    reuse compiled plans instead of recompiling per call, graph cache or
    not.  Graphs without an algorithm identity get a fresh executor."""
    if getattr(cdag, "alg", None) is None:
        return CacheExecutor(cdag)
    key = _artifact.cdag_graph_key(cdag)
    executor = _shared_executors.get(key)
    if executor is None:
        executor = CacheExecutor(cdag)
        while len(_shared_executors) >= _MAX_SHARED_EXECUTORS:
            _shared_executors.popitem(last=False)
        _shared_executors[key] = executor
    else:
        _shared_executors.move_to_end(key)
    return executor


def simulate_io(
    cdag: CDAG,
    schedule,
    cache_size: int,
    policy: str = "lru",
    validate: bool = True,
) -> IOResult:
    """One-shot convenience wrapper around :class:`CacheExecutor`.

    Executors are shared per graph content key, so back-to-back calls
    on the same (graph, schedule) hit the in-process plan cache — the
    ``pebbling.plan.{hit,miss}`` counters make the reuse observable."""
    return _shared_executor(cdag).run(
        schedule, cache_size=cache_size, policy=policy, validate=validate
    )
