"""The unified columnar simulation core.

One simulation engine serves every simulator in the repository:

- :mod:`repro.simcore.dispatch` — the single kernel-mode gate
  (``jit`` / ``interp`` / ``off``) plus the shared telemetry hooks
  (``simcore.kernel.{jit,interp,fallback,stack}`` path counters and the
  first-call ``simcore.kernel.compile_s`` gauge);
- :mod:`repro.simcore.plan` — :class:`SchedulePlan`, the
  policy-independent ``(graph, schedule)`` precompute (operand CSR,
  next-use and first-use arrays) every path reads;
- :mod:`repro.simcore.policies` — the one implementation of LRU / FIFO
  / Belady as lazy int64-encoded min-heaps over flat arrays, written as
  per-step ``njit`` bodies that operate on single rows of state;
- :mod:`repro.simcore.grid` — the one compiled simulation kernel, the
  lockstep whole-grid kernel: ``(config, slot)`` 2-D state stepped
  through the schedule time-major (a single configuration is its
  one-row case), thread-chunked under numba;
- :mod:`repro.simcore.pyloops` — the bit-identical pure-Python fallback
  (also the pebble-game event source);
- :mod:`repro.simcore.stack` — the fallback path's one-pass LRU
  simulation: a vectorised stack-distance pass that gives the counts of
  every cache size at once (LRU is a stack algorithm);
- :mod:`repro.simcore.trace` — the address-trace LRU engine
  (:class:`CacheStats`, the dict core, and the columnar multi-capacity
  trace kernel);
- :mod:`repro.simcore.parallel` — columnar partition-traffic helpers
  for the distributed machine model.

Consumers (:mod:`repro.pebbling`, :mod:`repro.tracesim`,
:mod:`repro.parallel`) are thin views over this core; the golden
reference implementations they are bit-identical to live under
``tests/``.
"""

from repro.simcore.dispatch import (
    HAVE_NUMBA,
    active_mode,
    available,
    forced_mode,
    set_mode,
)
from repro.simcore.grid import run_grid
from repro.simcore.plan import SchedulePlan, gather_operands
from repro.simcore.pyloops import simulate_py
from repro.simcore.stack import lru_counts
from repro.simcore.trace import CacheStats, LRUCacheCore, run_trace_grid

__all__ = [
    "HAVE_NUMBA",
    "active_mode",
    "available",
    "forced_mode",
    "set_mode",
    "SchedulePlan",
    "gather_operands",
    "run_grid",
    "simulate_py",
    "lru_counts",
    "CacheStats",
    "LRUCacheCore",
    "run_trace_grid",
]
