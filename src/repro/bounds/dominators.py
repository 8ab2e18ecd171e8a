"""Hong-Kung S-partitions and dominator sets — the 1981 technique [10].

The paper's "Previous Work" section traces three proof techniques:
S-partitions/dominators (Hong-Kung), edge expansion (BDHS), and this
paper's path routings.  This module implements the first so all three
can be compared on the same CDAGs.

Definitions (Hong-Kung 1981):

- a *dominator* of a vertex set ``S`` is a vertex set ``D`` such that
  every path from an input to a vertex of ``S`` meets ``D``;
- the *minimum set* of ``S`` is the set of vertices of ``S`` with no
  successor inside ``S`` (values that must survive the phase);
- a ``2M``-partition splits the computed vertices into parts, each with
  a dominator of size ``<= 2M`` and a minimum set of size ``<= 2M``;
- **HK Lemma**: any execution with ``q`` I/Os induces a 2M-partition
  with ``h = ceil(q / M)`` parts; hence ``q >= M * (P(2M) - 1)`` where
  ``P(2M)`` is the minimal part count.

:func:`minimum_dominator_size` computes exact dominator sizes via a
minimum vertex cut (Dinic max-flow with vertex splitting) on the
targets' ancestor cone — the only vertices that lie on an
input-to-target path, a few hundred per phase in CDAGs of thousands;
:func:`verify_hk_partition` checks the induced-partition side of the
lemma on real executions — experiment E14.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG
from repro.utils.flow import Dinic

__all__ = [
    "minimum_dominator_size",
    "minimum_set",
    "segments_to_partition",
    "partition_by_io",
    "verify_hk_partition",
    "hong_kung_bound_from_partition",
]


def minimum_dominator_size(cdag: CDAG, targets) -> int:
    """Size of a minimum dominator of ``targets``.

    Model: a vertex set ``D`` dominates ``targets`` iff removing ``D``
    disconnects every input-to-target path (a target may dominate
    itself).  Computed as a minimum vertex cut between a super-source
    attached to all inputs and a super-sink attached to all targets,
    with every ordinary vertex split into (in, out) joined by a
    unit-capacity arc.

    Inputs themselves are cuttable (they are vertices of the CDAG and may
    appear in a dominator), so their split arcs also have capacity 1.

    The network is built on the targets' *ancestor cone* only — the
    targets and every vertex with a path to one of them.  A vertex
    outside the cone lies on no input-to-target path, so leaving it out
    changes no cut and the flow value is exact; a phase's cone is a few
    hundred vertices where the CDAG has thousands.  The cone is closed
    under predecessors, so its in-degree-0 vertices are exactly the
    CDAG inputs it contains.
    """
    indptr = cdag.pred_indptr.tolist()
    indices = cdag.pred_indices.tolist()
    # Breadth-first walk back from the de-duplicated targets.  A vertex's
    # position in ``cone`` is its local id; its split nodes are
    # in = 2 * id and out = 2 * id + 1.
    cone = list(dict.fromkeys(np.asarray(targets, dtype=np.int64).tolist()))
    if not cone:
        return 0
    n_targets = len(cone)
    local = {v: i for i, v in enumerate(cone)}
    for v in cone:  # grows as the walk finds new ancestors
        for u in indices[indptr[v] : indptr[v + 1]]:
            if u not in local:
                local[u] = len(cone)
                cone.append(u)
    k = len(cone)
    dinic = Dinic(2 * k + 2)
    source, sink = 2 * k, 2 * k + 1
    for i, v in enumerate(cone):
        dinic.add_edge(2 * i, 2 * i + 1, 1)
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            dinic.add_edge(source, 2 * i, Dinic.INF)
        for u in indices[lo:hi]:
            dinic.add_edge(2 * local[u] + 1, 2 * i, Dinic.INF)
    for i in range(n_targets):
        dinic.add_edge(2 * i + 1, sink, Dinic.INF)
    return dinic.max_flow(source, sink)


def minimum_set(cdag: CDAG, part) -> np.ndarray:
    """Hong-Kung's *minimum set*: vertices of ``part`` with no successor
    inside ``part`` (their values must outlive the phase)."""
    part = np.asarray(part, dtype=np.int64)
    inside = np.zeros(cdag.n_vertices, dtype=bool)
    inside[part] = True
    out = [
        int(v)
        for v in part.tolist()
        if not any(inside[s] for s in cdag.successors(v))
    ]
    return np.array(sorted(out), dtype=np.int64)


def segments_to_partition(segments) -> list[np.ndarray]:
    """Identity adapter: executor segments (consecutive schedule slices)
    are already a vertex partition of the computed vertices."""
    return [np.asarray(seg, dtype=np.int64) for seg in segments]


def partition_by_io(
    cdag: CDAG,
    schedule,
    M: int,
    policy: str = "lru",
) -> list[np.ndarray]:
    """Hong-Kung's induced partition: cut the execution every ``2M``
    I/Os.

    Runs the executor with a per-step I/O trace and splits the schedule
    whenever the cumulative I/O crosses another multiple of ``2M`` —
    exactly the phases of the HK proof.
    """
    from repro.pebbling.executor import CacheExecutor

    schedule = np.asarray(schedule, dtype=np.int64)
    executor = CacheExecutor(cdag)
    trace: list[int] = []
    executor.run(schedule, M, policy=policy, io_trace=trace)
    parts: list[np.ndarray] = []
    start = 0
    boundary = 2 * M
    for t, cumulative in enumerate(trace):
        if cumulative >= boundary:
            parts.append(schedule[start : t + 1])
            start = t + 1
            boundary += 2 * M
    if start < len(schedule):
        parts.append(schedule[start:])
    return parts


def verify_hk_partition(
    cdag: CDAG, segments, M: int
) -> dict:
    """Check Hong-Kung's induced-partition property on execution
    segments.

    For segments obtained by cutting an execution every ``2M`` I/Os, the
    HK lemma promises dominator and minimum-set sizes ``<= 2M + M``
    (dominator: values in cache at segment start plus values read during
    it; minimum set: values surviving to slow memory or cache).  We
    measure both quantities exactly and report the maxima.
    """
    max_dom = 0
    max_min = 0
    for seg in segments:
        max_dom = max(max_dom, minimum_dominator_size(cdag, seg))
        max_min = max(max_min, len(minimum_set(cdag, seg)))
    return {
        "n_parts": len(segments),
        "max_dominator": max_dom,
        "max_minimum_set": max_min,
        "dominator_ok": max_dom <= 3 * M,
        "minimum_set_ok": max_min <= 3 * M,
    }


def hong_kung_bound_from_partition(n_parts: int, M: int) -> int:
    """The HK lower bound ``M * (P(2M) - 1)`` given a part count
    (a valid 2M-partition witnesses ``P(2M) <= n_parts``, so this is the
    bound the *witnessed* partition certifies)."""
    return max(0, M * (n_parts - 1))
