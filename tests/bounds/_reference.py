"""The whole-graph dominator computation, kept verbatim as the
reference for equivalence tests.

This is the version :func:`repro.bounds.minimum_dominator_size`
replaced: it builds the vertex-split flow network on *every* vertex of
the CDAG, where the current one builds it on the targets' ancestor cone
only.  The property tests run both on random target sets and assert
equal values.  Do not optimise this file — its value is that it stays a
line-by-line transcription of the original network.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG
from repro.utils.flow import Dinic


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
    """
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) == 0:
        return 0
    n = cdag.n_vertices
    # Node ids: in(v) = 2v, out(v) = 2v + 1; source = 2n; sink = 2n + 1.
    dinic = Dinic(2 * n + 2)
    source, sink = 2 * n, 2 * n + 1
    for v in range(n):
        dinic.add_edge(2 * v, 2 * v + 1, 1)
    for child, parent in zip(
        cdag.pred_indices.tolist(),
        np.repeat(np.arange(n), np.diff(cdag.pred_indptr)).tolist(),
    ):
        dinic.add_edge(2 * child + 1, 2 * parent, Dinic.INF)
    inputs = np.nonzero(cdag.in_degree() == 0)[0]
    for v in inputs.tolist():
        dinic.add_edge(source, 2 * v, Dinic.INF)
    for v in targets.tolist():
        dinic.add_edge(2 * v + 1, sink, Dinic.INF)
    return dinic.max_flow(source, sink)
