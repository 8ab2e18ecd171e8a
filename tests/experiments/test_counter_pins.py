"""Exact pins of the deterministic behaviour counters.

Each experiment below runs at a fixed reduced workload with telemetry
on, and the metrics registry's counters — CDAG sizes, routing
certificate sizes, pebble-game I/O totals — must equal the literal
dicts here.  Path counters (which kernel path ran, plan-cache hits)
depend on the environment and are left out.  The comparison is dict
equality, so a counter that appears, disappears or moves by any amount
fails: a simulator bug that scales I/O by a constant factor fails here
even when every Ω-form check still passes.
"""

import pytest

from repro import telemetry
from repro.cdag import artifact
from repro.experiments import get_experiment

PATH_PREFIXES = ("simcore.kernel.", "pebbling.plan.")

#: experiment id -> (params, behaviour counters of one run)
PINS = {
    "E1": ({}, {
        "cdag.build.edges": 1955,
        "cdag.build.recursion_depth": 9,
        "cdag.build.vertices": 1038,
    }),
    "E2": ({}, {
        "cdag.build.edges": 77087,
        "cdag.build.recursion_depth": 23,
        "cdag.build.vertices": 37908,
    }),
    "E3": ({}, {
        "cdag.build.edges": 10280,
        "cdag.build.recursion_depth": 14,
        "cdag.build.vertices": 5193,
    }),
    "E4": ({"k_max": 2}, {
        "cdag.build.edges": 2745,
        "cdag.build.recursion_depth": 12,
        "cdag.build.vertices": 1503,
        "routing.certificate.chain_reuse": 87,
        "routing.certificate.lemma3_max_hits": 58,
        "routing.certificate.max_meta_hits": 368,
        "routing.certificate.max_vertex_hits": 534,
        "routing.certificate.paths": 2818,
        "routing.hall.base_matching.dependencies": 406,
        "routing.hall.base_matching.matching_phases": 18,
        "routing.hall.base_matching.multiplications": 344,
        "routing.lemma3.chains": 742,
    }),
    "E9": ({"r_max": 4, "cache_sizes": (12, 48), "r_big": None}, {
        "cdag.build.edges": 35070,
        "cdag.build.recursion_depth": 9,
        "cdag.build.vertices": 18207,
        "pebbling.run.evictions": 201236,
        "pebbling.run.peak_cache": 540,
        "pebbling.run.reads": 96566,
        "pebbling.run.scheduled": 105210,
        "pebbling.run.spill_reads": 84647,
        "pebbling.run.spill_writes": 59161,
        "pebbling.run.writes": 61177,
    }),
}


@pytest.fixture()
def recorded(monkeypatch):
    """Telemetry on, no graph-bundle cache (a cache hit skips the CDAG
    build and its counters); the registry is cleared before and after."""
    monkeypatch.delenv(artifact.ENV_VAR, raising=False)
    monkeypatch.setattr(artifact, "_active_cache", None)
    telemetry.enable()
    telemetry.reset()
    yield telemetry.metrics()
    telemetry.disable()
    telemetry.reset()


@pytest.mark.parametrize("experiment_id", sorted(PINS))
def test_behaviour_counters_are_pinned(experiment_id, recorded):
    params, expected = PINS[experiment_id]
    assert get_experiment(experiment_id)(**params).all_checks_pass
    counters = {
        name: recorded.get(name).value
        for name in recorded.names()
        if isinstance(recorded.get(name), telemetry.Counter)
        and not name.startswith(PATH_PREFIXES)
    }
    assert counters == expected
