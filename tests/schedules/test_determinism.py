"""Seeded randomised schedules are bit-reproducible — including their
telemetry counters, so seeded runs can be pinned exactly."""

import numpy as np
import pytest

from repro import telemetry
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.schedules import (
    random_product_order_schedule,
    random_topological_schedule,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _counters(name):
    """Counter dicts of all collected spans with ``name``."""
    return [
        s["counters"]
        for s in telemetry.collected_spans()
        if s["name"] == name
    ]


def test_random_topo_seeded_runs_are_identical():
    g = build_cdag(strassen(), 2)
    telemetry.enable()

    first = random_topological_schedule(g, seed=1234)
    first_counters = _counters("schedules.random_topo")
    telemetry.reset()

    second = random_topological_schedule(g, seed=1234)
    second_counters = _counters("schedules.random_topo")

    np.testing.assert_array_equal(first, second)
    assert first_counters == second_counters
    (counters,) = first_counters
    assert counters["scheduled"] == len(first)
    assert counters["rng_draws"] == len(first)
    assert counters["frontier_peak"] >= 1


def test_random_topo_different_seeds_differ():
    g = build_cdag(strassen(), 2)
    a = random_topological_schedule(g, seed=1)
    b = random_topological_schedule(g, seed=2)
    assert not np.array_equal(a, b)


def test_random_product_order_seeded_runs_are_identical():
    g = build_cdag(strassen(), 2)
    telemetry.enable()

    first = random_product_order_schedule(g, seed=7)
    first_spans = _counters("schedules.random_product_order")
    telemetry.reset()

    second = random_product_order_schedule(g, seed=7)
    second_spans = _counters("schedules.random_product_order")

    np.testing.assert_array_equal(first, second)
    assert first_spans == second_spans == [{}]


def test_counters_identical_without_telemetry_interference():
    """Disabled telemetry must not change the schedule itself."""
    g = build_cdag(strassen(), 2)
    dark = random_topological_schedule(g, seed=99)
    telemetry.enable()
    lit = random_topological_schedule(g, seed=99)
    np.testing.assert_array_equal(dark, lit)
