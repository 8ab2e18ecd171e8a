"""Integration tests: every experiment reproduces its paper claims.

These are the end-to-end checks — each experiment's ``checks`` dict is
the machine-verdict on the corresponding paper statement (see DESIGN.md
section 3 for the experiment <-> paper map).
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentResult, get_experiment, list_experiments

ALL_IDS = [f"E{i}" for i in range(1, 16)]


@pytest.fixture(scope="session")
def default_result():
    """Each experiment's result at default parameters, computed once per
    session and shared by every test that asserts against it."""
    results = {}

    def get(experiment_id):
        if experiment_id not in results:
            results[experiment_id] = get_experiment(experiment_id)()
        return results[experiment_id]

    return get


class TestRegistry:
    def test_all_registered(self):
        assert list_experiments() == sorted(ALL_IDS)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E99")


@pytest.mark.parametrize("experiment_id", ALL_IDS)
class TestReproduction:
    def test_all_checks_pass(self, experiment_id, default_result):
        result = default_result(experiment_id)
        failed = [name for name, ok in result.checks.items() if not ok]
        assert not failed, f"{experiment_id} failed checks: {failed}"

    def test_result_structure(self, experiment_id, default_result):
        result = default_result(experiment_id)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.tables, "every experiment reports at least one table"
        assert result.checks, "every experiment verifies at least one claim"
        rendered = result.render()
        assert experiment_id in rendered
        assert "FAIL" not in rendered


class TestParameterisation:
    def test_e2_custom_depth(self):
        assert get_experiment("E2")(r=2).all_checks_pass

    def test_e3_small_k(self):
        assert get_experiment("E3")(k_max=2).all_checks_pass

    def test_e4_k1_only(self):
        assert get_experiment("E4")(k_max=1).all_checks_pass

    def test_e9_small(self):
        assert get_experiment("E9")(
            r_max=3, cache_sizes=(12, 48), r_big=None
        ).all_checks_pass

    def test_e11_small_n(self):
        assert get_experiment("E11")(n=2**8).all_checks_pass

    def test_e15_tiny_budget(self):
        # Even a tiny budget must not regress the start; the
        # beats-fixed-family check needs the default budget, so only the
        # structural checks are asserted here.
        result = get_experiment("E15")(budget=8, generation=4, seed=3)
        assert result.checks["search never regresses the start order"]
        assert result.checks["measured I/O stays above the Theorem-1 bound"]
        assert result.data["trajectory"]


def test_e15_matches_committed_bench_tune(default_result):
    """``BENCH_tune.json`` records E15's grid point; the default run
    must reproduce its tuned I/O and fixed-family I/O exactly."""
    bench_path = Path(__file__).resolve().parents[2] / "BENCH_tune.json"
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    result = default_result("E15")
    assert result.data["tuned_io"] == bench["tuned_io"]
    assert result.data["families"] == bench["families"]
