"""``run_many`` pool partitioning: the automatic default, its decision
rule, and the checks that run before any plan build or pool fork."""

import concurrent.futures
import multiprocessing

import pytest

from repro import telemetry
from repro.bilinear import strassen
from repro.cdag import build_cdag
from repro.errors import CacheError
from repro.pebbling import CacheExecutor
from repro.pebbling import executor as executor_mod
from repro.schedules import recursive_schedule
from repro.simcore import dispatch

ENV = executor_mod.ENV_RUN_MANY_WORKERS
BIG = executor_mod.AUTO_PARTITION_MIN_STEPS


@pytest.fixture()
def four_cpus(monkeypatch):
    """A top-level process with four usable CPUs and no env override."""
    monkeypatch.delenv(ENV, raising=False)
    monkeypatch.setattr(executor_mod, "_usable_cpus", lambda: 4)


@pytest.fixture()
def no_pool(monkeypatch):
    """Any attempt to start a process pool fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.fixture(scope="module")
def strassen_r2():
    g = build_cdag(strassen(), 2)
    return g, recursive_schedule(g)


def _decide(workers, n_steps, n_configs):
    return executor_mod._partition_count(
        executor_mod._requested_workers(workers), n_steps, n_configs
    )


class TestDecisionRule:
    def test_large_fallback_grid_is_partitioned(self, four_cpus, monkeypatch):
        with dispatch.forced_mode("off"):
            # At most AUTO_PARTITION_MAX_WORKERS, however many CPUs.
            assert _decide(None, BIG, 8) == 2
            monkeypatch.setattr(executor_mod, "AUTO_PARTITION_MAX_WORKERS", 8)
            assert _decide(None, BIG, 8) == 4
            # Never more partitions than configurations.
            assert _decide(None, BIG, 3) == 3

    def test_one_usable_cpu_stays_serial(self, monkeypatch):
        monkeypatch.delenv(ENV, raising=False)
        monkeypatch.setattr(executor_mod, "_usable_cpus", lambda: 1)
        with dispatch.forced_mode("off"):
            assert _decide(None, BIG, 8) == 1

    def test_small_grid_stays_serial(self, four_cpus):
        with dispatch.forced_mode("off"):
            assert _decide(None, BIG // 8 - 1, 8) == 1

    def test_kernel_path_stays_serial(self, four_cpus):
        with dispatch.forced_mode("interp"):
            assert _decide(None, BIG, 8) == 1

    def test_multiprocessing_child_stays_serial(self, four_cpus):
        with dispatch.forced_mode("off"):
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(1) as pool:
                assert pool.apply(_decide, (None, BIG, 8)) == 1

    def test_explicit_workers_win(self, four_cpus):
        with dispatch.forced_mode("off"):
            assert _decide(1, BIG, 8) == 1
            assert _decide(0, BIG, 8) == 1
        with dispatch.forced_mode("interp"):
            assert _decide(3, 1, 8) == 3

    def test_env_overrides_the_default(self, four_cpus, monkeypatch):
        with dispatch.forced_mode("off"):
            monkeypatch.setenv(ENV, "1")
            assert _decide(None, BIG, 8) == 1
            monkeypatch.setenv(ENV, "0")
            assert _decide(None, BIG, 8) == 1
            monkeypatch.setenv(ENV, "2")
            assert _decide(None, 1, 8) == 2
            # workers= beats the environment variable.
            assert _decide(1, BIG, 8) == 1


class TestStackPassRouting:
    """On the fallback path every LRU cell comes from one stack pass in
    the parent; only FIFO and Belady cells are pool work."""

    def test_lru_only_grid_starts_no_pool(
        self, strassen_r2, four_cpus, no_pool, monkeypatch
    ):
        g, sched = strassen_r2
        monkeypatch.setattr(executor_mod, "AUTO_PARTITION_MIN_STEPS", 0)
        with dispatch.forced_mode("off"):
            ex = CacheExecutor(g)
            results = ex.run_many(sched, (8, 12, 24, 48, 96), ("lru",))
            assert results == {
                (M, "lru"): ex.run(sched, M, "lru") for M in (8, 12, 24, 48, 96)
            }

    def test_partition_count_sees_only_loop_configurations(
        self, strassen_r2, monkeypatch
    ):
        g, sched = strassen_r2
        seen = []
        real = executor_mod._partition_count

        def spy(workers, n_steps, n_configs):
            seen.append(n_configs)
            return real(workers, n_steps, n_configs)

        monkeypatch.setattr(executor_mod, "_partition_count", spy)
        grid = ((8, 12, 24), ("lru", "fifo", "belady"))
        with dispatch.forced_mode("off"):
            CacheExecutor(g).run_many(sched, *grid, workers=1)
        with dispatch.forced_mode("interp"):
            CacheExecutor(g).run_many(sched, *grid, workers=1)
        assert seen == [6, 9]

    def test_threshold_counts_loop_steps_only(
        self, strassen_r2, four_cpus, no_pool, monkeypatch
    ):
        """Six cells would cross the threshold; the three Belady cells
        alone do not, so the grid stays serial."""
        g, sched = strassen_r2
        n_steps = CacheExecutor(g).compile(sched).n_steps
        monkeypatch.setattr(
            executor_mod, "AUTO_PARTITION_MIN_STEPS", 4 * n_steps
        )
        with dispatch.forced_mode("off"):
            CacheExecutor(g).run_many(sched, (8, 12, 24), ("lru", "belady"))


class TestUsableCpus:
    @pytest.mark.parametrize(
        "cpu_max,expected",
        [("max 100000\n", None), ("200000 100000\n", 2),
         ("150000 100000\n", 2), ("50000 100000\n", 1)],
    )
    def test_cgroup_v2_quota(self, tmp_path, cpu_max, expected):
        (tmp_path / "cpu.max").write_text(cpu_max)
        assert executor_mod._cgroup_cpu_limit(str(tmp_path)) == expected

    @pytest.mark.parametrize(
        "quota,expected", [("-1", None), ("300000", 3), ("250000", 3)]
    )
    def test_cgroup_v1_quota(self, tmp_path, quota, expected):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text(quota + "\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert executor_mod._cgroup_cpu_limit(str(tmp_path)) == expected

    def test_no_cgroup_files_means_no_limit(self, tmp_path):
        assert executor_mod._cgroup_cpu_limit(str(tmp_path)) is None

    @staticmethod
    def _nested(tmp_path, own: str, quotas: dict[str, str]):
        """A cgroup v2 tree under ``tmp_path/fs`` with ``cpu.max`` at the
        given relative paths, and a ``/proc/self/cgroup`` naming
        ``own``; returns the two paths."""
        root = tmp_path / "fs"
        root.mkdir()
        for rel, cpu_max in quotas.items():
            (root / rel).mkdir(parents=True, exist_ok=True)
            (root / rel / "cpu.max").write_text(cpu_max)
        self_cgroup = tmp_path / "cgroup"
        self_cgroup.write_text(f"1:name=systemd:/x\n0::{own}\n")
        return str(root), str(self_cgroup)

    def test_cgroup_v2_quota_on_the_own_nested_cgroup(self, tmp_path):
        """The real root cgroup has no ``cpu.max``; a quota on the
        process's own slice still counts."""
        root, self_cgroup = self._nested(
            tmp_path, "/system.slice/job.service",
            {"system.slice/job.service": "300000 100000\n"},
        )
        assert executor_mod._cgroup_cpu_limit(root, self_cgroup) == 3

    def test_cgroup_v2_smallest_quota_among_ancestors(self, tmp_path):
        root, self_cgroup = self._nested(
            tmp_path, "/a/b/c",
            {"": "max 100000\n", "a": "150000 100000\n",
             "a/b": "400000 100000\n", "a/b/c": "max 100000\n"},
        )
        assert executor_mod._cgroup_cpu_limit(root, self_cgroup) == 2

    def test_cgroup_v2_root_path_reads_the_root_only(self, tmp_path):
        root, self_cgroup = self._nested(
            tmp_path, "/", {"": "200000 100000\n", "a": "100000 100000\n"},
        )
        assert executor_mod._cgroup_cpu_limit(root, self_cgroup) == 2

    def test_no_quota_anywhere_on_the_path(self, tmp_path):
        root, self_cgroup = self._nested(
            tmp_path, "/a/b", {"a": "max 100000\n"},
        )
        assert executor_mod._cgroup_cpu_limit(root, self_cgroup) is None

    def test_quota_caps_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_cgroup_cpu_limit", lambda: 1)
        assert executor_mod._usable_cpus() == 1
        monkeypatch.setattr(executor_mod, "_cgroup_cpu_limit", lambda: None)
        assert executor_mod._usable_cpus() >= 1


class TestFailFast:
    def test_unknown_policy_rejected_before_plan_or_pool(
        self, strassen_r2, no_pool
    ):
        g, sched = strassen_r2
        ex = CacheExecutor(g)
        with pytest.raises(CacheError, match="unknown eviction policy"):
            ex.run_many(sched, (8, 12), ("lfu",), workers=2)
        assert not ex._plans

    def test_bad_env_value_names_the_variable(self, strassen_r2, monkeypatch):
        g, sched = strassen_r2
        monkeypatch.setenv(ENV, "two")
        ex = CacheExecutor(g)
        with pytest.raises(ValueError, match=ENV):
            ex.run_many(sched, (8,), ("lru",))
        assert not ex._plans


def test_auto_partitioning_is_identical_to_serial(monkeypatch):
    """Strassen r=3 with the threshold at 0: the automatically
    partitioned grid returns the serial results, telemetry and registry
    counters; the only additions are the ``pebbling.run_many.partition``
    spans, whose timings stay out of the counter registry."""
    monkeypatch.delenv(ENV, raising=False)
    monkeypatch.setattr(executor_mod, "AUTO_PARTITION_MIN_STEPS", 0)
    monkeypatch.setattr(executor_mod, "_usable_cpus", lambda: 2)
    g = build_cdag(strassen(), 3)
    sched = recursive_schedule(g)
    Ms, policies = (12, 24, 48), ("lru", "fifo", "belady")

    def observe(workers):
        telemetry.reset()
        results = CacheExecutor(g).run_many(sched, Ms, policies, workers=workers)
        spans = telemetry.collected_spans()
        runs = [(s["attrs"], s["counters"]) for s in spans
                if s["name"] == "pebbling.run"]
        parts = [s for s in spans if s["name"] == "pebbling.run_many.partition"]
        names = sorted(s["name"] for s in spans if s not in parts)
        reg = telemetry.metrics()
        counters = {n: reg.get(n).value for n in reg.names()
                    if isinstance(reg.get(n), telemetry.Counter)}
        return results, runs, len(parts), names, counters

    telemetry.enable()
    try:
        with dispatch.forced_mode("off"):
            serial = observe(workers=1)
            auto = observe(workers=None)
    finally:
        telemetry.disable()
        telemetry.reset()
    assert auto[0] == serial[0]
    assert auto[1] == serial[1]
    assert (serial[2], auto[2]) == (0, 2)
    assert auto[3] == serial[3]
    assert auto[4] == serial[4]
    # LRU cells come from the parent's stack pass; FIFO and Belady
    # cells run one loop each.
    assert serial[4]["simcore.kernel.fallback"] == len(Ms) * 2
    assert serial[4]["simcore.kernel.stack"] == len(Ms)
