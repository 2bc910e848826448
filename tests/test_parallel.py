"""Tests for the parallel sweep executor and the result cache.

The load-bearing property is *bit-identical determinism*: fanning a sweep
out across processes (or serving it from the cache) must reproduce the
serial results exactly, not approximately.
"""

import enum
import pickle
import warnings
from dataclasses import dataclass

import pytest

from repro.core.config import RuntimeConfig
from repro.core.presets import concord, shinjuku
from repro.experiments.common import load_grid, sweep_systems
from repro.hardware import c6420
from repro.metrics.sweep import LoadSweep
from repro.parallel import (
    ParallelRunner,
    ResultCache,
    SimJob,
    UncacheableValue,
    get_default_runner,
    resolve_jobs,
    set_default_runner,
    stable_describe,
    using_runner,
)
from repro.workloads.named import bimodal_50_1_50_100

NUM_REQUESTS = 800


# -- fixtures for stable_describe's structural coverage ----------------------


class _Knob(enum.Enum):
    FAST = 1
    SLOW = 2


class _IntKnob(enum.IntEnum):
    TWO = 2


@dataclass(frozen=True)
class _Inner:
    kind: str
    weight: float


@dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    pairs: tuple
    knob: _Knob


@dataclass(frozen=True)
class _Echo:
    value: int

    def run(self):
        return self.value


class _RaiseStored:
    """Raises the same exception object every run."""

    def __init__(self):
        self.error = ValueError("original")

    def run(self):
        raise self.error


def _machine():
    return c6420(4)


def _configs():
    return [shinjuku(5.0), concord(5.0)]


def _loads():
    machine = _machine()
    workload = bimodal_50_1_50_100()
    max_load = machine.num_workers * 1e6 / workload.mean_us()
    return load_grid(max_load, 3, low_fraction=0.4, high_fraction=0.8)


def _sweep_points(runner):
    sweeps = sweep_systems(
        _machine(), _configs(), bimodal_50_1_50_100(), _loads(),
        NUM_REQUESTS, seed=7, runner=runner,
    )
    return {name: list(sweep.points) for name, sweep in sweeps.items()}


class TestDeterminism:
    def test_parallel_results_bit_identical_to_serial(self):
        """Serial, jobs=2, and jobs=4 all yield identical SweepPoints for
        two configs on fig6's workload (the ISSUE's acceptance bar)."""
        serial = _sweep_points(ParallelRunner(jobs=1))
        two = _sweep_points(ParallelRunner(jobs=2))
        four = _sweep_points(ParallelRunner(jobs=4))
        assert set(serial) == {"Shinjuku", "Concord"}
        for name in serial:
            assert serial[name] == two[name]
            assert serial[name] == four[name]

    def test_loadsweep_runner_path_matches_run_point(self):
        machine, workload = _machine(), bimodal_50_1_50_100()
        loads = _loads()
        a = LoadSweep(machine, shinjuku(5.0), workload,
                      num_requests=NUM_REQUESTS, seed=3)
        a.run(loads)
        b = LoadSweep(machine, shinjuku(5.0), workload,
                      num_requests=NUM_REQUESTS, seed=3)
        b.run(loads, runner=ParallelRunner(jobs=2))
        assert a.points == b.points

    def test_map_preserves_input_order(self):
        machine, workload = _machine(), bimodal_50_1_50_100()
        jobs = [
            SimJob(machine=machine, config=shinjuku(5.0), workload=workload,
                   load_rps=load, num_requests=300, seed=1)
            for load in reversed(_loads())
        ]
        results = ParallelRunner(jobs=2).map(jobs)
        assert [r.load_rps for r in results] == [j.load_rps for j in jobs]


class TestCache:
    def test_cache_hit_returns_identical_content(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=2, cache=cache)
        cold = _sweep_points(runner)
        assert cache.stores > 0
        warm_runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        warm = _sweep_points(warm_runner)
        assert warm_runner.stats["jobs_run"] == 0
        assert warm_runner.cache.hits == sum(len(v) for v in warm.values())
        assert cold == warm

    def test_distinct_specs_get_distinct_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        machine, workload = _machine(), bimodal_50_1_50_100()
        base = dict(machine=machine, config=shinjuku(5.0), workload=workload,
                    load_rps=1000.0, num_requests=100, seed=1)
        key = cache.key_for(SimJob(**base))
        assert key is not None
        variants = [
            SimJob(**{**base, "seed": 2}),
            SimJob(**{**base, "load_rps": 2000.0}),
            SimJob(**{**base, "num_requests": 200}),
            SimJob(**{**base, "config": shinjuku(2.0)}),
            SimJob(**{**base, "config": concord(5.0)}),
            SimJob(**{**base, "machine": c6420(2)}),
        ]
        keys = {cache.key_for(job) for job in variants}
        assert key not in keys
        assert len(keys) == len(variants)

    def test_same_spec_same_key_across_instances(self, tmp_path):
        machine, workload = _machine(), bimodal_50_1_50_100()
        a = SimJob(machine=machine, config=concord(5.0), workload=workload,
                   load_rps=5e5, num_requests=100, seed=1)
        b = SimJob(machine=c6420(4), config=concord(5.0),
                   workload=bimodal_50_1_50_100(),
                   load_rps=5e5, num_requests=100, seed=1)
        cache = ResultCache(tmp_path)
        assert cache.key_for(a) == cache.key_for(b)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        hit, value = cache.get(key)
        assert not hit and value is None

    def test_lambda_configs_are_uncacheable_not_fatal(self, tmp_path):
        config = RuntimeConfig(
            name="adhoc", quantum_us=5.0,
            preemption_factory=lambda machine: None,
        )
        job = SimJob(machine=_machine(), config=config,
                     workload=bimodal_50_1_50_100(), load_rps=1e5,
                     num_requests=10, seed=1)
        cache = ResultCache(tmp_path)
        assert cache.key_for(job) is None


class TestStableDescribe:
    def test_rejects_lambdas(self):
        with pytest.raises(UncacheableValue):
            stable_describe(lambda: None)

    def test_primitives_and_containers(self):
        desc = stable_describe({"b": [1, 2.5], "a": ("x", None)})
        assert desc == stable_describe({"a": ("x", None), "b": [1, 2.5]})

    def test_float_int_distinct(self):
        assert stable_describe(1) != stable_describe(1.0)

    def test_class_references_by_name(self):
        from repro.workloads.arrivals import PoissonProcess

        desc = stable_describe(PoissonProcess)
        assert "PoissonProcess" in str(desc)

    def test_nested_frozen_dataclasses_stable(self):
        def make():
            return _Outer(
                name="n", inner=_Inner(kind="k", weight=1.5),
                pairs=(_Inner("a", 0.25), _Inner("b", 0.75)),
                knob=_Knob.FAST,
            )
        assert stable_describe(make()) == stable_describe(make())

    def test_nested_field_change_changes_description(self):
        base = _Outer(name="n", inner=_Inner("k", 1.5),
                      pairs=(_Inner("a", 0.25),), knob=_Knob.FAST)
        deep = _Outer(name="n", inner=_Inner("k", 2.5),
                      pairs=(_Inner("a", 0.25),), knob=_Knob.FAST)
        in_tuple = _Outer(name="n", inner=_Inner("k", 1.5),
                          pairs=(_Inner("a", 0.5),), knob=_Knob.FAST)
        assert stable_describe(base) != stable_describe(deep)
        assert stable_describe(base) != stable_describe(in_tuple)

    def test_enum_members_distinct_from_their_values(self):
        assert stable_describe(_IntKnob.TWO) != stable_describe(2)
        assert stable_describe(_Knob.FAST) != stable_describe(1)
        assert stable_describe(_Knob.FAST) != stable_describe(_Knob.SLOW)
        assert "FAST" in str(stable_describe(_Knob.FAST))

    def test_enum_fields_give_stable_cache_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = _Outer(name="n", inner=_Inner("k", 1.0),
                   pairs=(), knob=_Knob.SLOW)
        b = _Outer(name="n", inner=_Inner("k", 1.0),
                   pairs=(), knob=_Knob.SLOW)
        assert cache.key_for(a) == cache.key_for(b)
        c = _Outer(name="n", inner=_Inner("k", 1.0),
                   pairs=(), knob=_Knob.FAST)
        assert cache.key_for(a) != cache.key_for(c)


class TestRunnerMachinery:
    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "nope")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_resolve_jobs_edge_cases(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs(None) >= 1
        # Blank env is the same as unset: serial default.
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert resolve_jobs(None) == 1
        # Negative values (env or argument) mean "all cores", never 0.
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert resolve_jobs(None) >= 1
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(-3) >= 1
        # An explicit argument beats the environment.
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2
        with pytest.raises(ValueError):
            monkeypatch.setenv("REPRO_JOBS", "2.5")
            resolve_jobs(None)

    def test_chunk_boundaries(self):
        from repro.parallel.runner import _chunks

        # ~4 tasks per worker: 17 jobs on 2 workers ship 3 to a task.
        chunks = _chunks(list(range(17)), 2, singleton=False)
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 3, 3, 2]
        # Chunking covers every index exactly once, in order.
        assert [i for chunk in chunks for i in chunk] == list(range(17))
        # Fewer jobs than 4 per worker: one job per task, never empty.
        assert _chunks([0, 1, 2], 4, singleton=False) == [[0], [1], [2]]
        # Singleton (watchdog/retry) rounds ship one job per task.
        assert _chunks([3, 5, 8, 9, 11], 1, singleton=True) == [
            [3], [5], [8], [9], [11]
        ]

    def test_single_job_batch_stays_in_process(self):
        # One job cannot be parallelised; no pool should ever start.
        runner = ParallelRunner(jobs=4)
        job = SimJob(machine=_machine(), config=shinjuku(5.0),
                     workload=bimodal_50_1_50_100(), load_rps=2e5,
                     num_requests=100, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # not a fallback either
            result = runner.map([job])
        assert result[0].completed > 0
        assert runner.stats["pool_starts"] == 0
        assert runner.stats["fallbacks"] == 0
        assert runner.stats["jobs_run"] == 1

    def test_pickle_probe_is_lazy_and_caps_detail(self, monkeypatch):
        # The probe stops at the first unpicklable job instead of
        # pickling the whole batch, and clips huge exception text.
        probes = []
        real_dumps = pickle.dumps

        class Unpicklable:
            def __reduce__(self):
                raise TypeError("boom " + "x" * 5000)

        def counting_dumps(obj, *args, **kwargs):
            probes.append(obj)
            return real_dumps(obj, *args, **kwargs)

        import repro.parallel.runner as runner_mod
        monkeypatch.setattr(runner_mod.pickle, "dumps", counting_dumps)
        batch = [Unpicklable() for _ in range(6)]
        message = runner_mod._pickle_problem(batch)
        assert message is not None
        # One batch probe plus the culprit field probes — never all six.
        assert len(probes) <= 2
        assert len(message) < 600

    def test_unpicklable_batch_falls_back_in_process(self):
        config = RuntimeConfig(
            name="adhoc-shinjuku", quantum_us=5.0,
            preemption_factory=lambda machine: __import__(
                "repro.core.preemption", fromlist=["PostedIPI"]
            ).PostedIPI(),
        )
        with pytest.raises(Exception):
            pickle.dumps(config)
        runner = ParallelRunner(jobs=4)
        job = SimJob(machine=_machine(), config=config,
                     workload=bimodal_50_1_50_100(), load_rps=2e5,
                     num_requests=200, seed=1)
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            results = runner.map([job, job])
        assert runner.stats["fallbacks"] >= 1
        assert runner.stats["pool_starts"] == 0
        assert results[0] == results[1]
        assert results[0].completed > 0
        # The degradation warns once per runner, not once per batch.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = runner.map([job])
        assert again[0] == results[0]

    def test_fallback_warning_names_the_unpicklable_field(self):
        config = RuntimeConfig(
            name="adhoc-shinjuku", quantum_us=5.0,
            preemption_factory=lambda machine: __import__(
                "repro.core.preemption", fromlist=["PostedIPI"]
            ).PostedIPI(),
        )
        job = SimJob(machine=_machine(), config=config,
                     workload=bimodal_50_1_50_100(), load_rps=2e5,
                     num_requests=100, seed=1)
        with pytest.warns(RuntimeWarning) as captured:
            ParallelRunner(jobs=2).map([job, job])
        message = str(captured[0].message)
        # The culprit is the dataclass field holding the lambda, named
        # precisely so users know what to fix for true parallelism.
        assert "culprit: SimJob.config" in message
        # The warning names the line that called map().
        assert [w.filename for w in captured] == [__file__]

    def test_pool_failure_warns_and_falls_back(self, monkeypatch):
        runner = ParallelRunner(jobs=2)

        def broken_pool(jobs, pending, workers, results, settle, errors):
            raise OSError("pools forbidden here")

        monkeypatch.setattr(runner, "_execute_pool", broken_pool)
        job = SimJob(machine=_machine(), config=shinjuku(5.0),
                     workload=bimodal_50_1_50_100(), load_rps=2e5,
                     num_requests=200, seed=1)
        with pytest.warns(RuntimeWarning,
                          match="process pool unavailable") as captured:
            results = runner.map([job, job])
        assert runner.stats["fallbacks"] == 1
        assert runner.stats["pool_starts"] == 0
        assert runner.stats["jobs_run"] == 2
        assert results[0] == results[1]
        # The warning names the line that called map().
        assert [w.filename for w in captured] == [__file__]

    def test_pool_failure_salvages_completed_results(self, monkeypatch):
        """Satellite regression: a pool that dies mid-batch keeps the
        chunks that finished and re-runs only the unfinished remainder."""
        runner = ParallelRunner(jobs=2)
        jobs = [
            SimJob(machine=_machine(), config=shinjuku(5.0),
                   workload=bimodal_50_1_50_100(), load_rps=load,
                   num_requests=200, seed=1)
            for load in (1e5, 2e5, 3e5, 4e5)
        ]
        serial = ParallelRunner(jobs=1).map(jobs)

        def partial_pool(jobs, pending, workers, results, settle, errors):
            # Settle the first half with a marker, then fail like a
            # broken pool.
            for i in pending[:len(pending) // 2]:
                settle(i, ("from the pool", i), 0.0)
            raise OSError("worker pool failed mid-batch")

        monkeypatch.setattr(runner, "_execute_pool", partial_pool)
        with pytest.warns(RuntimeWarning, match="2 unfinished job"):
            results = runner.map(jobs)
        # Only the unfinished remainder ran in-process: the settled
        # half kept the pool's values instead of being re-run.
        assert results[:2] == [("from the pool", 0), ("from the pool", 1)]
        assert results[2:] == serial[2:]
        assert runner.stats["jobs_run"] == 4
        assert runner.stats["fallbacks"] == 1

    def test_in_process_error_is_the_original_exception(self):
        """In-process, the job's own exception object is raised, after
        the rest of the batch settled."""
        job = _RaiseStored()
        runner = ParallelRunner(jobs=1)
        with pytest.raises(ValueError) as raised:
            runner.map([_Echo(0), job, _Echo(2)])
        assert raised.value is job.error
        assert runner.stats["jobs_run"] == 2

    def test_default_runner_context(self):
        original = get_default_runner()
        override = ParallelRunner(jobs=2)
        with using_runner(override) as active:
            assert active is override
            assert get_default_runner() is override
        assert get_default_runner() is original
        set_default_runner(None)
        assert get_default_runner() is not override

    def test_jobs_are_picklable(self):
        job = SimJob(machine=_machine(), config=concord(5.0),
                     workload=bimodal_50_1_50_100(), load_rps=1e5,
                     num_requests=10, seed=1)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.config.name == "Concord"


class TestRackJobs:
    def test_rack_job_matches_direct_cluster_run(self):
        from repro.cluster import Cluster
        from repro.parallel import RackJob
        from repro.workloads.arrivals import PoissonProcess

        machine = c6420(2)
        workload = bimodal_50_1_50_100()
        load = 0.6 * 2 * 2 * 1e6 / workload.mean_us()
        job = RackJob(machine=machine, config=concord(5.0), num_servers=2,
                      policy="jsq", workload=workload, load_rps=load,
                      num_requests=600, seed=5)
        direct = Cluster(machine, concord(5.0), 2, policy="jsq", seed=5)
        direct_result = direct.run(workload, PoissonProcess(load), 600)
        outcome = ParallelRunner(jobs=2).map([job])[0]
        assert outcome["p99"] == direct_result.summary(0.1).p99
        assert outcome["imbalance"] == direct_result.imbalance()
        assert outcome["drained"] == direct_result.drained
