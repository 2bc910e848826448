"""Shared fixtures for the benchmark harness.

Each ``test_bench_*`` file regenerates one of the paper's tables/figures
through pytest-benchmark.  Benchmarks run at "smoke" quality so the whole
suite stays interactive; use the ``concord-repro`` CLI with
``--quality full`` for the numbers recorded in EXPERIMENTS.md.
"""

import time

import pytest

from repro.experiments.registry import run_experiment
from repro.sim.engine import Simulator


@pytest.fixture(scope="session")
def quality():
    return "smoke"


def run_once(benchmark, experiment_id, quality):
    """Benchmark one experiment with a single round: the experiments are
    deterministic simulations, so repeated rounds only repeat identical
    work."""
    return benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"quality": quality},
        rounds=1,
        iterations=1,
    )


def assert_summary(results, key_substring):
    """Find a summary entry whose key contains ``key_substring`` across a
    list of ExperimentResults; returns (key, value) of the first match."""
    for result in results:
        for key, value in result.summary.items():
            if key_substring in key:
                return key, value
    raise AssertionError(
        "no summary key containing {!r} in {}".format(
            key_substring, [list(r.summary) for r in results]
        )
    )


def engine_events_per_sec(num_events=100_000, repeats=3):
    """Best-of-``repeats`` throughput of the engine drain loop on a chain
    of no-op events: a microbenchmark of the event queue alone, shared by
    the obs, faults and parallel benchmarks so their numbers compare."""
    best = 0.0
    for _ in range(repeats):
        sim = Simulator()
        remaining = [num_events]

        def step():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.after(10, step)

        sim.at(0, step)
        started = time.perf_counter()
        sim.run()
        elapsed = max(time.perf_counter() - started, 1e-9)
        best = max(best, num_events / elapsed)
    return best
