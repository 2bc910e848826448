"""Benchmark: the parallel sweep executor and the result cache.

Runs the Fig. 6-shaped sweep (Persephone-FCFS / Shinjuku / Concord on
Bimodal(50:1,50:100)) three ways — serial, all-cores parallel, and a warm
cache rerun — asserts all three are bit-identical, and writes the timings
to ``BENCH_parallel.json`` at the repo root (the CI perf artifact).

``REPRO_BENCH_QUALITY`` picks the sweep size (default ``smoke`` so the
benchmark suite stays interactive; ``standard`` reproduces the numbers in
docs/performance.md).  Speedup is *recorded*, not asserted: a 1-core runner
legitimately measures ~1.0x and the determinism assertions are the part
that must never regress.
"""

import json
import os
import time
import warnings
from pathlib import Path

from conftest import engine_events_per_sec

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_parallel.json"
QUALITY = os.environ.get("REPRO_BENCH_QUALITY", "smoke")
#: Tracked (non-fatal) floor: the pool must not make the sweep slower.
#: Measured against the pool's own estimate (in-worker compute seconds vs
#: pool wall), which is meaningful even on a 1-core runner where the
#: end-to-end wall-clock ratio legitimately sits near 1.0.
SPEEDUP_TARGET = 0.95


def _fig6_sweep(runner, scale):
    from repro.core.presets import concord, persephone_fcfs, shinjuku
    from repro.experiments.common import load_grid, sweep_systems
    from repro.hardware import c6420
    from repro.workloads.named import bimodal_50_1_50_100

    machine = c6420()
    workload = bimodal_50_1_50_100()
    max_load = machine.num_workers * 1e6 / workload.mean_us()
    loads = load_grid(max_load, scale.load_points)
    configs = [persephone_fcfs(), shinjuku(5.0), concord(5.0)]
    sweeps = sweep_systems(
        machine, configs, workload, loads, scale.num_requests, seed=1,
        runner=runner,
    )
    return {name: list(sweep.points) for name, sweep in sweeps.items()}


def test_parallel_sweep_and_cache(benchmark, tmp_path):
    from repro.experiments.common import scale_for
    from repro.parallel import ParallelRunner, ResultCache, resolve_jobs

    scale = scale_for(QUALITY)
    jobs = resolve_jobs(0)  # one worker per available core

    started = time.perf_counter()
    serial = _fig6_sweep(ParallelRunner(jobs=1), scale)
    serial_seconds = time.perf_counter() - started

    cache_dir = tmp_path / "cache"
    pool_runner = ParallelRunner(jobs=jobs, cache=ResultCache(cache_dir))
    started = time.perf_counter()
    parallel = benchmark.pedantic(
        _fig6_sweep,
        args=(pool_runner, scale),
        rounds=1,
        iterations=1,
    )
    parallel_seconds = time.perf_counter() - started
    pool_speedup = pool_runner.parallel_speedup()
    runner_footer = pool_runner.summary_line()
    pool_runner.close()

    warm_runner = ParallelRunner(jobs=1, cache=ResultCache(cache_dir))
    started = time.perf_counter()
    warm = _fig6_sweep(warm_runner, scale)
    warm_seconds = time.perf_counter() - started

    # The non-negotiable part: parallel and cached results are bit-identical.
    assert serial == parallel
    assert serial == warm
    assert warm_runner.stats["jobs_run"] == 0  # every point came from cache

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    warm_over_cold = warm_seconds / max(parallel_seconds, 1e-9)
    events_per_sec = engine_events_per_sec(repeats=1)
    artifact = {
        "schema": 1,
        "quality": QUALITY,
        "jobs": jobs,
        "sweep": {
            "workload": "bimodal-50-1-50-100",
            "configs": sorted(serial),
            "load_points": scale.load_points,
            "num_requests": scale.num_requests,
        },
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 3),
        "warm_cache_seconds": round(warm_seconds, 3),
        "warm_over_cold": round(warm_over_cold, 4),
        "engine_events_per_sec": round(events_per_sec),
        "points_identical": True,
        "pool_speedup": round(pool_speedup, 3) if pool_speedup else None,
        "pool_speedup_target": SPEEDUP_TARGET,
        "pool_speedup_ok": (
            pool_speedup >= SPEEDUP_TARGET if pool_speedup is not None else None
        ),
        "runner_footer": runner_footer,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    benchmark.extra_info.update(artifact)

    # Tracked, non-fatal: the persistent pool should beat its estimated
    # serial cost.  A shared/1-core CI runner can dip below the target, so
    # a miss warns loudly (and lands in the artifact) instead of failing.
    if pool_speedup is not None and pool_speedup < SPEEDUP_TARGET:
        warnings.warn(
            "pool speedup {:.2f}x below target {:.2f}x — {}".format(
                pool_speedup, SPEEDUP_TARGET, runner_footer
            ),
            stacklevel=1,
        )

    # Sanity floors only — the speedup itself is environment-dependent and
    # recorded rather than asserted (see module docstring).
    assert speedup > 0.4
    assert warm_runner.cache.hits == sum(len(v) for v in warm.values())
    assert warm_seconds < parallel_seconds
