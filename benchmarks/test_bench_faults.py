"""Benchmark: fault-injection overhead on the fault-free hot path.

The fault layer promises **zero overhead when disabled**: the balancer,
dispatcher, and workers hold ``injector`` / ``faults`` attributes that
stay ``None`` on a plan-free rack, and every hook is one falsy check
(``tests/test_faults.py`` proves the stronger property — bit-identical
results).  This benchmark pins the *throughput* side of that promise:

* the raw engine drain loop, compared against the baseline recorded in
  ``BENCH_obs.json`` (same microbenchmark shape) — the disabled path
  must stay within a few percent of it;
* a plan-free rack run vs the same rack under a crash plan with
  detector+retry resilience — recorded, not asserted (chaos legitimately
  costs events; it just must not perturb fault-free runs).

Timings land in ``BENCH_faults.json`` at the repo root (the CI artifact).
``REPRO_BENCH_QUALITY=standard`` grows the run sizes.
"""

import json
import os
import time
from pathlib import Path

from conftest import engine_events_per_sec

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_faults.json"
BASELINE = REPO_ROOT / "BENCH_obs.json"
QUALITY = os.environ.get("REPRO_BENCH_QUALITY", "smoke")
NUM_REQUESTS = 3_000 if QUALITY == "smoke" else 15_000

#: Loose ceiling on (baseline engine events/sec) / (events/sec now): the
#: target is <2% added cost, but shared runners are noisy, so the gate
#: only trips on a gross regression and the exact ratio is recorded.
MAX_SLOWDOWN_VS_BASELINE = 1.10


def _rack_run_seconds(fault_plan=None, resilience=None):
    """Wall time of one fixed 3-server rack run, optionally under chaos."""
    from repro.cluster import Cluster
    from repro.core.presets import concord
    from repro.hardware import c6420
    from repro.workloads import PoissonProcess
    from repro.workloads.named import bimodal_50_1_50_100

    workload = bimodal_50_1_50_100()
    machine = c6420(4)
    num_servers = 3
    load = 0.7 * num_servers * machine.num_workers * 1e6 / workload.mean_us()

    cluster = Cluster(
        machine, concord(5.0), num_servers, policy="jsq", seed=1,
        fault_plan=fault_plan, resilience=resilience,
    )
    started = time.perf_counter()
    result = cluster.run(workload, PoissonProcess(load), NUM_REQUESTS)
    seconds = time.perf_counter() - started
    assert result.drained
    return seconds


def test_disabled_injector_does_not_slow_the_hot_path(benchmark):
    from repro.faults import ResilienceConfig, crash_plan

    events_per_sec = benchmark.pedantic(
        engine_events_per_sec, rounds=1, iterations=1
    )

    baseline_events_per_sec = None
    ratio_vs_baseline = None
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        baseline_events_per_sec = baseline.get("engine_events_per_sec")
        if baseline_events_per_sec:
            ratio_vs_baseline = baseline_events_per_sec / events_per_sec

    plan_free_seconds = min(_rack_run_seconds() for _ in range(3))
    span_us = NUM_REQUESTS / (0.7 * 3 * 4 * 1e6 / 27.0) * 1e6  # ~mean 27us
    chaos_seconds = _rack_run_seconds(
        fault_plan=crash_plan(
            at_us=0.25 * span_us, down_us=0.3 * span_us, server=1
        ),
        resilience=ResilienceConfig(),
    )

    artifact = {
        "schema": 1,
        "quality": QUALITY,
        "num_requests": NUM_REQUESTS,
        "engine_events_per_sec": round(events_per_sec),
        "baseline_engine_events_per_sec": baseline_events_per_sec,
        "slowdown_vs_baseline": (
            round(ratio_vs_baseline, 4) if ratio_vs_baseline else None
        ),
        "rack_run_seconds_plan_free": round(plan_free_seconds, 4),
        "rack_run_seconds_crash_retry": round(chaos_seconds, 4),
        "chaos_overhead": round(
            chaos_seconds / max(plan_free_seconds, 1e-9), 3
        ),
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    benchmark.extra_info.update(artifact)

    if ratio_vs_baseline is not None:
        assert ratio_vs_baseline < MAX_SLOWDOWN_VS_BASELINE, (
            "plan-free engine throughput regressed {:.1%} vs "
            "BENCH_obs.json".format(ratio_vs_baseline - 1.0)
        )
    # Absolute sanity floor, mirroring test_bench_engine.py.
    assert events_per_sec > 50_000
