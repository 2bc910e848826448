"""Benchmark: observability overhead on the uninstrumented hot path.

The probe bus promises **zero overhead when disabled**: components hold a
``probes`` attribute that stays ``None`` and every probe site is guarded
by one falsy check, while the engine drain loop is not touched at all
(the bus rides the pre-existing hoisted ``_trace`` slot).  This benchmark
pins that promise and records the actual cost of turning tracing on:

* the raw engine drain loop, compared against the baseline recorded in
  ``BENCH_parallel.json`` (same microbenchmark shape) — the disabled
  path must stay within a few percent of it;
* an untraced server run vs the same run under ``TraceConfig.full()``
  and ``TraceConfig.flight_only()`` — recorded, not asserted (full
  tracing legitimately costs memory and time; it just must not change
  results, which ``tests/test_obs.py`` enforces differentially).

Timings land in ``BENCH_obs.json`` at the repo root (the CI artifact).
``REPRO_BENCH_QUALITY=standard`` grows the run sizes.
"""

import json
import os
import time
from pathlib import Path

from conftest import engine_events_per_sec

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_obs.json"
BASELINE = REPO_ROOT / "BENCH_parallel.json"
QUALITY = os.environ.get("REPRO_BENCH_QUALITY", "smoke")
NUM_REQUESTS = 4_000 if QUALITY == "smoke" else 20_000

#: Loose ceiling on (baseline engine events/sec) / (events/sec now): the
#: target is <2% added cost, but shared runners are noisy, so the gate
#: only trips on a gross regression and the exact ratio is recorded.
MAX_SLOWDOWN_VS_BASELINE = 1.10


def _server_run_seconds(trace_config=None):
    """Wall time of one fixed server run, optionally under a session."""
    from repro.core.presets import concord
    from repro.core.server import Server
    from repro.hardware import c6420
    from repro.obs import tracing
    from repro.workloads import PoissonProcess
    from repro.workloads.named import bimodal_50_1_50_100

    workload = bimodal_50_1_50_100()
    machine = c6420(8)
    load = 0.7 * machine.num_workers * 1e6 / workload.mean_us()

    def go():
        server = Server(machine, concord(5.0), seed=1)
        started = time.perf_counter()
        result = server.run(workload, PoissonProcess(load), NUM_REQUESTS)
        seconds = time.perf_counter() - started
        return result, seconds

    if trace_config is None:
        result, seconds = go()
    else:
        with tracing(trace_config):
            result, seconds = go()
    assert len(result.records) == NUM_REQUESTS
    return seconds


def test_disabled_probes_do_not_slow_the_hot_path(benchmark):
    from repro.obs import TraceConfig

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

    untraced_seconds = min(_server_run_seconds() for _ in range(3))
    flight_seconds = _server_run_seconds(TraceConfig.flight_only())
    traced_seconds = _server_run_seconds(TraceConfig.full())

    artifact = {
        "schema": 1,
        "quality": QUALITY,
        "num_requests": NUM_REQUESTS,
        "engine_events_per_sec": round(events_per_sec),
        "baseline_engine_events_per_sec": baseline_events_per_sec,
        "slowdown_vs_baseline": (
            round(ratio_vs_baseline, 4) if ratio_vs_baseline else None
        ),
        "server_run_seconds_untraced": round(untraced_seconds, 4),
        "server_run_seconds_flight_only": round(flight_seconds, 4),
        "server_run_seconds_full_trace": round(traced_seconds, 4),
        "flight_only_overhead": round(
            flight_seconds / max(untraced_seconds, 1e-9), 3
        ),
        "full_trace_overhead": round(
            traced_seconds / max(untraced_seconds, 1e-9), 3
        ),
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    benchmark.extra_info.update(artifact)

    if ratio_vs_baseline is not None:
        assert ratio_vs_baseline < MAX_SLOWDOWN_VS_BASELINE, (
            "disabled-probe engine throughput regressed {:.1%} vs "
            "BENCH_parallel.json".format(ratio_vs_baseline - 1.0)
        )
    # Absolute sanity floor, mirroring test_bench_engine.py.
    assert events_per_sec > 50_000
