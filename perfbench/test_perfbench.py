"""Tests of the benchmark's own arithmetic and trace plumbing.

    python3 -m pytest -q perfbench
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from metricmath import (  # noqa: E402
    InsufficientSamples, check_metric_name, highest_supported, quartile_spread,
    supported_percentile,
)
from spans import Tracer, UnmappedEvent, event_layer, instrument_sim  # noqa: E402


def scripted_clock(*ticks):
    return iter(ticks).__next__


# -- self time ---------------------------------------------------------------


def test_self_time_over_nested_and_sibling_spans():
    # a [0, 10]
    #   b [1, 4]
    #     c [2, 3]
    #   b [5, 7]
    tracer = Tracer(clock=scripted_clock(0, 1, 2, 3, 4, 5, 7, 10))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 5, "b": 4, "c": 1}
    assert tracer.incl_s == {"a": 10, "b": 5, "c": 1}
    assert tracer.calls == {"a": 1, "b": 2, "c": 1}
    assert sum(tracer.self_s.values()) == 10  # the root's wall time
    assert tracer.depth == 0


def test_self_time_of_recursive_kind_is_not_double_counted():
    # x [0, 8] > x [2, 6] > y [3, 4]
    tracer = Tracer(clock=scripted_clock(0, 2, 3, 4, 6, 8))
    tracer.enter("x")
    tracer.enter("x")
    tracer.enter("y")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"x": 7, "y": 1}
    assert sum(tracer.self_s.values()) == 8


def test_layer_self_groups_detail_kinds():
    tracer = Tracer(clock=scripted_clock(0, 1, 3, 6))
    tracer.enter("cluster")
    tracer.enter("cluster.choose")
    tracer.exit()
    tracer.exit()
    assert tracer.layer_self_s() == {"cluster": 6}


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = Tracer(clock=scripted_clock(0, 5))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("server", boom)()
    assert tracer.depth == 0
    assert tracer.self_s == {"server": 5}


# -- the layer map -----------------------------------------------------------


@pytest.mark.parametrize("name, layer", [
    ("d-push", "dispatcher"), ("d-steal-end", "dispatcher"),
    ("flag-poll", "dispatcher"), ("w-complete", "worker"),
    ("notice", "worker"), ("quantum-expiry", "worker"),
    ("self-preempt", "worker"), ("arrival", "server"),
    ("lb-arrival", "cluster"), ("net-reply", "cluster"),
    ("telemetry", "cluster"), ("telemetry-tick", "cluster"),
])
def test_event_names_map_to_layers(name, layer):
    assert event_layer(name) == layer


@pytest.mark.parametrize("name", ["", "fault-reprobe", "arrivals", "noticed", "lq-done"])
def test_unmapped_event_names_fail_loudly(name):
    with pytest.raises(UnmappedEvent):
        event_layer(name)


def test_traced_simulator_attributes_callbacks_and_rejects_unknown_events():
    from repro.sim.engine import Simulator

    sim = Simulator()
    tracer = Tracer()
    instrument_sim(tracer, sim)
    seen = []
    sim.post(5, lambda: seen.append(sim.now), "w-complete")
    sim.at(7, lambda: seen.append(sim.now), "d-push")
    sim.run()
    assert seen == [5, 7]
    assert tracer.fired == {"w-complete": 1, "d-push": 1}
    assert sum(tracer.fired.values()) == sim.events_run
    assert tracer.calls["worker"] == 1 and tracer.calls["dispatcher"] == 1
    assert tracer.calls["sim"] == 3  # two pushes and one run
    with pytest.raises(UnmappedEvent):
        sim.post(1, lambda: None, "mystery")


# -- the percentile rule -----------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert supported_percentile(values, 90) == (90, 100)
    assert supported_percentile(values[::-1], 50) == (50, 100)
    with pytest.raises(InsufficientSamples):
        supported_percentile(values[:99], 90)
    assert supported_percentile(list(range(20)), 50) == (9, 20)
    with pytest.raises(InsufficientSamples):
        supported_percentile(list(range(19)), 50)


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        supported_percentile(list(range(100)), 100)


def test_highest_supported_percentile_keeps_ten_samples_beyond_it():
    assert highest_supported(list(range(1, 1001))) == (99, 990)
    assert highest_supported(list(range(1, 57))) == (80, 45)
    assert highest_supported(list(range(19))) is None


# -- host-speed scaling ------------------------------------------------------


def test_speed_kernel_repeats_and_scales_to_reference_seconds():
    import hostspeed

    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.kernel_seconds() > 0
    ref = hostspeed.REFERENCE_KERNEL_S
    assert hostspeed.factor(ref, ref) == 1.0
    # A host twice as slow as the reference halves every host time.
    assert hostspeed.factor(ref, 3 * ref) == 0.5


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / q2


# -- the metric-name grammar -------------------------------------------------


@pytest.mark.parametrize("name", [
    "sim_rps", "sim.events", "runner.job_s_p90", "trace.overhead", "9lives",
    "a-b", "x" * 64,
])
def test_good_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_x", ".x", "-x", "a b", "a/b", "café", "x" * 65, None, "a\n",
])
def test_bad_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_file_names_are_valid_and_unique():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in spec[section]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        check_metric_name(name)
    assert len(names) == len(set(names))
