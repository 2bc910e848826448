"""The benchmark's workloads: how each is built, run, checked and timed.

Every workload is a list of *units* derived from the seed.  A unit is one
simulated run (a server or a rack) or one sweep job.  ``reference`` runs
every unit once, untimed: it warms the interpreter's caches and fixes the
digests that every later run of the same unit must reproduce bit for bit.

Timings are host time (``time.perf_counter``).  The end-to-end ones are
converted to reference seconds by the speed kernel run right before and
right after each timed repetition (``hostspeed.py``).  Metrics marked
``_sim`` in the per-layer table are simulated-time statistics.
"""

import gc
import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict

from repro.cluster import Cluster
from repro.core.presets import concord, persephone_fcfs, shinjuku
from repro.core.server import Server, capacity_estimate_rps
from repro.hardware import c6420
from repro.metrics.slowdown import summarize_slowdowns
from repro.parallel import (
    ParallelRunner, Quarantined, RackJob, ResultCache, ServerJob, SimJob,
)
from repro.sim.engine import Simulator
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.named import bimodal_50_1_50_100, bimodal_995_05_500

import hostspeed
import spans
from metricmath import MIN_BEYOND, highest_supported, supported_percentile

__all__ = ["WORKLOADS", "CheckFailed"]

clock = time.perf_counter

#: Open-loop Poisson arrivals at this share of ``capacity_estimate_rps``.
LOAD_FRACTION = 0.7
WARMUP_FRAC = 0.1
QUANTUM_US = 5.0
#: Simulated runs per seed for the server and rack workloads.  Many short
#: runs instead of one long one average over the input's rare long
#: requests, which set how much work a seed holds, and give enough
#: repetitions of each run for its median.
RUNS_PER_SEED = 16
#: Timed repetitions a run needs at least, however long it takes.
MIN_REPS = 50
#: Warm passes over the job cache timed after each server/rack run; a
#: pass reads ``RUNS_PER_SEED`` rows in ~2 ms.
WARM_READS = 3
#: Warm passes timed per cold pass of the sweep.
SWEEP_WARM_PASSES = 3
#: Self times of all layers must add up to the traced wall time within
#: this share; the rest is the benchmark's own glue between spans.
SELF_SUM_TOLERANCE = 0.005


class CheckFailed(RuntimeError):
    """An output of the program differs from what it must be."""


def check(ok, message, *args):
    if not ok:
        raise CheckFailed(message.format(*args))


def _call(tracer, kind, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(kind, fn, *args, **kwargs)


def _summarize(result):
    """The slowdown summary ``SimJob`` computes for every run."""
    return summarize_slowdowns(result.slowdowns(WARMUP_FRAC))


def _sha(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def server_digest(result):
    """Every request record (rid, arrival, completion, preemptions) plus the
    run's worker and dispatcher statistics."""
    records = "".join(
        "{},{},{},{};".format(
            r.rid, r.arrival_cycle, r.completion_cycle, r.preemptions)
        for r in result.records
    )
    head = _canonical([
        result.config_name, result.num_offered, result.first_arrival_cycle,
        result.last_arrival_cycle, result.end_cycle, result.drained,
        result.worker_stats, result.dispatcher_stats,
    ])
    return _sha(head, records)


def rack_digest(result):
    """Each member server's digest plus the balancer's routing counts."""
    return _sha(
        _canonical([
            result.config_name, result.num_offered, result.drained,
            result.routed, result.replies, result.telemetry_updates,
        ]),
        *(server_digest(r) for r in result.server_results)
    )


def row_digest(row):
    """A sweep job's result row (a ``SweepPoint``); floats keep all digits."""
    if isinstance(row, Quarantined):
        return "quarantined"
    return _sha(type(row).__name__, _canonical(asdict(row)))


def combined_digest(digests):
    """One digest over a seed's unit digests, as ``digests.json`` pins it."""
    return _sha(*digests)


class SimRef:
    """The reference runs of one seed."""

    def __init__(self, runs):
        self.runs = runs
        self.digests = [run.digest for run in runs]
        self.digest = combined_digest(self.digests)
        self.events = sum(run.events for run in runs)


class UnitRun:
    """One simulated run: what it produced and what it cost."""

    def __init__(self, digest, offered, completed, drained, events, build_s,
                 sim_s, row, model):
        self.digest = digest
        self.offered = offered
        self.completed = completed
        self.drained = drained
        self.events = events
        #: Host seconds to build the server or rack.
        self.build_s = build_s
        #: Host seconds in ``run()`` plus the slowdown summary.
        self.sim_s = sim_s
        #: What the job cache stores for this run.
        self.row = row
        #: Simulated-time statistics for the per-layer table.
        self.model = model

    @property
    def wall_s(self):
        return self.build_s + self.sim_s


def _model_stats(servers, result, routed=0, imbalance=0.0):
    duration = result.duration_cycles()
    stats = result.dispatcher_stats
    workers = [w for server in servers for w in server.workers]
    return {
        "actions": stats["actions"],
        "signals_sent": stats["signals_sent"],
        "stale_signals": stats["stale_signals_skipped"],
        "steals": stats["steals_started"],
        "dispatcher_busy": stats["busy_cycles"],
        "dispatcher_capacity": len(servers) * duration,
        "preemptions": sum(w.preemptions_taken for w in workers),
        "wasted_signals": sum(w.wasted_signals for w in workers),
        "worker_idle": sum(w.idle_cycles for w in workers),
        "worker_capacity": len(workers) * duration,
        "records": len(result.records),
        "routed": routed,
        "imbalance": imbalance,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def typical(seconds):
    """Median of repetition times (in reference seconds) and the sample
    count."""
    return statistics.median(seconds), len(seconds)


def _reap_pool_workers(timeout=30.0):
    """Wait until every pool worker this process forked has exited."""
    deadline = clock() + timeout
    while multiprocessing.active_children():
        if clock() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.005)


def _close(runner):
    runner.close()
    _reap_pool_workers()


@contextmanager
def counting_engine_events():
    """Count events run by every simulator in this process (the sweep's
    jobs build their servers internally)."""
    total = [0]
    original = Simulator.run

    def run(self, *args, **kwargs):
        executed = original(self, *args, **kwargs)
        total[0] += executed
        return executed

    Simulator.run = run
    try:
        yield total
    finally:
        Simulator.run = original


def _check_self_sum(tracer, wall):
    total = sum(tracer.self_s.values())
    check(tracer.depth == 0, "trace ended with {} open spans", tracer.depth)
    check(abs(total - wall) <= SELF_SUM_TOLERANCE * wall,
          "layer self times sum to {:.6f}s but the traced wall is {:.6f}s",
          total, wall)


class SimWorkload:
    """A workload whose units are simulated runs (a server or a rack)."""

    def __init__(self, name, make_config, make_service, num_requests):
        self.name = name
        self.make_config = make_config
        self.make_service = make_service
        self.num_requests = num_requests
        self.machine = c6420()

    def units(self, seed):
        """Master seeds of the runs that make up ``seed``'s input."""
        return [seed * RUNS_PER_SEED + j for j in range(RUNS_PER_SEED)]

    def params(self):
        return {
            "machine": self.machine.name,
            "workers_per_server": self.machine.num_workers,
            "system": self.make_config().name,
            "service": self.make_service().name,
            "arrivals": "open-loop Poisson",
            "load_fraction": LOAD_FRACTION,
            "load_rps": self.load_rps(),
            "requests_per_run": self.num_requests,
            "runs_per_seed": RUNS_PER_SEED,
            "quantum_us": QUANTUM_US,
            "warmup_frac": WARMUP_FRAC,
        }

    def reference(self, seed):
        return SimRef([self.run_unit(unit) for unit in self.units(seed)])

    def canary_digest(self):
        """Digest of seed 0's first run, checked when ``seed`` is not pinned."""
        return self.run_unit(self.units(0)[0]).digest

    def run_unit(self, unit, tracer=None):
        service = self.make_service()
        arrival = PoissonProcess(self.load_rps())
        if tracer is not None:
            spans.instrument_workload(tracer, service, arrival)
        gc.collect()
        return self._simulate(unit, service, arrival, tracer)

    def _check_run(self, run, expected):
        check(run.drained and run.completed == run.offered,
              "{}: run left {} of {} requests undrained", self.name,
              run.offered - run.completed, run.offered)
        check(run.digest == expected.digest,
              "{}: result digest {} differs from the reference {}",
              self.name, run.digest[:16], expected.digest[:16])

    # -- untraced ---------------------------------------------------------

    def measure(self, seed, seconds, ref, work_dir):
        units = self.units(seed)
        runs = []
        # Reference seconds of each repetition, per unit.
        sim = [[] for _ in units]
        wall = [[] for _ in units]
        warm = []
        kernel = []
        with self._warm_cache(units, ref, work_dir) as read_warm:
            before = hostspeed.kernel_seconds()
            started = clock()
            # Stops between any two runs: each unit's median needs only its
            # own samples, and at least MIN_REPS // len(units) of them.
            while len(runs) < MIN_REPS or clock() - started < seconds:
                i = len(runs) % len(units)
                run = self.run_unit(units[i])
                self._check_run(run, ref.runs[i])
                passes = read_warm()
                after = hostspeed.kernel_seconds()
                factor = hostspeed.factor(before, after)
                runs.append(run)
                sim[i].append(run.sim_s * factor)
                wall[i].append(run.wall_s * factor)
                warm.extend(s * factor for s in passes)
                kernel.append(after)
                before = after
        # The seed's whole input takes the sum of its units' median times,
        # so every unit weighs by its own work, as in a cold sweep pass.
        sim_s = sum(statistics.median(times) for times in sim)
        wall_s = sum(statistics.median(times) for times in wall)
        warm_s, n_warm = typical(warm)
        metrics = {
            "sim_rps": self.num_requests * len(units) / sim_s,
            "sweep_jobs_per_s": len(units) / wall_s,
            "warm_jobs_per_s": len(units) / warm_s,
        }
        counts = {
            "attempted": sum(r.offered for r in runs),
            "failed": sum(r.offered - r.completed for r in runs),
            "samples": {"sim_rps": len(runs), "sweep_jobs_per_s": len(runs),
                        "warm_jobs_per_s": n_warm},
            "tails": {"warm_s": highest_supported(warm)},
            "kernel_s": kernel,
        }
        return metrics, counts

    @contextmanager
    def _warm_cache(self, units, ref, work_dir):
        """A private result cache holding each run's job row, and a function
        that serves all rows back through ``ParallelRunner.map``, as a rerun
        of a cached figure would, and returns the seconds of each pass."""
        cache_dir = tempfile.mkdtemp(prefix="warm-", dir=work_dir)
        jobs = [self.job_spec(unit) for unit in units]
        expected = [run.row for run in ref.runs]
        cache = ResultCache(cache_dir)
        for job, row in zip(jobs, expected):
            key = cache.key_for(job)
            check(key is not None, "{}: job has no cache key", self.name)
            check(cache.put(key, row), "{}: cache write failed", self.name)

        def read_warm():
            passes = []
            for _ in range(WARM_READS):
                runner = ParallelRunner(jobs=1, cache=ResultCache(cache_dir))
                started = clock()
                rows = runner.map(jobs)
                elapsed = clock() - started
                check(rows == expected, "{}: warm read differs from the cold run",
                      self.name)
                check(runner.stats["jobs_run"] == 0,
                      "{}: warm read simulated a job", self.name)
                passes.append(elapsed)
            return passes

        try:
            yield read_warm
        finally:
            shutil.rmtree(cache_dir)

    # -- traced -----------------------------------------------------------

    def measure_traced(self, seed, seconds, ref, work_dir):
        units = self.units(seed)
        events = ref.events
        tracers = []
        overheads = []
        attempted = failed = 0
        started = clock()
        while not tracers or clock() - started < seconds:
            plain_wall = 0.0
            for unit, expected in zip(units, ref.runs):
                run = self.run_unit(unit)
                self._check_run(run, expected)
                plain_wall += run.wall_s
            tracer = spans.Tracer()
            traced_wall = 0.0
            for unit, expected in zip(units, ref.runs):
                run = self.run_unit(unit, tracer)
                self._check_run(run, expected)
                traced_wall += run.wall_s
                attempted += run.offered
                failed += run.offered - run.completed
            check(sum(tracer.fired.values()) == events,
                  "{}: {} events fired through the trace, the engine ran {}",
                  self.name, sum(tracer.fired.values()), events)
            _check_self_sum(tracer, traced_wall)
            if tracers:
                first = tracers[0][0]
                check(tracer.fired == first.fired and tracer.counts == first.counts
                      and tracer.calls == first.calls,
                      "{}: trace counts differ between identical runs", self.name)
            tracers.append((tracer, traced_wall))
            overheads.append(traced_wall / plain_wall)
        layers = self._layers(tracers, ref, events)
        layers["trace.overhead"] = statistics.median(overheads)
        return layers, {"attempted": attempted, "failed": failed,
                        "samples": {"trace": len(tracers)}}

    def _layers(self, tracers, ref, events):
        model = Counter()
        for run in ref.runs:
            model.update(run.model)
        first = tracers[0][0]
        calls, fired, incl = first.calls, first.fired, first.incl_s
        n = len(tracers)
        wall = sum(w for _t, w in tracers) / n
        self_s = {}
        for tracer, _wall in tracers:
            for layer, seconds in tracer.layer_self_s().items():
                self_s[layer] = self_s.get(layer, 0.0) + seconds / n
        reads = first.counts.get("outstanding_reads", 0)
        signals = model["signals_sent"] + model["stale_signals"]

        def share(layer):
            return self_s.get(layer, 0.0) / wall

        return {
            "sim.events": events,
            "sim.ns_per_event": _ratio(self_s.get("sim", 0.0), events) * 1e9,
            "sim.self_s": self_s.get("sim", 0.0),
            "sim.self_share": share("sim"),
            "dispatcher.actions": model["actions"],
            "dispatcher.signals_sent": model["signals_sent"],
            "dispatcher.stale_signal_ratio": _ratio(model["stale_signals"], signals),
            "dispatcher.steals": model["steals"],
            "dispatcher.outstanding_reads": reads,
            "dispatcher.reads_per_push": _ratio(reads, fired.get("d-push", 0)),
            "dispatcher.self_s": self_s.get("dispatcher", 0.0),
            "dispatcher.self_share": share("dispatcher"),
            "dispatcher.ns_per_action":
                _ratio(self_s.get("dispatcher", 0.0), model["actions"]) * 1e9,
            "dispatcher.busy_frac_sim":
                _ratio(model["dispatcher_busy"], model["dispatcher_capacity"]),
            "worker.starts": fired.get("w-complete", 0),
            "worker.preemptions": model["preemptions"],
            "worker.wasted_signals": model["wasted_signals"],
            "worker.self_s": self_s.get("worker", 0.0),
            "worker.self_share": share("worker"),
            "worker.idle_frac_sim":
                _ratio(model["worker_idle"], model["worker_capacity"]),
            "policy.ops": calls.get("policy", 0),
            "policy.self_s": self_s.get("policy", 0.0),
            "server.deliveries": calls.get("server.deliver", 0),
            "server.self_s": self_s.get("server", 0.0),
            "workloads.samples": calls.get("workloads", 0),
            "workloads.self_s": self_s.get("workloads", 0.0),
            "balancer.routed": model["routed"],
            "balancer.telemetry_ticks": fired.get("telemetry-tick", 0),
            "balancer.choose_ns": _ratio(incl.get("cluster.choose", 0.0),
                                         calls.get("cluster.choose", 0)) * 1e9,
            "balancer.self_s": self_s.get("cluster", 0.0),
            "balancer.self_share": share("cluster"),
            "balancer.imbalance_sim": model["imbalance"] / len(ref.runs),
            "metrics.summarize_s": self_s.get("metrics", 0.0),
            "metrics.records": model["records"],
            "trace.wall_s": wall,
        }


class ServerWorkload(SimWorkload):
    """One server fed by its own open-loop source."""

    def load_rps(self):
        return LOAD_FRACTION * capacity_estimate_rps(self.machine, self.make_service())

    def build(self, seed):
        return Server(self.machine, self.make_config(), seed=seed)

    def job_spec(self, unit):
        return ServerJob(
            self.machine, self.make_config(), self.make_service(),
            self.load_rps(), self.num_requests, seed=unit,
            warmup_frac=WARMUP_FRAC,
        )

    def _simulate(self, unit, service, arrival, tracer):
        started = clock()
        server = _call(tracer, "server", self.build, unit)
        if tracer is not None:
            spans.instrument_sim(tracer, server.sim)
            spans.instrument_server(tracer, server)
        built = clock()
        result = _call(tracer, "server", server.run, service, arrival,
                       self.num_requests)
        summary = _call(tracer, "metrics", _summarize, result)
        done = clock()
        digest = server_digest(result)
        return UnitRun(
            digest=digest, offered=result.num_offered,
            completed=len(result.records), drained=result.drained,
            events=server.sim.events_run, build_s=built - started,
            sim_s=done - built,
            row={"digest": digest, "summary": summary.as_dict()},
            model=_model_stats([server], result),
        )


class RackWorkload(SimWorkload):
    """Servers behind the rack balancer, sharing one simulator."""

    def __init__(self, name, make_config, make_service, num_requests,
                 num_servers, policy):
        super().__init__(name, make_config, make_service, num_requests)
        self.num_servers = num_servers
        self.policy = policy

    def params(self):
        out = super().params()
        out.update({"servers": self.num_servers, "balancer_policy": self.policy,
                    "fabric": "default", "fault_plan": None})
        return out

    def load_rps(self):
        return (LOAD_FRACTION * self.num_servers
                * capacity_estimate_rps(self.machine, self.make_service()))

    def build(self, seed):
        return Cluster(self.machine, self.make_config(), self.num_servers,
                       policy=self.policy, seed=seed)

    def job_spec(self, unit):
        return RackJob(
            self.machine, self.make_config(), self.num_servers, self.policy,
            self.make_service(), self.load_rps(), self.num_requests,
            seed=unit, warmup_frac=WARMUP_FRAC,
        )

    def _simulate(self, unit, service, arrival, tracer):
        started = clock()
        cluster = _call(tracer, "cluster", self.build, unit)
        if tracer is not None:
            spans.instrument_sim(tracer, cluster.sim)
            for server in cluster.servers:
                spans.instrument_server(tracer, server)
            spans.instrument_balancer(tracer, cluster.balancer)
        built = clock()
        result = _call(tracer, "cluster", cluster.run, service, arrival,
                       self.num_requests)
        summary = _call(tracer, "metrics", _summarize, result)
        done = clock()
        digest = rack_digest(result)
        return UnitRun(
            digest=digest, offered=result.num_offered,
            completed=len(result.records), drained=result.drained,
            events=cluster.sim.events_run, build_s=built - started,
            sim_s=done - built,
            row={"digest": digest, "summary": summary.as_dict()},
            model=_model_stats(cluster.servers, result, sum(result.routed),
                               result.imbalance()),
        )


class SweepRef:
    """The sweep's reference: rows computed serially, in-process."""

    def __init__(self, rows, events):
        self.rows = rows
        self.digests = [row_digest(row) for row in rows]
        self.digest = combined_digest(self.digests)
        self.events = events


class SweepWorkload:
    """A Fig. 6-style load sweep as ``SimJob``s through ``ParallelRunner``
    with a fresh private ``ResultCache``: a cold pass computes and stores
    every job, warm passes over the same jobs only read."""

    def __init__(self, name, make_configs, make_service, points,
                 requests_per_job, low, high, workers):
        self.name = name
        self.make_configs = make_configs
        self.make_service = make_service
        self.points = points
        self.requests_per_job = requests_per_job
        self.low = low
        self.high = high
        self.workers = workers
        self.machine = c6420()

    def params(self):
        return {
            "machine": self.machine.name,
            "systems": [c.name for c in self.make_configs()],
            "service": self.make_service().name,
            "load_points": self.points,
            "load_fractions": [self.low, self.high],
            "requests_per_job": self.requests_per_job,
            "jobs": self.points * len(self.make_configs()),
            "pool_workers": self.workers,
            "warm_passes_per_cold_pass": SWEEP_WARM_PASSES,
            "warmup_frac": WARMUP_FRAC,
        }

    def units(self, seed):
        service = self.make_service()
        capacity = capacity_estimate_rps(self.machine, service)
        step = (self.high - self.low) / (self.points - 1)
        loads = [capacity * (self.low + step * i) for i in range(self.points)]
        # Each job draws its own inputs (seed ``n*seed + i``): a shared seed
        # would give every job the same short service sequence, and the
        # sweep's total work would swing by +-15% from seed to seed.
        cells = [(config, load) for config in self.make_configs() for load in loads]
        return [
            SimJob(self.machine, config, service, load, self.requests_per_job,
                   seed=len(cells) * seed + i, warmup_frac=WARMUP_FRAC)
            for i, (config, load) in enumerate(cells)
        ]

    def build(self, seed):
        jobs = self.units(seed)
        cache = ResultCache(os.path.join(tempfile.gettempdir(), "setup-cache"))
        return ParallelRunner(jobs=self.workers, cache=cache), jobs

    def canary_digest(self):
        """Digest of seed 0's first job, checked when ``seed`` is not pinned."""
        return row_digest(self.units(0)[0].run())

    def reference(self, seed):
        jobs = self.units(seed)
        with counting_engine_events() as events:
            rows = [job.run() for job in jobs]
        return SweepRef(rows, events[0])

    def _check_rows(self, rows, ref, what):
        bad = [i for i, row in enumerate(rows) if row_digest(row) != ref.digests[i]]
        check(not bad, "{}: {} of {} {} rows differ from the serial reference "
              "(first: job {})", self.name, len(bad), len(rows), what,
              bad[0] if bad else None)

    def _pass(self, jobs, cache_dir, tracer):
        """One pass over ``jobs`` through a fresh runner; returns the rows,
        the pass's wall time, and the runner and cache that served it."""
        started = clock()
        cache = _call(tracer, "runner", ResultCache, cache_dir)
        if tracer is not None:
            spans.instrument_cache(tracer, cache)
        runner = _call(tracer, "runner", ParallelRunner, jobs=self.workers,
                       cache=cache)
        rows = _call(tracer, "runner", runner.map, jobs)
        wall = clock() - started
        _close(runner)
        return rows, wall, runner, cache

    def _rep(self, jobs, ref, work_dir, warm_passes, tracer=None):
        """A cold pass then warm passes, each checked against the reference."""
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
        try:
            rows, cold, runner, cache = self._pass(jobs, cache_dir, tracer)
            self._check_rows(rows, ref, "cold-pass")
            series = runner.telemetry.series.get("runner.job_seconds")
            rep = {
                "cold_s": cold,
                "job_s": [v for _i, v in series.samples] if series else [],
                "pool_starts": runner.stats["pool_starts"],
                "failed": sum(isinstance(row, Quarantined) for row in rows),
                "completed": sum(getattr(row, "completed", 0) for row in rows),
                "cache": [cache.hits, cache.misses, cache.stores],
                "bytes": sum(
                    os.path.getsize(os.path.join(d, f))
                    for d, _dirs, files in os.walk(cache_dir) for f in files),
                "warm_s": [],
            }
            for _ in range(warm_passes):
                warm_rows, warm, runner, cache = self._pass(jobs, cache_dir, tracer)
                check(warm_rows == rows, "{}: warm pass differs from the cold pass",
                      self.name)
                check(runner.stats["jobs_run"] == 0,
                      "{}: warm pass simulated {} jobs", self.name,
                      runner.stats["jobs_run"])
                rep["warm_s"].append(warm)
                rep["cache"] = [a + b for a, b in zip(
                    rep["cache"], [cache.hits, cache.misses, cache.stores])]
            return rep
        finally:
            shutil.rmtree(cache_dir)

    def measure(self, seed, seconds, ref, work_dir):
        jobs = self.units(seed)
        reps = []
        cold = []
        warm = []
        kernel = []
        before = hostspeed.kernel_seconds()
        started = clock()
        while len(reps) < MIN_REPS or clock() - started < seconds:
            rep = self._rep(jobs, ref, work_dir, SWEEP_WARM_PASSES)
            after = hostspeed.kernel_seconds()
            factor = hostspeed.factor(before, after)
            reps.append(rep)
            cold.append(rep["cold_s"] * factor)
            warm.extend(s * factor for s in rep["warm_s"])
            kernel.append(after)
            before = after
        cold_s, n_cold = typical(cold)
        warm_s, n_warm = typical(warm)
        metrics = {
            "sim_rps": reps[0]["completed"] / cold_s,
            "sweep_jobs_per_s": len(jobs) / cold_s,
            "warm_jobs_per_s": len(jobs) / warm_s,
        }
        counts = {
            "attempted": len(jobs) * (1 + SWEEP_WARM_PASSES) * len(reps),
            "failed": sum(r["failed"] for r in reps),
            "samples": {"sim_rps": n_cold, "sweep_jobs_per_s": n_cold,
                        "warm_jobs_per_s": n_warm},
            "tails": {"cold_s": highest_supported(cold),
                      "warm_s": highest_supported(warm)},
            "kernel_s": kernel,
        }
        return metrics, counts

    def measure_traced(self, seed, seconds, ref, work_dir):
        jobs = self.units(seed)
        # Enough cold passes that p90 of job time has ten samples beyond it.
        min_reps = -(-MIN_BEYOND * 10 // len(jobs))
        traced = []
        overheads = []
        started = clock()
        while len(traced) < min_reps or clock() - started < seconds:
            plain = self._rep(jobs, ref, work_dir, 1)
            tracer = spans.Tracer()
            rep = self._rep(jobs, ref, work_dir, 1, tracer)
            rep_wall = rep["cold_s"] + sum(rep["warm_s"])
            _check_self_sum(tracer, rep_wall)
            traced.append((tracer, rep))
            overheads.append(rep_wall / (plain["cold_s"] + sum(plain["warm_s"])))
        n = len(traced)
        job_s = [v for _t, rep in traced for v in rep["job_s"]]
        p50, samples = supported_percentile(job_s, 50)
        p90, _ = supported_percentile(job_s, 90)

        def mean(fn):
            return sum(fn(t, rep) for t, rep in traced) / n

        caches = {tuple(rep["cache"]) for _t, rep in traced}
        check(len(caches) == 1, "{}: cache traffic differs between identical "
              "passes: {}", self.name, sorted(caches))
        hits, misses, stores = caches.pop()
        layers = {
            "sim.events": ref.events,
            "runner.overhead_s": mean(
                lambda t, r: r["cold_s"] - sum(r["job_s"]) / self.workers),
            "runner.efficiency": mean(
                lambda t, r: sum(r["job_s"]) / (self.workers * r["cold_s"])),
            "runner.job_s_p50": p50,
            "runner.job_s_p90": p90,
            "runner.job_samples": samples,
            "runner.pool_starts": mean(lambda t, r: r["pool_starts"]),
            "runner.self_s": mean(lambda t, r: t.layer_self_s().get("runner", 0.0)),
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.stores": stores,
            "cache.key_s": mean(lambda t, r: t.incl_s.get("cache.key", 0.0)),
            "cache.get_s": mean(lambda t, r: t.incl_s.get("cache.get", 0.0)),
            "cache.put_s": mean(lambda t, r: t.incl_s.get("cache.put", 0.0)),
            "cache.bytes": traced[0][1]["bytes"],
            "trace.overhead": statistics.median(overheads),
            "trace.wall_s": mean(lambda t, r: r["cold_s"] + sum(r["warm_s"])),
        }
        attempted = 2 * len(jobs) * n
        failed = sum(rep["failed"] for _t, rep in traced)
        return layers, {"attempted": attempted, "failed": failed,
                        "samples": {"trace": n, "runner.job_s": samples}}


#: Why each workload exists is recorded in ``BENCHMARK.json``.
WORKLOADS = {
    w.name: w for w in (
        ServerWorkload(
            "server-concord",
            make_config=lambda: concord(QUANTUM_US),
            make_service=bimodal_995_05_500,
            num_requests=6_000,
        ),
        ServerWorkload(
            "server-shinjuku",
            make_config=lambda: shinjuku(QUANTUM_US),
            make_service=bimodal_50_1_50_100,
            num_requests=1_000,
        ),
        RackWorkload(
            "rack-jsq8",
            make_config=lambda: concord(QUANTUM_US),
            make_service=bimodal_995_05_500,
            num_requests=4_000,
            num_servers=8,
            policy="jsq",
        ),
        SweepWorkload(
            "sweep-cached",
            make_configs=lambda: [concord(QUANTUM_US), persephone_fcfs(),
                                  shinjuku(QUANTUM_US)],
            make_service=bimodal_50_1_50_100,
            points=10,
            requests_per_job=60,
            low=0.2,
            high=0.9,
            workers=2,
        ),
    )
}
