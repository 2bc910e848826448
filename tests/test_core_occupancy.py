"""Incremental worker occupancy and the dispatcher's stale-finish guard.

``Worker.owned`` is kept incrementally (+1 on enqueue, -1 when a request
completes or its yield ends, 0 on a crash sweep) instead of being derived
from the worker's state on every read.  These tests pin it to its old
definition after every event, check the JBSQ scan that reads it against a
reference copy of the full scan, and cover the two timers that can outlive
a crash: the dispatcher's action finish and the worker's yield.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import Server, concord, shinjuku
from repro.core.presets import concord_no_steal, persephone_fcfs
from repro.core.request import Request
from repro.faults import FaultPlan, ServerCrash, WorkerStall
from repro.hardware import c6420
from repro.workloads import PoissonProcess
from repro.workloads.named import bimodal_50_1_50_100

QUANTUM_US = 5.0


def derived_owned(worker):
    """Occupancy derived from the worker's state: the definition the
    incremental counter replaces."""
    busy = worker.current is not None or worker._switching_until is not None
    return len(worker.local) + busy


def reference_pick(dispatcher, request):
    """The JBSQ choice as a full scan over the derived occupancy."""
    server = dispatcher.server
    depth = server.config.jbsq_depth
    if (
        server.config.locality_aware
        and request is not None
        and request.last_worker is not None
    ):
        previous = server.workers[request.last_worker]
        if derived_owned(previous) < depth:
            return previous
    best = None
    best_outstanding = depth
    for worker in server.workers:
        outstanding = derived_owned(worker)
        if outstanding < best_outstanding:
            best = worker
            best_outstanding = outstanding
    return best


class OccupancyChecker:
    """Attached as the simulator's event observer: before every event (so
    after the previous one) every worker's counter must equal its derived
    occupancy.  It also runs the reference scan beside every JBSQ pick."""

    def __init__(self, servers):
        self.servers = servers
        self.workers = [w for server in servers for w in server.workers]
        self.events = 0
        self.picks = 0
        for server in servers:
            if server.queue_mode == "jbsq":
                self._check_picks(server.dispatcher)

    def _check_picks(self, dispatcher):
        pick = dispatcher._pick_worker

        def checked(request=None):
            expected = reference_pick(dispatcher, request)
            chosen = pick(request)
            assert chosen is expected, (chosen, expected)
            self.picks += 1
            return chosen

        dispatcher._pick_worker = checked

    def sim_event(self, _time, _name):
        self.events += 1
        self.check()

    def check(self):
        for worker in self.workers:
            assert worker.owned == derived_owned(worker), worker
            assert worker.outstanding == worker.owned


CONFIGS = {
    "concord-jbsq1": lambda: concord(QUANTUM_US, jbsq_depth=1),
    "concord-jbsq2": lambda: concord(QUANTUM_US, jbsq_depth=2),
    "concord-jbsq4": lambda: concord(QUANTUM_US, jbsq_depth=4),
    "concord-jbsq2-local": lambda: concord(
        QUANTUM_US, jbsq_depth=2, locality_aware=True
    ),
    "concord-jbsq4-local-nosteal": lambda: concord_no_steal(
        QUANTUM_US, jbsq_depth=4
    ).replace(locality_aware=True),
    "shinjuku-sq": lambda: shinjuku(QUANTUM_US),
    "fcfs-nonpreemptive": persephone_fcfs,
}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    seed=st.integers(0, 2**16),
    workers=st.integers(1, 4),
    load=st.sampled_from([0.5, 0.8, 0.95]),
)
def test_counter_matches_derived_occupancy_on_one_server(name, seed, workers,
                                                         load):
    workload = bimodal_50_1_50_100()
    server = Server(c6420(workers), CONFIGS[name](), seed=seed)
    checker = OccupancyChecker([server])
    server.sim.attach_probes(checker)
    rate = load * workers * 1e6 / workload.mean_us()
    result = server.run(workload, PoissonProcess(rate), 300)
    checker.check()
    assert result.drained
    assert checker.events > 0
    if server.queue_mode == "jbsq":
        assert checker.picks > 0
    assert all(w.owned == 0 for w in server.workers)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    at_us=st.floats(5.0, 300.0),
    down_us=st.one_of(st.sampled_from([0.01, 0.1, 0.5]),
                      st.floats(1.0, 200.0)),
    requeue=st.booleans(),
    stall=st.booleans(),
    depth=st.sampled_from([1, 2, 4]),
)
def test_counter_matches_derived_occupancy_in_a_crashing_rack(
        seed, at_us, down_us, requeue, stall, depth):
    faults = [ServerCrash(at_us=at_us, down_us=down_us, server=0,
                          requeue_inflight=requeue)]
    if stall:
        faults.append(WorkerStall(at_us=at_us / 2, duration_us=20.0,
                                  server=1))
    plan = FaultPlan(faults=tuple(faults), name="occupancy")
    workload = bimodal_50_1_50_100()
    cluster = Cluster(c6420(2), concord(QUANTUM_US, jbsq_depth=depth), 2,
                      seed=seed, fault_plan=plan)
    checker = OccupancyChecker(cluster.servers)
    cluster.sim.attach_probes(checker)
    rate = 0.7 * 2 * 2 * 1e6 / workload.mean_us()
    result = cluster.run(workload, PoissonProcess(rate), 400)
    checker.check()
    assert result.drained
    assert cluster.injector.crashes == 1
    assert len(result.records) + result.lost == result.num_offered


class TestWorkerCounter:
    def test_outstanding_is_a_read_only_view(self):
        server = Server(c6420(2), concord(QUANTUM_US), seed=1)
        worker = server.workers[0]
        assert type(worker).outstanding.fset is None
        worker.owned = 3
        assert worker.outstanding == 3

    def test_crash_reset_returns_owned_requests_and_zeroes_the_counter(self):
        server = Server(c6420(1), concord_no_steal(QUANTUM_US, jbsq_depth=4),
                        seed=1)
        worker = server.workers[0]
        requests = [Request(i, "k", 0, 50_000, 25.0) for i in range(3)]
        for request in requests:
            worker.enqueue(request, 0)
        assert worker.owned == 3 == derived_owned(worker)
        epoch = worker.epoch
        lost = worker.crash_reset(server.sim.now)
        assert lost == requests  # in service first, then the local queue
        assert worker.owned == 0 == derived_owned(worker)
        assert worker.is_idle
        assert worker.epoch == epoch + 1
        assert worker.idle_since == server.sim.now

    def test_stale_yield_does_not_start_on_top_of_a_running_request(self):
        # A crash lands while the worker is yielding; after recovery it is
        # handed new work before the old yield timer fires.  The stale
        # timer must leave the running request (and the counter) alone.
        server = Server(c6420(1), concord_no_steal(QUANTUM_US, jbsq_depth=4),
                        seed=1)
        worker = server.workers[0]
        first, running, queued = (
            Request(i, "k", 0, 50_000, 25.0) for i in range(3)
        )
        worker.enqueue(first, 0)
        worker.on_preempt_signal(worker.epoch)
        assert worker.current is None and worker._switching_until is not None
        assert worker.owned == 1 == derived_owned(worker)

        assert worker.crash_reset(server.sim.now) == []
        worker.enqueue(running, server.sim.now)
        worker.enqueue(queued, server.sim.now)
        assert worker.current is running

        worker._after_yield()  # the yield timer posted before the crash
        assert worker.current is running
        assert list(worker.local) == [queued]
        assert worker.owned == 2 == derived_owned(worker)


class TestStaleActionFinish:
    """A crash sweeps the request riding a dispatcher action; the server
    recovers and starts a new action before the old action's finish event
    fires.  That finish must be dropped: it carries the crash epoch it was
    posted under."""

    SEED = 5
    SERVERS = 2
    WORKERS = 2
    REQUESTS = 600

    def build(self, plan=None):
        return Cluster(
            c6420(self.WORKERS), concord(QUANTUM_US), self.SERVERS,
            seed=self.SEED, fault_plan=plan,
        )

    def run(self, cluster):
        workload = bimodal_50_1_50_100()
        rate = 0.6 * self.SERVERS * self.WORKERS * 1e6 / workload.mean_us()
        return cluster.run(workload, PoissonProcess(rate), self.REQUESTS)

    def find_window(self):
        """From a fault-free run: an action on server 0 and a packet that
        lands on server 0 while it is in flight."""
        cluster = self.build()
        server = cluster.servers[0]
        d = server.dispatcher
        actions = []
        deliveries = []
        run_action = d._run_action
        deliver = server.deliver

        def record_action(cost, on_done, arg, name):
            actions.append((cluster.sim.now, cost))
            run_action(cost, on_done, arg, name)

        def record_delivery(request):
            deliveries.append(cluster.sim.now)
            deliver(request)

        d._run_action = record_action
        server.deliver = record_delivery
        self.run(cluster)
        for start, cost in actions:
            for landed in deliveries:
                if start + 24 <= landed < start + cost:
                    return start, cost, landed
        raise AssertionError("no delivery landed inside an action")

    def test_stale_finish_is_dropped_after_a_short_recovery(self):
        start, cost, landed = self.find_window()
        cluster = self.build()
        clock = cluster.machine.clock
        crash_cycle = start + (landed - start) // 3
        recover_cycle = start + 2 * (landed - start) // 3
        at_us = clock.cycles_to_us(crash_cycle)
        plan = FaultPlan(faults=(ServerCrash(
            at_us=at_us, down_us=clock.cycles_to_us(recover_cycle) - at_us,
            server=0,
        ),), name="stale-finish")
        cluster = self.build(plan)
        injector = cluster.injector
        d = cluster.servers[0].dispatcher
        sim = cluster.sim
        seen = {"finishes": 0, "swept": [], "stale": []}

        sweep = injector._sweep_inflight

        def record_sweep(server):
            assert d._in_action, "the crash must hit a pending action"
            seen["crash"] = sim.now
            lost = sweep(server)
            seen["swept"].extend(lost)
            return lost

        finish = d._finish

        def record_finish(*args):
            seen["finishes"] += 1
            before = (d._in_action, d._action_request, d.actions_run)
            finish(*args)
            if "crash" in seen and not seen["stale"]:
                # The first finish after the crash is the swept action's.
                assert sim.now == start + cost
                seen["stale"].append(
                    (before, (d._in_action, d._action_request, d.actions_run))
                )

        injector._sweep_inflight = record_sweep
        d._finish = record_finish
        result = self.run(cluster)

        assert start < seen["crash"] < landed
        assert injector.recoveries == 1
        assert injector.crash_log[0].recover_cycle < landed
        # The old finish fired once, while the post-recovery action was in
        # flight, and changed nothing.
        assert len(seen["stale"]) == 1
        before, after = seen["stale"][0]
        assert before[0] is True
        assert after == before
        # Every action posts exactly one finish; the dispatcher ends idle.
        assert seen["finishes"] == d.actions_run
        assert d._in_action is False
        # Drain accounting balances and no swept request is served.
        assert result.drained
        assert len(result.records) + result.lost == result.num_offered
        served = [r.rid for r in result.records]
        assert len(served) == len(set(served))
        assert not {r.rid for r in seen["swept"]} & set(served)
