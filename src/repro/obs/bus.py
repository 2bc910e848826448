"""The probe bus: typed observation points the simulation emits into.

A :class:`ProbeBus` is the single object a server (or the rack balancer)
talks to while instrumented.  Components hold a ``probes`` attribute that
is ``None`` by default and guard every probe site with ``if probes is not
None`` — so the uninstrumented hot path costs one attribute load and a
falsy check per site.  The engine's one drain loop pays one ``is not
None`` check per event for its observer slot, which the bus fills
through :meth:`~repro.sim.engine.Simulator.attach_probes`
(``benchmarks/test_bench_obs.py`` pins the overhead).

The bus fans each probe out three ways:

* an in-order **event log** (when ``record_events`` is on),
* the bounded **flight recorder** ring (when attached),
* the **telemetry registry** counters, plus piggybacked sim-time sampling
  of per-worker queue depth / busy state every ``sample_interval`` cycles.

Everything is keyed off simulated time and request/worker ids — the bus
never reads the wall clock, never does io, and never perturbs the
simulation (it schedules nothing and mutates no simulation state), which
is what keeps instrumented runs bit-identical to bare ones.
"""

from repro.obs import events as ev
from repro.obs.events import ProbeEvent
from repro.obs.registry import TelemetryRegistry

__all__ = ["ProbeBus"]


class ProbeBus:
    """Collects probe events for one server (or balancer); see module doc."""

    def __init__(self, label="server", record_events=True, recorder=None,
                 registry=None, sample_interval=0, engine_events=False):
        #: Human-readable name; becomes the process name in Chrome traces.
        self.label = label
        self.record_events = record_events
        #: Whether the owner should attach :meth:`sim_event` as the
        #: engine's per-event hook (raw feed; opt-in).
        self.engine_events = engine_events
        self.events = []
        self.recorder = recorder
        self.registry = registry if registry is not None else TelemetryRegistry()
        #: Sampling period in cycles (0 disables sampling).  Samples are
        #: taken opportunistically at probe instants, never via scheduled
        #: events, so sampling cannot change the event sequence.
        self.sample_interval = sample_interval
        self._next_sample = sample_interval if sample_interval else None
        self._server = None
        #: Clock used by exporters to render cycle stamps in microseconds;
        #: set by :meth:`bind_server` (or by the session when minting).
        self.clock = None
        #: Requests delivered but not completed, in arrival order (a dict,
        #: not a set: iteration order must be deterministic).
        self._inflight = {}

    # -- attachment ---------------------------------------------------------

    def bind_server(self, server):
        """Point the bus at the server whose workers it samples."""
        self._server = server
        self.clock = server.clock
        return self

    # -- core fan-out -------------------------------------------------------

    def _emit(self, event):
        if self.record_events:
            self.events.append(event)
        recorder = self.recorder
        if recorder is not None:
            recorder.record(event)
        t = event.t
        nxt = self._next_sample
        if nxt is not None and t >= nxt:
            self._sample(t)
            every = self.sample_interval
            self._next_sample = ((t // every) + 1) * every

    def _sample(self, t):
        server = self._server
        if server is None:
            return
        registry = self.registry
        registry.sample("server.inflight", t, server.inflight)
        for worker in server.workers:
            wid = worker.wid
            registry.sample(
                "worker.{}.outstanding".format(wid), t, worker.outstanding
            )
            registry.sample(
                "worker.{}.busy".format(wid), t,
                0 if worker.is_idle else 1,
            )

    # -- request lifecycle probes ------------------------------------------

    def request_arrival(self, t, request):
        self.registry.count("requests.arrived")
        self._inflight[request.rid] = request
        self._emit(ProbeEvent(
            t, ev.ARRIVAL, rid=request.rid,
            data={"request_kind": request.kind,
                  "service_cycles": request.service_cycles},
        ))

    def request_enqueued(self, t, request, requeued=False):
        self.registry.count(
            "queue.requeues" if requeued else "queue.pushes"
        )
        self._emit(ProbeEvent(
            t, ev.ENQUEUE, rid=request.rid,
            data={"requeued": requeued} if requeued else None,
        ))

    def request_dispatched(self, t, request, wid):
        self.registry.count("requests.dispatched")
        self._emit(ProbeEvent(t, ev.DISPATCH, rid=request.rid, wid=wid))

    def request_started(self, t, request, wid, run_start, resumed):
        self.registry.count(
            "requests.resumed" if resumed else "requests.started"
        )
        self._emit(ProbeEvent(
            t, ev.START, rid=request.rid, wid=wid,
            data={"run_start": run_start, "resumed": resumed},
        ))

    def request_preempted(self, t, request, wid):
        self.registry.count("requests.preempted")
        self._emit(ProbeEvent(
            t, ev.PREEMPT, rid=request.rid, wid=wid,
            data={"preemptions": request.preemptions},
        ))

    def request_completed(self, t, request):
        self.registry.count("requests.completed")
        self._inflight.pop(request.rid, None)
        slowdown = request.slowdown()
        wid = None if request.started_by_dispatcher else request.last_worker
        self._emit(ProbeEvent(
            t, ev.COMPLETE, rid=request.rid, wid=wid,
            data={
                "slowdown": slowdown,
                "preemptions": request.preemptions,
                "stolen": request.started_by_dispatcher,
            },
        ))
        recorder = self.recorder
        if recorder is not None:
            if recorder.maybe_trigger(t, request.rid, slowdown):
                self.registry.count("flight.triggers")

    # -- dispatcher probes --------------------------------------------------

    def dispatcher_action(self, t, name, cost):
        self.registry.count("dispatcher.actions.{}".format(name))
        self._emit(ProbeEvent(t, ev.ACTION, data={"name": name,
                                                  "cost": cost}))

    def steal_started(self, t, request, exec_start, completes):
        self.registry.count("steals.slices")
        self._emit(ProbeEvent(
            t, ev.STEAL, rid=request.rid,
            data={"exec_start": exec_start, "completes": completes},
        ))

    def steal_paused(self, t, request):
        self.registry.count("steals.pauses")
        self._emit(ProbeEvent(t, ev.STEAL_PAUSE, rid=request.rid))

    # -- worker probes ------------------------------------------------------

    def worker_went_idle(self, t, wid):
        self.registry.count("workers.idle_transitions")
        self._emit(ProbeEvent(t, ev.WORKER_IDLE, wid=wid))

    # -- rack probes --------------------------------------------------------

    def request_routed(self, t, request, server_index):
        self.registry.count("balancer.routed")
        self._emit(ProbeEvent(
            t, ev.ROUTE, rid=request.rid,
            data={"server": server_index},
        ))

    def reply_received(self, t, rid, server_index):
        self.registry.count("balancer.replies")
        self._emit(ProbeEvent(
            t, ev.REPLY, rid=rid, data={"server": server_index},
        ))

    # -- fault / resilience probes ------------------------------------------

    def server_crashed(self, t, server_index, lost):
        self.registry.count("faults.crashes")
        self._emit(ProbeEvent(
            t, ev.CRASH, data={"server": server_index, "lost": lost},
        ))

    def server_recovered(self, t, server_index):
        self.registry.count("faults.recoveries")
        self._emit(ProbeEvent(
            t, ev.RECOVER, data={"server": server_index},
        ))

    def request_retried(self, t, rid, attempt, server_index):
        self.registry.count("resilience.retries")
        self._emit(ProbeEvent(
            t, ev.RETRY, rid=rid,
            data={"attempt": attempt, "server": server_index},
        ))

    def request_hedged(self, t, rid, server_index):
        self.registry.count("resilience.hedges")
        self._emit(ProbeEvent(
            t, ev.HEDGE, rid=rid, data={"server": server_index},
        ))

    def request_shed(self, t, rid):
        self.registry.count("resilience.shed")
        self._emit(ProbeEvent(t, ev.SHED, rid=rid))

    # -- raw engine events --------------------------------------------------

    def sim_event(self, t, name):
        """Sink for the engine's per-event hook (voluminous; opt-in)."""
        self.registry.count("engine.events")
        self._emit(ProbeEvent(t, ev.SIM, data={"name": name}))

    # -- end of run ---------------------------------------------------------

    def finalize_run(self, server):
        """Absorb end-of-run engine/agent introspection into the registry
        and mark still-in-flight requests as dropped."""
        sim = server.sim
        t = sim.now
        registry = self.registry
        registry.record("engine.events_run", sim.events_run)
        registry.record("engine.events_cancelled", sim.events_cancelled)
        registry.record("engine.heap_size", sim.heap_size)
        registry.record("engine.dead_in_heap", sim.dead_in_heap)
        registry.record("engine.compactions", sim.compactions)
        d = server.dispatcher
        registry.record("dispatcher.busy_cycles", d.busy_cycles)
        registry.record("dispatcher.signals_sent", d.signals_sent)
        registry.record("dispatcher.stale_signals_skipped",
                        d.stale_signals_skipped)
        registry.record("dispatcher.steals_started", d.steals_started)
        registry.record("dispatcher.steal_completions", d.steal_completions)
        for worker in server.workers:
            prefix = "worker.{}.".format(worker.wid)
            registry.record(prefix + "idle_cycles", worker.idle_cycles)
            registry.record(prefix + "busy_cycles", worker.busy_cycles)
            registry.record(prefix + "work_cycles", worker.work_cycles)
            registry.record(prefix + "preemptions",
                            worker.preemptions_taken)
            registry.record(prefix + "completed",
                            worker.requests_completed)
        for rid in list(self._inflight):
            request = self._inflight.pop(rid)
            self.registry.count("requests.dropped")
            self._emit(ProbeEvent(
                t, ev.DROP, rid=rid,
                data={"remaining_cycles": request.remaining_cycles},
            ))

    def __repr__(self):
        return "ProbeBus({!r}, events={}, recorder={})".format(
            self.label, len(self.events), self.recorder is not None
        )
