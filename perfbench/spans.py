"""Outside-in layer tracing: host-time spans around calls into each layer.

Nothing under ``src/`` knows about this module.  It works by wrapping, on
the live objects of one run, the callbacks the engine fires and the public
entry points of each layer:

* every callback passed to ``Simulator.post``/``post_at``/``schedule``/
  ``after`` runs inside a span of the layer its event name maps to
  (:data:`EVENT_LAYERS`); the push itself is engine (``sim``) time;
* dispatcher, worker, policy, server, workload, balancer and cache entry
  points run inside spans of their own layer.

A layer's self time is its spans' duration minus the part covered by child
spans, so the self times of all layers add up to the traced wall time.
"""

import time

__all__ = [
    "EVENT_LAYERS",
    "Tracer",
    "UnmappedEvent",
    "event_layer",
    "instrument_balancer",
    "instrument_cache",
    "instrument_server",
    "instrument_sim",
    "instrument_workload",
    "layer_of",
]

#: Event name -> layer.  A trailing ``*`` matches any suffix.  An event
#: name that matches nothing stops the traced run (:class:`UnmappedEvent`),
#: so a new event type cannot hide in the engine's self time.
EVENT_LAYERS = (
    ("d-*", "dispatcher"),
    ("flag-poll", "dispatcher"),
    ("w-*", "worker"),
    ("notice", "worker"),
    ("quantum-expiry", "worker"),
    ("self-preempt", "worker"),
    ("arrival", "server"),
    ("lb-*", "cluster"),
    ("net-*", "cluster"),
    ("telemetry*", "cluster"),
)


class UnmappedEvent(RuntimeError):
    """An engine event whose name no :data:`EVENT_LAYERS` entry maps."""


def event_layer(name):
    """The layer an engine event named ``name`` belongs to."""
    for pattern, layer in EVENT_LAYERS:
        if pattern.endswith("*"):
            if name.startswith(pattern[:-1]):
                return layer
        elif name == pattern:
            return layer
    raise UnmappedEvent(
        "engine event {!r} maps to no layer; add it to EVENT_LAYERS".format(name))


def layer_of(kind):
    """Span kinds are ``layer`` or ``layer.detail``."""
    return kind.partition(".")[0]


class Tracer:
    """A stack of open spans that accumulates, per span kind, the number of
    spans, their total (inclusive) duration and their self time.

    ``clock`` is injectable so the arithmetic can be tested on a synthetic
    span tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.incl_s = {}
        self.self_s = {}
        #: Engine events fired, by event name.
        self.fired = {}
        #: Free-form exact counters (``outstanding_reads``, ...).
        self.counts = {}
        self._stack = []

    def enter(self, kind):
        self._stack.append([kind, self.clock(), 0.0])

    def exit(self):
        kind, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[kind] = self.calls.get(kind, 0) + 1
        self.incl_s[kind] = self.incl_s.get(kind, 0.0) + duration
        self.self_s[kind] = self.self_s.get(kind, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, kind, fn):
        """``fn`` with every call timed as a span of ``kind``."""
        enter = self.enter
        leave = self.exit

        def traced(*args, **kwargs):
            enter(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def call(self, kind, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``kind``."""
        return self.wrap(kind, fn)(*args, **kwargs)

    @property
    def depth(self):
        return len(self._stack)

    def layer_self_s(self):
        """Self seconds summed per layer."""
        out = {}
        for kind, seconds in self.self_s.items():
            layer = layer_of(kind)
            out[layer] = out.get(layer, 0.0) + seconds
        return out


def _wrap_methods(tracer, kind, obj, names):
    for name in names:
        setattr(obj, name, tracer.wrap(kind, getattr(obj, name)))


def instrument_sim(tracer, sim):
    """Trace one simulator: ``run`` and every push are engine time, and each
    scheduled callback runs as a span of its event's layer."""
    enter = tracer.enter
    leave = tracer.exit
    fired = tracer.fired
    kinds = {}

    def traced_callback(name, callback):
        kind = kinds.get(name)
        if kind is None:
            kind = kinds[name] = event_layer(name)

        def fire():
            fired[name] = fired.get(name, 0) + 1
            enter(kind)
            try:
                callback()
            finally:
                leave()

        return fire

    def engine_push(push):
        def traced_push(when, callback, name=""):
            fire = traced_callback(name, callback)
            enter("sim")
            try:
                return push(when, fire, name)
            finally:
                leave()

        return traced_push

    # ``at`` is an alias that calls ``self.schedule``, so it is covered.
    for name in ("post", "post_at", "schedule", "after"):
        setattr(sim, name, engine_push(getattr(sim, name)))
    sim.run = tracer.wrap("sim", sim.run)


def _count_outstanding_reads(tracer, workers):
    """Count reads of ``Worker.outstanding`` (the JBSQ scan's inner load)
    by moving the workers to a subclass whose property counts."""
    counts = tracer.counts
    counts.setdefault("outstanding_reads", 0)
    base = type(workers[0])
    read = base.outstanding.fget

    class CountingWorker(base):
        @property
        def outstanding(self):
            counts["outstanding_reads"] += 1
            return read(self)

    for worker in workers:
        worker.__class__ = CountingWorker


def instrument_server(tracer, server):
    """Trace one server's layers (its simulator is traced separately, once
    per simulation)."""
    _wrap_methods(tracer, "server.deliver", server, ("deliver",))
    _wrap_methods(tracer, "server", server, (
        "record_completion", "build_request", "collect_result",
    ))
    _wrap_methods(tracer, "dispatcher", server.dispatcher, (
        "on_arrival", "enqueue_preempt", "enqueue_requeue",
        "worker_became_idle", "worker_slot_freed",
    ))
    for worker in server.workers:
        _wrap_methods(tracer, "worker", worker, ("enqueue", "on_preempt_signal"))
    _count_outstanding_reads(tracer, server.workers)
    _wrap_methods(tracer, "policy", server.policy, (
        "push_new", "push_preempted", "pop", "peek", "steal_nonstarted",
    ))


def instrument_balancer(tracer, balancer):
    """Trace the rack balancer's entry points and its inter-server policy."""
    _wrap_methods(tracer, "cluster", balancer, ("start", "accounted"))
    _wrap_methods(tracer, "cluster.choose", balancer.policy, ("choose",))


def instrument_workload(tracer, workload, arrival):
    """Trace service-time and inter-arrival sampling."""
    _wrap_methods(tracer, "workloads", workload, ("sample_class",))
    _wrap_methods(tracer, "workloads", arrival, ("next_gap_us",))


def instrument_cache(tracer, cache):
    """Trace a result cache's key derivation, reads and writes."""
    _wrap_methods(tracer, "cache.key", cache, ("key_for",))
    _wrap_methods(tracer, "cache.get", cache, ("get",))
    _wrap_methods(tracer, "cache.put", cache, ("put",))
