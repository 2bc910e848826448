"""Differential test of the engine's single drain loop.

``Simulator.run`` is one pop-and-fire loop that serves every caller:
``until``, ``max_events``, the trace observer and ``step``.  The engine
used to carry four copies of that step (an unbounded untraced loop, an
unbounded traced loop, a bounded loop, and ``step``).
:class:`ReferenceSimulator` keeps those copies verbatim, and the property
below drives both engines with the same random schedule, cancellations
and run calls, and requires identical observable state after every call.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class ReferenceSimulator(Simulator):
    """The engine with its previous four-loop ``run`` and ``step``, plus
    the current engine's rejection of an ``until`` before ``now``."""

    def step(self):
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            event = entry[2]
            if event is None:
                self.now = entry[0]
                if self._trace is not None:
                    self._trace(entry[0], entry[4])
                self._events_run += 1
                entry[3]()
                return True
            if event.cancelled:
                self._dead_in_heap -= 1
                continue
            event._sim = None
            self.now = entry[0]
            if self._trace is not None:
                self._trace(entry[0], event.name)
            self._events_run += 1
            event.callback()
            return True
        return False

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                "run(until={}) is before now={}".format(until, self.now)
            )
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        trace = self._trace
        executed = 0
        try:
            if until is None and max_events is None:
                if trace is None:
                    while heap:
                        entry = pop(heap)
                        event = entry[2]
                        if event is None:
                            self.now = entry[0]
                            entry[3]()
                            executed += 1
                            continue
                        if event.cancelled:
                            self._dead_in_heap -= 1
                            continue
                        event._sim = None
                        self.now = entry[0]
                        event.callback()
                        executed += 1
                else:
                    while heap:
                        entry = pop(heap)
                        event = entry[2]
                        if event is None:
                            self.now = entry[0]
                            trace(entry[0], entry[4])
                            entry[3]()
                            executed += 1
                            continue
                        if event.cancelled:
                            self._dead_in_heap -= 1
                            continue
                        event._sim = None
                        self.now = entry[0]
                        trace(entry[0], event.name)
                        event.callback()
                        executed += 1
                self._events_run += executed
                return executed
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                head = heap[0]
                event = head[2]
                if event is not None and event.cancelled:
                    pop(heap)
                    self._dead_in_heap -= 1
                    continue
                if until is not None and head[0] > until:
                    self.now = int(until)
                    break
                pop(heap)
                self.now = head[0]
                if event is None:
                    if trace is not None:
                        trace(head[0], head[4])
                    head[3]()
                else:
                    event._sim = None
                    if trace is not None:
                        trace(head[0], event.name)
                    event.callback()
                executed += 1
            else:
                if until is not None and until > self.now:
                    self.now = int(until)
            self._events_run += executed
        finally:
            self._running = False
        return executed


class _Sink:
    """Stands in for a probe bus: records what the observer is fed."""

    def __init__(self, log):
        self.sim_event = lambda time, name: log.append(("trace", time, name))


# Delays mix same-time ties (0), near events and far ones that lie past
# most ``until`` bounds, so cancelled entries past ``until`` occur often.
_delay = st.one_of(st.integers(0, 3), st.integers(0, 40),
                   st.integers(10_000, 10_020))
_schedule = st.tuples(st.sampled_from(["post", "post_at", "after", "schedule"]),
                      _delay)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 1 << 16))
# What a firing event does: schedule or cancel, never run.
_child = st.one_of(_schedule, _cancel)
_op = st.one_of(
    st.tuples(_schedule, st.lists(_child, max_size=3)),
    st.tuples(_cancel, st.just([])),
    st.tuples(st.tuples(st.just("run"),
                        st.one_of(st.none(), st.integers(-5, 60)),
                        st.one_of(st.none(), st.integers(0, 6))),
              st.just([])),
    st.tuples(st.tuples(st.just("step")), st.just([])),
)


class _Player:
    """Applies one op script to one engine, logging what it observes."""

    def __init__(self, sim, traced):
        self.sim = sim
        self.log = []
        self.handles = []
        if traced:
            sim.attach_probes(_Sink(self.log))

    def apply(self, op, children=()):
        sim = self.sim
        kind = op[0]
        if kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
            return None
        if kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            try:
                return sim.run(until=until, max_events=op[2])
            except SimulationError as exc:
                return "rejected: {}".format(exc)
        if kind == "step":
            return sim.step()
        label = len(self.log), kind
        name = "{}{}".format(*label)

        def fire():
            self.log.append(("fire", label, sim.now))
            for child in children:
                self.apply(child)

        delay = op[1]
        if kind == "post":
            sim.post(delay, fire, name)
        elif kind == "post_at":
            sim.post_at(sim.now + delay, fire, name)
        elif kind == "after":
            self.handles.append(sim.after(delay, fire, name))
        else:
            self.handles.append(sim.schedule(sim.now + delay, fire, name))
        return None

    def state(self):
        sim = self.sim
        return (list(self.log), sim.now, sim.events_run, sim.dead_in_heap,
                sim.pending, sim.events_cancelled, sim.heap_size)


@settings(max_examples=300, deadline=None)
@given(script=st.lists(_op, min_size=1, max_size=40), traced=st.booleans())
def test_drain_loop_matches_the_previous_loops(script, traced):
    engine = _Player(Simulator(), traced)
    reference = _Player(ReferenceSimulator(), traced)
    for op, children in script:
        assert engine.apply(op, children) == reference.apply(op, children)
        assert engine.state() == reference.state()
    # Whatever is left drains identically, too.
    assert engine.sim.run() == reference.sim.run()
    assert engine.state() == reference.state()


def test_cancelled_entry_past_until_is_dropped_on_the_way():
    """A cancelled head past ``until`` is popped (and uncounted) even though
    the run stops there; the live entry behind it is not touched."""
    sim = Simulator()
    fired = []
    doomed = sim.at(100, lambda: fired.append("doomed"))
    sim.at(200, lambda: fired.append("kept"))
    doomed.cancel()
    assert sim.dead_in_heap == 1
    assert sim.run(until=50) == 0
    assert sim.now == 50 and sim.dead_in_heap == 0 and sim.pending == 1
    assert sim.run(until=150) == 0
    assert sim.now == 150 and sim.heap_size == 1
    assert sim.run() == 1 and fired == ["kept"] and sim.now == 200


def test_until_before_now_is_rejected_and_the_clock_holds():
    """Regression: ``run(until=u)`` with ``u < now`` used to set ``now`` to
    ``u``, after which a later event could fire before times already
    fired."""
    sim = Simulator()
    fired = []
    sim.at(100, lambda: fired.append(sim.now))
    sim.at(300, lambda: fired.append(sim.now))
    assert sim.run(until=150) == 1 and sim.now == 150
    with pytest.raises(SimulationError, match="before now"):
        sim.run(until=50)
    assert sim.now == 150 and sim.pending == 1
    sim.at(160, lambda: fired.append(sim.now))
    assert sim.run(until=150) == 0  # until == now is a no-op, not an error
    assert sim.run() == 2
    assert fired == [100, 160, 300]


def test_step_is_a_one_event_run():
    sim = Simulator()
    seen = []
    sim.at(5, lambda: seen.append(sim.now)).cancel()
    sim.post(9, lambda: seen.append(sim.now))
    assert sim.step() is True
    assert seen == [9] and sim.events_run == 1 and sim.dead_in_heap == 0
    assert sim.step() is False
    assert sim.now == 9
