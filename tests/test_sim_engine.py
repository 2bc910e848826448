"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import COMPACT_MIN_DEAD, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.at(30, lambda: order.append("c"))
    sim.at(10, lambda: order.append("a"))
    sim.at(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.at(5, lambda l=label: order.append(l))
    sim.run()
    assert order == list("abcde")


def test_after_schedules_relative_to_now():
    sim = Simulator()
    seen = []

    def first():
        sim.after(7, lambda: seen.append(sim.now))

    sim.at(3, first)
    sim.run()
    assert seen == [10]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.at(5, lambda: fired.append(1))
    sim.at(1, event.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.at(5, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert event.cancelled


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append(10))
    sim.at(100, lambda: fired.append(100))
    sim.run(until=50)
    assert fired == [10]
    assert sim.now == 50
    sim.run()
    assert fired == [10, 100]


def test_run_max_events_bounds_execution():
    sim = Simulator()
    count = []
    for t in range(1, 11):
        sim.at(t, lambda: count.append(1))
    executed = sim.run(max_events=4)
    assert executed == 4
    assert len(count) == 4


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.after(1, lambda: chain(n + 1))

    sim.at(0, lambda: chain(1))
    sim.run()
    assert seen == [1, 2, 3, 4, 5]


def test_pending_counts_live_events_only():
    sim = Simulator()
    keep = sim.at(10, lambda: None)
    drop = sim.at(20, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep.time == 10


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    first.cancel()
    assert sim.peek_time() == 9


def test_zero_delay_event_runs_after_current_callback():
    sim = Simulator()
    order = []

    def outer():
        sim.after(0, lambda: order.append("inner"))
        order.append("outer")

    sim.at(1, outer)
    sim.run()
    assert order == ["outer", "inner"]


def test_attach_probes_sees_each_event():
    from repro.obs import ProbeBus

    sim = Simulator()
    bus = ProbeBus("engine")
    assert sim.attach_probes(bus) is sim
    sim.at(4, lambda: None, name="x")
    sim.post(6, lambda: None, name="y")
    sim.run()
    assert [(e.t, e.data["name"]) for e in bus.events] == [(4, "x"), (6, "y")]


def test_zero_delay_self_reschedule_runs_after_same_time_peers():
    """An event rescheduling itself at delay 0 runs FIFO after any other
    same-time events, and the run terminates when it stops rechaining."""
    sim = Simulator()
    order = []

    def chain(n):
        order.append((sim.now, n))
        if n < 5:
            sim.after(0, lambda: chain(n + 1))

    sim.at(10, lambda: chain(0))
    sim.at(10, lambda: order.append((sim.now, "peer")))
    sim.run()
    assert order == [(10, 0), (10, "peer")] + [(10, k) for k in range(1, 6)]
    assert sim.now == 10
    assert sim.pending == 0


def test_post_fires_without_handle():
    sim = Simulator()
    seen = []
    assert sim.post(5, lambda: seen.append(sim.now)) is None
    assert sim.post_at(5, lambda: seen.append(sim.now * 10)) is None
    sim.post(0, lambda: seen.append(0))
    sim.run()
    assert seen == [0, 5, 50]
    assert sim.events_run == 3


def test_post_and_after_share_fifo_order():
    sim = Simulator()
    order = []
    sim.after(5, lambda: order.append("a"))
    sim.post(5, lambda: order.append("b"))
    sim.after(5, lambda: order.append("c"))
    sim.post_at(5, lambda: order.append("d"))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_far_future_timers_fire_in_time_order():
    sim = Simulator()
    seen = []
    delays = [
        0, 1, 255, 256, 257, 65_535, 65_536, 65_537,
        2**24 - 1, 2**24, 2**24 + 1, 2**32 - 1, 2**32, 2**32 + 1,
    ]
    for d in reversed(delays):
        sim.after(d, lambda d=d: seen.append((sim.now, d)))
    sim.run()
    assert seen == [(d, d) for d in delays]
    assert sim.pending == 0 and sim.heap_size == 0


def test_cancelled_far_timer_never_fires():
    sim = Simulator()
    fired = []
    doomed = sim.after(2**32 + 7, lambda: fired.append("doomed"))
    sim.after(2**32 + 8, lambda: fired.append("ok"))
    doomed.cancel()
    sim.run()
    assert fired == ["ok"]
    assert sim.pending == 0 and sim.heap_size == 0
    assert sim.dead_in_heap == 0  # the cancelled entry was popped and skipped


def test_cancel_then_reschedule_same_time_fires_once():
    """Cancelling a handle and rescheduling its callback at the same time
    fires exactly once, and the counters account for the dead entry."""
    sim = Simulator()
    fired = []
    first = sim.at(50, lambda: fired.append("first"))
    first.cancel()
    first.cancel()  # idempotent; counted once
    again = sim.at(50, lambda: fired.append("again"))
    sim.run()
    assert fired == ["again"]
    assert not again.cancelled
    assert sim.events_cancelled == 1
    assert sim.events_run == 1
    assert sim.dead_in_heap == 0


def test_bounded_run_then_late_insert():
    """run(until=...) advances now to the bound; later inserts between the
    bound and the next queued event still fire, in order."""
    sim = Simulator()
    seen = []
    sim.at(1000, lambda: seen.append("far"))
    assert sim.run(until=500) == 0
    assert sim.now == 500
    sim.at(600, lambda: seen.append("mid"))
    sim.post_at(600, lambda: seen.append("mid2"))
    sim.run()
    assert seen == ["mid", "mid2", "far"]


def test_run_until_with_max_events_stops_at_whichever_comes_first():
    sim = Simulator()
    seen = []
    for t in range(1, 11):
        sim.at(10 * t, lambda t=t: seen.append(t))
    assert sim.run(until=55, max_events=3) == 3
    assert seen == [1, 2, 3] and sim.now == 30
    assert sim.run(until=55, max_events=10) == 2
    assert seen == [1, 2, 3, 4, 5] and sim.now == 55
    assert sim.pending == 5


def test_step_and_max_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.at(10 * (i + 1), lambda i=i: seen.append(i))
    assert sim.step() is True
    assert seen == [0]
    assert sim.run(max_events=2) == 2
    assert seen == [0, 1, 2]
    assert sim.run() == 2
    assert sim.step() is False


def test_peek_time_is_none_once_drained():
    sim = Simulator()
    late = sim.at(2**20, lambda: None)
    sim.run()
    late.cancel()
    assert sim.peek_time() is None


def test_reentrant_run_raises():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            errors.append(True)

    sim.at(1, reenter)
    sim.run()
    assert errors == [True]


def test_events_run_counter():
    sim = Simulator()
    for t in range(1, 6):
        sim.at(t, lambda: None)
    sim.run()
    assert sim.events_run == 5


class TestCancellationAccounting:
    """Lazy cancellation is now counted and amortized away by compaction."""

    def test_events_cancelled_and_dead_in_heap(self):
        sim = Simulator()
        events = [sim.at(t, lambda: None) for t in range(1, 11)]
        for event in events[:4]:
            event.cancel()
        assert sim.events_cancelled == 4
        assert sim.dead_in_heap == 4
        assert sim.heap_size == 10
        assert sim.pending == 6

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        event = sim.at(5, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.events_cancelled == 1
        assert sim.dead_in_heap == 1

    def test_cancel_after_fire_does_not_skew_accounting(self):
        sim = Simulator()
        event = sim.at(1, lambda: None)
        sim.run()
        event.cancel()
        assert event.cancelled
        assert sim.events_cancelled == 0
        assert sim.dead_in_heap == 0

    def test_popped_dead_entries_drain_the_counter(self):
        sim = Simulator()
        for t in range(1, 6):
            event = sim.at(t, lambda: None)
            if t % 2 == 0:
                event.cancel()
        assert sim.dead_in_heap == 2
        sim.run()
        assert sim.dead_in_heap == 0
        assert sim.heap_size == 0
        assert sim.events_run == 3

    def test_explicit_compact_preserves_live_events(self):
        sim = Simulator()
        fired = []
        for t in range(1, 21):
            event = sim.at(t, lambda t=t: fired.append(t))
            if t % 2 == 0:
                event.cancel()
        sim.compact()
        assert sim.heap_size == 10
        assert sim.dead_in_heap == 0
        sim.run()
        assert fired == list(range(1, 21, 2))

    def test_compaction_storm_never_drops_live_events(self):
        """A cancellation storm triggers automatic compaction; every live
        event must still fire, in timestamp order."""
        sim = Simulator()
        fired = []
        survivors = []
        for t in range(1, 2001):
            event = sim.at(t, lambda t=t: fired.append(t))
            if t % 4 != 0:
                event.cancel()  # 1500 cancellations >> COMPACT_MIN_DEAD
            else:
                survivors.append(t)
        assert sim.events_cancelled == 1500
        assert sim.compactions >= 1
        # Compaction already swept most dead entries out of the heap.
        assert sim.heap_size < 2000
        assert sim.pending == len(survivors)
        sim.run()
        assert fired == survivors
        assert sim.events_run == len(survivors)

    def test_compaction_during_run_is_alias_safe(self):
        """compact() rewrites the heap in place while run() holds a local
        alias to it; live events scheduled after the storm must still fire."""
        sim = Simulator()
        fired = []
        doomed = []

        def storm():
            for event in doomed:
                event.cancel()

        sim.at(0, storm)
        for t in range(1, 2 * COMPACT_MIN_DEAD + 1):
            doomed.append(sim.at(10 + t, lambda: fired.append("dead")))
        sim.at(5000, lambda: fired.append("alive"))
        sim.run()
        assert sim.compactions >= 1
        assert fired == ["alive"]
        assert sim.now == 5000

    def test_small_cancel_counts_do_not_compact(self):
        sim = Simulator()
        for t in range(1, COMPACT_MIN_DEAD):
            sim.at(t, lambda: None).cancel()
        assert sim.compactions == 0
        assert sim.dead_in_heap == COMPACT_MIN_DEAD - 1


class TestAgent:
    """The serial-resource helper used to model pinned threads."""

    def test_busy_for_serializes_work(self):
        from repro.sim.process import Agent

        sim = Simulator()
        agent = Agent(sim, "thread")
        first_end = agent.busy_for(100)
        second_end = agent.busy_for(50)
        assert first_end == 100
        assert second_end == 150  # queued behind the first operation
        assert agent.busy_cycles == 150

    def test_when_free_and_is_busy(self):
        from repro.sim.process import Agent

        sim = Simulator()
        agent = Agent(sim, "thread")
        assert not agent.is_busy
        agent.busy_for(10)
        assert agent.is_busy
        assert agent.when_free() == 10

    def test_start_floor_and_utilization(self):
        from repro.sim.process import Agent

        sim = Simulator()
        agent = Agent(sim, "thread")
        end = agent.busy_for(10, start=40)
        assert end == 50
        assert agent.utilization(100) == 0.1
        assert agent.utilization(0) == 0.0

    def test_negative_busy_rejected(self):
        import pytest as _pytest

        from repro.sim.process import Agent

        with _pytest.raises(ValueError):
            Agent(Simulator(), "t").busy_for(-1)
