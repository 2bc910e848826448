"""The dispatcher thread.

One dedicated thread maintains the single physical queue (section 2.1).  It
is modelled as a serial resource executing micro-operations in priority
order: deliver due preemption signals, pull preempted contexts back onto the
central queue, receive new packets, dispatch to workers, and — for Concord —
steal application work when everything else is quiet and all per-worker
queues are full (section 3.3).

Because actions serialize, dispatcher saturation (the Fixed(1) bottleneck of
Fig. 8) and late preemption signals under load ("the dispatcher sends
preemption notifications late when busy", section 3) both emerge without
special-casing.
"""

import math
from collections import deque
from functools import partial

from repro import constants

__all__ = ["Dispatcher"]


class Dispatcher:
    """The dispatcher agent; see module docstring."""

    def __init__(self, sim, server):
        self.sim = sim
        self.server = server
        self.rx = deque()
        self.preempts = deque()
        self.requeues = deque()
        # All workers start idle; in single-queue mode they are born ready.
        self.ready_workers = deque(
            server.workers if server.queue_mode == "sq" else ()
        )
        self._in_action = False
        #: Bumped by the fault injector when this server crashes; the
        #: pending action-finish event carries the epoch it was scheduled
        #: under and goes stale on mismatch (same trick as worker epochs).
        self.crash_epoch = 0
        #: The request riding the current micro-action (rx/requeue/push),
        #: so a crash sweep can account it as lost.
        self._action_request = None
        self.busy_cycles = 0
        self.actions_run = 0
        self.signals_sent = 0
        self.stale_signals_skipped = 0
        # Work-conserving state (section 3.3): at most one stolen request at
        # a time; its context lives in a dedicated buffer between slices and
        # can never migrate to a worker (different instrumentation).
        self.steal_buffer = None
        self._steal = None
        self._steal_stop_pending = False
        self.steals_started = 0
        self.steal_completions = 0
        self.steal_busy_cycles = 0

    # -- stimuli ------------------------------------------------------------------

    def on_arrival(self, request):
        """A packet reached the NIC ring."""
        self.rx.append(request)
        self._wake()

    def enqueue_preempt(self, worker, epoch):
        """A worker's scheduling quantum expired (timer event)."""
        self.preempts.append((worker, epoch))
        self._wake()

    def enqueue_requeue(self, request):
        """A worker yielded ``request``; pull it back to the central queue."""
        self.requeues.append(request)
        self._wake()

    def worker_became_idle(self, worker):
        if self.server.queue_mode == "sq":
            # The dispatcher only notices the worker's "done" flag on its
            # next poll round over all n workers (section 2.2.2: with short
            # requests "multiple workers finish while the dispatcher is
            # busy sending a request to another worker").
            delay = self.server.poll_discovery_delay()
            if delay > 0:
                self.sim.post(
                    delay, partial(self._register_ready, worker), "flag-poll"
                )
                return
            self.ready_workers.append(worker)
        self._wake()

    def _register_ready(self, worker):
        self.ready_workers.append(worker)
        self._wake()

    def worker_slot_freed(self, worker):
        self._wake()

    # -- the action loop --------------------------------------------------------------

    def _wake(self):
        if self._in_action:
            return
        if self._steal is not None:
            self._interrupt_steal()
            return
        self._next()

    def _run_action(self, cost, on_done, arg, name):
        """Occupy the dispatcher for ``cost`` cycles, then run
        ``on_done(arg)``.  The finish event carries the crash epoch it was
        posted under, so a crash (even one already recovered from) turns it
        stale."""
        self._in_action = True
        self.busy_cycles += cost
        self.actions_run += 1
        probes = self.server.probes
        if probes is not None:
            probes.dispatcher_action(self.sim.now, name, cost)
        self.sim.post(
            cost, partial(self._finish, self.crash_epoch, on_done, arg), name
        )

    def _finish(self, epoch, on_done, arg):
        if self.crash_epoch != epoch:
            return  # the server crashed mid-action; the sweep took over
        self._in_action = False
        self._action_request = None
        on_done(arg)
        self._next()

    def _next(self):
        if self._in_action or self._steal is not None:
            return
        faults = self.server.faults
        if faults is not None and faults.down:
            return  # crashed: the dispatcher core is dark until recovery
        costs = self.server.costs

        # 1. Preemption signals: skip stale entries (the worker already
        # finished or yielded; the dispatcher sees that in the shared state
        # before paying for a signal).
        while self.preempts:
            signal = self.preempts.popleft()
            worker, epoch = signal
            if worker.epoch != epoch or worker.current is None:
                self.stale_signals_skipped += 1
                continue
            self.signals_sent += 1
            self._run_action(costs.signal, self._deliver_signal, signal,
                             "d-signal")
            return

        # 2. Preempted contexts returning to the central queue.
        if self.requeues:
            request = self.requeues.popleft()
            self._action_request = request
            self._run_action(costs.requeue, self._push_preempted, request,
                             "d-requeue")
            return

        # 3. New packets.
        if self.rx:
            request = self.rx.popleft()
            self._action_request = request
            self._run_action(costs.rx, self._push_new, request, "d-rx")
            return

        # 4. Dispatch to a worker.
        policy = self.server.policy
        if len(policy):
            target = self._pick_worker(policy.peek())
            if target is not None:
                request = policy.pop()
                self._action_request = request
                self._run_action(costs.push + costs.jbsq_scan,
                                 self._complete_dispatch, (request, target),
                                 "d-push")
                return

        # 5. Work conservation (Concord only).
        if self.server.config.work_conserving_dispatcher:
            self._begin_steal()

    # -- dispatch ---------------------------------------------------------------------

    def _pick_worker(self, request=None):
        if self.server.queue_mode == "sq":
            while self.ready_workers:
                worker = self.ready_workers.popleft()
                if worker.is_idle:
                    return worker
            return None
        depth = self.server.config.jbsq_depth
        # Locality-aware placement (section 3.1): send a preempted request
        # back to the core whose caches still hold its state, if it has a
        # free slot.
        if (
            self.server.config.locality_aware
            and request is not None
            and request.last_worker is not None
        ):
            previous = self.server.workers[request.last_worker]
            if previous.owned < depth:
                return previous
        # Least-occupied worker with a free slot, lowest index on ties; an
        # empty worker cannot be beaten, so the scan stops at the first.
        best = None
        best_owned = depth
        for worker in self.server.workers:
            owned = worker.owned
            if owned < best_owned:
                if owned == 0:
                    return worker
                best = worker
                best_owned = owned
        return best

    def _push_new(self, request):
        self.server.policy.push_new(request)
        probes = self.server.probes
        if probes is not None:
            probes.request_enqueued(self.sim.now, request)

    def _push_preempted(self, request):
        self.server.policy.push_preempted(request)
        probes = self.server.probes
        if probes is not None:
            probes.request_enqueued(self.sim.now, request, requeued=True)

    def _complete_dispatch(self, push):
        request, worker = push
        probes = self.server.probes
        if probes is not None:
            probes.request_dispatched(self.sim.now, request, worker.wid)
        ready_at = self.sim.now + self.server.costs.sq_receive
        worker.enqueue(request, ready_at)

    def _deliver_signal(self, signal):
        """The cache-line write / IPI just completed; the worker reacts after
        the mechanism's notice latency plus any safety deferral."""
        worker, epoch = signal
        mech = self.server.mechanism
        delay = mech.notice_delay_cycles(self.server.rng_notice)
        if worker.current is not None:
            elapsed = max(0, self.sim.now - (worker.run_start or self.sim.now))
            delay += self.server.defer_cycles(worker.current.kind, elapsed)
        self.sim.post(
            int(delay), partial(worker.on_preempt_signal, epoch), "notice"
        )

    # -- work conservation (section 3.3) --------------------------------------------------

    def _begin_steal(self):
        request = self.steal_buffer
        if request is None:
            request = self.server.policy.steal_nonstarted()
            if request is None:
                return
            self.steals_started += 1
        self.steal_buffer = None
        request.started_by_dispatcher = True
        now = self.sim.now
        if request.first_dispatch_cycle is None:
            request.first_dispatch_cycle = now

        costs = self.server.costs
        rate = self.server.dispatcher_rate
        exec_start = now + costs.context_switch
        need = int(math.ceil(request.remaining_cycles * rate))
        quantum = self.server.quantum_cycles or need
        slice_len = min(need, quantum)
        completes = slice_len >= need
        end_event = self.sim.at(
            exec_start + slice_len, self._finish_slice, "d-steal-end"
        )
        self._steal = {
            "request": request,
            "exec_start": exec_start,
            "end_event": end_event,
            "completes": completes,
        }
        probes = self.server.probes
        if probes is not None:
            probes.steal_started(now, request, exec_start, completes)

    def _account_steal(self, st, stop_time):
        """Charge the slice [entry switch + execution] to the dispatcher."""
        spent = stop_time - (st["exec_start"] - self.server.costs.context_switch)
        self.busy_cycles += spent
        self.steal_busy_cycles += spent

    def _finish_slice(self):
        st = self._steal
        if st is None:
            return  # the crash sweep already reclaimed the slice
        self._steal = None
        self._steal_stop_pending = False
        now = self.sim.now
        self._account_steal(st, now)
        request = st["request"]
        if st["completes"]:
            request.remaining_cycles = 0
            request.completion_cycle = now
            self.steal_completions += 1
            self.server.record_completion(request)
        else:
            executed = int((now - st["exec_start"]) // self.server.dispatcher_rate)
            executed = max(0, min(executed, request.remaining_cycles - 1))
            request.remaining_cycles -= executed
            self.steal_buffer = request
        self._next()

    def _interrupt_steal(self):
        """A new stimulus arrived mid-slice: the dispatcher's rdtsc probes
        notice it within a probe gap and it self-preempts (section 3.3)."""
        if self._steal_stop_pending:
            return
        st = self._steal
        gap = self.server.rng_notice.uniform(
            0.0, constants.PROBE_INTERVAL_CYCLES
        )
        stop_at = self.sim.now + int(gap) + self.server.costs.context_switch
        if st["end_event"].time <= stop_at:
            # The slice ends before we could stop it; let it finish.
            return
        self._steal_stop_pending = True
        st["end_event"].cancel()
        self.sim.post_at(stop_at, self._pause_steal, "d-steal-pause")

    def _pause_steal(self):
        st = self._steal
        if st is None:
            return  # the crash sweep already reclaimed the slice
        self._steal = None
        self._steal_stop_pending = False
        now = self.sim.now
        self._account_steal(st, now)
        request = st["request"]
        exec_time = now - self.server.costs.context_switch - st["exec_start"]
        executed = int(exec_time // self.server.dispatcher_rate)
        executed = max(0, min(executed, request.remaining_cycles - 1))
        request.remaining_cycles -= executed
        self.steal_buffer = request
        probes = self.server.probes
        if probes is not None:
            probes.steal_paused(now, request)
        self._next()

    # -- introspection ----------------------------------------------------------------------

    def utilization(self, elapsed):
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def __repr__(self):
        return "Dispatcher(rx={}, queue={}, stealing={})".format(
            len(self.rx), len(self.server.policy), self._steal is not None
        )
