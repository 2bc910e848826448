"""Worker threads.

A worker is pinned to a dedicated core (section 2.1).  It executes one
request at a time from its local queue (depth 1 in single-queue mode, k in
JBSQ(k) mode), yields cooperatively or takes interrupts depending on the
configured preemption mechanism, and tracks its idle time so Fig. 3-style
stall accounting falls out directly.

Timing model
------------
Work is accounted in *uninstrumented* cycles.  A worker executing a request
advances it at rate ``1 / rate`` where ``rate = 1 + proc_overhead`` stretches
wall-clock time by runtime bookkeeping plus the preemption mechanism's
instrumentation tax (cproc in Eq. 2).  Each (re)start pays a context switch;
each preemption pays the mechanism's notification disruption (cnotif).
"""

import math
from collections import deque
from functools import partial

__all__ = ["Worker"]


class Worker:
    """One simulated worker thread."""

    def __init__(self, sim, wid, server):
        self.sim = sim
        self.wid = wid
        self.server = server
        self.local = deque()
        self.current = None
        #: Monotonic counter identifying the current execution; preemption
        #: signals carry the epoch they were aimed at so stale signals
        #: (request already finished or yielded) are recognised and dropped.
        self.epoch = 0
        self.run_start = None
        #: Start of the current idle interval, or None while busy.
        self.idle_since = 0
        self.idle_cycles = 0
        self.busy_cycles = 0
        #: Uninstrumented service cycles actually executed (goodput).
        self.work_cycles = 0
        self.preemptions_taken = 0
        self.wasted_signals = 0
        self.requests_completed = 0
        self._switching_until = None
        #: Requests owned by this worker: queued locally, in service, or
        #: mid-yield -- ``len(local)`` plus one while ``current`` or
        #: ``_switching_until`` is set.  Kept incrementally (+1 in
        #: :meth:`enqueue`, -1 when a request completes or its yield ends,
        #: 0 on :meth:`crash_reset`) so the dispatcher's JBSQ scan reads a
        #: plain int instead of re-deriving it per worker per dispatch.
        self.owned = 0

    # -- queue state ------------------------------------------------------------

    @property
    def outstanding(self):
        """Requests owned by this worker (read-only view of :attr:`owned`).
        JBSQ(k) bounds this at k (JBSQ(1) == single queue, section 3.2)."""
        return self.owned

    @property
    def is_idle(self):
        return self.owned == 0

    # -- dispatch entry points ----------------------------------------------------

    def enqueue(self, request, ready_at):
        """Receive a request pushed by the dispatcher.

        ``ready_at`` is when the request becomes visible to the worker
        (dispatch action completion plus, in single-queue mode, the worker's
        own receive miss).
        """
        self.local.append(request)
        self.owned += 1
        if self.current is None and self._switching_until is None:
            self._start_next(max(ready_at, self.sim.now))

    # -- execution ------------------------------------------------------------------

    def _start_next(self, at):
        """Begin the next local request: close the idle interval, pay the
        context switch (plus JBSQ's timer-arming residual), and schedule
        completion/preemption."""
        if not self.local:
            raise RuntimeError("worker {} has nothing to start".format(self.wid))
        request = self.local.popleft()
        at = max(at, self.sim.now)
        if self.idle_since is not None:
            self.idle_cycles += max(0, at - self.idle_since)
            self.idle_since = None

        costs = self.server.costs
        switch = costs.context_switch + costs.jbsq_residual
        if request.preemptions > 0:
            if request.last_worker == self.wid:
                # Warm resume: the request's context is still in this
                # core's caches, halving the switch-in cost (the locality
                # benefit section 3.1 alludes to).
                switch -= costs.context_switch // 2
            else:
                request.migrations += 1
        self.busy_cycles += switch
        run_start = at + switch
        self._switching_until = run_start
        self.epoch += 1
        epoch = self.epoch
        self.current = request
        self.run_start = run_start
        if request.first_dispatch_cycle is None:
            request.first_dispatch_cycle = at
        request.last_worker = self.wid

        probes = self.server.probes
        if probes is not None:
            probes.request_started(
                at, request, self.wid, run_start, request.preemptions > 0
            )

        duration = int(math.ceil(request.remaining_cycles * self.server.worker_rate))
        completion_at = run_start + duration
        self.sim.post_at(
            completion_at, partial(self._on_complete, epoch), "w-complete"
        )

        quantum = self.server.quantum_cycles
        if (
            self.server.preemptive
            and quantum is not None
            and completion_at > run_start + quantum
        ):
            expiry = run_start + quantum
            mech = self.server.mechanism
            if mech.needs_dispatcher_signal:
                self.sim.post_at(
                    expiry,
                    partial(self.server.dispatcher.enqueue_preempt, self, epoch),
                    "quantum-expiry",
                )
            else:
                # Self-preemption (rdtsc probes): the worker notices the
                # elapsed quantum at its next probe, no dispatcher involved.
                rng = self.server.rng_notice
                delay = mech.notice_delay_cycles(rng) + self.server.defer_cycles(
                    request.kind, elapsed_cycles=quantum
                )
                self.sim.post_at(
                    expiry + int(delay),
                    partial(self.on_preempt_signal, epoch),
                    "self-preempt",
                )

    def _on_complete(self, epoch):
        if epoch != self.epoch or self.current is None:
            return
        request = self.current
        now = self.sim.now
        self.busy_cycles += now - self.run_start
        self.work_cycles += request.remaining_cycles
        request.remaining_cycles = 0
        request.completion_cycle = now
        self.requests_completed += 1
        self.current = None
        self.run_start = None
        self._switching_until = None
        self.owned -= 1
        self.epoch += 1
        self.server.record_completion(request)
        self._after_request(now)

    def on_preempt_signal(self, epoch):
        """The preemption notification reached application code: yield.

        Fired either by the dispatcher (signal + notice latency + safety
        deferral) or by the worker's own rdtsc probe.  Stale signals — the
        request completed or already yielded — are dropped, mirroring how a
        late cache-line read observes an already-cleared flag.
        """
        if epoch != self.epoch or self.current is None:
            self.wasted_signals += 1
            return
        faults = self.server.faults
        if faults is not None:
            # Fault injection: a stall window swallows the probe until the
            # window ends; a dropout window loses it for one re-probe
            # period.  Either way the notification is re-armed, not lost —
            # if the request finishes first, the stale-epoch check above
            # drops the re-fire.
            retry_at = faults.preempt_retry_at(self.sim.now, self.wid)
            if retry_at is not None:
                self.sim.post_at(
                    retry_at, partial(self.on_preempt_signal, epoch),
                    "fault-reprobe",
                )
                return
        now = self.sim.now
        request = self.current
        executed = int((now - self.run_start) // self.server.worker_rate)
        executed = max(0, min(executed, request.remaining_cycles - 1))
        request.remaining_cycles -= executed
        self.work_cycles += executed
        request.preemptions += 1
        self.preemptions_taken += 1
        self.busy_cycles += now - self.run_start
        probes = self.server.probes
        if probes is not None:
            probes.request_preempted(now, request, self.wid)

        costs = self.server.costs
        yield_done = now + costs.disruption + costs.context_switch
        self.busy_cycles += costs.disruption + costs.context_switch
        self.current = None
        self.run_start = None
        self.epoch += 1
        self._switching_until = yield_done
        self.server.dispatcher.enqueue_requeue(request)
        self.sim.post_at(yield_done, self._after_yield, "w-yielded")

    def _after_yield(self):
        # A yield timer can outlive a crash sweep.  If the recovered worker
        # is already running its next request, starting another on top of
        # it would drop that one; if the sweep left it cold, the yield no
        # longer holds a slot.
        if self.current is not None:
            return
        if self._switching_until is not None:
            self.owned -= 1
        self._switching_until = None
        self._after_request(self.sim.now)

    def _after_request(self, now):
        """Pick up the next local request or go idle and tell the dispatcher."""
        if self.local:
            self._start_next(now)
            self.server.dispatcher.worker_slot_freed(self)
        else:
            self.idle_since = now
            probes = self.server.probes
            if probes is not None:
                probes.worker_went_idle(now, self.wid)
            self.server.dispatcher.worker_became_idle(self)

    # -- faults -----------------------------------------------------------------

    def crash_reset(self, now):
        """The server crashed: drop every owned request and go cold-idle.

        Returns the requests lost (in service first, then the local queue).
        Bumping the epoch turns every pending completion/preemption event
        of this worker stale.
        """
        lost = []
        if self.current is not None:
            lost.append(self.current)
            self.current = None
        lost.extend(self.local)
        self.local.clear()
        self.run_start = None
        self._switching_until = None
        self.owned = 0
        self.epoch += 1
        if self.idle_since is None:
            self.idle_since = now
        return lost

    def __repr__(self):
        return "Worker(wid={}, outstanding={}, idle={})".format(
            self.wid, self.outstanding, self.is_idle
        )
