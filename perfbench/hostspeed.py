"""How fast the host runs right now, from a fixed pure-Python kernel.

A shared cloud host changes speed as other tenants come and go: on a
2-vCPU VM the simulator's time per run swings by up to 1.6x within tens of
seconds, and the process's CPU time swings with it, so CPU time does not
help.  The benchmark therefore runs :func:`kernel` right before and right
after every timed repetition and expresses the repetition's time in
*reference seconds*::

    reference_s = host_s * REFERENCE_KERNEL_S / mean(kernel_s before, after)

The kernel is a small event loop of the same kind as the simulator (heap
pushes and pops of tuples, dict lookups, slotted objects), so it slows down
with the simulator when the host does.  It lives here, not in ``src/``, so
no change to the program moves it.  It runs with the cyclic collector off,
so neither does a change to the program's collector settings.
"""

import gc
import heapq
import random
import time

__all__ = ["REFERENCE_KERNEL_S", "factor", "kernel", "kernel_seconds"]

#: The kernel's time on the reference host: a quiet 2-vCPU cloud VM
#: (Python 3.11, x86-64).  Reference seconds are host seconds there.
REFERENCE_KERNEL_S = 0.025

#: Requests the kernel's event loop serves.
KERNEL_REQUESTS = 6000

_expected = []


class _Job:
    __slots__ = ("arrival", "left", "done")

    def __init__(self, arrival, left):
        self.arrival = arrival
        self.left = left
        self.done = 0


def kernel(requests=KERNEL_REQUESTS):
    """Round-robin ``requests`` jobs of 1 or 50 units through a heap in
    slices of 5; return the number served and their total sojourn."""
    rng = random.Random(0)
    heap = []
    jobs = {}
    seq = now = 0
    for rid in range(requests):
        now += rng.randrange(1, 100)
        jobs[rid] = _Job(now, rng.choice((1, 1, 1, 50)))
        heapq.heappush(heap, (now, seq, rid))
        seq += 1
    served = []
    while heap:
        at, _seq, rid = heapq.heappop(heap)
        job = jobs[rid]
        step = min(5, job.left)
        job.left -= step
        if job.left:
            heapq.heappush(heap, (at + step, seq, rid))
            seq += 1
        else:
            job.done = at + step
            served.append((rid, job.arrival, job.done))
    return len(served), sum(done - arrival for _rid, arrival, done in served)


def kernel_seconds():
    """Host seconds :func:`kernel` takes now.  Its result must repeat."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if not _expected:
        _expected.append(result)
    elif result != _expected[0]:
        raise RuntimeError("speed kernel returned {}, first {}".format(
            result, _expected[0]))
    return elapsed


def factor(before, after):
    """Multiply host seconds measured between two kernel runs that took
    ``before`` and ``after`` seconds by this to get reference seconds."""
    return 2.0 * REFERENCE_KERNEL_S / (before + after)
