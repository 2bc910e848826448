"""Instrumentation profiles: the bridge from the compiler substrate to the
scheduler simulation.

Running an instrumented kernel yields three quantities the paper reports or
relies on:

* the **overhead fraction** — instrumented vs baseline cycles (Table 1's
  "Concord overhead" / "CI overhead" columns);
* the **probe-gap distribution** — how far apart consecutive probes fire,
  which is exactly the notice latency of compiler-enforced cooperation
  (section 3.1);
* the **preemption-timeliness sigma** — the standard deviation of achieved
  scheduling quanta around the target (Table 1's last column, Fig. 5's
  abstraction).
"""

import bisect
import math
import random

from repro.hardware.cpu import CycleClock
from repro.instrument.compile import executor_for
from repro.instrument.optim import optimize_function
from repro.instrument.passes import (
    BaselineOptimizePass,
    CACHELINE_STYLE,
    LoopUnrollPass,
    ProbeInsertionPass,
)

__all__ = ["InstrumentationProfile", "build_kernel_modules", "profile_kernel"]

_MAX_STORED_GAPS = 4096


class InstrumentationProfile:
    """Summary of one instrumented program's probe behaviour.

    Implements ``sample_gap_cycles`` so it can plug straight into
    :class:`repro.core.preemption.UniformProbeGapNotice`.
    """

    def __init__(self, name, style, base_cycles, instrumented_cycles,
                 probe_times, probes_fired):
        if base_cycles <= 0:
            raise ValueError("baseline run must consume cycles")
        self.name = name
        self.style = style
        self.base_cycles = base_cycles
        self.instrumented_cycles = instrumented_cycles
        self.probes_fired = probes_fired
        self.total_cycles = instrumented_cycles
        self.probe_times = probe_times
        gaps = [
            probe_times[i + 1] - probe_times[i]
            for i in range(len(probe_times) - 1)
        ]
        if len(gaps) > _MAX_STORED_GAPS:
            stride = len(gaps) / _MAX_STORED_GAPS
            gaps = [gaps[int(i * stride)] for i in range(_MAX_STORED_GAPS)]
        self.gaps = gaps

    # -- headline numbers -------------------------------------------------------

    @property
    def overhead_fraction(self):
        """Instrumented slowdown vs the un-instrumented baseline; negative
        when unrolling more than pays for the probes (Table 1)."""
        return self.instrumented_cycles / self.base_cycles - 1.0

    @property
    def mean_gap_cycles(self):
        if not self.gaps:
            return float(self.total_cycles)
        return sum(self.gaps) / len(self.gaps)

    @property
    def max_gap_cycles(self):
        return max(self.gaps) if self.gaps else float(self.total_cycles)

    def sample_gap_cycles(self, rng):
        """Draw from the empirical probe-gap distribution."""
        if not self.gaps:
            return float(self.total_cycles)
        return self.gaps[rng.randrange(len(self.gaps))]

    # -- preemption timeliness (Table 1 last column) ---------------------------------

    def preemption_deviations_cycles(self, quantum_cycles, samples=400,
                                     seed=0xC0C0):
        """Deviation of each achieved quantum from the target.

        Walks the probe timeline (wrapping around, as a long-running request
        would loop through the same code): after each yield the next target
        is one quantum later; the worker actually yields at the first probe
        at or after the target.  Deviations are one-sided by construction —
        Concord never preempts early (section 3.1).

        Several short walks with random starting phases are averaged: real
        programs drift in and out of phase with the quantum clock, and a
        single walk over a perfectly periodic kernel would phase-lock.
        """
        if quantum_cycles <= 0:
            raise ValueError("quantum must be positive")
        times = self.probe_times
        if not times:
            return [0.0] * samples
        rng = random.Random(seed)
        span = float(self.total_cycles)
        walks = 20
        per_walk = max(1, samples // walks)
        deviations = []
        for _ in range(walks):
            yield_at = rng.uniform(0.0, span)
            for _ in range(per_walk):
                target = yield_at + quantum_cycles
                lap = math.floor(target / span)
                within = target - lap * span
                idx = bisect.bisect_left(times, within)
                if idx == len(times):
                    lap += 1
                    probe = lap * span + times[0]
                else:
                    probe = lap * span + times[idx]
                deviations.append(probe - target)
                yield_at = probe
        return deviations

    def timeliness_std_us(self, quantum_us, clock=None, samples=400):
        """Standard deviation (µs) of achieved quanta around the target —
        the paper keeps this under 2 µs for all 24 benchmarks."""
        clock = clock or CycleClock()
        quantum_cycles = clock.us_to_cycles(quantum_us)
        deviations = self.preemption_deviations_cycles(quantum_cycles, samples)
        mean = sum(deviations) / len(deviations)
        var = sum((d - mean) ** 2 for d in deviations) / len(deviations)
        return clock.cycles_to_us(math.sqrt(var))

    def __repr__(self):
        return (
            "InstrumentationProfile({!r}, style={!r}, overhead={:.2%}, "
            "mean_gap={:.0f}cyc)".format(
                self.name, self.style, self.overhead_fraction,
                self.mean_gap_cycles,
            )
        )


def build_kernel_modules(kernel_factory, style=CACHELINE_STYLE, unroll=True,
                         discount=None):
    """Build a kernel's ``(baseline, instrumented)`` IR modules the way
    :func:`profile_kernel` runs them.

    ``kernel_factory`` builds a fresh :class:`~repro.instrument.ir.Module`
    each call (instrumentation mutates the IR).  ``discount`` defaults to
    True for the cache-line style (Concord genuinely unrolls) and False for
    rdtsc (Compiler Interrupts only periodizes its counters).
    """
    if discount is None:
        discount = style == CACHELINE_STYLE

    # The baseline is -O3 code: constants folded, dead code removed, and
    # tight-loop control already amortized.
    base_module = kernel_factory()
    baseline_pass = BaselineOptimizePass()
    for function in base_module.functions.values():
        optimize_function(function)
        baseline_pass.run(function)

    # The instrumented build goes through the same scalar optimizations
    # before probes are inserted (Concord instruments optimized IR).
    module = kernel_factory()
    for function in module.functions.values():
        optimize_function(function)
    probe_pass = ProbeInsertionPass(style)
    for function in module.functions.values():
        probe_pass.run(function)
    if style == CACHELINE_STYLE:
        if unroll:
            # Concord's own unrolling: periodizes back-edge probes and
            # supersedes the stock compiler's control amortization.
            unroll_pass = LoopUnrollPass(discount=discount)
            for function in module.functions.values():
                unroll_pass.run(function)
    else:
        # Compiler Interrupts relies on cycle thresholds, not unrolling,
        # and compiles through the same -O3 pipeline as the baseline.
        for function in module.functions.values():
            baseline_pass.run(function)
    return base_module, module


def profile_kernel(kernel_factory, style=CACHELINE_STYLE, unroll=True,
                   discount=None, args=(), name=None):
    """Instrument and execute a kernel, returning its profile.

    The modules come from :func:`build_kernel_modules` (same arguments) and
    run on the compiled executor, falling back to the interpreter when a
    module does not compile.
    """
    base_module, module = build_kernel_modules(
        kernel_factory, style=style, unroll=unroll, discount=discount
    )
    base = executor_for(base_module, record_probes=False).run(args=args)
    run = executor_for(module).run(args=args)

    return InstrumentationProfile(
        name=name or base_module.name,
        style=style,
        base_cycles=base.cycles,
        instrumented_cycles=run.cycles,
        probe_times=run.probe_times,
        probes_fired=run.probes_fired,
    )
