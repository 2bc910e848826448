"""Hardware and runtime cost constants used throughout the simulation.

Every constant cites where in the Concord paper (SOSP '23) it comes from.
All cycle costs are for the paper's primary testbed: CloudLab c6420 nodes
with Intel Xeon Gold 6142 CPUs at 2.6 GHz (section 5.1), unless noted.

The simulation measures time in integer CPU *cycles*; use
:mod:`repro.hardware.cpu` helpers to convert to/from wall-clock time.
"""

# --- Clock -----------------------------------------------------------------

#: Default CPU frequency in Hz (c6420 testbed, section 5.1).
DEFAULT_FREQ_HZ = 2_600_000_000

#: Cycles per microsecond at the default frequency.
CYCLES_PER_US = DEFAULT_FREQ_HZ // 1_000_000

# --- Preemption notification costs (section 2.2.1, 3.1) ---------------------

#: Cycles for a worker to receive a posted IPI in Shinjuku (section 2.2.1:
#: "receiving an IPI in Shinjuku costs ~1200 cycles").
IPI_RECEIVE_CYCLES = 1200

#: Linux's deployable IPIs cost double Shinjuku's posted IPIs (section 2.2.1).
LINUX_IPI_RECEIVE_CYCLES = 2 * IPI_RECEIVE_CYCLES

#: Cycles for one rdtsc() bookkeeping probe (section 2.2.1: "~30 cycles").
RDTSC_PROBE_CYCLES = 30

#: Cycles for a Concord cache-line probe when the line is L1-resident
#: (section 3.1: "an L1 cache hit plus a compare, i.e., 2 cycles").
CACHELINE_PROBE_HIT_CYCLES = 2

#: Cycles for the final cache-line check after the dispatcher's write —
#: a Read-after-Write coherence miss (section 3.1: "only costs ~150 cycles,
#: leading to a cnotif that is 1/8th the cost of a Shinjuku IPI").
CACHELINE_MISS_CYCLES = 150

#: Fraction of the probe miss latency actually exposed as lost execution
#: time.  Unlike an interrupt, the probe's load is an ordinary instruction:
#: out-of-order execution overlaps much of the miss with useful work.  0.5
#: reconciles the raw 150-cycle miss with Fig. 2's near-flat ~1-1.5% Concord
#: line and the stated 12x gap vs IPIs at a 2us quantum.
CACHELINE_MISS_EXPOSED_FRACTION = 0.5

#: Extra worker-side disruption per IPI beyond the receive cost: pipeline
#: flush and instruction-stream re-entry.  Calibrated so the model matches
#: Fig. 2's measured points (~33% overhead at q=2us, ~6% at q=10us).
IPI_EXTRA_DISRUPTION_CYCLES = 400

#: Cycles for a worker to receive an Intel user-space interrupt (UIPI).
#: Section 5.6 reports Concord's cooperation imposes ~2x lower overhead than
#: UIPIs; UIPI delivery still traverses memory-mapped registers and the same
#: coherence fabric.  ~600 cycles reproduces the 2x gap of Fig. 15.
UIPI_RECEIVE_CYCLES = 600

#: Multiplier on coherence costs for the 192-core Sapphire Rapids machine of
#: section 5.6 ("cache coherence misses approximately 1.5x more expensive").
SAPPHIRE_RAPIDS_COHERENCE_FACTOR = 1.5

# --- Instrumentation density (sections 2.2.1, 4.3) --------------------------

#: Probes are placed roughly every 200 LLVM IR instructions (sections 2.2.1
#: and 4.3, citing Compiler Interrupts).
PROBE_INTERVAL_IR_INSTRUCTIONS = 200

#: Cycles of useful work between consecutive probes.  Calibrated so that a
#: 30-cycle rdtsc probe every interval yields the ~21% flat overhead the
#: paper measures for Compiler Interrupts in Fig. 2: 30 / 143 ~= 0.21.
PROBE_INTERVAL_CYCLES = 143

#: Loop bodies are unrolled until they contain at least this many IR
#: instructions (section 4.3).
LOOP_UNROLL_MIN_INSTRUCTIONS = 200

# --- Inter-thread communication (section 2.2.2) ------------------------------

#: Lower bound on the cycles a single-queue worker idles between finishing a
#: request and receiving the next: two coherence misses, ~400 cycles total
#: (section 2.2.2, citing David et al. SOSP '13).
SQ_HANDOFF_CYCLES = 400

#: One cache-line transfer between cores (half the two-miss handoff).
COHERENCE_MISS_CYCLES = 200

# --- Context switching (section 3.1) -----------------------------------------

#: Cooperative user-level context switch: "worker threads switch between
#: requests within ~100ns" (section 3.1).  ~260 cycles at 2.6 GHz.
COOP_CONTEXT_SWITCH_CYCLES = 260

#: Context-switch cost when entered from an interrupt handler (Shinjuku's
#: preemptive switch; trap frame + untrusted state save).  Roughly 2x the
#: cooperative cost.
PREEMPTIVE_CONTEXT_SWITCH_CYCLES = 520

# --- Dispatcher micro-operation costs ----------------------------------------

#: Dispatcher cycles to dequeue an incoming packet from the networker and
#: enqueue it on the central queue.  Together with DISPATCH_PUSH_CYCLES this
#: bounds dispatcher throughput at ~4.3 MRps as in Fig. 8 (left), where the
#: dispatcher is the common bottleneck for Fixed(1).
DISPATCH_RX_CYCLES = 300

#: Dispatcher cycles to hand one request to a worker (queue bookkeeping plus
#: the Write-after-Read coherence miss into the worker's queue).
DISPATCH_PUSH_CYCLES = 300

#: Dispatcher cycles to pull a preempted request back onto the central queue.
DISPATCH_REQUEUE_CYCLES = 50

#: Worker-side cycles to pick a freshly pushed request out of its queue in
#: single-queue mode (the second coherence miss of section 2.2.2's pair;
#: together with DISPATCH_PUSH_CYCLES this reproduces the >=400-cycle
#: handoff floor).
SQ_WORKER_RECEIVE_CYCLES = 100

#: Residual per-request cost of JBSQ's asynchronous dispatch: the worker,
#: not the dispatcher, must arm the scheduling-quantum timer (section 3.2:
#: "JBSQ(2) does not make cnext zero").  Sized to keep JBSQ's idle overhead
#: 9-13x below the single queue's (Fig. 3).
JBSQ_RESIDUAL_CYCLES = 36

#: Extra dispatcher cycles per dispatched request for JBSQ's shortest-queue
#: scan.  Produces Concord's ~2% lower peak for Fixed(1) (section 5.2).
JBSQ_SHORTEST_QUEUE_CYCLES = 12

#: Dispatcher cycles to write a preemption signal into a worker's dedicated
#: cache line (local write; the receiving miss is paid by the worker).
PREEMPT_SIGNAL_WRITE_CYCLES = 50

#: Dispatcher cycles to post an IPI (APIC write + protocol overhead).
IPI_SEND_CYCLES = 300

#: Dispatcher cycles spent on one idle poll iteration (scan worker flags,
#: check NIC rings, check timers).
DISPATCHER_POLL_CYCLES = 60

# --- Runtime bookkeeping ------------------------------------------------------

#: Fraction of request service time lost to generic runtime bookkeeping
#: (cproc floor in Eq. 2), excluding instrumentation probes.
RUNTIME_PROC_OVERHEAD_FRACTION = 0.003

#: Concord's instrumentation overhead fraction (Fig. 2: "near-constant at
#: around 1-1.5%").  Derived dynamically from the instrument package for
#: Table 1; this is the default used by the scheduler simulation.
CONCORD_INSTRUMENTATION_OVERHEAD = 0.012

#: rdtsc-based instrumentation overhead fraction (Fig. 2: "~21% across all
#: scheduling quanta").
RDTSC_INSTRUMENTATION_OVERHEAD = 0.21

# --- Networking (section 5.1) -------------------------------------------------

#: Average client<->server round-trip time in nanoseconds (section 5.1:
#: "The average network round trip time between the client and server is
#: 10us").
NETWORK_RTT_NS = 10_000

# --- Rack-scale cluster fabric (repro.cluster; RackSched/Rain-style) ----------

#: One-way latency of a single intra-rack hop (load balancer -> server or
#: back) in nanoseconds.  Half the client<->server round trip of section
#: 5.1: one ToR switch traversal each way.
CLUSTER_HOP_LATENCY_NS = NETWORK_RTT_NS // 2

#: Uniform jitter added on top of each hop's base latency (switch queueing,
#: serialization) in nanoseconds.
CLUSTER_HOP_JITTER_NS = 1_000

#: Period of per-server queue-length telemetry reports to the load
#: balancer, in microseconds.  RackSched's switch tracks queue lengths from
#: periodic/piggybacked reports; <= 0 means the balancer does its own
#: request/reply accounting instead (idealized switch-local counters).
CLUSTER_TELEMETRY_INTERVAL_US = 5.0

#: Default rack size for cluster experiments (servers behind one balancer).
CLUSTER_DEFAULT_NUM_SERVERS = 4

# --- Fault injection & resilience (repro.faults) -------------------------------

#: How long a worker waits before re-checking a preemption notification that
#: a fault window swallowed (probe dropout / stall re-arm), in microseconds.
#: Quantum-scale: a lost probe is noticed roughly one scheduling period later.
FAULT_REPROBE_US = 5.0

#: Default per-request timeout at the balancer before a retry is considered,
#: in microseconds.  Must comfortably exceed a healthy request's end-to-end
#: latency (hop + sojourn + hop) so timeouts fire only on real trouble.
FAULT_TIMEOUT_US = 1500.0

#: Default maximum retries per logical request (attempts = 1 + retries).
FAULT_MAX_RETRIES = 3

#: Deterministic multiplicative backoff applied to the timeout per attempt.
FAULT_RETRY_BACKOFF = 2.0

#: Failure detector: suspect a server when it has outstanding requests and
#: has not replied for this long (microseconds).
FAULT_SUSPICION_TIMEOUT_US = 500.0

#: Failure detector check period, in microseconds.
FAULT_DETECTOR_INTERVAL_US = 100.0

#: How long a suspected server stays blacklisted before a probationary
#: re-admission, in microseconds.
FAULT_PROBATION_US = 1500.0

# --- Evaluation defaults (section 5.1) -----------------------------------------

#: Number of worker threads in the paper's full-size experiments.
DEFAULT_NUM_WORKERS = 14

#: The paper's slowdown SLO: p99.9 slowdown of 50x the service time.
SLOWDOWN_SLO = 50.0

#: Percentile used for the tail throughout the evaluation.
TAIL_PERCENTILE = 99.9

#: Default JBSQ bound (section 3.2: "we found k = 2 to be sufficient").
DEFAULT_JBSQ_DEPTH = 2

# --- Runaway guards (simulator bookkeeping, not from the paper) ---------------

#: Events a simulator owned by one runtime (a server, a logical-queue
#: server, one replicated partition) may fire before a run that should
#: drain is declared runaway (:class:`~repro.core.server.RunLimitExceeded`).
SERVER_EVENT_BUDGET = 60_000_000

#: The same budget for a rack's shared simulator, which fires the events of
#: every member server plus the balancer and fabric.
RACK_EVENT_BUDGET = 120_000_000
