"""Multi-dispatcher replication (section 6, "Limitations").

"The single dispatcher can become a bottleneck as the number of CPUs
increases ... In such cases, replication, i.e. creating multiple
single-dispatcher instances that feed disjoint sets of cores, can help
improve scalability."

A :class:`ReplicatedServer` partitions the machine's workers into N
disjoint groups, runs one complete single-dispatcher instance per group,
sprays arrivals across partitions round-robin (as a NIC RSS indirection
table would), and merges the per-partition results.  Each partition is a
full :class:`~repro.core.server.Server`, so every mechanism — JBSQ, safety,
work stealing — works unchanged inside its partition.
"""

from repro.core.server import Server
from repro.workloads.trace import Trace

__all__ = ["ReplicatedServer", "ReplicatedResult"]


class ReplicatedServer:
    """N independent single-dispatcher instances over disjoint workers."""

    def __init__(self, machine, config, num_partitions, seed=0, profile=None):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if machine.num_workers % num_partitions:
            raise ValueError(
                "cannot split {} workers into {} equal partitions".format(
                    machine.num_workers, num_partitions
                )
            )
        self.machine = machine
        self.config = config
        self.num_partitions = num_partitions
        workers_each = machine.num_workers // num_partitions
        self.partitions = [
            Server(
                machine.with_workers(workers_each), config,
                seed=seed + 1000 * index, profile=profile,
            )
            for index in range(num_partitions)
        ]
        self._ran = False

    def run(self, workload, arrival, num_requests, until_us=None):
        """Sample one arrival stream, deal it round-robin to partitions,
        replay each partition, and merge."""
        if self._ran:
            raise RuntimeError("single-shot server; build a new one")
        self._ran = True
        rng = self.partitions[0].rng_arrival
        trace = Trace.sample(workload, arrival, num_requests, rng)
        shards = [[] for _ in range(self.num_partitions)]
        for index, record in enumerate(trace):
            shards[index % self.num_partitions].append(record)
        results = []
        for partition, shard in zip(self.partitions, shards):
            if not shard:
                continue
            results.append(partition.run_trace(Trace(shard), until_us=until_us))
        return ReplicatedResult(self, results)


class ReplicatedResult:
    """Merged view over per-partition SimResults (same read interface)."""

    def __init__(self, server, results):
        self.config_name = "{} x{}".format(
            server.config.name, server.num_partitions
        )
        self.partition_results = results
        self.clock = server.machine.clock
        self.records = [r for result in results for r in result.records]
        self.records.sort(key=lambda r: r.completion_cycle)
        self.num_offered = sum(r.num_offered for r in results)
        self.first_arrival_cycle = min(
            r.first_arrival_cycle for r in results
        )
        self.end_cycle = max(r.end_cycle for r in results)
        self.drained = all(r.drained for r in results)
        self.worker_stats = [
            stat for result in results for stat in result.worker_stats
        ]
        self.dispatcher_stats = {
            key: sum(r.dispatcher_stats[key] for r in results)
            for key in results[0].dispatcher_stats
        }

    def slowdowns(self, warmup_frac=0.1):
        ordered = sorted(self.records, key=lambda r: r.arrival_cycle)
        skip = int(len(ordered) * warmup_frac)
        return [r.slowdown() for r in ordered[skip:]]

    def measured_records(self, warmup_frac=0.1):
        ordered = sorted(self.records, key=lambda r: r.arrival_cycle)
        skip = int(len(ordered) * warmup_frac)
        return ordered[skip:]

    def duration_cycles(self):
        return max(1, self.end_cycle - self.first_arrival_cycle)

    def throughput_rps(self):
        return len(self.records) * self.clock.freq_hz / self.duration_cycles()

    def dispatcher_utilization(self):
        """Mean utilization across the replica dispatchers."""
        total = sum(
            r.dispatcher_utilization() for r in self.partition_results
        )
        return total / len(self.partition_results)

    def worker_idle_fraction(self):
        elapsed = self.duration_cycles()
        fractions = [
            min(1.0, s["idle_cycles"] / elapsed) for s in self.worker_stats
        ]
        return sum(fractions) / len(fractions)

    def stolen_requests(self):
        return [r for r in self.records if r.started_by_dispatcher]
