"""Picklable units of simulation work.

Each job is a frozen dataclass whose ``run()`` is a pure function of its
fields: a fresh server (or rack) is built from the job's seed, so executing
the same job in any process — or reading it back from the result cache —
yields bit-identical results.  ``execute_job`` is the module-level entry
point handed to ``multiprocessing.Pool.map`` (bound methods don't pickle on
spawn-based platforms).
"""

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["SimJob", "RackJob", "ServerJob", "FaultJob", "execute_job"]


def execute_job(job):
    """Run one job in the current process (pool workers call this)."""
    return job.run()


@dataclass(frozen=True)
class SimJob:
    """One (config, load point) cell of a load sweep.

    ``run()`` returns the :class:`~repro.metrics.sweep.SweepPoint` that
    :meth:`LoadSweep.run_point` would have produced for the same arguments.
    """

    machine: Any
    config: Any
    workload: Any
    load_rps: float
    num_requests: int
    seed: int = 1
    warmup_frac: float = 0.1
    profile: Optional[Any] = None
    arrival_factory: Optional[Any] = None

    def run(self):
        from repro.metrics.sweep import run_sweep_point

        return run_sweep_point(
            self.machine, self.config, self.workload, self.load_rps,
            self.num_requests, seed=self.seed, warmup_frac=self.warmup_frac,
            profile=self.profile, arrival_factory=self.arrival_factory,
        )


@dataclass(frozen=True)
class ServerJob:
    """One standalone server run, reduced to the row the ``compare``
    command prints (full SimResults hold every Request record — far too
    heavy to ship back through a pipe or store in the cache)."""

    machine: Any
    config: Any
    workload: Any
    load_rps: float
    num_requests: int
    seed: int = 1
    warmup_frac: float = 0.1

    def run(self):
        from repro.core.server import Server
        from repro.metrics.slowdown import summarize_slowdowns
        from repro.workloads.arrivals import PoissonProcess

        server = Server(self.machine, self.config, seed=self.seed)
        result = server.run(
            self.workload, PoissonProcess(self.load_rps), self.num_requests
        )
        summary = summarize_slowdowns(result.slowdowns(self.warmup_frac))
        return {
            "name": self.config.name,
            "p50": summary.p50,
            "p99": summary.p99,
            "p999": summary.p999,
            "mean": summary.mean,
            "meets_slo": summary.meets_slo(),
            "dispatcher_utilization": result.dispatcher_utilization(),
            "steal_completions":
                result.dispatcher_stats["steal_completions"],
            "completed": len(result.records),
            "drained": result.drained,
        }


@dataclass(frozen=True)
class RackJob:
    """One rack-scale cluster run, reduced to the rack-wide summary row
    the cluster experiments and the ``rack`` command consume."""

    machine: Any
    config: Any
    num_servers: int
    policy: str
    workload: Any
    load_rps: float
    num_requests: int
    seed: int = 1
    warmup_frac: float = 0.1
    fabric: Optional[Any] = None

    def run(self):
        from repro.cluster import Cluster
        from repro.workloads.arrivals import PoissonProcess

        cluster = Cluster(
            self.machine, self.config, self.num_servers, policy=self.policy,
            seed=self.seed, fabric=self.fabric,
        )
        result = cluster.run(
            self.workload, PoissonProcess(self.load_rps), self.num_requests
        )
        summary = result.summary(self.warmup_frac)
        return {
            "policy": self.policy,
            "config": self.config.name,
            "p50": summary.p50,
            "p99": summary.p99,
            "p999": summary.p999,
            "mean": summary.mean,
            "imbalance": result.imbalance(),
            "drained": result.drained,
            "completed": len(result.records),
        }


@dataclass(frozen=True)
class FaultJob:
    """One faulted (or resilient) rack run, reduced to the degradation-curve
    row the fault experiments consume.

    ``fault_plan`` / ``resilience`` are frozen dataclasses of plain floats
    and ints, so the job pickles and caches exactly like :class:`RackJob`;
    with both left ``None`` it produces the same simulation as a
    :class:`RackJob` of the same fields (plus the fault columns zeroed).
    """

    machine: Any
    config: Any
    num_servers: int
    policy: str
    workload: Any
    load_rps: float
    num_requests: int
    seed: int = 1
    warmup_frac: float = 0.1
    fabric: Optional[Any] = None
    fault_plan: Optional[Any] = None
    resilience: Optional[Any] = None

    def run(self):
        from repro.cluster import Cluster
        from repro.metrics.slowdown import summarize_slowdowns
        from repro.workloads.arrivals import PoissonProcess

        cluster = Cluster(
            self.machine, self.config, self.num_servers, policy=self.policy,
            seed=self.seed, fabric=self.fabric, fault_plan=self.fault_plan,
            resilience=self.resilience,
        )
        result = cluster.run(
            self.workload, PoissonProcess(self.load_rps), self.num_requests
        )
        slowdowns = result.slowdowns(self.warmup_frac)
        summary = summarize_slowdowns(slowdowns) if slowdowns else None
        mttr = result.mttr_us
        return {
            "policy": self.policy,
            "config": self.config.name,
            "plan": (
                self.fault_plan.name if self.fault_plan is not None else None
            ),
            "p50": summary.p50 if summary else float("nan"),
            "p99": summary.p99 if summary else float("nan"),
            "p999": summary.p999 if summary else float("nan"),
            "mean": summary.mean if summary else float("nan"),
            "goodput": result.goodput(),
            "slo_goodput": result.slo_goodput(self.warmup_frac),
            "imbalance": result.imbalance(),
            "completed": len(result.records),
            "offered": result.num_offered,
            "drained": result.drained,
            "crashes": result.crashes,
            "lost": result.lost,
            "requeued": result.requeued,
            "shed": result.shed,
            "failed": result.failed,
            "retries": result.retries,
            "hedges": result.hedges,
            "timeouts": result.timeouts,
            "mttr_us": max(mttr) if mttr else float("nan"),
        }
