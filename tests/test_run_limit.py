"""The runaway guard: a run that should drain but outlives its event budget
raises :class:`RunLimitExceeded`, naming the configuration and the budget.

The budgets are :data:`repro.constants.SERVER_EVENT_BUDGET` and
:data:`repro.constants.RACK_EVENT_BUDGET`; the runtimes read them at run
time, so shrinking them here exercises the same code path a genuinely
runaway simulation would hit.
"""

import pytest

from repro import constants
from repro.cluster import Cluster
from repro.core import Server, concord
from repro.core.server import RunLimitExceeded
from repro.hardware import c6420
from repro.workloads import PoissonProcess, bimodal_50_1_50_100

BUDGET = 50
REQUESTS = 200


@pytest.fixture
def small_budgets(monkeypatch):
    monkeypatch.setattr(constants, "SERVER_EVENT_BUDGET", BUDGET)
    monkeypatch.setattr(constants, "RACK_EVENT_BUDGET", BUDGET)


def _arrivals(workers):
    workload = bimodal_50_1_50_100()
    return workload, PoissonProcess(0.5 * workers * 1e6 / workload.mean_us())


def test_server_run_raises_naming_config_and_budget(small_budgets):
    server = Server(c6420(2), concord(5.0), seed=1)
    workload, arrival = _arrivals(2)
    with pytest.raises(RunLimitExceeded, match=r"Concord.*\b50 events\b"):
        server.run(workload, arrival, REQUESTS)
    assert server.sim.events_run == BUDGET


def test_cluster_run_raises_naming_config_and_budget(small_budgets):
    cluster = Cluster(c6420(2), concord(5.0), 2, policy="jsq", seed=1)
    workload, arrival = _arrivals(4)
    with pytest.raises(RunLimitExceeded,
                       match=r"rack\[2xConcord\]: 50 events\b"):
        cluster.run(workload, arrival, REQUESTS)
    assert cluster.sim.events_run == BUDGET


def test_until_run_stops_without_raising(small_budgets):
    server = Server(c6420(2), concord(5.0), seed=1)
    workload, arrival = _arrivals(2)
    result = server.run(workload, arrival, REQUESTS, until_us=10.0)
    assert not result.drained
    assert server.sim.events_run <= BUDGET


def test_default_budgets_drain_the_same_runs():
    server = Server(c6420(2), concord(5.0), seed=1)
    workload, arrival = _arrivals(2)
    result = server.run(workload, arrival, REQUESTS)
    assert result.drained
    assert server.sim.events_run < constants.SERVER_EVENT_BUDGET
