"""Fault wiring into the executors.

The subsystem has one executor, ``FaultTolerantExecutor``, which runs the
regime-change failover (§3.4).  ``StaticExecutor`` takes no fault plan and
runs the static path, and the §3.2 baseline ``DynamicExecutor`` takes none
either.
"""

from __future__ import annotations

from repro.core.optimal import OptimalScheduler
from repro.graph.builders import chain_graph
from repro.runtime.dynamic import DynamicExecutor
from repro.runtime.static_exec import StaticExecutor
from repro.sched.online import PthreadScheduler
from repro.sim.cluster import ClusterSpec
from repro.state import State

CLUSTER = ClusterSpec(nodes=2, procs_per_node=1)
STATE = State(n_models=1)


class TestStaticExecutorDelegation:
    def test_without_faults_static_path_unchanged(self):
        graph = chain_graph([1.0, 1.0])
        sol = OptimalScheduler(CLUSTER).solve(graph, STATE)
        res = StaticExecutor(graph, STATE, CLUSTER, sol).run(5)
        assert res.meta["slips"] == 0
        assert "recovery" not in res.meta


class TestDynamicExecutorTakesNoPlan:
    def test_meta_names_only_the_scheduler_and_the_policy(self):
        res = DynamicExecutor(
            chain_graph([0.2, 0.2], period=0.2), STATE, CLUSTER,
            PthreadScheduler(quantum=0.01),
        ).run(horizon=6.0, max_timestamps=4)
        assert res.meta.keys() == {"scheduler", "policy"}
