"""Benchmarks for the extension features (beyond the paper's figures).

* the latency/throughput frontier (the [13]-style trade-off curve),
* cost-error sensitivity of the optimal schedule,
* schedule-table serialization round trip.
"""

from __future__ import annotations

import pytest

from repro.core.frontier import latency_throughput_frontier
from repro.core.optimal import OptimalScheduler
from repro.core.sensitivity import sensitivity_profile
from repro.core.serialize import table_from_json, table_to_json
from repro.core.table import ScheduleTable
from repro.state import StateSpace


def test_frontier_computation(benchmark, tracker_graph, smp4, m8):
    front = benchmark(
        latency_throughput_frontier, tracker_graph, m8, smp4,
        comm=None, latency_slack=3.0,
    )
    print()
    for p in front:
        print(f"  L={p.latency:.3f}s  throughput={p.throughput:.3f}/s  "
              f"II={p.period:.3f}s")
    lats = [p.latency for p in front]
    assert lats == sorted(lats)


@pytest.mark.parametrize("error", [0.1, 0.4])
def test_sensitivity_profile(benchmark, tracker_graph, smp4, m8, error):
    sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
    profile = benchmark.pedantic(
        lambda: sensitivity_profile(
            sol.iteration, tracker_graph, m8, smp4,
            error_level=error, trials=10, seed=0,
        ),
        rounds=2,
        iterations=1,
    )
    print(f"\n  error ±{error:.0%}: mean regret {profile.mean_regret:.2%}, "
          f"structure stable {profile.structure_stable_fraction:.0%}")


def test_table_serialization_round_trip(benchmark, tracker_graph, smp4):
    table = ScheduleTable.build(
        tracker_graph, StateSpace.range("n_models", 1, 5), OptimalScheduler(smp4)
    )

    def round_trip():
        return table_from_json(table_to_json(table))

    restored = benchmark(round_trip)
    assert len(restored) == 5
