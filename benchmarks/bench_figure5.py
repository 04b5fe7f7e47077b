"""Benchmark: regenerate Figure 5 and time the Figure 6 scheduler itself.

The paper argues exhaustive enumeration is affordable because "the
resulting schedule will be operating for months"; these benchmarks put a
number on "affordable" — and compare it against the HEFT-style heuristic,
§3.4's alternative for filling the table.
"""

from __future__ import annotations

import pytest

from repro.core.enumerate import enumerate_schedules
from repro.core.optimal import OptimalScheduler
from repro.experiments.figure5 import run_figure5
from repro.sched.listsched import list_schedule
from repro.state import State


def test_figure5_full_regeneration(benchmark):
    result = benchmark.pedantic(lambda: run_figure5(iterations=8), rounds=1, iterations=1)
    print()
    print(result.render())
    assert result.latency_ordering_holds()


@pytest.mark.parametrize("n_models", [1, 4, 8])
def test_enumerate_cost_per_state(benchmark, tracker_graph, smp4, n_models):
    """Steps 1-2 of Figure 6: exhaustive L and S for one state."""
    state = State(n_models=n_models)
    res = benchmark(enumerate_schedules, tracker_graph, state, smp4)
    print(f"\n  m={n_models}: L={res.latency:.3f}s "
          f"|S| counted to the cap={res.optimal_count} "
          f"explored={res.explored}")


def test_full_solve_cost(benchmark, tracker_graph, smp4, m8):
    """All three Figure 6 steps (enumeration + pipelining)."""
    sched = OptimalScheduler(smp4)
    sol = benchmark(sched.solve, tracker_graph, m8)
    assert sol.latency > 0


def test_heuristic_vs_exhaustive(benchmark, tracker_graph, smp4, m8):
    """The HEFT-style heuristic: how much cheaper, how close?"""
    heur = benchmark(list_schedule, tracker_graph, m8, smp4)
    opt = OptimalScheduler(smp4).solve(tracker_graph, m8)
    gap = heur.latency / opt.latency - 1.0
    print(f"\n  heuristic L={heur.latency:.3f}s vs optimal L={opt.latency:.3f}s "
          f"(gap {gap:.1%})")
    assert heur.latency >= opt.latency - 1e-9


def test_schedule_table_build_cost(benchmark, tracker_graph, smp4):
    """Off-line cost of the whole per-state table (states 1..5)."""
    from repro.core.table import ScheduleTable
    from repro.state import StateSpace

    table = benchmark.pedantic(
        lambda: ScheduleTable.build(
            tracker_graph, StateSpace.range("n_models", 1, 5), OptimalScheduler(smp4)
        ),
        rounds=2,
        iterations=1,
    )
    assert len(table) == 5
