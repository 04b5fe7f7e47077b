#!/usr/bin/env python
"""A day at the kiosk: constrained dynamism end to end.

Simulates customers arriving and departing, feeds noisy per-frame person
counts into the debounced regime detector, and switches among the
pre-computed optimal schedules exactly as §3.4 describes:

    "Perform a table look-up to determine the new schedule for the new
     state.  Perform a transition to the new schedule."

Prints the schedule table, each confirmed regime change with its
transition cost, and the closing comparison against the best fixed
schedule — whose regime-switched row is executed: one simulated hour in
one world, every state change an epoch of the same run.

Run:  python examples/kiosk_regimes.py
"""

from repro.apps.kiosk import KioskEnvironment
from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.core.transition import DrainTransition
from repro.experiments.regime import run_regime
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State, StateSpace


def main() -> None:
    cluster = SINGLE_NODE_SMP(4)
    space = StateSpace.range("n_models", 1, 5)
    graph = build_tracker_graph()

    print("Pre-computing the per-state schedule table (off-line)...")
    table = ScheduleTable.build(graph, space, OptimalScheduler(cluster))
    print(table.summary())
    print()

    # On-line: noisy per-frame occupancy observations -> debounced detector.
    kiosk = KioskEnvironment(
        arrival_rate=1 / 60.0, mean_dwell=150.0, max_people=5, seed=7
    )
    detector = RegimeDetector(
        "n_models", State(n_models=1), confirm=3, space=space
    )
    switcher = RegimeSwitcher(table, detector, policy=DrainTransition(setup=0.25))

    horizon = 1200.0
    print(f"Running {horizon:.0f}s of kiosk operation "
          f"(noisy observations, 3-frame debounce):")
    for t, observed in kiosk.observations(horizon, frame_period=2.0, noise_prob=0.08):
        record = switcher.observe(t, observed)
        if record is not None:
            ch = record.cause
            print(f"  t={t:7.1f}s  {ch.old['n_models']} -> {ch.new['n_models']} people: "
                  f"switch to L={record.new_solution.latency:.3f}s / "
                  f"II={record.new_solution.period:.3f}s schedule "
                  f"(stall {record.effect.stall:.2f}s)")
    print(f"\n{switcher.switch_count} schedule switches, "
          f"{switcher.total_stall:.1f}s total transition stall "
          f"({switcher.total_stall / horizon:.2%} of the run).")
    print()

    print("Policy comparison over a full hour "
          "(regime-switched row executed, fixed-k and oracle rows modelled):")
    result = run_regime(horizon=3600.0, cluster=cluster, kiosk=kiosk)
    print(result.render())
    print()

    print("The first three switches of that run, frame by frame:")
    run = result.executed
    for resume_at, first, state in run.meta["epochs"][1:4]:
        print(f"  frame {first - 1} finished on the old schedule at "
              f"{run.completion_times[first - 1]:.3f}s; resume_at {resume_at:.3f}s; "
              f"frame {first} ({state['n_models']} people) finished on the new one "
              f"at {run.completion_times[first]:.3f}s")


if __name__ == "__main__":
    main()
