"""The epoch driver under a controller that could switch and never does.

``StaticExecutor.run`` is the driver over a bare ``RegimeController``
(``test_static_diff.py``) and an empty fault plan is the static run
(``test_sim_world.py``, ``test_runner_diff.py``); the case neither covers
is a second kind of cause that never fires: a ``RegimeSwitcher`` observing,
on the driver's own heap, a state that does not change.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.graph.builders import chain_graph
from repro.runtime.static_exec import EpochDriver, StaticExecutor
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State, StateSpace

FRAMES = 30


@pytest.mark.parametrize(
    "make_graph, cluster, n",
    [
        (build_tracker_graph, ClusterSpec(1, 4), 3),
        (lambda: chain_graph([1.0, 0.7, 1.3]), ClusterSpec(3, 1), 1),
    ],
    ids=["tracker-1x4", "chain3-3x1"],
)
def test_observations_that_never_change_state_are_the_static_run(make_graph, cluster, n):
    graph, state = make_graph(), State(n_models=n)
    table = ScheduleTable.build(
        graph, StateSpace.range("n_models", 1, 3), OptimalScheduler(cluster)
    )
    solution = table.lookup(state)
    static = StaticExecutor(graph, state, cluster, solution).run(FRAMES)

    switcher = RegimeSwitcher(table, RegimeDetector("n_models", state))
    driver = EpochDriver(graph, state, cluster, CommModel.free(cluster))
    lost = []
    for i in range(1, 40):
        # off and on the launch grid: before, between and at the slots
        t = i * solution.period / 2
        driver.at(t, switcher.observe, t, n)
    driver.start(switcher, iterations=FRAMES, on_loss=lambda ts, cause: lost.append(ts))
    driver.sim.run()
    run = driver.result({})

    assert switcher.switch_count == 0 and lost == [] and driver.done
    assert run.meta["epochs"] == static.meta["epochs"] == [(0.0, 0, state)]
    span = lambda s: (s.proc, s.task, s.timestamp, s.start.hex(), s.end.hex())
    assert Counter(map(span, run.trace.spans)) == Counter(map(span, static.trace.spans))
    assert sorted(run.completion_times) == list(range(FRAMES))
    for ledger in ("completion_times", "digitize_times"):
        mine, theirs = getattr(run, ledger), getattr(static, ledger)
        assert {ts: t.hex() for ts, t in mine.items()} == {
            ts: t.hex() for ts, t in theirs.items()
        }
    assert (run.meta["slips"], run.gc_collected, run.live_item_high_water) == (
        0, static.gc_collected, static.live_item_high_water,
    )
