"""One trace record under every substrate.

The discrete-event simulator, the threaded runtime and the process runtime
each write an execution, an STM operation or a mark once, into the run's
:class:`~repro.sim.trace.TraceRecorder`, on the run's own clock; an
``obs=`` bundle listens to that trace.  These tests hold the substrates to
one time base and one count of item events, and hold calibration to one
ingestion path: listening during a run and replaying its trace afterwards
are the same observations.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import PipelinedSchedule
from repro.obs import CostCalibrator, Observability, ScaledCost, graph_with_costs
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State

SUBSTRATES = ("sim", "threaded", "process")
FRAMES = 6
EPS = 1e-6


def tracker_run(runtime: str, observed: bool = True):
    """A 6-frame tracker run with real kernels on ``runtime``."""
    state, cluster = State(n_models=2), SINGLE_NODE_SMP(4)
    video = VideoSource(n_targets=2, height=48, width=64, seed=5)
    live, statics = attach_kernels(build_tracker_graph(frame_shape=(48, 64)), video)
    obs = Observability() if observed else None
    result = StaticExecutor(
        live, state, cluster, OptimalScheduler(cluster).solve(live, state),
        runtime=runtime, static_inputs=statics, obs=obs,
    ).run(FRAMES)
    return obs, result


@pytest.fixture(scope="module")
def observed():
    return {runtime: tracker_run(runtime) for runtime in SUBSTRATES}


def item_counts(result) -> Counter:
    return Counter((e.channel, e.kind) for e in result.trace.items)


@pytest.mark.slow  # the process substrate forks a worker
class TestTimeBase:
    def test_every_record_lies_inside_the_run(self, observed):
        for runtime, (_obs, result) in observed.items():
            trace = result.trace
            assert trace.spans and trace.items, runtime
            times = [t for s in trace.spans for t in (s.start, s.end)]
            times += [e.time for e in trace.items]
            times += [t for m in trace.marks for t in (m.start, m.end)]
            assert 0.0 <= min(times), runtime
            assert max(times) <= result.horizon + EPS, (runtime, max(times), result.horizon)


@pytest.mark.slow
class TestItemCounts:
    def test_threaded_and_process_count_the_same_operations(self, observed):
        assert item_counts(observed["threaded"][1]) == item_counts(observed["process"][1])

    def test_the_static_fill_is_no_item_event(self, observed):
        for runtime, (_obs, result) in observed.items():
            assert not any(
                e.channel == "color_model" and e.kind == "put" for e in result.trace.items
            ), runtime

    def test_sim_and_live_put_and_consume_alike(self, observed):
        def puts_and_consumes(result) -> Counter:
            return Counter({
                key: n for key, n in item_counts(result).items()
                if key[1] in ("put", "consume")
            })

        sim = puts_and_consumes(observed["sim"][1])
        for runtime in ("threaded", "process"):
            assert puts_and_consumes(observed[runtime][1]) == sim, runtime


@pytest.mark.slow
class TestLiveItems:
    def test_an_observed_live_trace_carries_what_obs_counted(self, observed):
        for runtime in ("threaded", "process"):
            obs, result = observed[runtime]
            series = obs.snapshot()["repro_stm_items_total"]["series"]
            counted = {
                (s["labels"]["channel"], s["labels"]["kind"]): s["value"] for s in series
            }
            assert counted == item_counts(result), runtime

    def test_an_unobserved_live_run_records_no_items(self):
        for runtime in ("threaded", "process"):
            _obs, result = tracker_run(runtime, observed=False)
            assert result.trace.spans and not result.trace.items, runtime


def stale_run(calibrator: CostCalibrator):
    """The ``obs`` experiment's stale run: T4 costs 2.5 times what its
    schedule assumed and the period stays, so the calibrator sees drift."""
    from repro.experiments.obs_exp import PERTURBED_TASK, replay_with_state

    graph, state, cluster = calibrator.graph, calibrator.state, calibrator.cluster
    sol = OptimalScheduler(cluster).solve(graph, state)
    true = graph_with_costs(
        graph, {PERTURBED_TASK: ScaledCost(graph.task(PERTURBED_TASK).cost, 2.5)}
    )
    stale = PipelinedSchedule(
        replay_with_state(sol.iteration, true, state, cluster),
        period=sol.period, shift=sol.pipelined.shift, n_procs=sol.pipelined.n_procs,
    )
    return StaticExecutor(
        true, state, cluster, stale, obs=Observability(calibrator=calibrator)
    ).run(24)


def stats_hex(stats: dict) -> dict:
    return {
        key: (s.count, s.mean.hex(), s._m2.hex(), s.min.hex(), s.max.hex())
        for key, s in stats.items()
    }


class TestOneCalibrationPath:
    def test_listening_and_replay_observe_alike(self):
        def calibrator() -> CostCalibrator:
            return CostCalibrator(build_tracker_graph(), State(n_models=2), SINGLE_NODE_SMP(4))

        live = calibrator()
        result = stale_run(live)
        replayed = calibrator()
        new = replayed.observe_result(result)
        assert live.drifts, "the stale run confirms no drift"
        assert stats_hex(replayed.exec_stats) == stats_hex(live.exec_stats)
        assert stats_hex(replayed.comm_stats) == stats_hex(live.comm_stats)
        assert new == replayed.drifts == live.drifts
        # the data-parallel T4 is one observation per frame, not four
        assert sum(s.count for (task, *_), s in live.exec_stats.items() if task == "T4") == 24
