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

import hashlib
from collections import Counter

import pytest

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import PipelinedSchedule
from repro.core.table import RegimeController
from repro.faults import FaultPlan, FaultRuntime, FaultTolerantExecutor
from repro.graph.builders import chain_graph
from repro.obs import CostCalibrator, Observability, ScaledCost, graph_with_costs
from repro.runtime.static_exec import EpochDriver, StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommModel
from repro.sim.trace import ExecSpan, ItemEvent, Mark
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


def costly_comm_tracker():
    """A tracker schedule solved for free communication and replayed over
    a costly one, on two nodes: every frame records transfers and slips
    besides its spans and STM operations."""
    graph, state, cluster = build_tracker_graph(), State(n_models=3), ClusterSpec(2, 2)
    solution = OptimalScheduler(cluster).solve(graph, state)
    return graph, state, cluster, solution, CommModel.uniform(cluster, 0.01, 1e6)


class TestLateListener:
    def test_a_listener_subscribed_mid_run_hears_every_later_record(self):
        """With nobody listening a recorder's item and mark writers are the
        lists' own ``append``; a listener subscribed after the world is
        built and records exist must still hear every span, item and mark
        written after it — no writer may keep the writer it found first."""
        graph, state, cluster, solution, comm = costly_comm_tracker()
        driver = EpochDriver(graph, state, cluster, comm)
        trace, heard, before = driver.trace, [], {}

        def subscribe() -> None:
            before.update(
                spans=len(trace.spans), items=len(trace.items), marks=len(trace.marks)
            )
            trace.subscribe(heard.append)

        driver.start(RegimeController(solution), iterations=20)
        driver.sim.call_at(6 * solution.period, subscribe)
        driver.sim.run()
        driver.release()
        assert all(before.values()), "nothing was recorded before the listener came"
        later = {
            ExecSpan: trace.spans[before["spans"]:],
            ItemEvent: trace.items[before["items"]:],
            Mark: trace.marks[before["marks"]:],
        }
        assert all(later.values())
        for kind, records in later.items():
            assert [r for r in heard if type(r) is kind] == records, kind.__name__
        assert len(heard) == sum(map(len, later.values()))


class TestObservedMetricValues:
    """An observed DES run's exposition, byte for byte, as the record path
    that called every listener method for every record produced it."""

    def exposition(self, run) -> str:
        obs = Observability()
        run(obs)
        return hashlib.sha256(obs.prometheus().encode()).hexdigest()

    def test_a_replay_with_transfers_and_slips(self):
        graph, state, cluster, solution, comm = costly_comm_tracker()
        digest = self.exposition(
            lambda obs: StaticExecutor(
                graph, state, cluster, solution, comm=comm, obs=obs
            ).run(40)
        )
        assert digest == "7d8db279c9cda5d2d6f7c770e22b2ffc879ec004cd3e3e2f8bbaa34c3a40f08a"

    def test_a_fault_run_with_detections_and_failovers(self):
        digest = self.exposition(
            lambda obs: FaultTolerantExecutor(
                chain_graph([1.0, 1.0]), State(n_models=1), ClusterSpec(2, 1),
                FaultRuntime(plan=FaultPlan.crash_at(5.0, node=1, recover_at=20.0)),
                obs=obs,
            ).run(40)
        )
        assert digest == "9d58df88276a64af344acbc3fde69f314c7277d6b70f80010d72314701928207"
