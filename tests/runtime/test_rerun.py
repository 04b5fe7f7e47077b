"""A run that starts again reproduces its frames.

Kernels are functions of ``(state, inputs, ts)`` and the one piece of
frame state, the previous frame change detection compares against, is a
window-2 STM read declared on the attached graph.  So one attached graph
run twice through :class:`~repro.runtime.static_exec.StaticExecutor`
gives bitwise-equal terminal outputs on both live substrates — for the
tracker, the surveillance app and every workload family.  While the
sources kept a frame counter and the change detectors a previous frame in
a closure, the second threaded run went on from where the first stopped.
"""

from __future__ import annotations

import pytest

from repro.apps.surveillance import build_surveillance_graph
from repro.apps.surveillance_kernels import attach_surveillance_kernels
from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State
from repro.workloads import get_family
from tests.runtime.test_lanes import assert_bitwise_equal

pytestmark = pytest.mark.slow

FRAMES = 6
LIVE = ("threaded", "process")


def tracker():
    video = VideoSource(n_targets=2, height=48, width=64, seed=11)
    live, statics = attach_kernels(build_tracker_graph(frame_shape=(48, 64)), video)
    return live, statics, State(n_models=2), SINGLE_NODE_SMP(4)


def surveillance():
    videos = [VideoSource(n_targets=1, height=40, width=56, seed=33, noise_level=4)
              for _ in range(2)]
    live = attach_surveillance_kernels(build_surveillance_graph(2), videos,
                                       zone=(0, 0, 40, 28), threshold=60)
    return live, {}, State(n_cameras=2), SINGLE_NODE_SMP(4)


def family(name: str):
    def build():
        fam = get_family(name)
        inst = fam.generate(0)
        live, statics = fam.attach_kernels(fam.build_graph(inst), inst)
        return live, statics, list(fam.state_space(inst))[-1], fam.cluster(inst)

    return build


APPS = {"tracker": tracker, "surveillance": surveillance,
        **{name: family(name) for name in ("matmul", "fusion", "webinfer")}}


def serial_schedule(graph, state) -> PipelinedSchedule:
    """Every task on processor 0, in topological order."""
    placements, t = [], 0.0
    for name in graph.topo_order():
        d = graph.task(name).cost(state)
        placements.append(Placement(name, (0,), t, d))
        t += d
    return PipelinedSchedule(IterationSchedule(placements), period=t, shift=0, n_procs=1)


@pytest.mark.parametrize("substrate", LIVE)
@pytest.mark.parametrize("app", list(APPS))
def test_a_second_run_of_one_attached_graph_repeats_the_first(app, substrate):
    live, statics, state, cluster = APPS[app]()
    executor = StaticExecutor(live, state, cluster, serial_schedule(live, state),
                              runtime=substrate, static_inputs=statics)
    first, second = executor.run(FRAMES), executor.run(FRAMES)
    assert first.completed == second.completed == list(range(FRAMES))
    assert first.meta["outputs"]
    assert_bitwise_equal(first.meta["outputs"], second.meta["outputs"])
