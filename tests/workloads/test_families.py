"""Per-family unit tests: generators, graphs, platforms and kernels.

Everything here is cheap (no solver, no substrates): the contract each
:class:`~repro.workloads.base.WorkloadFamily` owes the rest of the suite —
deterministic seeded generation, a valid graph whose dp task really
decomposes, a regime space driven by the declared variable, and
integer-exact kernels whose chunked execution equals serial execution
bitwise when driven by hand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.workloads import FAMILIES, WorkloadInstance, get_family, register_family
from repro.workloads.base import WorkloadFamily

FAMILY_NAMES = ("matmul", "fusion", "webinfer")


@pytest.fixture(params=FAMILY_NAMES)
def family(request):
    return get_family(request.param)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(FAMILY_NAMES) <= set(FAMILIES)

    def test_unknown_family_raises(self):
        with pytest.raises(GraphError, match="unknown workload family"):
            get_family("nope")

    def test_abstract_name_rejected(self):
        class Nameless(WorkloadFamily):
            def generate(self, seed, infeasible=False):  # pragma: no cover
                raise NotImplementedError

            build_graph = state_space = cluster = attach_kernels = generate

        with pytest.raises(GraphError, match="concrete name"):
            register_family(Nameless())


class TestGenerate:
    def test_deterministic(self, family):
        assert family.generate(7).to_dict() == family.generate(7).to_dict()

    def test_seeds_differ(self, family):
        assert family.generate(0).params != family.generate(1).params

    def test_infeasible_variant_records_findings(self, family):
        inst = family.generate(3, infeasible=True)
        assert inst.expected_findings
        assert inst.name.endswith("-infeasible")
        assert not family.generate(3).expected_findings

    def test_round_trips_through_dict(self, family):
        inst = family.generate(5)
        assert WorkloadInstance.from_dict(inst.to_dict()) == inst


class TestGraph:
    def test_validates_and_names_dp_task(self, family):
        inst = family.generate(0)
        graph = family.build_graph(inst)
        graph.validate()
        assert family.dp_task in graph
        assert graph.task(family.dp_task).data_parallel is not None

    def test_source_carries_the_throughput_demand(self, family):
        inst = family.generate(0)
        graph = family.build_graph(inst)
        sources = graph.source_tasks()
        assert len(sources) == 1
        assert graph.task(sources[0]).period == inst.source_period

    def test_costs_scale_with_the_regime(self, family):
        """The declared regime variable drives the dp task's cost."""
        inst = family.generate(0)
        graph = family.build_graph(inst)
        states = list(family.state_space(inst))
        costs = [graph.task(family.dp_task).cost(s) for s in states]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_state_space_spans_the_regime(self, family):
        inst = family.generate(0)
        states = list(family.state_space(inst))
        assert len(states) >= 2
        values = [s[family.regime_variable] for s in states]
        assert values == list(range(1, len(states) + 1))


class TestCluster:
    def test_matmul_platform_is_heterogeneous(self):
        inst = get_family("matmul").generate(0)
        cluster = get_family("matmul").cluster(inst)
        assert cluster.nodes == 2
        speeds = set(cluster.node_speeds)
        assert len(speeds) == 2 and min(speeds) < 1.0

    def test_uniform_platforms(self):
        for name in ("fusion", "webinfer"):
            inst = get_family(name).generate(0)
            cluster = get_family(name).cluster(inst)
            assert set(cluster.node_speeds) == {1.0}


def _run_by_hand(live, statics, state, *, chunked_task=None, workers=2, ts=0):
    """Drive the kernels of frame ``ts`` directly in topo order; returns all
    channel values.

    ``chunked_task`` switches that task to its chunk/join path, which must
    be indistinguishable from the serial compute (the integer-exact
    contract the substrates rely on).
    """
    values = dict(statics)
    for name in live.topo_order():
        task = live.task(name)
        inputs = {ch: values[ch] for ch in task.inputs}
        if name == chunked_task:
            n_chunks = task.data_parallel.chunks_for(state, workers)
            partials = [
                task.compute_chunk(state, inputs, c, n_chunks)
                for c in range(n_chunks)
            ]
            values.update(task.compute_join(state, inputs, partials))
        else:
            values.update(task.compute(state, inputs, ts))
    return values


class TestKernels:
    def test_chunked_equals_serial_bitwise(self, family):
        inst = family.generate(0)
        graph = family.build_graph(inst)
        state = list(family.state_space(inst))[-1]
        live, statics = family.attach_kernels(graph, inst)
        serial = _run_by_hand(live, statics, state)
        chunked = _run_by_hand(live, statics, state, chunked_task=family.dp_task)
        assert set(serial) == set(chunked)
        for ch, value in serial.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, chunked[ch]), ch
            else:
                assert value == chunked[ch], ch

    def test_shuffled_timestamps_give_the_in_order_frames(self, family):
        """Every kernel, the source's included, is a function of its
        arguments: frames computed out of order equal the in-order ones."""
        inst = family.generate(0)
        live, statics = family.attach_kernels(family.build_graph(inst), inst)
        state = list(family.state_space(inst))[-1]
        in_order = [_run_by_hand(live, statics, state, ts=ts) for ts in range(6)]
        for ts in (4, 0, 5, 2, 1, 3):
            again = _run_by_hand(live, statics, state, ts=ts)
            for ch, value in in_order[ts].items():
                assert np.array_equal(value, again[ch]), (ts, ch)
        source = live.task(live.source_tasks()[0]).outputs[0]
        assert not np.array_equal(in_order[0][source], in_order[1][source])

    def test_kernels_are_integer_exact(self, family):
        inst = family.generate(0)
        graph = family.build_graph(inst)
        live, statics = family.attach_kernels(graph, inst)
        state = list(family.state_space(inst))[-1]
        values = _run_by_hand(live, statics, state)
        for ch, value in values.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == np.int64, ch
            else:
                assert isinstance(value, (int, np.integer)), ch

    def test_live_graph_mirrors_the_model_graph(self, family):
        inst = family.generate(0)
        graph = family.build_graph(inst)
        live, _ = family.attach_kernels(graph, inst)
        assert live.task_names == graph.task_names
        assert live.channel_names == graph.channel_names
        for name in graph.task_names:
            assert live.task(name).compute is not None
