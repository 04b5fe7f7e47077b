"""Sensor-fusion pipeline: wide fan-in, regime = number of live sensors.

The kiosk's speech side already models one microphone front-end
(:mod:`repro.apps.speech`); this family generalizes that prefix to an
array of ``max_sensors`` front-ends feeding one fusion stage — the wide
fan-in shape Barika et al.'s stream workflows stress and the tracker
(a chain with one small diamond) never exercises:

    trigger ──tick──> sensor0 ──obs0──┐
              tick──> sensor1 ──obs1──┼──> fuse ──fused──> classify
              tick──> ...     ──obsN──┘

The regime variable is ``n_sensors``, how many sensors are currently
live.  The graph topology is fixed at ``max_sensors`` (channels and tasks
cannot appear per-state); liveness scales *costs*: a live front-end pays
the full vad+features price, an idle one a keep-alive tick
(:func:`repro.apps.speech.sensor_frontend_cost`), and ``fuse`` is linear
in ``n_sensors`` and data-parallel *by sensor*.

Kernels are integer-exact: idle sensors emit zero vectors, so the fused
sum over all ``max_sensors`` observations equals the sum over live ones
bitwise, chunked or not.
"""

from __future__ import annotations

import random

import numpy as np

from repro.apps.speech import add_sensor_frontend
from repro.graph.channel import ChannelSpec
from repro.graph.cost import ConstantCost, LinearCost
from repro.graph.task import DataParallelSpec, Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.state import State, StateSpace
from repro.workloads.base import WorkloadFamily, WorkloadInstance, register_family

__all__ = ["FusionFamily", "FUSION"]

_FEAT = 16  # feature-vector length per sensor


def _obs_vector(seed: int, index: int, ts: int) -> np.ndarray:
    """Sensor ``index``'s deterministic feature vector at timestamp ``ts``."""
    base = np.arange(_FEAT, dtype=np.int64)
    return (base * (index + 2) + ts * 7 + seed) % 101


def _sensor_slice(max_sensors: int, chunk: int, n_chunks: int) -> tuple[int, int]:
    lo = (max_sensors * chunk) // n_chunks
    hi = (max_sensors * (chunk + 1)) // n_chunks
    return lo, hi


class FusionFamily(WorkloadFamily):
    """Wide fan-in sensor fusion over speech-style front-ends."""

    name = "fusion"
    regime_variable = "n_sensors"
    dp_task = "fuse"

    def generate(self, seed: int, infeasible: bool = False) -> WorkloadInstance:
        rng = random.Random(f"fusion:{seed}")
        max_sensors = rng.choice([3, 4])
        per_sensor_fuse = round(rng.uniform(0.08, 0.20), 3)
        params = {
            "max_sensors": max_sensors,
            "trigger_cost": 0.002,
            "frontend_active": round(rng.uniform(0.010, 0.030), 3),
            "frontend_idle": 0.001,
            "fuse_base": round(rng.uniform(0.01, 0.03), 3),
            "per_sensor_fuse": per_sensor_fuse,
            "classify_cost": round(rng.uniform(0.008, 0.02), 3),
            "worker_counts": [2],
            "nodes": 2,
            "procs_per_node": 3,
        }
        # The serial sweep through every stage at the densest regime: the
        # throughput demand (source_period) sits above it for feasible
        # instances and far below the per-iteration work floor for the
        # deliberately infeasible ones, so the capacity certificate (W001)
        # must fire regardless of scheduling method.
        serial_heavy = (
            params["trigger_cost"]
            + params["frontend_active"] * max_sensors
            + params["fuse_base"]
            + per_sensor_fuse * max_sensors
            + params["classify_cost"]
        )
        if infeasible:
            total_procs = params["nodes"] * params["procs_per_node"]
            # Below even the perfectly-parallel work floor: no machine of
            # this size can drain one iteration per period.
            source_period = round(0.1 * serial_heavy / total_procs, 5)
            expected = ("W001",)
            deadline = round(4.0 * serial_heavy, 3)
        else:
            source_period = round(2.0 * serial_heavy, 3)
            expected = ()
            deadline = round(4.0 * serial_heavy + 1.0, 3)
        return WorkloadInstance(
            family=self.name,
            name=f"fusion-s{seed}" + ("-infeasible" if infeasible else ""),
            seed=seed,
            params=params,
            deadline=deadline,
            source_period=source_period,
            expected_findings=expected,
        )

    def build_graph(self, instance: WorkloadInstance) -> TaskGraph:
        p = instance.params
        max_sensors = p["max_sensors"]
        per_sensor = p["per_sensor_fuse"]

        def fuse_chunk_cost(state: State, n_chunks: int) -> float:
            n = state["n_sensors"]
            live = -(-n // n_chunks)  # ceil: live sensors the slowest chunk fuses
            return p["fuse_base"] / n_chunks + per_sensor * live

        def fuse_chunks(state: State, workers: int) -> int:
            return min(state["n_sensors"], workers)

        g = TaskGraph(instance.name)
        g.add_channel(ChannelSpec("tick", item_bytes=8))
        g.add_task(
            Task(
                "trigger",
                cost=ConstantCost(p["trigger_cost"]),
                outputs=["tick"],
                period=instance.source_period,
            )
        )
        obs_channels = [
            add_sensor_frontend(
                g,
                i,
                input_channel="tick",
                obs_bytes=_FEAT * 8,
                active_cost=p["frontend_active"],
                idle_cost=p["frontend_idle"],
                variable="n_sensors",
            )
            for i in range(max_sensors)
        ]
        g.add_channel(ChannelSpec("fused", item_bytes=_FEAT * 8))
        g.add_channel(ChannelSpec("label", item_bytes=16))
        g.add_channel(ChannelSpec("fusion_weights", item_bytes=_FEAT * 8, static=True))
        g.add_task(
            Task(
                "fuse",
                cost=LinearCost(
                    base=p["fuse_base"], slope=per_sensor, variable="n_sensors"
                ),
                inputs=[*obs_channels, "fusion_weights"],
                outputs=["fused"],
                data_parallel=DataParallelSpec(
                    worker_counts=p["worker_counts"],
                    chunk_cost=fuse_chunk_cost,
                    chunks_for=fuse_chunks,
                    split_cost=0.001,
                    join_cost=0.001,
                ),
            )
        )
        g.add_task(
            Task(
                "classify",
                cost=ConstantCost(p["classify_cost"]),
                inputs=["fused"],
                outputs=["label"],
            )
        )
        g.validate()
        return g

    def state_space(self, instance: WorkloadInstance) -> StateSpace:
        return StateSpace.range("n_sensors", 1, instance.params["max_sensors"])

    def cluster(self, instance: WorkloadInstance) -> ClusterSpec:
        p = instance.params
        return ClusterSpec(nodes=p["nodes"], procs_per_node=p["procs_per_node"])

    def attach_kernels(
        self, graph: TaskGraph, instance: WorkloadInstance
    ) -> tuple[TaskGraph, dict]:
        p = instance.params
        seed, max_sensors = instance.seed, p["max_sensors"]
        counter = {"ts": 0}

        def trigger_compute(state: State, inputs: dict) -> dict:
            ts = counter["ts"]
            counter["ts"] += 1
            return {"tick": ts}

        def make_sensor(index: int):
            def compute(state: State, inputs: dict) -> dict:
                ts = inputs["tick"]
                if index < state["n_sensors"]:
                    obs = _obs_vector(seed, index, ts)
                else:
                    obs = np.zeros(_FEAT, dtype=np.int64)
                return {f"obs{index}": obs}

            return compute

        def fuse_compute(state: State, inputs: dict) -> dict:
            total = np.zeros(_FEAT, dtype=np.int64)
            for i in range(max_sensors):
                total = total + inputs[f"obs{i}"]
            return {"fused": total * inputs["fusion_weights"]}

        def fuse_chunk(state: State, inputs: dict, chunk: int, n_chunks: int):
            lo, hi = _sensor_slice(max_sensors, chunk, n_chunks)
            total = np.zeros(_FEAT, dtype=np.int64)
            for i in range(lo, hi):
                total = total + inputs[f"obs{i}"]
            return total

        def fuse_join(state: State, inputs: dict, partials: list) -> dict:
            total = np.zeros(_FEAT, dtype=np.int64)
            for part in partials:
                total = total + part
            return {"fused": total * inputs["fusion_weights"]}

        def classify_compute(state: State, inputs: dict) -> dict:
            return {"label": int(inputs["fused"].sum() % 9973)}

        computes = {"trigger": trigger_compute, "fuse": fuse_compute,
                    "classify": classify_compute}
        for i in range(max_sensors):
            computes[f"sensor{i}"] = make_sensor(i)

        out = TaskGraph(f"{graph.name}/live")
        for ch in graph.channels:
            out.add_channel(ch)
        for t in graph.tasks:
            chunk_fn, join_fn = (
                (fuse_chunk, fuse_join) if t.name == "fuse" else (None, None)
            )
            out.add_task(
                t.replace(
                    compute=computes[t.name],
                    compute_chunk=chunk_fn,
                    compute_join=join_fn,
                )
            )
        out.validate()
        weights = (np.arange(_FEAT, dtype=np.int64) + seed) % 13 + 1
        return out, {"fusion_weights": weights}


FUSION = register_family(FusionFamily())
