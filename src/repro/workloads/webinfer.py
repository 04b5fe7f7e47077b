"""Bursty web-inference graph: regime = request arrival rate.

Barika et al.'s adaptive stream workflows are driven by *burstiness* —
the work per tick swings with arrival rate, and a scheduler tuned for the
trough drowns at the peak.  This family models one inference tier:

    ingest ──requests──> sanitize ──batch──> infer (dp) ──scores──┐
       └─────requests──> audit ───────────── audit_log ───────────┴─> respond

The regime variable is ``arrival_rate``: how many requests arrive in one
source tick (the batch the tier must clear before the next burst).  The
source fires every ``source_period`` seconds — the throughput demand the
verifier checks against the machine's capacity.  ``infer`` is the heavy
stage, linear in the rate and data-parallel by request; ``audit`` is the
compliance side-channel every request must also clear (the diamond joins
at ``respond``).

Kernels are integer-exact: the batch is an int64 matrix of
``arrival_rate`` rows, chunked by row range, so chunked inference equals
serial inference bitwise.
"""

from __future__ import annotations

import random

import numpy as np

from repro.graph.channel import ChannelSpec
from repro.graph.cost import ConstantCost, LinearCost
from repro.graph.task import DataParallelSpec, Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.state import State, StateSpace
from repro.workloads.base import WorkloadFamily, WorkloadInstance, register_family

__all__ = ["WebInferFamily", "WEBINFER"]

_REQ_FEAT = 24  # features per request
_CLASSES = 8  # model output width


def _request_batch(seed: int, ts: int, rate: int) -> np.ndarray:
    """The tick-``ts`` burst: ``rate`` deterministic int64 request rows."""
    base = np.arange(rate * _REQ_FEAT, dtype=np.int64).reshape(rate, _REQ_FEAT)
    return (base * (seed % 5 + 3) + ts * 11) % 113


def _row_slice(rows: int, chunk: int, n_chunks: int) -> tuple[int, int]:
    return (rows * chunk) // n_chunks, (rows * (chunk + 1)) // n_chunks


class WebInferFamily(WorkloadFamily):
    """One web-inference tier under bursty arrivals."""

    name = "webinfer"
    regime_variable = "arrival_rate"
    dp_task = "infer"

    def generate(self, seed: int, infeasible: bool = False) -> WorkloadInstance:
        rng = random.Random(f"webinfer:{seed}")
        max_rate = rng.choice([4, 6, 8])
        per_request = round(rng.uniform(0.05, 0.15), 3)
        params = {
            "max_rate": max_rate,
            "ingest_cost": 0.003,
            "sanitize_base": round(rng.uniform(0.005, 0.015), 3),
            "sanitize_slope": round(rng.uniform(0.002, 0.008), 4),
            "audit_cost": round(rng.uniform(0.01, 0.04), 3),
            "infer_base": round(rng.uniform(0.01, 0.04), 3),
            "per_request": per_request,
            "respond_base": 0.004,
            "respond_slope": 0.002,
            "worker_counts": [2, 4],
            "nodes": 1,
            "procs_per_node": 6,
        }
        serial_heavy = (
            params["ingest_cost"]
            + params["sanitize_base"]
            + params["sanitize_slope"] * max_rate
            + params["infer_base"]
            + per_request * max_rate
            + params["audit_cost"]
            + params["respond_base"]
            + params["respond_slope"] * max_rate
        )
        if infeasible:
            total_procs = params["nodes"] * params["procs_per_node"]
            # An arrival period below the perfectly-parallel work floor at
            # peak rate: the capacity certificate (W001) must reject it.
            source_period = round(0.1 * serial_heavy / total_procs, 5)
            expected = ("W001",)
            deadline = round(4.0 * serial_heavy, 3)
        else:
            source_period = round(2.0 * serial_heavy, 3)
            expected = ()
            deadline = round(4.0 * serial_heavy + 1.0, 3)
        return WorkloadInstance(
            family=self.name,
            name=f"webinfer-s{seed}" + ("-infeasible" if infeasible else ""),
            seed=seed,
            params=params,
            deadline=deadline,
            source_period=source_period,
            expected_findings=expected,
        )

    def build_graph(self, instance: WorkloadInstance) -> TaskGraph:
        p = instance.params
        per_request = p["per_request"]

        def infer_chunk_cost(state: State, n_chunks: int) -> float:
            rate = state["arrival_rate"]
            rows = -(-rate // n_chunks)  # ceil: requests the slowest chunk serves
            return p["infer_base"] / n_chunks + per_request * rows

        def infer_chunks(state: State, workers: int) -> int:
            return min(state["arrival_rate"], workers)

        g = TaskGraph(instance.name)
        g.add_channel(
            ChannelSpec("requests", item_bytes=lambda s: s["arrival_rate"] * _REQ_FEAT * 8)
        )
        g.add_channel(
            ChannelSpec("batch", item_bytes=lambda s: s["arrival_rate"] * _REQ_FEAT * 8)
        )
        g.add_channel(
            ChannelSpec("scores", item_bytes=lambda s: s["arrival_rate"] * _CLASSES * 8)
        )
        g.add_channel(ChannelSpec("audit_log", item_bytes=32))
        g.add_channel(ChannelSpec("responses", item_bytes=64))
        g.add_channel(
            ChannelSpec("model_weights", item_bytes=_REQ_FEAT * _CLASSES * 8, static=True)
        )
        g.add_task(
            Task(
                "ingest",
                cost=ConstantCost(p["ingest_cost"]),
                outputs=["requests"],
                period=instance.source_period,
            )
        )
        g.add_task(
            Task(
                "sanitize",
                cost=LinearCost(
                    base=p["sanitize_base"],
                    slope=p["sanitize_slope"],
                    variable="arrival_rate",
                ),
                inputs=["requests"],
                outputs=["batch"],
            )
        )
        g.add_task(
            Task(
                "audit",
                cost=ConstantCost(p["audit_cost"]),
                inputs=["requests"],
                outputs=["audit_log"],
            )
        )
        g.add_task(
            Task(
                "infer",
                cost=LinearCost(
                    base=p["infer_base"], slope=per_request, variable="arrival_rate"
                ),
                inputs=["batch", "model_weights"],
                outputs=["scores"],
                data_parallel=DataParallelSpec(
                    worker_counts=p["worker_counts"],
                    chunk_cost=infer_chunk_cost,
                    chunks_for=infer_chunks,
                    split_cost=0.001,
                    join_cost=0.001,
                ),
            )
        )
        g.add_task(
            Task(
                "respond",
                cost=LinearCost(
                    base=p["respond_base"],
                    slope=p["respond_slope"],
                    variable="arrival_rate",
                ),
                inputs=["scores", "audit_log"],
                outputs=["responses"],
            )
        )
        g.validate()
        return g

    def state_space(self, instance: WorkloadInstance) -> StateSpace:
        return StateSpace.range("arrival_rate", 1, instance.params["max_rate"])

    def cluster(self, instance: WorkloadInstance) -> ClusterSpec:
        p = instance.params
        return ClusterSpec(nodes=p["nodes"], procs_per_node=p["procs_per_node"])

    def attach_kernels(
        self, graph: TaskGraph, instance: WorkloadInstance
    ) -> tuple[TaskGraph, dict]:
        seed = instance.seed
        counter = {"ts": 0}

        def ingest_compute(state: State, inputs: dict) -> dict:
            ts = counter["ts"]
            counter["ts"] += 1
            return {"requests": _request_batch(seed, ts, state["arrival_rate"])}

        def sanitize_compute(state: State, inputs: dict) -> dict:
            return {"batch": inputs["requests"] % 97}

        def audit_compute(state: State, inputs: dict) -> dict:
            return {"audit_log": int(inputs["requests"].sum() % 65521)}

        def infer_compute(state: State, inputs: dict) -> dict:
            return {"scores": inputs["batch"] @ inputs["model_weights"]}

        def infer_chunk(state: State, inputs: dict, chunk: int, n_chunks: int):
            rows = inputs["batch"].shape[0]
            lo, hi = _row_slice(rows, chunk, n_chunks)
            return inputs["batch"][lo:hi] @ inputs["model_weights"]

        def infer_join(state: State, inputs: dict, partials: list) -> dict:
            return {"scores": np.vstack(partials)}

        def respond_compute(state: State, inputs: dict) -> dict:
            digest = int(inputs["scores"].sum() % 999983)
            return {"responses": digest * 31 + inputs["audit_log"] % 31}

        computes = {
            "ingest": ingest_compute,
            "sanitize": sanitize_compute,
            "audit": audit_compute,
            "infer": infer_compute,
            "respond": respond_compute,
        }
        out = TaskGraph(f"{graph.name}/live")
        for ch in graph.channels:
            out.add_channel(ch)
        for t in graph.tasks:
            chunk_fn, join_fn = (
                (infer_chunk, infer_join) if t.name == "infer" else (None, None)
            )
            out.add_task(
                t.replace(
                    compute=computes[t.name],
                    compute_chunk=chunk_fn,
                    compute_join=join_fn,
                )
            )
        out.validate()
        weights = (
            np.arange(_REQ_FEAT * _CLASSES, dtype=np.int64).reshape(_REQ_FEAT, _CLASSES)
            + seed
        ) % 23 + 1
        return out, {"model_weights": weights}


WEBINFER = register_family(WebInferFamily())
