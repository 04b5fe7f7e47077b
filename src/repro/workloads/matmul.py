"""Heterogeneous-platform blocked matrix multiply (Beaumont & Marchal shape).

The dynamic-scheduling analysis of Beaumont & Marchal studies C = A·B cut
into row bands distributed over processors of *unequal speed*; the regime
variable here is ``n_blocks`` — how many row bands of A are active this
iteration (the streamed problem size).  The graph is a diamond the tracker
never exercises:

    split ── a_bands ──> multiply ── partials ──┐
      └───── a_bands ──> norm ───── scale ──────┴──> reduce ──> check

* ``multiply`` is the heavy task, linear in ``n_blocks``, data-parallel by
  row band (one chunk per band, at most ``n_blocks`` chunks — the
  data-parallel degree *shrinks with the regime*, the opposite of the
  tracker's fixed FP×MP menu);
* the platform is heterogeneous: two node classes whose relative speeds
  come from the instance seed, so placement choice (fast vs slow node) is
  part of every schedule's quality — exactly the Beaumont & Marchal
  trade-off;
* B is a static configuration channel (written once, no precedence).

Kernels are integer-exact (int64 matrices), so band-wise products equal
the whole product bitwise and every substrate agrees on outputs.
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

__all__ = ["MatMulFamily", "MATMUL"]


def _band_slice(n_blocks: int, block_rows: int, chunk: int, n_chunks: int):
    """Row range of ``chunk`` when ``n_blocks`` bands split into ``n_chunks``."""
    lo_band = (n_blocks * chunk) // n_chunks
    hi_band = (n_blocks * (chunk + 1)) // n_chunks
    return lo_band * block_rows, hi_band * block_rows


def _a_matrix(seed: int, ts: int, rows: int, dim: int) -> np.ndarray:
    """The iteration-``ts`` input matrix: deterministic, integer, seeded."""
    base = np.arange(rows * dim, dtype=np.int64).reshape(rows, dim)
    return (base * (seed % 7 + 2) + ts) % 97


class MatMulFamily(WorkloadFamily):
    """Blocked C = A·B on a two-class heterogeneous cluster."""

    name = "matmul"
    regime_variable = "n_blocks"
    dp_task = "multiply"

    def generate(self, seed: int, infeasible: bool = False) -> WorkloadInstance:
        # String seeds hash deterministically inside random (sha512), unlike
        # tuples, which go through PYTHONHASHSEED-randomized hash().
        rng = random.Random(f"matmul:{seed}")
        max_blocks = rng.choice([4, 5, 6])
        block_cost = round(rng.uniform(0.15, 0.40), 3)
        params = {
            "max_blocks": max_blocks,
            "block_rows": 8,
            "dim": 32,
            "block_cost": block_cost,
            "split_cost": round(rng.uniform(0.004, 0.012), 4),
            "norm_cost": round(rng.uniform(0.02, 0.06), 3),
            "reduce_base": round(rng.uniform(0.01, 0.03), 3),
            "reduce_slope": round(rng.uniform(0.005, 0.02), 4),
            "check_cost": 0.005,
            "worker_counts": [2, rng.choice([3, 4])],
            "slow_speed": round(rng.uniform(0.4, 0.8), 2),
            "procs_per_node": 4,
        }
        # The serial floor at the densest regime: split + norm/multiply +
        # reduce + check with no parallelism at all.  A feasible deadline
        # sits comfortably above it; the infeasible variant demands a
        # latency below even the best-variant critical path.
        serial_heavy = params["split_cost"] + block_cost * max_blocks
        if infeasible:
            deadline = round(0.5 * block_cost, 4)  # < one block's work
            expected = ("W002",)
        else:
            deadline = round(2.0 * serial_heavy + 1.0, 3)
            expected = ()
        return WorkloadInstance(
            family=self.name,
            name=f"matmul-s{seed}" + ("-infeasible" if infeasible else ""),
            seed=seed,
            params=params,
            deadline=deadline,
            source_period=None,
            expected_findings=expected,
        )

    def build_graph(self, instance: WorkloadInstance) -> TaskGraph:
        p = instance.params
        block_cost = p["block_cost"]
        band_bytes = p["block_rows"] * p["dim"] * 8

        def multiply_chunk_cost(state: State, n_chunks: int) -> float:
            # One chunk multiplies ceil(n_blocks / n_chunks) bands; integer
            # band counts make the model exact, not an idealized division.
            n = state["n_blocks"]
            bands = -(-n // n_chunks)  # ceil
            return block_cost * bands

        def multiply_chunks(state: State, workers: int) -> int:
            return min(state["n_blocks"], workers)

        g = TaskGraph(instance.name)
        g.add_channel(
            ChannelSpec("a_bands", item_bytes=lambda s: s["n_blocks"] * band_bytes)
        )
        g.add_channel(
            ChannelSpec("partials", item_bytes=lambda s: s["n_blocks"] * band_bytes)
        )
        g.add_channel(ChannelSpec("scale", item_bytes=8))
        g.add_channel(ChannelSpec("product", item_bytes=p["dim"] * 8))
        g.add_channel(ChannelSpec("result", item_bytes=16))
        g.add_channel(
            ChannelSpec("b_matrix", item_bytes=p["dim"] * p["dim"] * 8, static=True)
        )
        g.add_task(
            Task(
                "split",
                cost=ConstantCost(p["split_cost"]),
                outputs=["a_bands"],
                period=instance.source_period,
            )
        )
        g.add_task(
            Task(
                "multiply",
                cost=LinearCost(base=0.0, slope=block_cost, variable="n_blocks"),
                inputs=["a_bands", "b_matrix"],
                outputs=["partials"],
                data_parallel=DataParallelSpec(
                    worker_counts=p["worker_counts"],
                    chunk_cost=multiply_chunk_cost,
                    chunks_for=multiply_chunks,
                    split_cost=0.002,
                    join_cost=0.002,
                ),
            )
        )
        g.add_task(
            Task(
                "norm",
                cost=ConstantCost(p["norm_cost"]),
                inputs=["a_bands"],
                outputs=["scale"],
            )
        )
        g.add_task(
            Task(
                "reduce",
                cost=LinearCost(
                    base=p["reduce_base"], slope=p["reduce_slope"], variable="n_blocks"
                ),
                inputs=["partials", "scale"],
                outputs=["product"],
            )
        )
        g.add_task(
            Task(
                "check",
                cost=ConstantCost(p["check_cost"]),
                inputs=["product"],
                outputs=["result"],
            )
        )
        g.validate()
        return g

    def state_space(self, instance: WorkloadInstance) -> StateSpace:
        return StateSpace.range("n_blocks", 1, instance.params["max_blocks"])

    def cluster(self, instance: WorkloadInstance) -> ClusterSpec:
        p = instance.params
        return ClusterSpec(
            nodes=2,
            procs_per_node=p["procs_per_node"],
            node_speeds=[1.0, p["slow_speed"]],
        )

    def attach_kernels(
        self, graph: TaskGraph, instance: WorkloadInstance
    ) -> tuple[TaskGraph, dict]:
        p = instance.params
        seed, block_rows, dim = instance.seed, p["block_rows"], p["dim"]

        def split_compute(state: State, inputs: dict, ts: int) -> dict:
            rows = state["n_blocks"] * block_rows
            return {"a_bands": _a_matrix(seed, ts, rows, dim)}

        def multiply_compute(state: State, inputs: dict, ts: int) -> dict:
            a, b = inputs["a_bands"], inputs["b_matrix"]
            return {"partials": a @ b}

        def multiply_chunk(state: State, inputs: dict, chunk: int, n_chunks: int):
            a, b = inputs["a_bands"], inputs["b_matrix"]
            lo, hi = _band_slice(state["n_blocks"], block_rows, chunk, n_chunks)
            return a[lo:hi] @ b

        def multiply_join(state: State, inputs: dict, partials: list) -> dict:
            return {"partials": np.vstack(partials)}

        def norm_compute(state: State, inputs: dict, ts: int) -> dict:
            return {"scale": int(np.abs(inputs["a_bands"]).sum())}

        def reduce_compute(state: State, inputs: dict, ts: int) -> dict:
            col = inputs["partials"].sum(axis=0) % 100003
            return {"product": col * (inputs["scale"] % 11 + 1)}

        def check_compute(state: State, inputs: dict, ts: int) -> dict:
            return {"result": int(inputs["product"].sum() % 1000003)}

        out = graph.with_tasks(f"{graph.name}/live", {
            "split": {"compute": split_compute},
            "multiply": {"compute": multiply_compute, "compute_chunk": multiply_chunk,
                         "compute_join": multiply_join},
            "norm": {"compute": norm_compute},
            "reduce": {"compute": reduce_compute},
            "check": {"compute": check_compute},
        })
        b = (np.arange(dim * dim, dtype=np.int64).reshape(dim, dim) + seed) % 89
        return out, {"b_matrix": b}


MATMUL = register_family(MatMulFamily())
