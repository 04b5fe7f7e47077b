"""Schedule sensitivity to cost-model error.

Figure 6's inputs are *measured* execution times; measurements drift (new
compiler, cache effects, lighting changing the vision workload).  This
module quantifies how robust a pre-computed schedule is to such drift:

* :func:`perturbed_latency` — re-time a schedule's structure with every
  task cost scaled by independent factors and report the achieved latency
  (:func:`repro.core.replay.replay_with_state` on the perturbed graph);
* :func:`sensitivity_profile` — Monte-Carlo sweep over seeded
  perturbations: how much latency degrades at a given cost-error level,
  and how often the perturbed-optimal schedule differs structurally.

This backs a practical guideline the paper leaves implicit: how accurate
do the Figure 6 timing inputs have to be before "optimal" stops meaning
anything?  (Answer for the tracker: quite inaccurate — see the ablation
benchmark — because the schedule's structure is stable over wide cost
ranges even though its II must be re-derived.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ScheduleError
from repro.core.replay import replay_with_state
from repro.core.schedule import IterationSchedule
from repro.graph.cost import CallableCost
from repro.graph.task import DataParallelSpec
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = ["perturbed_graph", "perturbed_latency", "SensitivityProfile", "sensitivity_profile"]


def perturbed_graph(
    graph: TaskGraph, factors: dict[str, float], name: Optional[str] = None
) -> TaskGraph:
    """A copy of ``graph`` with each task's cost scaled by its factor.

    Data-parallel chunk costs scale by the same factor (the kernel got
    slower, so its chunks did too).  Missing tasks default to 1.0.
    """
    for task, f in factors.items():
        if f <= 0:
            raise ScheduleError(f"perturbation factor for {task!r} must be positive")
    out = TaskGraph(name or f"{graph.name}/perturbed")
    for ch in graph.channels:
        out.add_channel(ch)
    for t in graph.tasks:
        f = factors.get(t.name, 1.0)
        base_cost = t.cost
        cost = CallableCost(
            lambda s, _c=base_cost, _f=f: _c(s) * _f, label=f"{t.name}x{f:g}"
        )
        dp = t.data_parallel
        if dp is not None:
            base_chunk = dp.chunk_cost
            if base_chunk is not None:
                chunk_cost = lambda s, n, _b=base_chunk, _f=f: _b(s, n) * _f
            else:
                chunk_cost = None
            dp = DataParallelSpec(
                worker_counts=dp.worker_counts,
                chunk_cost=chunk_cost,
                split_cost=dp.split_cost * f,
                join_cost=dp.join_cost * f,
                per_chunk_overhead=dp.per_chunk_overhead * f,
                chunks_for=dp.chunks_for,
            )
        out.add_task(t.replace(cost=cost, data_parallel=dp))
    out.validate()
    return out


def perturbed_latency(
    iteration: IterationSchedule,
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    factors: dict[str, float],
    comm: Optional[CommModel] = None,
) -> float:
    """Latency of a fixed schedule structure under perturbed costs."""
    noisy = perturbed_graph(graph, factors)
    return replay_with_state(iteration, noisy, state, cluster, comm).latency


@dataclass(frozen=True)
class SensitivityProfile:
    """Monte-Carlo robustness summary of one schedule.

    Attributes
    ----------
    error_level:
        Relative cost-error magnitude (each factor uniform in
        ``[1 - e, 1 + e]``).
    trials:
        Number of seeded perturbations evaluated.
    mean_regret / max_regret:
        Relative latency excess of the *fixed* schedule over the schedule
        that is optimal for the perturbed costs (0 = still optimal).
    structure_stable_fraction:
        Fraction of trials where the fixed structure remained optimal
        (regret below ``1e-9``).
    """

    error_level: float
    trials: int
    mean_regret: float
    max_regret: float
    structure_stable_fraction: float


def sensitivity_profile(
    iteration: IterationSchedule,
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    error_level: float,
    trials: int = 20,
    seed: int = 0,
    comm: Optional[CommModel] = None,
) -> SensitivityProfile:
    """How much does cost error cost?  (Monte-Carlo over perturbations.)

    The per-trial re-optimizations run as one
    :func:`repro.core.parallel.solve_many` batch; the perturbation
    factors come from ``seed``, so the profile is reproducible.
    """
    from repro.core.parallel import make_request, solve_many

    if not 0.0 <= error_level < 1.0:
        raise ScheduleError(f"error_level must be in [0, 1), got {error_level}")
    if trials < 1:
        raise ScheduleError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    all_factors = [
        {
            t.name: rng.uniform(1.0 - error_level, 1.0 + error_level)
            for t in graph.tasks
        }
        for _ in range(trials)
    ]
    fixed_latencies = [
        perturbed_latency(iteration, graph, state, cluster, factors, comm)
        for factors in all_factors
    ]
    requests = [
        make_request(
            perturbed_graph(graph, factors), state, cluster, comm,
            mode="enumerate", tag=trial,
        )
        for trial, factors in enumerate(all_factors)
    ]
    results = solve_many(requests)
    regrets = []
    stable = 0
    for fixed, result in zip(fixed_latencies, results):
        best = result.latency
        regret = fixed / best - 1.0 if best > 0 else 0.0
        regrets.append(max(regret, 0.0))
        if regret <= 1e-9:
            stable += 1
    return SensitivityProfile(
        error_level=error_level,
        trials=trials,
        mean_regret=sum(regrets) / len(regrets),
        max_regret=max(regrets),
        structure_stable_fraction=stable / trials,
    )
