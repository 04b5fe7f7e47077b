"""Workload families and problem instances — the diversity suite's spine.

The color tracker was the only end-to-end application, so every mechanism
(policy ladder, fleet, faults, hot-path kernels) was validated against one
schedule shape.  A :class:`WorkloadFamily` packages a *class* of
constrained-dynamic applications the tracker never exercises — a
heterogeneous-platform blocked matrix multiply, a wide fan-in sensor-fusion
pipeline, a bursty web-inference graph — behind one uniform surface:

* ``generate(seed)`` draws a seeded, deterministic
  :class:`WorkloadInstance` (the dataset unit; frozen copies live under
  ``repro/workloads/data/``);
* ``build_graph(instance)`` / ``state_space(instance)`` /
  ``cluster(instance)`` produce exactly the Figure 6 inputs, so every
  existing mechanism (``ScheduleTable.build(policy=)``, substrates,
  analysis, fleet) runs a workload unchanged;
* ``attach_kernels(graph, instance)`` returns a live copy with real
  numpy compute kernels for the threaded/process substrates.

Instances carry *method-independent* service requirements — a latency
``deadline`` and a ``source_period`` (throughput demand) — that the
verifier (:mod:`repro.workloads.verify`) checks against certificates
re-derived from the graph and cluster alone, never from a solver artifact.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import GraphError
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.state import StateSpace

__all__ = [
    "WorkloadInstance",
    "WorkloadFamily",
    "FAMILIES",
    "get_family",
    "register_family",
]


@dataclass(frozen=True)
class WorkloadInstance:
    """One concrete problem instance of a workload family.

    Attributes
    ----------
    family:
        Family name (``"matmul"``, ``"fusion"``, ``"webinfer"``).
    name:
        Unique instance id, e.g. ``"matmul-s3"``.
    seed:
        Generator seed; ``params`` is a pure function of it, and the golden
        tests re-derive params from the seed to prove it.
    params:
        Family-specific generator output (block costs, sensor counts,
        arrival rates, ...).  JSON-serializable scalars only.
    deadline:
        Latency requirement in seconds: every state's single-iteration
        latency L must satisfy ``L <= deadline``.  ``None`` = no deadline.
    source_period:
        Throughput requirement: the source fires every ``source_period``
        seconds, so the pipelined initiation interval must keep up.
        ``None`` = free-running.
    expected_findings:
        Verifier rule ids this instance is *expected* to trigger — empty
        for feasible instances; deliberately infeasible dataset entries
        record e.g. ``("W002",)`` and the golden tests assert the verifier
        actually fails them.
    """

    family: str
    name: str
    seed: int
    params: dict = field(default_factory=dict)
    deadline: Optional[float] = None
    source_period: Optional[float] = None
    expected_findings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form (the frozen-dataset record)."""
        return {
            "family": self.family,
            "name": self.name,
            "seed": self.seed,
            "params": dict(self.params),
            "deadline": self.deadline,
            "source_period": self.source_period,
            "expected_findings": list(self.expected_findings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadInstance":
        return cls(
            family=data["family"],
            name=data["name"],
            seed=int(data["seed"]),
            params=dict(data.get("params", {})),
            deadline=data.get("deadline"),
            source_period=data.get("source_period"),
            expected_findings=tuple(data.get("expected_findings", ())),
        )


class WorkloadFamily(abc.ABC):
    """One class of constrained-dynamic applications.

    Subclasses define the graph shape, the regime variable, the platform
    and the seeded instance generator; everything downstream (tables,
    substrates, verifier, e2e workloads) is family-agnostic.
    """

    #: Family name; also the registry key and the dataset file stem.
    name: str = "abstract"
    #: The state variable that drives regime changes.
    regime_variable: str = ""

    @abc.abstractmethod
    def generate(self, seed: int, infeasible: bool = False) -> WorkloadInstance:
        """Draw a deterministic instance from ``seed``.

        ``infeasible=True`` produces an instance whose service
        requirements provably cannot be met — the verifier must fail it.
        """

    @abc.abstractmethod
    def build_graph(self, instance: WorkloadInstance) -> TaskGraph:
        """The instance's task graph (validated, cost models attached)."""

    @abc.abstractmethod
    def state_space(self, instance: WorkloadInstance) -> StateSpace:
        """The instance's regime space."""

    @abc.abstractmethod
    def cluster(self, instance: WorkloadInstance) -> ClusterSpec:
        """The platform the instance targets (may be heterogeneous)."""

    @abc.abstractmethod
    def attach_kernels(
        self, graph: TaskGraph, instance: WorkloadInstance
    ) -> tuple[TaskGraph, dict]:
        """A live copy of ``graph`` with numpy kernels + static inputs.

        Returns ``(live_graph, static_inputs)`` ready for
        ``StaticExecutor(runtime="threaded"|"process", static_inputs=...)``.
        Kernels are integer-exact so every substrate produces bitwise
        identical outputs (the conformance contract).
        """

    #: The task name carrying data-parallel variants (for dp conformance
    #: schedules); None when the family has no dp task.
    dp_task: Optional[str] = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(regime={self.regime_variable!r})"


#: The family registry; populated by the family modules at import time.
FAMILIES: dict[str, WorkloadFamily] = {}


def register_family(family: WorkloadFamily) -> WorkloadFamily:
    """Register a family instance under its name (idempotent per name)."""
    if not family.name or family.name == "abstract":
        raise GraphError("workload family needs a concrete name")
    FAMILIES[family.name] = family
    return family


def get_family(name: str) -> WorkloadFamily:
    """The registered family called ``name``."""
    # Importing the package registers the built-ins; do it lazily so a
    # family module can import this one without a cycle.
    from repro import workloads  # noqa: F401  (import side effect)

    try:
        return FAMILIES[name]
    except KeyError:
        raise GraphError(
            f"unknown workload family {name!r}; have {sorted(FAMILIES)}"
        ) from None
