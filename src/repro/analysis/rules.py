"""The rule catalog: every check the analyzer can emit, in one table.

Rule ids are stable and prefixed by pass:

* ``Gxxx`` — pass 1, graph lint (:mod:`repro.analysis.graphlint`);
* ``Sxxx`` — pass 2, schedule/table verification
  (:mod:`repro.analysis.schedverify`);
* ``Fxxx`` — pass 2b, fleet packing verification
  (:mod:`repro.analysis.fleetverify`);
* ``Wxxx`` — pass 2c, workload service-requirement verification
  (:mod:`repro.workloads.verify`);
* ``Pxxx`` — pass 3, STM channel wiring (:mod:`repro.analysis.stmcheck`),
  and ``P002``, the capacity estimate pass 5 falls back on;
* ``Mxxx`` — pass 5, explicit-state model checking
  (:mod:`repro.analysis.model`).

The determinism rules (unseeded RNG, wall clock in a kernel) are not in
this catalog: they are a test over the package sources,
``tests/test_determinism_lint.py``.

Adding a rule is three steps: register it here (id, severity, description,
fix hint), emit it from the owning pass via ``report.add(rule_id, ...)``,
and add a seeded true-positive fixture in ``tests/analysis/`` proving the
rule catches its planted defect (the suite fails on cataloged rules with
no fixture).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Severity

__all__ = ["Rule", "RULES", "get_rule"]


@dataclass(frozen=True)
class Rule:
    """One catalog entry.

    ``severity`` is the default for findings of this rule; a pass may
    override per-occurrence (e.g. a gap that is provably benign drops to
    INFO).
    """

    id: str
    name: str
    severity: Severity
    description: str
    hint: str = ""


def _catalog(*rules: Rule) -> dict[str, Rule]:
    out: dict[str, Rule] = {}
    for r in rules:
        if r.id in out:
            raise ValueError(f"duplicate rule id {r.id}")
        out[r.id] = r
    return out


E, W, I = Severity.ERROR, Severity.WARNING, Severity.INFO

RULES: dict[str, Rule] = _catalog(
    # -- pass 1: graph lint --------------------------------------------------
    Rule("G001", "graph-cycle", E,
         "The streaming-precedence relation contains a cycle; no iteration "
         "can ever complete.",
         "break the cycle or mark a configuration channel static"),
    Rule("G002", "undeclared-channel", E,
         "A task references a channel the graph never declares.",
         "add_channel the missing ChannelSpec (or fix the typo)"),
    Rule("G003", "unwritten-channel", E,
         "A streaming channel has consumers but no producer; every consumer "
         "blocks forever on its first get.",
         "add the producing task or drop the dead input"),
    Rule("G004", "multi-producer", E,
         "A streaming channel has more than one producer; the application "
         "class requires single-writer streams (duplicate timestamps crash).",
         "split into one channel per producer"),
    Rule("G005", "orphan-channel", W,
         "A channel is declared but no task reads or writes it.",
         "delete the declaration or wire it up"),
    Rule("G006", "unreachable-task", E,
         "A non-source task can never receive data from any source, so it "
         "never fires and its consumers starve.",
         "connect it to the stream or remove it"),
    Rule("G007", "size-model-invalid", E,
         "A channel's item-size model fails or returns a non-int/negative "
         "size for a state in the state space, so communication costs (and "
         "the Figure 6 inputs) are undefined there.",
         "make the size model total over the state space"),
    Rule("G008", "static-produced", W,
         "A static (configuration) channel is produced by a task; statics "
         "are written once by the environment and induce no precedence, so "
         "a task writing one is almost always a mis-declared stream.",
         "drop static=True or produce a streaming channel instead"),
    Rule("G009", "chunk-kernel-mismatch", W,
         "Data-parallel chunk kernels and the DataParallelSpec disagree: "
         "chunk/join kernels without a spec are unreachable; a spec plus "
         "serial compute but no chunk kernels silently falls back to serial "
         "on the process runtime.",
         "pair compute_chunk/compute_join with a DataParallelSpec"),
    Rule("G010", "chunks-vs-width", W,
         "A data-parallel variant produces fewer chunks than workers for "
         "some state, leaving scheduled processors idle inside the "
         "placement.",
         "make chunks_for return at least the worker count"),
    Rule("G011", "dp-variant-dominated", I,
         "A data-parallel variant is never faster than the serial variant "
         "anywhere in the state space; the enumerator will explore it for "
         "nothing.",
         "drop the worker count or fix the chunk-cost model"),
    # -- pass 2: schedule / table verification -------------------------------
    Rule("S001", "schedule-task-set", E,
         "The schedule's task set differs from the graph's (a task is "
         "missing or unknown).",
         "rebuild the schedule from the current graph"),
    Rule("S002", "placement-proc-range", E,
         "A placement uses processor indices outside the cluster shape.",
         "rebuild the schedule for this cluster"),
    Rule("S003", "placement-overlap", E,
         "Two placements overlap in time on the same processor.",
         "rebuild the schedule; the optimizer never emits overlaps"),
    Rule("S004", "dp-spans-nodes", E,
         "A multi-worker placement spans SMP nodes; data-parallel variants "
         "are intra-node by construction (their chunks hand off in one node).",
         "rebuild with max_workers <= procs per node"),
    Rule("S005", "precedence-violation", E,
         "A task starts before a predecessor's end plus the communication "
         "delay between their primary processors.",
         "rebuild the schedule with the current comm model"),
    Rule("S006", "duration-mismatch", E,
         "A placement's duration disagrees with the cost model for its "
         "variant (including node speed), so the schedule was built from "
         "stale costs.",
         "rebuild the table after cost recalibration"),
    Rule("S007", "latency-mismatch", E,
         "The solution's claimed latency L differs from the value "
         "re-derived independently from its placements.",
         "rebuild the solution; do not edit latency fields by hand"),
    Rule("S008", "latency-below-bound", E,
         "The claimed latency is below the critical-path lower bound — the "
         "certificate proves the schedule cannot be real.",
         "rebuild the solution from the actual cost model"),
    Rule("S009", "pipeline-conflict", E,
         "Successive iterations of the pipelined schedule collide on a "
         "processor.",
         "increase the initiation interval or rebuild"),
    Rule("S010", "table-gap", E,
         "A state in the state space has no schedule-table entry; the "
         "switcher would raise ScheduleLookupError at the first regime "
         "change into it.",
         "rebuild the table over the full state space"),
    Rule("S011", "transition-unresolvable", E,
         "A transition policy fails to produce a valid effect for a "
         "reachable (old state, new state) pair.",
         "fix the policy or the schedules it inspects"),
    Rule("S012", "failover-gap", E,
         "A single-node-failure shape has no shape-table entry; a crash of "
         "that node would raise ShapeLookupError instead of failing over.",
         "rebuild the ShapeTable with max_node_failures >= 1"),
    Rule("S013", "gap-claim-invalid", E,
         "A schedule's optimality-gap certificate does not hold: the "
         "claimed lower bound is above the independently re-derived one, "
         "the claimed gap disagrees with latency/lower_bound - 1, or a "
         "bounded-rung schedule exceeds its promised (1+eps) factor.",
         "re-solve through repro.approx; never edit certificates by hand"),
    # -- pass 2b: fleet packing verification ----------------------------------
    Rule("F001", "fleet-capacity-overflow", E,
         "A fleet packing violates carve exclusivity or node capacity: a "
         "processor is granted to two tenants, a dead or out-of-range "
         "processor is carved out, a node hands out more processors than "
         "it has alive, or an admitted tenant's certificate no longer "
         "holds under its virtual sub-cluster.",
         "re-run FleetManager repack; the placer never emits overlaps"),
    # -- pass 2c: workload service-requirement verification -------------------
    Rule("W001", "throughput-infeasible", E,
         "An instance's source period is below the capacity lower bound "
         "(minimum per-iteration work over the machine's total speed), so "
         "no schedule by any method can sustain the arrival rate in some "
         "state.",
         "slow the source, shrink the work, or grow the cluster"),
    Rule("W002", "deadline-unachievable", E,
         "An instance's latency deadline is below the best-variant "
         "critical-path lower bound at the fastest node speed for some "
         "state; no schedule by any method can meet it.",
         "relax the deadline or reduce the critical path"),
    Rule("W003", "deadline-violated", E,
         "A concrete schedule's latency exceeds the instance's deadline in "
         "some state — the requirement is achievable (no W002) but this "
         "schedule misses it.",
         "re-solve with a tighter policy rung (lower epsilon or exact)"),
    # -- pass 3: STM channel wiring; P002 is pass 5's fallback ---------------
    Rule("P002", "capacity-insufficient", E,
         "The pipelined schedule keeps more items live on a channel than "
         "its declared capacity, and the model checker proved nothing "
         "about the configuration (budget exceeded, or no model could be "
         "built); the producer may block and the schedule slip or "
         "deadlock.",
         "raise the capacity above the schedule's in-flight count"),
    Rule("P003", "consume-leak", W,
         "A channel is produced but consumed by no task in any regime, and "
         "its producer has other consumed outputs — items accumulate "
         "forever (unbounded GC debt).",
         "consume it, or drop the dead output"),
    Rule("P004", "born-consumed-tryget", I,
         "A channel has concurrent consumers with no precedence between "
         "them; a consumer that skips ahead makes earlier timestamps arrive "
         "born-consumed, so non-blocking try_get reads silently miss.",
         "treat try_get misses as skips (never as errors) on this channel"),
    # -- pass 5: explicit-state model checking (repro.analysis.model) --------
    Rule("M001", "reachable-deadlock", E,
         "The model checker reached a state where tasks block on each "
         "other's channel operations in a cycle; the counterexample trace "
         "is a real interleaving that wedges the threaded runtime.",
         "raise the blocking channel's capacity or shrink the consume "
         "window; replay the trace with repro.analysis.replay to watch it"),
    Rule("M002", "progress-violation", E,
         "A task starves forever under any fair scheduling: the operation "
         "it waits for (a put of a skipped timestamp, a consume no agent "
         "has left) is in no agent's remaining program.",
         "align producer and consumer stride/offset declarations"),
    Rule("M003", "capacity-certificate", I,
         "The minimal-capacity certificate for a bounded channel: the "
         "least capacity under which no wedge is reachable, beside the "
         "schedule's slip-free in-flight count.  Declared capacity below "
         "the minimum is an ERROR (a reachable wedge); above both the "
         "minimum and the slip-free bound it is over-provisioned INFO.",
         "set capacity between the minimal safe value and the schedule's "
         "slip-free bound"),
    Rule("M004", "state-budget-exceeded", W,
         "Exploration hit the state-space budget before finishing; no "
         "deadlock-freedom claim is made for this configuration (the "
         "checker is explicit about what it did not prove).",
         "raise the budget, shorten the horizon, or check a smaller "
         "configuration"),
)


def get_rule(rule_id: str) -> Rule:
    """The catalog entry for ``rule_id`` (raises on unknown ids)."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise ValueError(f"unknown analysis rule {rule_id!r}") from None
