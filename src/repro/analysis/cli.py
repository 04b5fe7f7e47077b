"""``python -m repro.analysis`` — analyze the repo's shipped artifacts.

The default target set covers everything the repository itself ships:

* the calibrated tracker graph (bare and with live kernels attached) and
  every builder graph the examples use — pass 1 (graph lint), pass 3
  (STM channel wiring) and pass 5 (explicit-state model checking with
  minimal-capacity certificates); one seeded instance per workload family
  and a small fleet tenant bank — pass 5;
* a schedule table for the tracker over its full state space — pass 2
  (schedule verification, including transition totality) plus pass 5
  over its schedules (the certificates quote their in-flight counts);
* a failover shape table — pass 2 coverage (``S012``) and the same
  model check over its degraded-shape solutions.

Every run is the whole sweep; ``--no-schedules`` leaves out the table
builds.

Pass 4 (the race detector) is dynamic and runs from the test suite and
the ``analysis=`` runtime hook, not from this CLI; the determinism lint
over the package sources is a test, ``tests/test_determinism_lint.py``.

Exit status: 0 when nothing gates, 1 when findings gate (ERROR, or
WARNING under ``--strict``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.findings import AnalysisReport
from repro.analysis.graphlint import lint_graph
from repro.analysis.model import check_model
from repro.analysis.rules import RULES
from repro.analysis.schedverify import verify_schedule_table, verify_shape_table
from repro.analysis.stmcheck import check_stm

__all__ = ["repo_report", "main"]


def _check_graph(graph, states, report: AnalysisReport) -> None:
    lint_graph(graph, states=states, report=report)
    check_stm(graph, report=report)
    check_model(graph, report=report)


def repo_report(schedules: bool = True, progress=None) -> AnalysisReport:
    """Analyze the repository's own artifacts; returns the full report.

    ``schedules=False`` skips the (slower) pass-2 table builds.
    """
    from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
    from repro.graph.builders import chain_graph, fork_join_graph, random_dag
    from repro.state import State, StateSpace

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    report = AnalysisReport()

    note("pass 1+3+5: tracker graph")
    tracker = build_tracker_graph()
    _check_graph(tracker, TRACKER_STATES, report)

    note("pass 1+3+5: live tracker graph (kernels attached)")
    try:
        from repro.apps.tracker.graph import attach_kernels
        from repro.apps.video import VideoSource

        live, _statics = attach_kernels(tracker, VideoSource(n_targets=2))
        _check_graph(live, TRACKER_STATES, report)
    except Exception as exc:  # numpy-free installs still get the other passes
        note(f"  skipped (kernels unavailable: {exc})")

    note("pass 1+3+5: builder graphs")
    demo_states = StateSpace.range("n_models", 1, 4)
    chain = chain_graph([1.0, 2.0, 1.0])
    for g in (
        chain,
        fork_join_graph(0.1, [1.0, 1.2, 0.8], 0.2),
        random_dag(n_tasks=8, seed=7, dp_prob=0.3),
    ):
        _check_graph(g, demo_states, report)

    # Structural lint of workload graphs belongs to their own family
    # verifiers (W rules); here they get the pass-5 protocol proof.
    note("pass 5: workload families")
    from repro.workloads import FAMILIES, load_dataset

    for fam_name, fam in sorted(FAMILIES.items()):
        inst = load_dataset(fam_name)[0]
        check_model(fam.build_graph(inst), report=report)

    note("pass 5: fleet tenant bank")
    from repro.fleet import Tenant, TenantSpec

    spec = TenantSpec(
        name="kiosk",
        graph=chain_graph([0.05, 0.1], name="kiosk"),
        space=StateSpace.range("n_models", 1, 2),
        initial=State(n_models=1),
        max_width=2,
    )
    tenant = Tenant(id="kiosk-0", spec=spec, state=spec.initial)
    bank = [sol for w in (1, 2) for sol in tenant.ensure_width(w).solutions()]
    check_model(spec.graph, solutions=bank, report=report)

    if schedules:
        from repro.core.optimal import OptimalScheduler
        from repro.core.table import ScheduleTable
        from repro.faults.failover import ShapeTable
        from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
        from repro.sim.network import CommModel

        note("pass 2+5: tracker schedule table (8 states)")
        cluster = SINGLE_NODE_SMP(4)
        comm = CommModel(cluster)
        table = ScheduleTable.build(
            tracker, TRACKER_STATES, OptimalScheduler(cluster, comm=comm)
        )
        verify_schedule_table(
            table, tracker, TRACKER_STATES, cluster, comm=comm, report=report
        )
        check_model(tracker, solutions=table.solutions(), report=report)

        note("pass 2+5: failover shape table")
        base = ClusterSpec(nodes=2, procs_per_node=2)
        shapes = ShapeTable.build(chain, State(n_models=1), base)
        verify_shape_table(shapes, chain, base, report=report)
        check_model(chain, solutions=shapes.solutions(), report=report)

    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the repo's graphs, schedules and STM protocol.",
    )
    parser.add_argument(
        "--strict", action="store_true", help="gate on warnings as well as errors"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the machine-readable report to PATH"
    )
    parser.add_argument(
        "--no-schedules",
        action="store_true",
        help="skip the schedule-table builds (structure and STM checks only)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.severity.name.lower():7s} {rule.name}")
            print(f"      {rule.description}")
        return 0

    def note(msg: str) -> None:
        if not args.quiet:
            print(msg, file=sys.stderr)

    report = repo_report(schedules=not args.no_schedules, progress=note)

    if args.json:
        Path(args.json).write_text(report.to_json() + "\n", encoding="utf-8")
        note(f"report written to {args.json}")

    print(report.summary())
    return 0 if report.ok(strict=args.strict) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
