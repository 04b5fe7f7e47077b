"""Static analysis & concurrency checking for schedules, graphs and STM.

Four passes, one report model (numbered 1-3 and 5: the retired pass 4, a
dynamic race checker, watched only channel critical sections that each
channel's own lock already orders):

1. **Graph lint** (:func:`lint_graph`) — structural rules ``Gxxx``:
   cycles, dangling channels, unreachable tasks, data-parallel
   consistency.
2. **Schedule verification** (:func:`verify_solution`,
   :func:`verify_schedule_table`, :func:`verify_shape_table`) — rules
   ``Sxxx``: placement legality, precedence feasibility, independent
   re-derivation of the claimed latency L, table totality and failover
   coverage.  Its fleet extension (:func:`verify_packing`, rule ``F001``)
   re-checks carve exclusivity and shared-node capacity across tenants,
   then re-certifies every admitted tenant's schedule under its virtual
   sub-cluster.
3. **STM channel wiring** (:func:`check_stm`) — rules ``P003`` /
   ``P004``: consume leaks and born-consumed ``try_get`` hazards.
5. **Explicit-state model checking** (:func:`check_model`) — rules
   ``Mxxx``: the (graph, capacity, consume-declaration) configuration
   compiled into a finite transition system and exhaustively explored;
   reachable deadlocks come back with minimized counterexample traces
   (validated against the real threaded runtime by :func:`replay_trace`),
   and bounded channels get minimal-capacity certificates that quote the
   schedule's in-flight count (:func:`schedule_in_flight`).  Where the
   exploration proves nothing (budget exceeded), that count gates as
   ``P002``.

The determinism lint (unseeded RNGs, wall-clock reads inside kernels) is a
test over the package sources, ``tests/test_determinism_lint.py``.

Passes 1-3 and 5 are wired into :meth:`ScheduleTable.build` /
:meth:`ShapeTable.build` behind their opt-in ``verify=`` parameter, and
all four into CI as ``python -m repro.analysis --strict``; an
executor's inputs go through the same functions called directly.
See ``docs/TUTORIAL.md`` §12 for the workflow, §16
for reading model-checker counterexamples.
"""

from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.fleetverify import verify_packing
from repro.analysis.graphlint import lint_graph
from repro.analysis.model import (
    ChannelDecl,
    ModelResult,
    Step,
    StmModel,
    build_model,
    check_model,
    minimal_capacity,
    schedule_in_flight,
)
from repro.analysis.replay import ReplayOutcome, replay_trace
from repro.analysis.rules import RULES, Rule, get_rule
from repro.analysis.schedverify import (
    verify_schedule_table,
    verify_shape_table,
    verify_solution,
)
from repro.analysis.stmcheck import check_stm

__all__ = [
    "AnalysisReport",
    "Finding",
    "Severity",
    "Rule",
    "RULES",
    "get_rule",
    "lint_graph",
    "verify_solution",
    "verify_schedule_table",
    "verify_shape_table",
    "verify_packing",
    "check_stm",
    "schedule_in_flight",
    "ChannelDecl",
    "Step",
    "StmModel",
    "ModelResult",
    "build_model",
    "check_model",
    "minimal_capacity",
    "ReplayOutcome",
    "replay_trace",
]
