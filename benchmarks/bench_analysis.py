"""Benchmark: the static verifier must be cheap next to what it verifies.

The ``verify=`` gates (ScheduleTable.build, ShapeTable.build) are only
free to leave on when the analysis passes cost a small fraction of the branch-and-bound work they certify.  This module times the
full gate — graph lint + schedule certificates + coverage + STM protocol —
against the table builds for the calibrated tracker, asserts the verifier
stays under 5% of the failover ShapeTable build (and under an absolute
per-state budget for the warm-started ScheduleTable build, whose prior
optimizations make a ratio there meaningless), and emits
``benchmarks/out/BENCH_analysis.json`` (git-ignored).

Timings use ``time.perf_counter`` directly so the module runs under plain
``pytest``; set ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration
(smaller cluster and state space, same assertions).
"""

from __future__ import annotations

import os
import time

import pytest

from _schema import write_bench
from repro.analysis import verify_schedule_table, verify_shape_table
from repro.core.optimal import OptimalScheduler
from repro.core.table import ScheduleTable
from repro.faults.failover import ShapeTable
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommCost, CommModel
from repro.state import State, StateSpace

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS: dict = {"quick": QUICK}

#: The gate must cost at most this fraction of the build it certifies.
MAX_VERIFY_FRACTION = 0.05

#: Absolute ceiling on one state's schedule certificate (seconds).  The
#: warm-started, dominance-pruned ScheduleTable build is so fast that a
#: ratio there would punish the *build* optimizations, so the per-state
#: certificate is bounded absolutely instead (the ratio is still recorded).
MAX_CERTIFICATE_S = 0.05


@pytest.fixture(scope="module", autouse=True)
def _emit_summary():
    yield
    out = write_bench("analysis", RESULTS)
    print(f"\nsummary written to {out}")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def test_schedule_table_verify_overhead(tracker_graph):
    """Per-state certificates for the tracker table, vs. building it.

    Uses the two-node cluster with a two-tier network — the configuration
    whose branch-and-bound is genuinely expensive — so the ratio compares
    the verifier against a build that earns its keep.
    """
    cluster = ClusterSpec(nodes=2, procs_per_node=4)
    comm = CommModel(
        cluster,
        intra_node=CommCost(latency=0.0005, bandwidth=1e9),
        inter_node=CommCost(latency=0.002, bandwidth=1e8),
    )
    space = StateSpace.range("n_models", 1, 3 if QUICK else 8)
    scheduler = OptimalScheduler(cluster, comm=comm)

    table, build_s = _timed(
        ScheduleTable.build, tracker_graph, space, scheduler
    )
    report, verify_s = _timed(
        verify_schedule_table, table, tracker_graph, space, cluster, comm=comm
    )
    assert not report.findings, report.summary()

    fraction = verify_s / build_s
    per_state = verify_s / len(table)
    RESULTS["schedule_table"] = {
        "states": len(table),
        "build_s": build_s,
        "verify_s": verify_s,
        "verify_fraction": fraction,
        "verify_per_state_s": per_state,
    }
    print(
        f"\nschedule table: build {build_s * 1e3:.1f}ms, "
        f"verify {verify_s * 1e3:.2f}ms ({fraction:.2%}, "
        f"{per_state * 1e3:.2f}ms/state)"
    )
    assert per_state < MAX_CERTIFICATE_S


def test_shape_table_verify_overhead(tracker_graph):
    """Failover coverage + certificates for the tracker shape table."""
    # Same cluster in quick mode: the per-shape sweep is the point of the
    # comparison, and at ~0.1s it is cheap enough for the CI smoke run.
    base = ClusterSpec(nodes=2, procs_per_node=4)
    state = State(n_models=2)

    table, build_s = _timed(ShapeTable.build, tracker_graph, state, base)
    report, verify_s = _timed(verify_shape_table, table, tracker_graph, base)
    assert not report.findings, report.summary()

    fraction = verify_s / build_s
    RESULTS["shape_table"] = {
        "shapes": len(table),
        "build_s": build_s,
        "verify_s": verify_s,
        "verify_fraction": fraction,
    }
    print(
        f"\nshape table: build {build_s * 1e3:.1f}ms, "
        f"verify {verify_s * 1e3:.2f}ms ({fraction:.2%})"
    )
    assert fraction < MAX_VERIFY_FRACTION


def test_model_check_overhead(tracker_graph):
    """Pass 5 (explicit-state model check) per shipped configuration.

    The model checker joined the ``verify=`` gates, so it lives under the
    same budget: one full ``check_model`` (exploration + per-channel
    minimal-capacity certificates) for every shipped configuration must
    stay inside the shape-table fraction the other gate passes are held
    to.  POR collapses the protocol's confluent interleavings to a single
    walk, which is what keeps the explored state counts (recorded below)
    in the tens rather than the exponential full product.
    """
    from repro.analysis import build_model, check_model
    from repro.workloads import FAMILIES, load_dataset

    base = ClusterSpec(nodes=2, procs_per_node=4)
    _table, build_s = _timed(
        ShapeTable.build, tracker_graph, State(n_models=2), base
    )

    configs = [("tracker", tracker_graph)]
    for name, fam in sorted(FAMILIES.items()):
        inst = load_dataset(name)[0]
        configs.append((name, fam.build_graph(inst)))

    per_config = {}
    total_s = 0.0
    for name, graph in configs:
        result = build_model(graph).explore()
        assert result.ok, f"{name}: {result.verdict}"
        report, check_s = _timed(check_model, graph)
        assert not [f for f in report.findings if f.severity.name == "ERROR"]
        total_s += check_s
        per_config[name] = {
            "states": result.states,
            "transitions": result.transitions,
            "horizon": result.horizon,
            "check_wall_s": check_s,
        }
        print(
            f"\nmodel check [{name}]: {result.states} states, "
            f"{result.transitions} transitions, {check_s * 1e3:.2f}ms"
        )

    fraction = total_s / build_s
    RESULTS["model_check"] = {
        "configs": per_config,
        "total_wall_s": total_s,
        "shape_build_s": build_s,
        "verify_fraction": fraction,
    }
    print(f"model check total: {total_s * 1e3:.2f}ms ({fraction:.2%} of build)")
    assert fraction < MAX_VERIFY_FRACTION
