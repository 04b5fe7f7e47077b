"""Benchmark: fleet capacity scaling and re-pack latency.

Two questions the fleet layer must answer with numbers rather than
design prose:

1. **How many concurrent tenants does a cluster sustain?**  Seeded kiosk
   waves are driven through :func:`repro.experiments.fleet_exp.run_fleet`
   over a ladder of cluster sizes; per size we record the peak
   concurrency, admission rate, utilization and the per-wave schedule
   cache hit rates (the cross-tenant amortization claim).
2. **What does one re-pack cost?**  Every fleet event (arrival,
   departure, regime change) triggers a full fair-share re-pack; its
   wall-clock latency must stay in the milliseconds so churn handling is
   negligible next to the table builds it reuses.

Timings use ``time.perf_counter`` inside the experiment driver so the
module runs under plain ``pytest``; set ``REPRO_BENCH_QUICK=1`` for the
CI smoke configuration.  Results land in ``benchmarks/out/BENCH_fleet.json``
(git-ignored) via the shared :mod:`_schema` envelope.
"""

from __future__ import annotations

import os

import pytest

from _schema import write_bench
from repro.experiments.fleet_exp import run_fleet
from repro.sim.cluster import ClusterSpec

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS: dict = {"quick": QUICK}

#: (nodes, procs_per_node) ladder; quick keeps CI under a few seconds.
LADDER = [(2, 4), (4, 4)] if QUICK else [(4, 4), (8, 4), (16, 4)]


@pytest.fixture(scope="module", autouse=True)
def _emit_summary():
    yield
    if "scaling" in RESULTS:
        out = write_bench("fleet", RESULTS)
        print(f"\nsummary written to {out}")


def _run(nodes: int, procs: int):
    scale = max(1, (nodes * procs) // 8)
    return run_fleet(
        cluster=ClusterSpec(nodes=nodes, procs_per_node=procs),
        wave_sizes=(6 * scale, 4 * scale) if QUICK else (8 * scale, 5 * scale),
        wave_gap=120.0,
        mean_dwell=200.0,
        seed=7,
    )


def test_fleet_scaling_ladder():
    """Peak concurrency grows with the cluster; packings stay certified."""
    rows = []
    prev_peak = 0
    for nodes, procs in LADDER:
        r = _run(nodes, procs)
        assert r.findings_errors == 0, "packing failed F001/S-rule verification"
        assert r.waves[1].cache_hits > 0, "wave 2 must reuse cached schedules"
        rows.append({
            "cluster": f"{nodes}x{procs}",
            "capacity": r.capacity,
            "offered": r.offered,
            "admitted": r.admitted,
            "admission_rate": r.admission_rate,
            "peak_concurrent": r.peak_concurrent,
            "mean_utilization": r.mean_utilization,
            "repacks": r.repacks,
            "repack_latency_mean_s": r.repack_latency_mean_s,
            "repack_latency_max_s": r.repack_latency_max_s,
            "wave_hit_rates": [w.hit_rate for w in r.waves],
        })
        assert r.peak_concurrent >= prev_peak, (
            "a bigger cluster must sustain at least as many tenants"
        )
        prev_peak = r.peak_concurrent
        print(
            f"\n  {nodes}x{procs}: peak={r.peak_concurrent} "
            f"admit={r.admission_rate:.2f} util={r.mean_utilization:.2f} "
            f"repack_mean={r.repack_latency_mean_s * 1e3:.2f}ms"
        )
    RESULTS["scaling"] = rows


def test_repack_latency_budget():
    """Churn handling must be cheap: mean re-pack under 50 ms.

    The bound is deliberately loose (CI containers are slow and single
    core); the recorded distribution is the real artifact.
    """
    nodes, procs = LADDER[-1]
    r = _run(nodes, procs)
    RESULTS["repack_latency"] = {
        "cluster": f"{nodes}x{procs}",
        "repacks": r.repacks,
        "mean_s": r.repack_latency_mean_s,
        "max_s": r.repack_latency_max_s,
    }
    assert r.repacks > 0
    assert r.repack_latency_mean_s < 0.05, (
        f"mean repack latency {r.repack_latency_mean_s * 1e3:.1f}ms exceeds budget"
    )
