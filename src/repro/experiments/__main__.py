"""CLI: regenerate any paper table/figure from the command line.

    python -m repro.experiments table1
    python -m repro.experiments figure3
    python -m repro.experiments figure4
    python -m repro.experiments figure5
    python -m repro.experiments regime
    python -m repro.experiments ablations
    python -m repro.experiments faults
    python -m repro.experiments obs
    python -m repro.experiments fleet
    python -m repro.experiments all
    python -m repro.experiments all --output results.txt
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=["table1", "figure3", "figure4", "figure5", "regime",
                 "ablations", "frontier", "faults", "obs", "fleet", "all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller horizons/iterations for a fast sanity pass",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the report to FILE",
    )
    parser.add_argument(
        "--policy", choices=["exact", "bounded", "list"], default=None,
        help="solver-ladder rung for the fleet experiment's table builds "
             "(repro.approx; default exact). Approximate rungs cut "
             "admission latency and still pass F001/S013 verification",
    )
    args = parser.parse_args(argv)

    runners = {
        "table1": _table1,
        "figure3": _figure3,
        "figure4": _figure4,
        "figure5": _figure5,
        "regime": _regime,
        "ablations": _ablations,
        "frontier": _frontier,
        "faults": _faults,
        "obs": _obs,
        "fleet": _fleet,
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    chunks: list[str] = []
    for name in names:
        t0 = time.perf_counter()
        if name == "fleet":
            body = _fleet(args.quick, solve_policy=args.policy)
        else:
            body = runners[name](args.quick)
        chunk = (
            f"=== {name} ===\n{body}\n"
            f"--- {name} done in {time.perf_counter() - t0:.1f}s ---\n"
        )
        print(chunk)
        chunks.append(chunk)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n".join(chunks))
        print(f"report written to {args.output}")
    return 0


def _table1(quick: bool) -> str:
    from repro.experiments.table1 import run_table1

    return run_table1().render()


def _figure3(quick: bool) -> str:
    from repro.experiments.figure3 import DEFAULT_PERIODS, run_figure3

    periods = DEFAULT_PERIODS[::2] if quick else DEFAULT_PERIODS
    horizon = 60.0 if quick else 120.0
    return run_figure3(periods=periods, horizon=horizon).render()


def _figure4(quick: bool) -> str:
    from repro.experiments.figure4 import run_figure4

    return run_figure4(horizon=60.0 if quick else 120.0).render()


def _figure5(quick: bool) -> str:
    from repro.experiments.figure5 import run_figure5

    return run_figure5(iterations=8 if quick else 20).render()


def _regime(quick: bool) -> str:
    from repro.experiments.regime import run_regime

    return run_regime(horizon=900.0 if quick else 3600.0).render()


def _frontier(quick: bool) -> str:
    from repro.experiments.frontier_exp import run_frontier

    counts = (8,) if quick else (1, 4, 8)
    return run_frontier(model_counts=counts).render()


def _faults(quick: bool) -> str:
    from repro.experiments.faults_exp import run_faults

    rates = (0.0, 0.08) if quick else (0.0, 0.02, 0.08)
    return run_faults(rates=rates, iterations=20 if quick else 40).render()


def _obs(quick: bool) -> str:
    from repro.experiments.obs_exp import run_obs

    return run_obs(
        iterations=12 if quick else 24, overhead_frames=16 if quick else 32
    ).render()


def _fleet(quick: bool, solve_policy: str | None = None) -> str:
    from repro.experiments.fleet_exp import run_fleet
    from repro.sim.cluster import ClusterSpec

    if quick:
        return run_fleet(
            cluster=ClusterSpec(nodes=4, procs_per_node=4),
            wave_sizes=(12, 8),
            wave_gap=120.0,
            mean_dwell=200.0,
            solve_policy=solve_policy,
        ).render()
    return run_fleet(solve_policy=solve_policy).render()


def _ablations(quick: bool) -> str:
    from repro.experiments.ablations import render_all

    return render_all()


if __name__ == "__main__":
    sys.exit(main())
