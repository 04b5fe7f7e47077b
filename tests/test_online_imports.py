"""The on-line half imports no solver.

The paper's method is two programs joined by a table: off-line, one
schedule is pre-computed per state; on-line, the run only detects, looks
up and switches.  This test holds the import graph to that split.  The
test process builds the tracker table and writes it with
``table_to_json``; then one fresh interpreter per substrate loads the file
with ``table_from_json``, runs one entry through ``StaticExecutor(...,
runtime=...)`` with ``obs=None`` (the default) and reports
``sys.modules`` and what the run produced.  No solver, baseline
scheduler, solver ladder, analyzer or experiment module may have been
loaded, and the run from the file must equal the same entry run in memory:
terminal outputs and ``channel_stats`` on every substrate (the DES reports
neither, so both are empty there) and, on the DES, completion times by
``float.hex()``.

The same file is the child program: ``python tests/test_online_imports.py
TABLE SUBSTRATE OUT`` runs :func:`run_entry` on the table file and pickles
its report to ``OUT``.  Its module-level imports are therefore on-line
modules only; the solver is imported inside the fixture that builds the
table.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.serialize import table_from_json, table_to_json
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import ClusterSpec
from repro.state import State, StateSpace

pytestmark = pytest.mark.slow

FRAMES = 6
STATE = State(n_models=2)
CLUSTER = ClusterSpec(nodes=2, procs_per_node=2)
SUBSTRATES = ("sim", "threaded", "process")

#: Modules a run from a table file must not load: the Figure 6 solver and
#: what only the off-line half uses (cache, frontier, sensitivity), the
#: baseline schedulers, the solver ladder, the analyzer and the experiments.
SOLVER_MODULES = tuple(
    f"repro.core.{name}"
    for name in ("enumerate", "pipeline", "parallel", "optimal", "cache",
                 "frontier", "sensitivity")
)
SOLVER_PACKAGES = ("repro.sched", "repro.approx", "repro.analysis", "repro.experiments")


def tracker_graph():
    return build_tracker_graph(frame_shape=(48, 64))


def run_entry(table, substrate: str) -> dict:
    """Run ``table``'s entry for :data:`STATE` on ``substrate``; what it made."""
    video = VideoSource(n_targets=2, height=48, width=64, seed=11)
    graph, statics = attach_kernels(tracker_graph(), video)
    solution = table.lookup(STATE)
    result = StaticExecutor(graph, solution.state, CLUSTER, solution,
                            runtime=substrate, static_inputs=statics).run(FRAMES)
    return {
        "outputs": result.meta.get("outputs", {}),
        "channel_stats": result.meta.get("channel_stats", {}),
        "completed": result.completed,
        "completion_hex": (
            {ts: t.hex() for ts, t in result.completion_times.items()}
            if substrate == "sim" else None
        ),
    }


def offending(modules) -> list[str]:
    """The loaded modules the on-line half must not import."""
    return sorted(
        name for name in modules
        if name in SOLVER_MODULES
        or any(name == pkg or name.startswith(pkg + ".") for pkg in SOLVER_PACKAGES)
    )


@pytest.fixture(scope="module")
def table():
    from repro.core.optimal import OptimalScheduler
    from repro.core.table import ScheduleTable

    return ScheduleTable.build(tracker_graph(), StateSpace.range("n_models", 1, 3),
                               OptimalScheduler(CLUSTER))


@pytest.fixture(scope="module")
def table_file(table, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("online") / "tracker-table.json"
    path.write_text(table_to_json(table))
    return path


def run_from_file(table_file: Path, substrate: str, tmp_path: Path) -> dict:
    out = tmp_path / f"{substrate}.pkl"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    subprocess.run(
        [sys.executable, __file__, str(table_file), substrate, str(out)],
        env=env, check=True, timeout=300,
    )
    return pickle.loads(out.read_bytes())


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_a_run_from_a_table_file_loads_no_solver(table, table_file, substrate, tmp_path):
    child = run_from_file(table_file, substrate, tmp_path)
    assert "repro.core.serialize" in child["modules"]
    assert "repro.runtime.static_exec" in child["modules"]
    assert offending(child["modules"]) == []
    in_memory = run_entry(table, substrate)
    assert child["run"]["completed"] == in_memory["completed"] == list(range(FRAMES))
    assert child["run"]["outputs"] == in_memory["outputs"]
    assert child["run"]["channel_stats"] == in_memory["channel_stats"]
    assert child["run"]["completion_hex"] == in_memory["completion_hex"]
    if substrate != "sim":
        assert sorted(in_memory["outputs"]["model_locations"]) == list(range(FRAMES))


def main(table_path: str, substrate: str, out_path: str) -> None:
    with open(table_path) as fh:
        table = table_from_json(fh.read())
    run = run_entry(table, substrate)
    modules = sorted(name for name in sys.modules if name.startswith("repro"))
    with open(out_path, "wb") as fh:
        pickle.dump({"modules": modules, "run": run}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
