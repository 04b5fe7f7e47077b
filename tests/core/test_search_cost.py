"""What Figure 6 costs per node, per leaf and per member of S — as counts.

The timing side lives in ``benchmarks/e2e`` (``offline_cold``); these are the
counts behind it, which repeat exactly: the search builds no ``Placement``
(a kept leaf is the search's rows) and step 3 builds the placements of the
members that reach ``best()`` and of no other, a transfer delay is
asked of the communication model once per (edge, src, dst), the exact search
stops looking for ties once the set is full, and step 3's incumbent screen
builds no unbounded candidate list.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.enumerate import search_schedules
from repro.core.optimal import OptimalScheduler, solution_from_enumeration
from repro.core.parallel import execute_request, incumbent_of, make_request
from repro.core.pipeline import PipelineSearch
from repro.core.schedule import IterationSchedule, Placement
from repro.graph.builders import random_dag
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State
from repro.workloads import get_family, load_dataset

E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
#: Above the fusion state's |S| = 552: the set never fills, the whole tree.
UNCAPPED = 1_000


def _fusion_problem():
    """A frozen fusion state with 552 optimal schedules of six tasks."""
    family = get_family("fusion")
    inst = load_dataset("fusion")[0]
    graph, cluster = family.build_graph(inst), family.cluster(inst)
    return graph, family.state_space(inst)[0], cluster


def test_a_full_set_stops_the_search_for_ties():
    """At the default cap the fusion state counts |S| up to 64 and visits
    under a fifth of the nodes the whole tree has; L and the bound are the same."""
    graph, state, cluster = _fusion_problem()
    capped, whole = (
        execute_request(make_request(
            graph, state, cluster, mode="enumerate", max_solutions=cap,
        ))
        for cap in (64, UNCAPPED)
    )
    assert whole.optimal_count == len(whole.schedules) == 552
    assert capped.optimal_count == len(capped.schedules) == 64
    assert 5 * capped.explored < whole.explored
    assert capped.latency.hex() == whole.latency.hex()
    assert capped.lower_bound.hex() == whole.lower_bound.hex()


def test_schedule_objects_are_built_for_kept_leaves_only(monkeypatch):
    """A DAG where ties still reach the record step after the set is full
    (22 of them at cap 2): the search builds no ``Placement`` at all — a kept
    leaf is its rows — and step 3 builds the placements of the members that
    reach ``best()``, the winner among them, and of no other."""
    cap = 2
    graph, cluster = random_dag(7, 33, dp_prob=0.3), ClusterSpec(1, 2)
    request = make_request(graph, State(n_models=4), cluster, max_solutions=cap)
    incumbent, _ = incumbent_of(request)  # HEFT's own placements, not counted
    built = [0]
    searched: list[IterationSchedule] = []
    post_init, best = Placement.__post_init__, PipelineSearch.best

    def counting_post_init(self):
        built[0] += 1
        post_init(self)

    def recording_best(self, *args, **kwargs):
        searched.append(self.iteration)
        return best(self, *args, **kwargs)

    monkeypatch.setattr(Placement, "__post_init__", counting_post_init)
    monkeypatch.setattr(PipelineSearch, "best", recording_best)
    result = search_schedules(
        request.problem, request.state, cluster, max_solutions=cap,
        incumbent=incumbent,
    )
    assert result.optimal_count > cap == len(result.schedules)
    assert result.explored > 10 * cap
    assert built[0] == 0
    solution = solution_from_enumeration(result, cluster)
    assert built[0] == len(searched) * len(graph.task_names)
    assert any(solution.iteration is member for member in searched)
    for member in result.schedules:
        reached = any(member is other for other in searched)
        assert ("placements" in vars(member)) == reached


def test_transfer_time_is_asked_once_per_edge_and_processor_pair(monkeypatch):
    graph, state, cluster = _fusion_problem()
    asked: list[tuple] = []
    transfer_time = CommModel.transfer_time

    def counting(self, nbytes, src, dst):
        asked.append((nbytes, src, dst))
        return transfer_time(self, nbytes, src, dst)

    request = make_request(
        graph, state, cluster, mode="enumerate", max_solutions=UNCAPPED,
    )
    monkeypatch.setattr(CommModel, "transfer_time", counting)
    result = execute_request(request)
    assert len(result.schedules) < UNCAPPED
    pairs = len(request.problem.edge_bytes) * cluster.total_processors ** 2
    assert result.explored > pairs  # one call a placement tried would be more
    assert 0 < len(asked) <= pairs


def test_the_screen_builds_no_unbounded_candidate_list(monkeypatch):
    """An unbounded list exists only on a member whose ``best()`` ran: each
    state's first member plus those that pass the screen.  The rotation
    tables exist only where the relaxed collision screen could not rule the
    member out (or ``best()`` ran), so a table built eagerly fails here."""
    if str(E2E_DIR) not in sys.path:  # workloads imports its siblings by bare name
        sys.path.insert(0, str(E2E_DIR))
    import workloads

    searches: list[PipelineSearch] = []
    searched: set[int] = set()
    init, best = PipelineSearch.__init__, PipelineSearch.best

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        searches.append(self)

    def recording_best(self, *args, **kwargs):
        searched.add(id(self))
        return best(self, *args, **kwargs)

    monkeypatch.setattr(PipelineSearch, "__init__", recording_init)
    monkeypatch.setattr(PipelineSearch, "best", recording_best)
    states = 0
    for item in workloads.offline_instances(8):
        scheduler = OptimalScheduler(item["cluster"])
        for state in item["space"]:
            scheduler.solve(item["graph"], state)
            states += 1
    assert len(searches) == 2041
    assert len(searched) == 123 and len(searched) >= states
    assert sum("_tables" in vars(search) for search in searches) == 299
    for search in searches:
        assert bool(search._candidates) == (id(search) in searched)
        assert ("placements" in vars(search.iteration)) == (id(search) in searched)
