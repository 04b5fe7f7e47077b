"""LazyScheduleTable: demand fill and the duck-typed table surface."""

from __future__ import annotations

import pytest

from repro.approx import LazyScheduleTable
from repro.core.cache import ScheduleCache
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.serialize import solution_to_dict
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.errors import ScheduleLookupError
from repro.graph.builders import chain_graph, random_dag
from repro.obs import Observability
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace

SPACE = StateSpace.range("n_models", 1, 5)


@pytest.fixture(scope="module")
def chain():
    return chain_graph([1.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def smp2():
    return SINGLE_NODE_SMP(2)


def make_lazy(graph, cluster, **kwargs):
    return LazyScheduleTable(graph, SPACE, OptimalScheduler(cluster), **kwargs)


# A bound borrowed from an already-solved state would change ``explored`` on
# the random DAG, so a look-up order could change what a table stores.
EAGER_CASES = [
    (chain_graph([1.0, 1.0, 1.0]), SINGLE_NODE_SMP(2)),
    (random_dag(5, 7, dp_prob=0.3), ClusterSpec(1, 3)),
]


def test_fills_on_demand_and_matches_eager():
    """Look-ups in any order store the bytes an eager build stores."""
    for graph, cluster in EAGER_CASES:
        lazy = make_lazy(graph, cluster)
        eager = ScheduleTable.build(graph, SPACE, OptimalScheduler(cluster))
        assert len(lazy) == 0
        for state in SPACE:
            assert solution_to_dict(lazy.lookup(state)) == solution_to_dict(
                eager.lookup(state)
            )
        assert len(lazy) == len(SPACE)


def test_second_lookup_is_a_hit_not_a_resolve(chain, smp2):
    lazy = make_lazy(chain, smp2)
    first = lazy.lookup(State(n_models=2))
    assert lazy.lookup(State(n_models=2)) is first


def test_out_of_space_states_still_raise(chain, smp2):
    lazy = make_lazy(chain, smp2)
    assert State(n_models=99) not in lazy
    with pytest.raises(ScheduleLookupError):
        lazy.lookup(State(n_models=99))


def test_contains_means_solvable_not_solved(chain, smp2):
    lazy = make_lazy(chain, smp2)
    assert State(n_models=4) in lazy  # laziness never narrows coverage
    assert lazy.states() == []


def test_lazy_through_shared_cache(chain, smp2, tmp_path):
    cache = ScheduleCache(tmp_path / "sched")
    a = make_lazy(chain, smp2, cache=cache)
    b = make_lazy(chain, smp2, cache=cache)
    sol_a = a.lookup(State(n_models=1))
    sol_b = b.lookup(State(n_models=1))
    assert cache.stats.hits == 1
    assert solution_to_dict(sol_a) == solution_to_dict(sol_b)


def test_observability_counters(chain, smp2):
    obs = Observability()
    lazy = make_lazy(chain, smp2, obs=obs)
    lazy.lookup(State(n_models=2))
    lazy.lookup(State(n_models=2))
    assert lazy.states() == [State(n_models=2)]  # the state asked for, only
    snap = obs.snapshot()
    lazy_counts = {
        tuple(s["labels"].values()): s["value"]
        for s in snap["repro_approx_lazy_total"]["series"]
    }
    assert lazy_counts == {("miss",): 1, ("hit",): 1}
    solves = {
        tuple(s["labels"].values()): s["value"]
        for s in snap["repro_approx_solves_total"]["series"]
    }
    assert solves == {("exact",): 1}  # the miss, and nothing else


def test_regime_switcher_takes_a_lazy_table(chain, smp2):
    """The on-line §3.4 component works unchanged on a lazy table."""
    detector = RegimeDetector("n_models", State(n_models=1), confirm=1)
    switcher = RegimeSwitcher(make_lazy(chain, smp2), detector)
    record = switcher.observe(1.0, 3)
    assert record is not None
    assert switcher.active.state == State(n_models=3)
