"""Golden-fixture regression tests over the frozen datasets (satellite c).

The files under ``src/repro/workloads/data/`` are the pinned artifacts:
they must stay byte-for-byte re-derivable from the generators, every
feasible entry must certify clean, and every deliberately infeasible
entry must keep failing with exactly its recorded findings.  A generator
edit that shifts any instance shows up here first — refresh consciously
with ``freeze_all()`` or revert.
"""

from __future__ import annotations

import json

import pytest

from repro.core.optimal import OptimalScheduler
from repro.core.table import ScheduleTable
from repro.workloads import get_family, load_all, load_dataset, regenerate
from repro.workloads.dataset import DATASET_SEEDS, dataset_path
from repro.workloads.verify import certify_instance, verify_workload_table

FAMILY_NAMES = ("matmul", "fusion", "webinfer")


@pytest.fixture(params=FAMILY_NAMES)
def family(request):
    return request.param


class TestFrozenFiles:
    def test_every_family_has_a_frozen_dataset(self):
        assert set(load_all()) >= set(FAMILY_NAMES)

    def test_file_matches_the_generators_exactly(self, family):
        """Byte-level pin: the frozen JSON is the regenerated JSON."""
        frozen = json.loads(dataset_path(family).read_text())
        derived = {
            "family": family,
            "seeds": list(DATASET_SEEDS),
            "instances": [inst.to_dict() for inst in regenerate(family)],
        }
        assert frozen == json.loads(json.dumps(derived))

    def test_load_equals_regenerate(self, family):
        assert load_dataset(family) == regenerate(family)

    def test_instance_names_unique(self, family):
        names = [inst.name for inst in load_dataset(family)]
        assert len(names) == len(set(names))


class TestExpectedFindings:
    def test_feasible_entries_certify_clean(self, family):
        feasible = [i for i in load_dataset(family) if not i.expected_findings]
        assert feasible, "dataset must carry feasible instances"
        for inst in feasible:
            report = certify_instance(inst)
            assert report.ok(), f"{inst.name}: {report.summary()}"

    def test_feasible_entries_verify_clean_on_every_rung(self, family):
        """Every rung's table passes the W+S pass with no error; exact never
        loses to list (HEFT) and bounded:0.5 stays within 1.5x of exact."""
        fam = get_family(family)
        for inst in (i for i in load_dataset(family) if not i.expected_findings):
            graph, space = fam.build_graph(inst), fam.state_space(inst)
            scheduler = OptimalScheduler(fam.cluster(inst))
            tables = {
                policy: ScheduleTable.build(graph, space, scheduler, policy=policy)
                for policy in ("exact", "bounded:0.5", "list")
            }
            for policy, table in tables.items():
                report = verify_workload_table(inst, table)
                assert report.counts().get("error", 0) == 0, (
                    f"{inst.name} on {policy}: {report.summary()}"
                )
            for state in space:
                exact = tables["exact"].lookup(state).latency
                assert exact <= tables["list"].lookup(state).latency + 1e-9
                assert tables["bounded:0.5"].lookup(state).latency <= 1.5 * exact + 1e-9

    def test_each_family_ships_an_infeasible_entry(self, family):
        broken = [i for i in load_dataset(family) if i.expected_findings]
        assert len(broken) >= 1

    def test_infeasible_entries_must_fail(self, family):
        """The recorded findings are reproduced — and the report gates."""
        for inst in (i for i in load_dataset(family) if i.expected_findings):
            report = certify_instance(inst)
            got = {f.rule for f in report.findings}
            assert set(inst.expected_findings) <= got, (
                f"{inst.name}: expected {inst.expected_findings}, got {sorted(got)}"
            )
            assert not report.ok(), f"{inst.name} certified clean but must fail"

    def test_findings_name_the_instance(self, family):
        for inst in (i for i in load_dataset(family) if i.expected_findings):
            report = certify_instance(inst)
            assert all(inst.name in f.location for f in report.findings)
