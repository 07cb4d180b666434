"""The resilience contract, end to end.

Under every builtin fault plan, each page a caller receives is either
**byte-identical** to the fault-free run or **explicitly degraded**
with machine-readable :class:`ResultQuality` reasons — and replaying
the same plan reproduces the same behaviour bit for bit.

``REPRO_CHAOS_PLAN`` / ``REPRO_CHAOS_SCALE`` (see ``conftest.py``)
let CI split the matrix and the nightly job raise the workload size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import faults_active
from repro.faults.plans import BUILTIN_PLAN_NAMES, builtin_plan
from repro.faults.replay import check_contract, replay, run_workload, serving_mode

from .conftest import chaos_plan_names, chaos_scale

SCALE = chaos_scale()
K = 10


def chaos_replay(database, plan, **options):
    """:func:`replay` at this run's scale; asserts the contract held."""
    report = replay(
        database,
        plan,
        sessions=SCALE["sessions"],
        rounds=SCALE["iterations"],
        k=K,
        **options,
    )
    assert report.baseline_errors == 0
    assert report.violations == []
    return report


def fault_free_records(database):
    query_ids = np.random.default_rng(0).integers(0, database.size, SCALE["sessions"])
    records, _, _ = run_workload(
        database, None, [int(q) for q in query_ids], rounds=SCALE["iterations"], k=K
    )
    return records


@pytest.mark.parametrize("plan_name", chaos_plan_names())
@pytest.mark.parametrize("fault_seed", SCALE["seeds"])
def test_byte_identical_or_degraded(database, indexed_database, plan_name, fault_seed):
    # ann-descend is served from the ANN tier, over a collection large
    # enough that the tier reads only some rows.
    if plan_name == "ann-descend":
        database = indexed_database
    report = chaos_replay(database, builtin_plan(plan_name, seed=fault_seed))
    assert report.fires["total_fires"] > 0, "plan never fired: workload too small"
    assert report.exact + report.approximate > 0, "no page survived to be byte-checked"
    if plan_name == "ann-descend":
        assert report.fallback > 0, "no search failed: plan miswired"
        assert report.snapshot["ann"]["row_budget"] < database.size, "the tier read every row"
    if plan_name == "torn-block":
        degraded_reasons = {
            reason for record in report.records for reason in record.get("reasons", ())
        }
        assert "store_block_corrupt" in degraded_reasons


@pytest.mark.parametrize("plan_name", ["worker-crash", "corrupt-checkpoint"])
def test_replay_is_deterministic(database, plan_name):
    """Same plan, same workload → identical pages, qualities, and fires.

    ``slow-shard`` is excluded: latency faults interact with the real
    clock, so soft-deadline trips may differ run to run (its *pages* are
    still covered by the byte-identical test above).
    """
    if plan_name not in chaos_plan_names():
        pytest.skip(f"REPRO_CHAOS_PLAN excludes {plan_name}")
    plan = builtin_plan(plan_name, seed=0)
    first = chaos_replay(database, plan, shards=1)
    second = chaos_replay(database, plan, shards=1)
    assert first.records == second.records
    assert first.fires["invocations"] == second.fires["invocations"]
    assert first.fires["by_site"] == second.fires["by_site"]


@pytest.mark.parametrize("plan_name", ["worker-crash", "slow-shard"])
@pytest.mark.parametrize("fault_seed", SCALE["seeds"])
def test_index_route_is_byte_identical_or_degraded(indexed_database, plan_name, fault_seed):
    """The exact tree route under the plans that arm ``tree.node``: a
    failed node read trips the session onto the exact scan, a slow one
    only waits, and every page still matches its fault-free twin or is
    stamped degraded."""
    if plan_name not in chaos_plan_names():
        pytest.skip(f"REPRO_CHAOS_PLAN excludes {plan_name}")
    plan = builtin_plan(plan_name, seed=fault_seed)
    report = chaos_replay(indexed_database, plan, use_index=True)
    assert "tree.node" in report.fires["by_site"], "no node read was faulted"
    assert report.snapshot["counters"]["index_node_accesses"] > 0
    assert report.exact > 0, "no page survived to be byte-checked"


def test_fault_free_run_is_all_exact(database):
    records = fault_free_records(database)
    assert all(record.get("quality") == "exact" for record in records)


@pytest.mark.parametrize("plan_name", chaos_plan_names())
def test_faults_never_leak_out_of_activation(database, plan_name):
    """After a chaos workload the ambient state is fully disarmed."""
    replay(database, builtin_plan(plan_name, seed=0), k=K)
    assert not faults_active()
    records = fault_free_records(database)
    assert all(record.get("quality") == "exact" for record in records)


def test_serving_mode_follows_the_plan_sites():
    expected = {
        "torn-block": {"store"},
        "batch-abort": {"batching"},
        "ann-descend": {"ann"},
    }
    for name in BUILTIN_PLAN_NAMES:
        assert serving_mode(builtin_plan(name)) == expected.get(name, set()), name


def page(key, quality="exact", reasons=(), ids=b"ids", distances=b"dist"):
    return {"key": key, "ids": ids, "distances": distances, "quality": quality, "reasons": reasons}


BASELINE = [page((session, round_index)) for round_index in range(2) for session in range(2)]


def test_a_baseline_against_itself_breaks_nothing():
    report = check_contract(BASELINE, BASELINE)
    assert report.violations == []
    assert (report.exact, report.baseline_errors) == (4, 0)


@pytest.mark.parametrize(
    "bad, reason",
    [
        (page((1, 0), ids=b"other"), "ids differ from the fault-free page"),
        (page((1, 0), distances=b"other"), "distances differ from the fault-free page"),
        (page((1, 0), quality="degraded"), "degraded page without reasons"),
        (page((1, 0), quality="approximate"), "approximate page without reasons"),
        (
            page((1, 0), quality="degraded", reasons=("ann_fallback",)),
            "ann_fallback page is degraded",
        ),
    ],
)
def test_the_checker_reports_a_bad_page_with_its_reason(bad, reason):
    faulted = [bad if record["key"] == bad["key"] else record for record in BASELINE]
    report = check_contract(BASELINE, faulted)
    assert report.violations == [((1, 0), reason)]
