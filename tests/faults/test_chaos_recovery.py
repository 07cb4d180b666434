"""The resilience contract, end to end.

Under every builtin fault plan, each page a caller receives is either
**byte-identical** to the fault-free run or **explicitly degraded**
with machine-readable :class:`ResultQuality` reasons — and replaying
the same plan reproduces the same behaviour bit for bit.

``REPRO_CHAOS_PLAN`` / ``REPRO_CHAOS_SCALE`` (see ``conftest.py``)
let CI split the matrix and the nightly job raise the workload size.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext

import numpy as np
import pytest

from repro.faults import activate_faults
from repro.faults.plans import builtin_plan
from repro.retrieval import SimulatedUser
from repro.service import RetrievalService

from .conftest import chaos_plan_names, chaos_scale

SCALE = chaos_scale()
K = 10


def run_workload(
    database,
    fault_plan,
    *,
    workload_seed=0,
    shards=4,
    store_path=None,
    batching=False,
    ann=False,
    use_index=False,
):
    """Round-robin query/feedback rounds.

    Returns ``(records, fire stats, metrics snapshot)``.

    With ``store_path`` the service is backed by that feature-store
    file (arming the ``store.*`` fault sites); the fault-free baseline
    must use the same path so both runs rank identical float32 bytes.
    With ``batching`` every ranking routes through the batching
    executor (arming the ``batch.execute`` site); the sequential
    workload yields micro-batches of one, which still traverse the
    full batch path.  With ``ann`` the service builds the tree's
    approximate tier and every request asks for it (arming the
    ``index.descend`` site, once per leaf a search reads).  With
    ``use_index`` exact pages come from the tree's multipoint search
    (arming the ``tree.node`` site, once per node a search opens).
    """
    from repro.store import FeatureStore

    rng = np.random.default_rng(workload_seed)
    query_ids = [
        int(q) for q in rng.integers(0, database.size, size=SCALE["sessions"])
    ]
    records = []
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        service = RetrievalService(
            FeatureStore.open(store_path) if store_path is not None else database,
            k=K,
            use_index=use_index,
            n_shards=shards,
            capacity=2,  # small: forces checkpoint evict/restore churn
            checkpoint_dir=checkpoint_dir,
            cache_size=32,
            batching=batching,
            ann=ann,
        )
        context = (
            activate_faults(fault_plan) if fault_plan is not None else nullcontext()
        )
        try:
            with context as active:
                session_ids = [
                    service.create_session(q, session_id=f"chaos-{i}")
                    for i, q in enumerate(query_ids)
                ]
                users = [
                    SimulatedUser(database, database.category_of(q))
                    for q in query_ids
                ]
                last_pages = {}
                for round_index in range(SCALE["iterations"] + 1):
                    for index, session_id in enumerate(session_ids):
                        record = {"key": (index, round_index)}
                        try:
                            if round_index == 0 or index not in last_pages:
                                page = service.query(session_id, approximate=ann)
                            else:
                                judgment = users[index].judge(last_pages[index].ids)
                                page = service.feedback(
                                    session_id,
                                    judgment.relevant_indices,
                                    judgment.scores,
                                    approximate=ann,
                                )
                        except Exception as error:
                            record["error"] = repr(error)
                        else:
                            last_pages[index] = page
                            record["ids"] = page.ids.tobytes()
                            record["distances"] = page.distances.tobytes()
                            record["quality"] = page.quality.level
                            record["reasons"] = page.quality.reasons
                        records.append(record)
                stats = active.stats() if active is not None else None
        finally:
            snapshot = service.metrics_snapshot()
            service.shutdown()
    return records, stats, snapshot


def check_contract(baseline, faulted):
    """Every faulted page: byte-identical, explicitly degraded, or errored.

    Approximate pages obey the same contract: the budgeted search is
    deterministic, so a healthy ANN page must match its fault-free ANN
    twin byte for byte, while an ``ann_fallback`` rescue is announced
    on the page and — because the exact scan's content can differ from
    the twin's approximate page — diverges the session from there on.
    """
    assert not any("error" in record for record in baseline)
    by_key = {record["key"]: record for record in baseline}
    counts = {"exact": 0, "approximate": 0, "fallback": 0, "degraded": 0, "error": 0}
    diverged = set()
    for record in faulted:
        session_index = record["key"][0]
        if "error" in record:
            # The caller saw the exception — nothing silent — but this
            # session's feedback trajectory now differs from baseline,
            # so its later pages are incomparable.
            counts["error"] += 1
            diverged.add(session_index)
            continue
        if session_index in diverged:
            continue
        reasons = record.get("reasons", ())
        if record["quality"] == "exact":
            counts["exact"] += 1
            comparable = True
        elif record["quality"] == "approximate" and "ann_fallback" not in reasons:
            assert reasons, "approximate page must carry reasons"
            counts["approximate"] += 1
            comparable = True
        elif "ann_fallback" in reasons:
            assert record["quality"] == "approximate"
            counts["fallback"] += 1
            diverged.add(session_index)
            comparable = False
        else:
            counts["degraded"] += 1
            assert record["quality"] == "degraded"
            assert record["reasons"], "degraded page must carry reasons"
            comparable = False
        if comparable:
            twin = by_key[record["key"]]
            assert record["ids"] == twin["ids"], record["key"]
            assert record["distances"] == twin["distances"], record["key"]
    return counts


@pytest.mark.parametrize("plan_name", chaos_plan_names())
@pytest.mark.parametrize("fault_seed", SCALE["seeds"])
def test_byte_identical_or_degraded(
    database, indexed_database, plan_name, fault_seed, tmp_path
):
    plan = builtin_plan(plan_name, seed=fault_seed)
    store_path = None
    if plan_name == "torn-block":
        # This plan targets the store.* sites, so the workload must be
        # served from an actual store file.
        from repro.store import build_store

        store_path = tmp_path / "chaos.qcs"
        build_store(database, store_path, n_shards=4)
    # batch-abort targets batch.execute, so both runs must route
    # rankings through the batching executor; ann-descend targets
    # index.descend, so both runs must serve from the ANN tier, over a
    # collection large enough that the tier reads only some rows.
    batching = plan_name == "batch-abort"
    ann = plan_name == "ann-descend"
    if ann:
        database = indexed_database
    baseline, _, _ = run_workload(
        database, None, store_path=store_path, batching=batching, ann=ann
    )
    faulted, stats, snapshot = run_workload(
        database, plan, store_path=store_path, batching=batching, ann=ann
    )
    counts = check_contract(baseline, faulted)
    assert stats["total_fires"] > 0, "plan never fired: workload too small"
    assert (
        counts["exact"] + counts["approximate"] > 0
    ), "no page survived to be byte-checked"
    if plan_name == "ann-descend":
        assert counts["fallback"] > 0, "no search failed: plan miswired"
        assert snapshot["ann"]["row_budget"] < database.size, "the tier read every row"
    if plan_name == "torn-block":
        degraded_reasons = {
            reason
            for record in faulted
            for reason in record.get("reasons", ())
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
    first, first_stats, _ = run_workload(database, plan, shards=1)
    second, second_stats, _ = run_workload(database, plan, shards=1)
    assert first == second
    assert first_stats["invocations"] == second_stats["invocations"]
    assert first_stats["by_site"] == second_stats["by_site"]


@pytest.mark.parametrize("plan_name", ["worker-crash", "slow-shard"])
@pytest.mark.parametrize("fault_seed", SCALE["seeds"])
def test_index_route_is_byte_identical_or_degraded(
    indexed_database, plan_name, fault_seed
):
    """The exact tree route under the plans that arm ``tree.node``: a
    failed node read trips the session onto the exact scan, a slow one
    only waits, and every page still matches its fault-free twin or is
    stamped degraded."""
    if plan_name not in chaos_plan_names():
        pytest.skip(f"REPRO_CHAOS_PLAN excludes {plan_name}")
    plan = builtin_plan(plan_name, seed=fault_seed)
    baseline, _, _ = run_workload(indexed_database, None, use_index=True)
    faulted, stats, snapshot = run_workload(indexed_database, plan, use_index=True)
    assert "tree.node" in stats["by_site"], "no node read was faulted"
    assert snapshot["counters"]["index_node_accesses"] > 0
    counts = check_contract(baseline, faulted)
    assert counts["exact"] > 0, "no page survived to be byte-checked"


def test_fault_free_run_is_all_exact(database):
    records, _, _ = run_workload(database, None)
    assert all(record.get("quality") == "exact" for record in records)


@pytest.mark.parametrize("plan_name", chaos_plan_names())
def test_faults_never_leak_out_of_activation(database, plan_name):
    """After a chaos workload the ambient state is fully disarmed."""
    from repro.faults import faults_active

    run_workload(
        database,
        builtin_plan(plan_name, seed=0),
        batching=plan_name == "batch-abort",
    )
    assert not faults_active()
    records, _, _ = run_workload(database, None)
    assert all(record.get("quality") == "exact" for record in records)
