"""The chaos replay behind ``cli chaos`` and the fault suite.

The workload is the paper's feedback loop (Alg. 1), round-robin across
a few sessions: rank a page, let a :class:`SimulatedUser` judge it, run
one Qcluster round.  :func:`replay` runs it fault-free and under a
:class:`FaultPlan`, and :func:`check_contract` holds every faulted page
to the resilience contract: byte-identical to its fault-free twin,
explicitly marked, or an error the caller saw.  Failures are reported,
never asserted.

The serving mode follows the plan's sites (:func:`serving_mode`).  Only
the exact tree route (``use_index``) is the caller's choice, because
the plans that arm ``tree.node`` arm ``shard.scan`` too.

The service stack imports this package for ``fault_point``, so the
service, store and retrieval classes are imported inside the functions.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .inject import activate_faults
from .plan import FaultPlan

#: Live-session capacity: small, so the round-robin workload forces
#: checkpoint evict/restore cycles.
CAPACITY = 2
#: Result-cache pages.
CACHE_SIZE = 32


@dataclass
class ChaosReport:
    """Page counts and contract violations of one faulted replay.

    ``exact`` and ``approximate`` pages were byte-checked against their
    twins; ``fallback`` pages are failed ANN searches the exact scan
    rescued; ``excluded`` pages follow a fallback or an error in their
    session, whose trajectory then differs from the baseline's.
    ``violations`` holds ``(key, reason)`` pairs, keyed by ``(session
    index, round)``.  :func:`replay` also fills in the fire stats, the
    metrics snapshot and the records of the faulted run.
    """

    exact: int = 0
    approximate: int = 0
    fallback: int = 0
    degraded: int = 0
    errored: int = 0
    excluded: int = 0
    baseline_errors: int = 0
    violations: List[Tuple[Tuple[int, int], str]] = field(default_factory=list)
    fires: Optional[Dict[str, Any]] = None
    snapshot: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = field(default_factory=list)


def serving_mode(plan: FaultPlan) -> FrozenSet[str]:
    """What the plan's sites need: ``store`` for a ``store.*`` site,
    ``batching`` for ``batch.execute``, ``ann`` for ``index.descend``."""
    sites = plan.sites
    modes = set()
    if any(site.startswith("store.") for site in sites):
        modes.add("store")
    if "batch.execute" in sites:
        modes.add("batching")
    if "index.descend" in sites:
        modes.add("ann")
    return frozenset(modes)


def run_workload(
    database,
    plan: Optional[FaultPlan],
    query_ids: Sequence[int],
    *,
    rounds: int,
    k: int,
    shards: int = 4,
    store_path: Optional[Path] = None,
    batching: bool = False,
    ann: bool = False,
    use_index: bool = False,
    tracer=None,
) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]], Dict[str, Any]]:
    """One sequential workload, under ``plan`` unless it is ``None``.

    Returns ``(records, fire stats, metrics snapshot)``.  A record holds
    the step's ``key`` and either its ``error`` or the page's id and
    distance bytes, quality level and reasons.  A baseline over a store
    must use the same ``store_path``, so both runs rank identical
    float32 bytes.  With ``batching`` the sequential workload yields
    micro-batches of one, which still take the whole batch path.  With
    ``ann`` every request asks for the ANN tier.
    """
    from ..retrieval import SimulatedUser
    from ..service import RetrievalService
    from ..store import FeatureStore

    records: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        service = RetrievalService(
            FeatureStore.open(store_path) if store_path is not None else database,
            k=k,
            use_index=use_index,
            n_shards=shards,
            capacity=CAPACITY,
            checkpoint_dir=checkpoint_dir,
            cache_size=CACHE_SIZE,
            batching=batching,
            ann=ann,
            tracer=tracer,
        )
        context = activate_faults(plan) if plan is not None else nullcontext(None)
        try:
            with context as active:
                session_ids = [
                    service.create_session(q, session_id=f"chaos-{i}")
                    for i, q in enumerate(query_ids)
                ]
                users = [
                    SimulatedUser(database, database.category_of(q)) for q in query_ids
                ]
                last_pages: Dict[int, Any] = {}
                for round_index in range(rounds + 1):
                    for index, session_id in enumerate(session_ids):
                        record: Dict[str, Any] = {"key": (index, round_index)}
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
                fires = active.stats() if active is not None else None
        finally:
            snapshot = service.metrics_snapshot()
            service.shutdown()
    return records, fires, snapshot


def check_contract(
    baseline: Sequence[Dict[str, Any]], faulted: Sequence[Dict[str, Any]]
) -> ChaosReport:
    """Hold each faulted page to the contract against its baseline twin.

    A healthy exact or approximate page must match its twin byte for
    byte (the budgeted ANN search is deterministic).  A degraded or
    approximate page must say why, and an ``ann_fallback`` rescue must
    be stamped approximate.
    """
    report = ChaosReport(baseline_errors=sum("error" in record for record in baseline))
    by_key = {record["key"]: record for record in baseline}
    diverged = set()
    for record in faulted:
        key = record["key"]
        if "error" in record:
            # The caller saw the exception, so nothing was silently
            # wrong — but the session's feedback trajectory now differs
            # from the baseline's, so its later pages are incomparable.
            report.errored += 1
            diverged.add(key[0])
            continue
        if key[0] in diverged:
            report.excluded += 1
            continue
        quality, reasons = record["quality"], record["reasons"]
        if quality in ("approximate", "degraded") and not reasons:
            report.violations.append((key, f"{quality} page without reasons"))
        if "ann_fallback" in reasons:
            # The exact scan's page differs from the twin's ANN page, so
            # the session's trajectory diverges from here on.
            report.fallback += 1
            diverged.add(key[0])
            if quality != "approximate":
                report.violations.append((key, f"ann_fallback page is {quality}"))
        elif quality == "degraded":
            report.degraded += 1
        elif quality not in ("exact", "approximate"):
            report.violations.append((key, f"unknown quality {quality!r}"))
        else:
            if quality == "exact":
                report.exact += 1
            else:
                report.approximate += 1
            twin = by_key[key]
            for part in ("ids", "distances"):
                if record[part] != twin[part]:
                    report.violations.append((key, f"{part} differ from the fault-free page"))
                    break
    return report


def replay(
    database,
    plan: FaultPlan,
    *,
    sessions: int = 4,
    rounds: int = 3,
    k: int = 10,
    seed: int = 0,
    shards: int = 4,
    use_index: bool = False,
    tracer=None,
) -> ChaosReport:
    """Replay ``sessions`` seeded sessions fault-free, then traced under ``plan``."""
    from ..store import build_store

    rng = np.random.default_rng(seed)
    query_ids = [int(q) for q in rng.integers(0, database.size, size=sessions)]
    mode = serving_mode(plan)
    options: Dict[str, Any] = dict(
        rounds=rounds,
        k=k,
        shards=shards,
        batching="batching" in mode,
        ann="ann" in mode,
        use_index=use_index,
    )
    with tempfile.TemporaryDirectory() as store_dir:
        if "store" in mode:
            options["store_path"] = Path(store_dir) / "chaos.qcs"
            build_store(database, options["store_path"], n_shards=shards)
        baseline, _, _ = run_workload(database, None, query_ids, **options)
        faulted, fires, snapshot = run_workload(
            database, plan, query_ids, tracer=tracer, **options
        )
    report = check_contract(baseline, faulted)
    report.fires, report.snapshot, report.records = fires, snapshot, faulted
    return report
