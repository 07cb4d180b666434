"""The builtin chaos plans the CI matrix replays on every PR.

Seeded scenarios, each aimed at a distinct recovery mechanism:

* ``worker-crash`` — shard-pool tasks and index node reads raise;
  exercised paths: bounded-backoff shard retries, the
  :class:`~repro.service.degrade.SessionGuard` error trip onto the
  exact fallback scan, and explicit ``shard_failed`` degradation when
  retries run dry.
* ``slow-shard`` — shard tasks and node reads stall; exercised paths:
  soft-deadline degradation of the index path and scans that simply
  wait out their stragglers.  Latency never changes data, so every
  response must stay exact.
* ``corrupt-checkpoint`` — checkpoint writes are torn, cache entries
  rot, restores hiccup once; exercised paths: CRC validation with
  quarantine-and-rebuild, result-cache integrity checksums, and
  restore retries.
* ``torn-block`` — one feature-store block suffers a torn read (plus
  transient block I/O and a slow open); exercised paths: the store's
  CRC quarantine, permanent-error fast-fail in the retry layer, and
  explicit ``store_block_corrupt`` degradation of the affected scans
  while every other shard keeps serving.
* ``batch-abort`` — micro-batch executions abort or stall mid-flight;
  exercised paths: the batching executor's lossless per-request serial
  fallback (a failed batch must not fail any query in it) and
  requests queueing behind a stalled batch.
* ``ann-descend`` — leaf reads of the tree's approximate search fail
  mid-search; exercised paths: the ANN tier's rescue by the exact
  sharded scan (pages stamped ``ann_fallback``, never an error), with
  surviving searches staying deterministic.

Plans are plain :class:`~repro.faults.plan.FaultPlan` values — replay
one with ``python -m repro.cli chaos --plan <name>`` or dump it with
``--save-plan`` to version a regression scenario.  The replay serves
each plan the way its sites need
(:func:`~repro.faults.replay.serving_mode`).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .plan import FaultPlan, FaultSpec

__all__ = ["BUILTIN_PLAN_NAMES", "builtin_plan"]


def _worker_crash(seed: int) -> Tuple[FaultSpec, ...]:
    return (
        # Half the shard-task attempts die; with 3 retry attempts most
        # shards recover (byte-identical results), a few exhaust the
        # budget and surface as explicitly degraded pages.
        FaultSpec("shard.scan", "error", probability=0.5, message="worker crashed"),
        # Rare node-read failures abort the index search, tripping the
        # session guard onto the exact fallback scan.
        FaultSpec("tree.node", "error", probability=0.02, max_fires=4, message="node read failed"),
    )


def _slow_shard(seed: int) -> Tuple[FaultSpec, ...]:
    return (
        # Straggling shards: the scan waits them out, so pages stay exact.
        FaultSpec("shard.scan", "latency", probability=0.5, latency_s=0.05),
        # Occasional slow node reads blow the soft deadline on the
        # index path without corrupting anything.
        FaultSpec("tree.node", "latency", probability=0.01, latency_s=0.01, max_fires=16),
    )


def _corrupt_checkpoint(seed: int) -> Tuple[FaultSpec, ...]:
    return (
        # Every second checkpoint write per session is torn mid-file.
        FaultSpec("checkpoint.save", "corrupt", every=2, message="torn write"),
        # The first restore read per session fails once (transient I/O);
        # the store's retry must absorb it.
        FaultSpec("checkpoint.restore", "error", at=(1,), message="transient read error"),
        # Result-cache rot: every third stored page is corrupted in
        # place; integrity checksums must catch it on read.
        FaultSpec("cache.put", "corrupt", every=3),
        # And sometimes the cache backend just errors outright.
        FaultSpec("cache.get", "error", every=7, message="cache backend error"),
    )


def _torn_block(seed: int) -> Tuple[FaultSpec, ...]:
    return (
        # The third read of one feature block is torn mid-page (late
        # enough that at least one scan completes clean first): the
        # store quarantines it permanently and every scan needing that
        # shard degrades to the surviving coverage, explicitly tagged
        # ``store_block_corrupt`` (the retry layer must *not* burn its
        # backoff budget on it).
        FaultSpec(
            "store.block_read",
            "corrupt",
            key="shard/0001",
            at=(3,),
            message="torn block read",
        ),
        # Transient I/O on other block reads: absorbed by the shard
        # retry, so affected responses stay exact.
        FaultSpec(
            "store.block_read",
            "error",
            probability=0.05,
            max_fires=4,
            message="transient block I/O",
        ),
        # A cold page cache makes the open itself sluggish once or twice.
        FaultSpec("store.open", "latency", probability=0.5, latency_s=0.01, max_fires=2),
    )


def _batch_abort(seed: int) -> Tuple[FaultSpec, ...]:
    return (
        # A large fraction of micro-batch executions abort outright.
        # Every member of an aborted batch must be re-served by the
        # per-request serial fallback, byte-identical to the fault-free
        # run — the executor is lossless under batch failure.
        FaultSpec(
            "batch.execute",
            "error",
            probability=0.4,
            message="batch executor aborted",
        ),
        # Straggling batches: injected latency holds a leader slot, so
        # later requests queue behind it, without changing any data:
        # responses stay exact.
        FaultSpec(
            "batch.execute",
            "latency",
            probability=0.2,
            latency_s=0.02,
            max_fires=8,
        ),
    )


def _ann_descend(seed: int) -> Tuple[FaultSpec, ...]:
    return (
        # A good fraction of approximate searches hit a bad leaf read
        # and abort; the engine must re-serve each one through the exact
        # sharded scan, stamped ``ann_fallback`` — announced rescue,
        # never a failed or silently-exact page.
        # Per *leaf* probability: a request reads a handful of leaves
        # (small collections: one or two), so this yields a healthy
        # minority of per-request aborts, not a blanket outage.
        FaultSpec(
            "index.descend",
            "error",
            probability=0.1,
            message="leaf read failed",
        ),
        # Slow leaf reads on the surviving searches: latency only, so
        # the leaves read — and therefore the pages — are unchanged.
        FaultSpec(
            "index.descend",
            "latency",
            probability=0.05,
            latency_s=0.002,
            max_fires=16,
        ),
    )


_BUILDERS = {
    "worker-crash": _worker_crash,
    "slow-shard": _slow_shard,
    "corrupt-checkpoint": _corrupt_checkpoint,
    "torn-block": _torn_block,
    "batch-abort": _batch_abort,
    "ann-descend": _ann_descend,
}

#: The plan names the CI chaos matrix iterates.
BUILTIN_PLAN_NAMES: Tuple[str, ...] = tuple(sorted(_BUILDERS))


def builtin_plan(name: str, seed: int = 0) -> FaultPlan:
    """The named builtin plan, seeded (raises ``KeyError`` on a typo)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin plan {name!r}; available: {list(BUILTIN_PLAN_NAMES)}"
        ) from None
    return FaultPlan(specs=builder(seed), seed=seed, name=name)


def builtin_plans(seed: int = 0) -> Dict[str, FaultPlan]:
    """All builtin plans keyed by name (one seed for the whole set)."""
    return {name: builtin_plan(name, seed) for name in BUILTIN_PLAN_NAMES}
