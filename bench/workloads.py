"""The four benchmark workloads: inputs, server configuration, sessions.

Everything a workload needs is a pure function of ``--seed``: the
clustered Gaussian collection (the generator of
:func:`repro.experiments.ann.build_database`), the file the server
loads it from (a ``.npy`` matrix or a QCSTORE1 ``.qcs`` store), and the
list of sessions the simulated users run.  ``serve.py`` and the serial
replay in ``run.py`` build their :class:`~repro.RetrievalService` from
the same :func:`build_service`, so the replay differs from the served
stack only in the scan backend, which is byte-identical by contract.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Page size of every request (the paper's and the ANN contract's k).
K = 20
#: Feedback rounds per session, as in the paper's protocol.
ROUNDS = 3
#: Exact re-reads after each approximate round on ``browse_ann``: the
#: first misses the result cache, the other two hit it.
REREADS = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration.

    Attributes:
        name: the workload's stable name (cited by later changes).
        why: one line on what the workload exercises.
        n_categories, points_per_category, dimensions: collection shape.
        store_shards: serve from a QCSTORE1 store with this many shards
            (``0`` serves an in-memory ``.npy`` matrix).
        coarse_dims: PCA-prefix companion width of the store.
        service: JSON-able :class:`~repro.RetrievalService` keywords.
        scheme: Qcluster covariance scheme.
        browse: run the approximate-write / exact-reread session shape.
    """

    name: str
    why: str
    n_categories: int
    points_per_category: int
    dimensions: int
    service: Dict[str, Any] = field(default_factory=dict)
    store_shards: int = 0
    coarse_dims: int = 0
    scheme: str = "diagonal"
    browse: bool = False

    @property
    def n(self) -> int:
        return self.n_categories * self.points_per_category


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="scan_diag",
            why=(
                "default diagonal Qcluster on the exact scan: store reads, "
                "process workers and batching; progressive filter ineligible"
            ),
            n_categories=48,
            points_per_category=4096,
            dimensions=64,
            store_shards=2,
            coarse_dims=8,
            service={
                "scan_backend": "processes",
                "use_index": False,
                "batching": True,
            },
        ),
        Workload(
            name="scan_inverse",
            why=(
                "inverse-covariance Qcluster: the only traffic where the "
                "progressive filter-and-refine runs and Alg. 3 merge dominates"
            ),
            n_categories=40,
            points_per_category=2500,
            dimensions=32,
            scheme="inverse",
            service={
                "scan_backend": "threads",
                "n_shards": 2,
                "use_index": False,
                "batching": True,
            },
        ),
        Workload(
            name="paper_index",
            why=(
                "the paper's own system (Fig. 7): HybridTree index search with "
                "a per-session node cache; bypasses batching, workers, progressive"
            ),
            n_categories=40,
            points_per_category=1000,
            dimensions=16,
            service={"use_index": True, "n_shards": 1},
        ),
        Workload(
            name="browse_ann",
            why=(
                "approximate feedback writes beside cheap exact re-reads: HTTP "
                "edge, session lease and result cache, plus the ANN tier's recall"
            ),
            n_categories=40,
            points_per_category=1000,
            dimensions=16,
            browse=True,
            service={"use_index": False, "n_shards": 1, "ann": True},
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path, tag: str = ""):
    """Write the server's input file; returns ``(path, database)``.

    The file is ``<directory>/<workload>-<tag><suffix>``.

    The :class:`~repro.FeatureDatabase` stays with the benchmark: its
    labels drive the simulated user's judgments and are never shown to
    the server.
    """
    from repro.experiments.ann import AnnSweepConfig, build_database
    from repro.store import build_store

    database = build_database(
        AnnSweepConfig(
            n_categories=workload.n_categories,
            points_per_category=workload.points_per_category,
            dimensions=workload.dimensions,
            seed=seed,
        )
    )
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".qcs" if workload.store_shards else ".npy"
    path = directory / f"{workload.name}-{tag}{suffix}"
    if workload.store_shards:
        build_store(
            database.vectors,
            path,
            n_shards=workload.store_shards,
            coarse_dims=workload.coarse_dims,
            epoch=0,
        )
    else:
        np.save(path, database.vectors)
    return path, database


def _qcluster(scheme: str):
    from repro import QclusterConfig, QclusterMethod

    return QclusterMethod(QclusterConfig(scheme=scheme))


def build_service(
    workload: Workload,
    path: Path,
    *,
    tracer=None,
    scan_backend: Optional[str] = None,
):
    """The :class:`~repro.RetrievalService` a workload serves.

    ``scan_backend`` overrides the workload's backend (the serial replay
    uses ``"threads"``); ``tracer`` is passed through unchanged.
    """
    from repro import RetrievalService
    from repro.store import FeatureStore

    options = dict(workload.service)
    if scan_backend is not None:
        options["scan_backend"] = scan_backend
    if workload.store_shards:
        database = FeatureStore.open(path)
    else:
        database = np.load(path)
    return RetrievalService(
        database,
        method_factory=functools.partial(_qcluster, workload.scheme),
        k=K,
        tracer=tracer,
        **options,
    )


def session_rows(workload: Workload, database, seed: int, count: int, stream: int = 1) -> List[int]:
    """The seeded query rows of the first ``count`` sessions.

    Sessions visit the categories in seeded shuffled rounds, so every
    category is searched equally often, and each starts from a seeded
    row among the half of its category nearest the category mean: the
    user holds a typical example of what they look for.  Both choices
    keep the per-session cost from being dominated by which outlier
    rows a seed happened to draw, so run-to-run spread measures the
    system, not the draw.
    """
    rng = np.random.default_rng([seed, stream])
    central = []
    for category in range(workload.n_categories):
        members = np.flatnonzero(database.labels == category)
        points = database.vectors[members]
        distance = np.linalg.norm(points - points.mean(axis=0), axis=1)
        central.append(members[np.argsort(distance, kind="stable")[: max(1, members.size // 2)]])
    order = np.concatenate(
        [rng.permutation(workload.n_categories) for _ in range(-(-count // workload.n_categories))]
    )[:count]
    return [int(rng.choice(central[category])) for category in order]


def judge(database, query_row: int, ids: List[int]) -> Tuple[List[int], List[float]]:
    """The simulated user's ``(relevant_ids, scores)`` for one page.

    A :class:`~repro.SimulatedUser` looking for the query row's category
    marks every same-category id on the page, as in the paper's protocol.
    """
    from repro import SimulatedUser

    judgment = SimulatedUser(database, database.category_of(query_row)).judge(ids)
    return (
        [int(i) for i in judgment.relevant_indices],
        [float(s) for s in judgment.scores],
    )
