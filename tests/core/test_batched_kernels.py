"""Batched scan kernels: bitwise identity with their solo counterparts.

The micro-batching executor may only coalesce queries because the
kernel layer guarantees *bitwise* reproducibility: scoring a query
inside a batch makes exactly the same per-tile kernel calls as scoring
it alone.  That holds structurally — `batch_tile_bounds` is a pure
function of the matrix geometry, never of the batch — and these tests
pin the structure and the resulting bytes, including the degenerate
tail shapes where a naive tiling would change BLAS code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels as kernels_module
from repro.core.kernels import (
    batch_tile_bounds,
    batched_per_cluster_distances,
    compile_query,
)
from repro.core.progressive import exact_top_k
from repro.parallel import scan_shard_topk, scan_shard_topk_batch

from .test_kernels import random_query


class TestBatchTileBounds:
    @pytest.mark.parametrize("n,p", [(1, 4), (7, 3), (1000, 16), (50_000, 64)])
    def test_tiles_cover_rows_contiguously(self, n, p):
        bounds = batch_tile_bounds(n, p)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_short_tail_is_merged_into_the_previous_tile(self):
        tile = kernels_module._BATCH_TILE_ELEMENTS // 64
        bounds = batch_tile_bounds(tile + 1, 64)
        # Not a 1-row trailing tile (whose GEMV would take a different
        # BLAS accumulation path than the same row inside a panel).
        assert bounds == [(0, tile + 1)]

    def test_exact_multiple_keeps_full_tiles(self):
        tile = kernels_module._BATCH_TILE_ELEMENTS // 32
        bounds = batch_tile_bounds(3 * tile, 32)
        assert bounds == [(0, tile), (tile, 2 * tile), (2 * tile, 3 * tile)]

    def test_every_tile_is_at_least_full_height(self):
        tile = kernels_module._BATCH_TILE_ELEMENTS // 48
        for n in (2 * tile - 1, 2 * tile + 1, 5 * tile + tile // 2):
            for start, stop in batch_tile_bounds(n, 48):
                assert stop - start >= tile

    def test_wide_rows_shrink_the_tile(self):
        narrow = batch_tile_bounds(100_000, 8)
        wide = batch_tile_bounds(100_000, 512)
        assert len(wide) > len(narrow)


class TestBatchedPerClusterDistances:
    @pytest.mark.parametrize("scheme", ["diagonal", "inverse"])
    def test_matches_solo_compiled_evaluation(self, scheme):
        rng = np.random.default_rng(17)
        database = 3.0 * rng.standard_normal((400, 10))
        queries = [
            compile_query(random_query(rng, scheme, g=g, p=10)) for g in (1, 2, 3)
        ]
        batched = batched_per_cluster_distances(queries, database)
        for compiled, matrix in zip(queries, batched):
            np.testing.assert_allclose(
                matrix,
                compiled.per_cluster_distances(database),
                rtol=1e-9,
                atol=1e-12,
            )

    @pytest.mark.parametrize("scheme", ["diagonal", "inverse"])
    def test_batch_membership_never_changes_bytes(self, scheme, monkeypatch):
        """Query scored alone == the same query inside a batch, bitwise
        — across tile-boundary row counts (the shapes where a naive
        tiling would flip BLAS code paths)."""
        monkeypatch.setattr(kernels_module, "_BATCH_TILE_ELEMENTS", 1 << 10)
        rng = np.random.default_rng(18)
        p = 8
        tile = (1 << 10) // p
        for n in (tile - 1, tile, tile + 1, 2 * tile - 1, 3 * tile + 5):
            database = 3.0 * rng.standard_normal((n, p))
            queries = [
                compile_query(random_query(rng, scheme, g=g, p=p))
                for g in (2, 1, 3)
            ]
            solo = [
                batched_per_cluster_distances([compiled], database)[0]
                for compiled in queries
            ]
            together = batched_per_cluster_distances(queries, database)
            for alone, inside in zip(solo, together):
                assert alone.tobytes() == inside.tobytes(), f"n={n}"

    def test_empty_batch_is_fine(self):
        assert batched_per_cluster_distances([], np.zeros((5, 3))) == []


class _OpaqueQuery:
    """A query type the kernel layer cannot compile (no cluster
    structure) — exercises the per-query ``distances`` fallback."""

    def __init__(self, center: np.ndarray) -> None:
        self.center = center

    def distances(self, vectors: np.ndarray) -> np.ndarray:
        deltas = vectors - self.center
        return np.einsum("ij,ij->i", deltas, deltas)


class TestBatchedShardScan:
    @pytest.mark.parametrize("scheme", ["diagonal", "inverse"])
    def test_batch_scan_byte_identical_to_solo_scans(self, scheme):
        """`scan_shard_topk_batch` == N× `scan_shard_topk`, bitwise,
        for a mixed batch: compilable multi-cluster queries, a
        single-point query, and an opaque query type."""
        rng = np.random.default_rng(19)
        shard = 2.0 * rng.standard_normal((600, 12))
        shard[50:100] = shard[0:50]  # exact ties exercise the id order
        queries = [
            random_query(rng, scheme, g=3, p=12),
            _OpaqueQuery(shard[7].copy()),
            random_query(rng, scheme, g=1, p=12),
            random_query(rng, scheme, g=2, p=12),
        ]
        ks = [10, 5, 20, 10]
        batched = scan_shard_topk_batch(queries, shard, 100, ks)
        assert len(batched) == len(queries)
        for query, k, (ids, distances, _, _) in zip(queries, ks, batched):
            solo_ids, solo_distances, _, _ = scan_shard_topk(query, shard, 100, k)
            assert ids.tobytes() == solo_ids.tobytes()
            assert distances.tobytes() == solo_distances.tobytes()

    def test_progressive_batch_matches_solo(self):
        """At progressive-eligible dimension the batched level-0 pass
        (one stacked prefix GEMM) must leave every page byte-identical
        to its solo scan."""
        from repro.core.progressive import progressive_topk_batch

        rng = np.random.default_rng(21)
        p = 20
        scales = (1.0 / (1.0 + np.arange(p))) ** 0.8
        shard = 2.0 * rng.standard_normal((2600, p)) * scales
        queries = [random_query(rng, "inverse", g=g, p=p) for g in (1, 3, 2)]
        ks = [8, 12, 8]
        batched = progressive_topk_batch(shard, queries, ks)
        assert all(result is not None for result in batched)
        for query, k, result in zip(queries, ks, batched):
            solo_ids, solo_distances, _, _ = scan_shard_topk(query, shard, 0, k)
            assert result.indices.tobytes() == solo_ids.tobytes()
            assert result.distances.tobytes() == solo_distances.tobytes()

    def test_full_scan_fallback_matches_exact_top_k(self):
        rng = np.random.default_rng(20)
        shard = rng.standard_normal((80, 4))  # below _MIN_DIMENSION
        query = random_query(rng, "inverse", g=2, p=4)
        [(ids, distances, pruned, refined)] = scan_shard_topk_batch(
            [query], shard, 0, [6]
        )
        reference = query.distances(shard)
        top = exact_top_k(reference, 6)
        assert ids.tolist() == top.tolist()
        np.testing.assert_array_equal(distances, reference[top])
        assert pruned == 0 and refined == shard.shape[0]
