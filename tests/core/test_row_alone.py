"""The row-alone contract: a row's distance depends on the row alone.

``query.distances(X[s])`` must equal ``query.distances(X)[s]`` bit for
bit, whichever rows ``s`` picks and however many — for every compiled
kernel kind (diagonal, Cholesky, matmul, mixed), for the disjunctive
query and the baselines' power-mean query, on float32 and float64 rows.
Tree leaves, refine chunks, batch tiles and shards all score subsets,
and their pages equal the full scan's only because of this.  Duplicate
rows in one scan must get equal distances, and a ``(g, m)`` bound fold
must give each column what that column gives on its own.

The bits are a property of the numpy/BLAS build the suite runs on; this
test pins the contract there (docs/PERFORMANCE.md, "Numerical
contract").
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.baselines.base import PowerMeanQuery
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.kernels import ensure_compiled

KINDS = ("diagonal", "cholesky", "matmul", "mixed")
DIMENSIONS = (2, 3, 8, 16, 17, 20, 32, 33, 64, 65)


def make_inverse(rng, kind, p):
    if kind == "diagonal":
        return np.diag(rng.uniform(0.2, 5.0, p))
    if kind == "cholesky":
        raw = rng.standard_normal((p + 3, p))
        return raw.T @ raw / (p + 3) + 0.3 * np.eye(p)
    # Symmetric with a negative diagonal entry: not positive definite,
    # so it compiles to the matmul fallback.
    raw = rng.standard_normal((p, p))
    inverse = (raw + raw.T) / 2
    inverse[0, 0] = -1.0 - abs(inverse[0, 0])
    return inverse


def make_query(rng, kind, power, g, p, rows):
    centers = rows[rng.integers(rows.shape[0], size=g)].astype(float)
    centers += 0.05 * rng.standard_normal(centers.shape)
    kinds = [kind if kind != "mixed" else KINDS[j % 3] for j in range(g)]
    inverses = [make_inverse(rng, name, p) for name in kinds]
    weights = rng.uniform(0.5, 4.0, g)
    if power:
        query = PowerMeanQuery(
            centers=centers,
            inverses=tuple(inverses),
            weights=weights,
            alpha=float(rng.choice([1.0, -2.0, -5.0])),
        )
    else:
        query = DisjunctiveQuery(
            [
                QueryPoint(
                    center=center,
                    inverse=inverse,
                    weight=float(weight),
                    diagonal=np.diag(inverse).copy() if name == "diagonal" else None,
                )
                for center, inverse, weight, name in zip(centers, inverses, weights, kinds)
            ]
        )
    compiled_kinds = [kernel.kind for kernel in ensure_compiled(query).kernels]
    assert compiled_kinds == kinds
    return query


def make_rows(rng, n, p, decimals, duplicate_share, dtype):
    rows = np.round(rng.standard_normal((n, p)) / np.sqrt(np.arange(1, p + 1)), decimals)
    copies = int(duplicate_share * n)
    if copies:
        rows[rng.choice(n, copies)] = rows[rng.choice(n, copies)]
    return rows.astype(dtype)


@hst.composite
def cases(draw):
    return dict(
        seed=draw(hst.integers(0, 2**32 - 1)),
        kind=draw(hst.sampled_from(KINDS)),
        power=draw(hst.booleans()),
        dtype=draw(hst.sampled_from([np.float32, np.float64])),
        p=draw(hst.sampled_from(DIMENSIONS)),
        g=draw(hst.integers(1, 9)),
        n=draw(hst.integers(1, 1600)),
        subset=draw(hst.integers(1, 600)),
        decimals=draw(hst.sampled_from([1, 2, 8])),
        duplicate_share=draw(hst.sampled_from([0.0, 0.3, 0.7])),
    )


class TestRowAlone:
    @given(cases())
    @settings(max_examples=300, deadline=None)
    def test_a_subset_scores_the_full_scans_bits(self, case):
        rng = np.random.default_rng(case["seed"])
        rows = make_rows(
            rng, case["n"], case["p"], case["decimals"], case["duplicate_share"], case["dtype"]
        )
        query = make_query(rng, case["kind"], case["power"], case["g"], case["p"], rows)
        full = query.distances(rows)
        for size in sorted({1, 2, 3, 5, 7, 33, case["subset"]}):
            subset = rng.choice(case["n"], size)
            assert query.distances(rows[subset]).tobytes() == full[subset].tobytes(), size

        # Duplicate rows within the one scan get the same bits.
        _, group = np.unique(rows, axis=0, return_inverse=True)
        group = group.ravel()
        first = np.empty(group.max() + 1, dtype=np.intp)
        first[group[::-1]] = np.arange(case["n"])[::-1]
        assert full.tobytes() == full[first[group]].tobytes()

    @given(cases(), hst.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_a_bound_fold_gives_each_column_its_own_value(self, case, m):
        rng = np.random.default_rng(case["seed"])
        rows = make_rows(rng, 4, case["p"], 2, 0.0, np.float64)
        query = make_query(rng, case["kind"], case["power"], case["g"], case["p"], rows)
        bounds = rng.uniform(0.0, 10.0, (case["g"], m)) * rng.integers(0, 2, (case["g"], m))
        folded = query.combine_per_cluster(bounds)
        for column in range(m):
            alone = query.combine_per_cluster(bounds[:, column : column + 1])
            assert alone.tobytes() == folded[column : column + 1].tobytes(), column
