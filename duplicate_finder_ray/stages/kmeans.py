"""Lloyd's k-means on the exact int64 micro-lattice — the engine's
iterative-algorithm showcase next to PageRank (`stages/graph.py`).

Training-data pipelines cluster embeddings constantly (IVF coarse
quantizers, SemDeDup's k-means, curriculum bucketing). Float k-means
cannot be hash-gated across engines (reduction order drifts); this one
can, because every step is integer-exact and order-free:

- vectors quantize once with the shared floor(x·10⁶ + 0.5) op;
- distances are int64 squared L2; assignment ties break toward the
  smaller cluster id (= SQL ROW_NUMBER ORDER BY d2, cl);
- the centroid update is sum(qv) // n per (cluster, dim) with
  SQL-truncating division (toward zero) — partials commute under any
  partitioning, so the distributed scatter-add and a chained-CTE
  DuckDB twin reproduce each other bit-for-bit.

Initialization is deterministic: the k smallest-id vectors become
clusters 0..k-1 in id order (k-means++ is inherently sequential-random;
a fixed seed set is the reproducible choice and what an IVF coarse
trainer does with a deterministic sample).

Scale shape per iteration: ONE streaming pass over the data
(`map_batches` emits k×d partial-moment rows per batch — never
vectors), one tiny reduce of blocks × k × d partial rows, and a
driver-held k×d int64 matrix broadcast back via the object store.
Clusters that lose all members drop out (SQL's GROUP BY does the same).

Bound: the single update reduce concatenates blocks × k × d partial
rows, so this operator targets moderate k (IVF coarse quantizers,
SemDeDup cluster counts — k ≤ ~10⁴ at d ≤ ~10³). For very large k
train on a sample instead (`similarity._sample_blocks` +
`_kmeans_centroids`, the IVF path) — Lloyd over the full corpus
at k=10⁵⁺ is the wrong algorithm long before it is the wrong shuffle.
Measured: 1 M × 256-d vectors, k=64, 2 iterations in 7.2 s at 32 CPUs
(`scripts/bench_semantic.py`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from duplicate_finder_ray.stages.similarity import _matrix
from duplicate_finder_ray.stages.util import gather_blocks

_MICRO = 1_000_000.0

_PARTIAL_SCHEMA = pa.schema(
    [
        ("cl", pa.int64()),
        ("dim", pa.int64()),
        ("s", pa.int64()),
        ("n", pa.int64()),
    ]
)


def _quantize(batch: pa.Table, vec_col: str) -> np.ndarray:
    return np.floor(_matrix(batch, vec_col) * _MICRO + 0.5).astype(np.int64)


def _assign_arrays(
    q: np.ndarray, groups: np.ndarray, cent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(cluster_id, d2) per row — exact int64, ties to the smaller
    cluster id (groups is ascending). d2 = |q|² − 2·q·cᵀ + |c|² in
    int64: identical integers to the broadcast-diff form with (B, G)
    working memory instead of (B, G, d)."""
    qq = np.einsum("bd,bd->b", q, q)
    cc = np.einsum("gd,gd->g", cent, cent)
    d2 = qq[:, None] - 2 * np.einsum("bd,gd->bg", q, cent) + cc[None, :]
    best = np.argmin(d2, axis=1)
    return groups[best], d2[np.arange(len(best)), best]


def _seed_centroids(
    slim: ray.data.Dataset, id_col: str, vec_col: str, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quantized vectors of the k smallest ids as clusters 0..k-1 —
    per-block local top-k combiner, one tiny reduce."""

    def local_k(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        if len(ids) <= k:
            return batch
        keep = np.argsort(ids, kind="stable")[:k]
        return batch.take(pa.array(np.sort(keep)))

    def reduce_k(t: pa.Table):
        ids = t.column(id_col).to_numpy().astype(np.int64)
        order = np.argsort(ids, kind="stable")[:k]
        t = t.take(pa.array(order))
        return _quantize(t, vec_col)

    local = slim.map_batches(local_k, batch_format="pyarrow")
    got = ray.get(gather_blocks(local, reduce_k, None))
    if got is None or len(got) == 0:
        return np.array([], dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
    return np.arange(len(got), dtype=np.int64), got


def kmeans_lattice(
    emb: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    k: int,
    iterations: int = 2,
    return_centroids: bool = False,
):
    """Run ``iterations`` Lloyd updates from the deterministic seed set
    and return the assignment against the FINAL centroids:
    (vec_id, cluster, d2). Exact integers end-to-end (see module
    docstring); the matching chained-CTE SQL twin is
    ``pipelines.queries._kmeans_sql``. With ``return_centroids`` the
    result is ``(assignments, (groups, cent))`` — the live cluster ids
    and their final int64 lattice centroids (what PQ's asymmetric
    distance tables are built from)."""
    if k <= 0:
        raise ValueError("k must be positive")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    out_schema = pa.schema(
        [(id_col, pa.int64()), ("cluster", pa.int64()), ("d2", pa.int64())]
    )
    slim = emb.select_columns([id_col, vec_col])
    groups, cent = _seed_centroids(slim, id_col, vec_col, k)
    if len(groups) == 0:
        empty = ray.data.from_arrow(out_schema.empty_table())
        return (empty, (groups, cent)) if return_centroids else empty

    for _ in range(iterations):
        ref = ray.put((groups, cent))

        def partials(batch: pa.Table, _ref=ref) -> pa.Table:
            if len(batch) == 0:
                return _PARTIAL_SCHEMA.empty_table()
            g, c = ray.get(_ref)
            q = _quantize(batch, vec_col)
            cl, _ = _assign_arrays(q, g, c)
            # scatter-add int64 moments per assigned cluster
            kk, d = c.shape
            pos = np.searchsorted(g, cl)
            sums = np.zeros((kk, d), dtype=np.int64)
            np.add.at(sums, pos, q)
            counts = np.bincount(pos, minlength=kk).astype(np.int64)
            live = counts > 0
            idx = np.nonzero(live)[0]
            cl_out = np.repeat(g[idx], d)
            dim_out = np.tile(np.arange(d, dtype=np.int64), len(idx))
            return pa.table(
                {
                    "cl": pa.array(cl_out, pa.int64()),
                    "dim": pa.array(dim_out, pa.int64()),
                    "s": pa.array(sums[idx].ravel(), pa.int64()),
                    "n": pa.array(np.repeat(counts[idx], d), pa.int64()),
                }
            )

        def update(t: pa.Table):
            cl = t.column("cl").to_numpy().astype(np.int64)
            dim = t.column("dim").to_numpy().astype(np.int64)
            s = t.column("s").to_numpy().astype(np.int64)
            n = t.column("n").to_numpy().astype(np.int64)
            g = np.unique(cl)
            d = int(dim.max()) + 1
            sums = np.zeros((len(g), d), dtype=np.int64)
            counts = np.zeros((len(g), d), dtype=np.int64)
            rows = np.searchsorted(g, cl)
            np.add.at(sums, (rows, dim), s)
            np.add.at(counts, (rows, dim), n)
            # SQL-truncating division (toward zero), not numpy floor
            mean = np.sign(sums) * (np.abs(sums) // np.maximum(counts, 1))
            return g, mean

        parts = slim.map_batches(partials, batch_format="pyarrow")
        got = ray.get(gather_blocks(parts, update, None))
        if got is None:
            break
        groups, cent = got

    ref = ray.put((groups, cent))

    def final_assign(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return out_schema.empty_table()
        g, c = ray.get(ref)
        q = _quantize(batch, vec_col)
        cl, d2 = _assign_arrays(q, g, c)
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "cluster": pa.array(cl, pa.int64()),
                "d2": pa.array(d2, pa.int64()),
            }
        )

    assigned = slim.map_batches(final_assign, batch_format="pyarrow")
    return (assigned, (groups, cent)) if return_centroids else assigned
