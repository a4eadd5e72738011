"""SemDeDup — semantic deduplication over an embedding column
(Abbas et al. 2023, arXiv:2303.09540; public method).

Whole-pipeline composition of operators that are each oracle-gated on
their own elsewhere in the engine:

1. every vector is assigned to its nearest centroid on the exact int64
   micro-lattice (`stats.nearest_centroid_assign` — distances and the
   assignment are bit-reproducible in SQL);
2. vectors co-partition by assigned cluster in ONE hash exchange (the
   embedding payload crosses exactly once). SemDeDup's core trade is
   that duplicate search is EXACT *within* a cluster and skipped
   across clusters — cluster count k bounds the per-partition O(n²);
3. per cluster: row-normalized cosine scores, duplicate edges at
   ``threshold``, connected components via ``cc.min_labels``, the
   engine's one union-find kernel (a component can never span
   clusters, so CC is partition-local by construction — no iterative
   shuffle rounds), and the SemDeDup keep rule: in each duplicate
   group the member FARTHEST from its centroid survives (max d2, ties
   to the smallest id) — the paper keeps the low-similarity-to-centroid
   exemplar to preserve diversity.

Output: one row per vector that belongs to a ≥2-member duplicate group
— (id, cluster, component, d2, keep 0/1). Vectors in no duplicate pair
are implicitly kept and emit nothing (they need no decision).

At 100 TB: the centroid matrix is tiny and broadcast; the exchange is
hash-partitioned by cluster id; a pathologically hot cluster is
observable as a hot partition and bounded by choosing k (the same
explicit knob the published method uses — it runs k-means with large k
precisely to keep clusters small).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from duplicate_finder_ray.stages.cc import min_labels
from duplicate_finder_ray.stages.exchange import hash_exchange
from duplicate_finder_ray.stages.similarity import _matrix, _normalize
from duplicate_finder_ray.stages.stats import nearest_centroid_assign

OUT_SCHEMA = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("cluster", pa.int64()),
        ("component", pa.int64()),
        ("d2", pa.int64()),
        ("keep", pa.int64()),
    ]
)


def semdedup(
    emb: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    centroids: ray.data.Dataset,
    threshold: float,
    group_col: str = "label",
    num_partitions: int = 8,
) -> ray.data.Dataset:
    """SemDeDup over ``emb``; see module docstring. ``centroids`` is
    `stats.grouped_vector_mean` output (group, dim, mean_micro)."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")

    assigned = nearest_centroid_assign(
        emb, id_col, vec_col, centroids, group_col=group_col,
        extra_cols=[vec_col],
    )

    def dedup_partition(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return OUT_SCHEMA.empty_table()
        ids = tbl.column(id_col).to_numpy().astype(np.int64)
        grp = tbl.column(group_col).to_numpy().astype(np.int64)
        d2 = tbl.column("d2").to_numpy().astype(np.int64)
        mat = _normalize(_matrix(tbl, vec_col))
        # iterate this partition's clusters; each is O(|cluster|²)
        out_vid: list[np.ndarray] = []
        out_grp: list[np.ndarray] = []
        out_comp: list[np.ndarray] = []
        out_d2: list[np.ndarray] = []
        out_keep: list[np.ndarray] = []
        order = np.argsort(grp, kind="stable")
        starts = np.nonzero(np.r_[True, grp[order][1:] != grp[order][:-1]])[0]
        bounds = np.append(starts, len(order))
        for s, e in zip(bounds[:-1], bounds[1:]):
            rows = order[s:e]
            if len(rows) < 2:
                continue
            sub_ids = ids[rows]
            sub = np.argsort(sub_ids, kind="stable")  # id order: a < b
            rows = rows[sub]
            sub_ids = sub_ids[sub]
            m = mat[rows]
            # strip-wise upper-triangle scoring: a hot cluster of n
            # members needs O(strip × n) floats, never the full n×n
            # matrix (15 k members would allocate 1.8 GB at once)
            STRIP = 2048
            ii_parts: list[np.ndarray] = []
            jj_parts: list[np.ndarray] = []
            for s0 in range(0, len(rows), STRIP):
                s1 = min(s0 + STRIP, len(rows))
                strip_scores = m[s0:s1] @ m[s0:].T  # cols j >= s0
                si, sj = np.nonzero(strip_scores >= threshold)
                keep_ut = sj + s0 > si + s0  # strict upper triangle
                ii_parts.append(si[keep_ut] + s0)
                jj_parts.append(sj[keep_ut] + s0)
            ii = np.concatenate(ii_parts) if ii_parts else np.array([], np.int64)
            jj = np.concatenate(jj_parts) if jj_parts else np.array([], np.int64)
            if len(ii) == 0:
                continue
            label = min_labels(ii, jj, len(rows))
            in_pair = np.zeros(len(rows), dtype=bool)
            in_pair[ii] = True
            in_pair[jj] = True
            comp = sub_ids[label]
            sub_d2 = d2[rows]
            # keep rule: per component, max d2 wins, tie → smallest id.
            # lexsort by (component, -d2, id): first row per component
            # is the keeper
            ksort = np.lexsort((sub_ids, -sub_d2, comp))
            first = np.empty(len(rows), dtype=bool)
            first[0] = True
            first[1:] = comp[ksort][1:] != comp[ksort][:-1]
            keep = np.zeros(len(rows), dtype=np.int64)
            keep[ksort[first]] = 1
            sel = in_pair
            out_vid.append(sub_ids[sel])
            out_grp.append(grp[rows][sel])
            out_comp.append(comp[sel])
            out_d2.append(sub_d2[sel])
            out_keep.append(keep[sel])
        if not out_vid:
            return OUT_SCHEMA.empty_table()
        return pa.table(
            {
                "vec_id": pa.array(np.concatenate(out_vid), pa.int64()),
                "cluster": pa.array(np.concatenate(out_grp), pa.int64()),
                "component": pa.array(np.concatenate(out_comp), pa.int64()),
                "d2": pa.array(np.concatenate(out_d2), pa.int64()),
                "keep": pa.array(np.concatenate(out_keep), pa.int64()),
            }
        )

    return hash_exchange(
        assigned,
        group_col,
        num_partitions,
        dedup_partition,
        OUT_SCHEMA.empty_table(),
    )
