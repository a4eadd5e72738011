"""Product quantization (PQ) encoding on the exact int64 micro-lattice.

PQ (Jégou, Douze & Schmid, TPAMI 2011 — public) is THE storage-scale
move for big embedding corpora: split each d-dim vector into m
subspaces, k-means each subspace independently, and store m small
codebook ids (m bytes at k=256) instead of d floats — a 100 TB float
store becomes ~1.5 TB of codes that asymmetric-distance search scans
in RAM. This module implements the encoding half as a composition of
the engine's existing integer-exact pieces:

- per-subspace training + assignment is ``stages/kmeans.py:
  kmeans_lattice`` over a COLUMN SLICE of the embedding (deterministic
  smallest-id seeds, exact int64 distances, trunc-division updates) —
  so each subspace's codes, and therefore the whole PQ code table,
  hash-match a chained-CTE DuckDB twin bit-for-bit (float PQ cannot be
  cross-engine-gated; the lattice version can);
- the m per-subspace assignment tables (slim (id, cluster, d2) rows)
  union and pivot into one (id, code_0..code_{m-1}, qerr) row per
  vector through ONE id-keyed hash exchange; ``qerr`` — the summed
  squared quantization error on the lattice — is the reconstruction
  diagnostic PQ tuning reads.

Scale shape: m × iterations streaming passes, each emitting k×(d/m)
moment partials per block (vectors never shuffle during training —
the kmeans_lattice shape); the final exchange carries m slim rows per
vector. Bound: inherits kmeans_lattice's moderate-k bound per
subspace (k ≤ ~10⁴) — exactly PQ's regime (k is 256 in the classic
8-bit codebooks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from duplicate_finder_ray.stages.exchange import hash_exchange
from duplicate_finder_ray.stages.kmeans import kmeans_lattice
from duplicate_finder_ray.stages.similarity import _matrix
from duplicate_finder_ray.stages.util import gather_blocks


def _subspace_assignments(
    emb: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    dim: int,
    m: int,
    k: int,
    iterations: int,
) -> tuple[list[ray.data.Dataset], list[tuple[np.ndarray, np.ndarray]]]:
    """Train + assign each subspace independently. Returns the m
    sub-tagged assignment datasets (id, sub, cluster, d2) and the m
    final (live cluster ids, int64 lattice centroid matrix) codebooks."""
    if m <= 0 or dim <= 0 or dim % m != 0:
        raise ValueError(f"dim ({dim}) must be a positive multiple of m ({m})")
    sub = dim // m
    tag_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("sub", pa.int64()),
            ("cluster", pa.int64()),
            ("d2", pa.int64()),
        ]
    )
    tagged: list[ray.data.Dataset] = []
    codebooks: list[tuple[np.ndarray, np.ndarray]] = []
    for j in range(m):
        lo, hi = j * sub, (j + 1) * sub

        def slice_batch(batch: pa.Table, lo=lo, hi=hi) -> pa.Table:
            mat = _matrix(batch, vec_col)[:, lo:hi]
            # float32 roundtrip is exact for float32-born embeddings;
            # kmeans re-quantizes with the shared floor(x*1e6 + 0.5)
            col = pa.FixedSizeListArray.from_arrays(
                pa.array(mat.astype(np.float32).ravel(), pa.float32()), hi - lo
            )
            return pa.table({id_col: batch[id_col], vec_col: col})

        asg, (groups, cent) = kmeans_lattice(
            emb.select_columns([id_col, vec_col]).map_batches(
                slice_batch, batch_format="pyarrow"
            ),
            id_col,
            vec_col,
            k,
            iterations,
            return_centroids=True,
        )
        codebooks.append((groups, cent))

        def tag(batch: pa.Table, j=j) -> pa.Table:
            if len(batch) == 0:
                return tag_schema.empty_table()
            return pa.table(
                {
                    id_col: batch[id_col],
                    "sub": pa.array(np.full(len(batch), j, dtype=np.int64)),
                    "cluster": batch["cluster"],
                    "d2": batch["d2"],
                }
            )

        tagged.append(asg.map_batches(tag, batch_format="pyarrow"))
    return tagged, codebooks


def pq_encode(
    emb: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    dim: int,
    m: int,
    k: int,
    iterations: int = 2,
    n_parts: int = 16,
) -> ray.data.Dataset:
    """Encode every vector as m per-subspace codebook ids plus the
    summed lattice quantization error:
    (id, code_0, ..., code_{m-1}, qerr)."""
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    tagged, _ = _subspace_assignments(emb, id_col, vec_col, dim, m, k, iterations)
    return _pivot_codes(tagged, id_col, m, n_parts)


def _pivot_codes(
    tagged: list[ray.data.Dataset], id_col: str, m: int, n_parts: int
) -> ray.data.Dataset:
    """Union the m sub-tagged assignment tables and pivot each vector's
    m slim rows into one (id, code_0..code_{m-1}, qerr) row through ONE
    id-keyed exchange."""
    out_fields = [(id_col, pa.int64())]
    out_fields += [(f"code_{j}", pa.int64()) for j in range(m)]
    out_fields += [("qerr", pa.int64())]
    out_schema = pa.schema(out_fields)
    rows = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def pivot(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        ids = tbl.column(id_col).to_numpy().astype(np.int64)
        subs = tbl.column("sub").to_numpy().astype(np.int64)
        cl = tbl.column("cluster").to_numpy().astype(np.int64)
        d2 = tbl.column("d2").to_numpy().astype(np.int64)
        order = np.lexsort((subs, ids))
        ids, subs, cl, d2 = ids[order], subs[order], cl[order], d2[order]
        if len(ids) % m != 0 or not (subs.reshape(-1, m) == np.arange(m)).all():
            raise ValueError("every vector needs exactly one code per subspace")
        uids = ids.reshape(-1, m)[:, 0]
        codes = cl.reshape(-1, m)
        cols: dict[str, pa.Array] = {id_col: pa.array(uids, pa.int64())}
        for j in range(m):
            cols[f"code_{j}"] = pa.array(codes[:, j], pa.int64())
        cols["qerr"] = pa.array(d2.reshape(-1, m).sum(axis=1), pa.int64())
        return pa.table(cols)

    return hash_exchange(rows, id_col, n_parts, pivot, out_schema.empty_table())


def pq_adc_topk(
    emb: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    dim: int,
    m: int,
    k: int,
    query_ids: list[int],
    topk: int,
    iterations: int = 2,
    n_parts: int = 16,
) -> ray.data.Dataset:
    """Asymmetric-distance (ADC) top-k search over the PQ code table —
    the lookup half of PQ search (Jégou et al. TPAMI 2011): the query
    stays UNQUANTIZED (here: exact lattice ints), each database vector
    is its m codes, and distance is m table lookups:

        adc_d2(q, x) = Σ_j LUT_j[code_j(x)],
        LUT_j[g] = ‖q_j − centroid_j[g]‖²  (exact int64 on the lattice)

    Output (query_id, id, adc_d2, rank) with rank 1..topk per query,
    ties (adc_d2, id) — deterministic, so the chained-CTE twin
    (`pipelines.queries._pq_adc_sql`) reproduces it bit-for-bit.

    Scale shape: codebooks are m × k × (d/m) ints (driver-tiny); the
    LUTs (m × n_queries × k ints) broadcast once via the object store;
    the scan reads ONLY the code columns (m int64s per vector — the
    whole point of PQ), computes all queries' distances per batch with
    two gathers + a sum, and emits ≤ n_queries × topk local-top-k rows
    per block to one tiny final reduce. The embedding column is read
    once during encode; search never touches it."""
    if topk <= 0:
        raise ValueError("topk must be positive")
    qids = sorted({int(q) for q in query_ids})
    if not qids:
        raise ValueError("query_ids must be non-empty")

    tagged, codebooks = _subspace_assignments(
        emb, id_col, vec_col, dim, m, k, iterations
    )
    codes = _pivot_codes(tagged, id_col, m, n_parts).materialize()

    out_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            (id_col, pa.int64()),
            ("adc_d2", pa.int64()),
            ("rank", pa.int64()),
        ]
    )

    # query vectors: broadcast-small side — probe by id, collect the
    # handful of rows, quantize with the shared lattice op
    qset = np.asarray(qids, dtype=np.int64)

    def probe(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        return batch.filter(pa.array(np.isin(ids, qset)))

    qtab = (
        emb.select_columns([id_col, vec_col])
        .map_batches(probe, batch_format="pyarrow")
        .materialize()
    )
    qrows = qtab.take_all()
    if len(qrows) != len(qids):
        raise ValueError(
            f"found {len(qrows)} of {len(qids)} query ids in the table"
        )
    qrows.sort(key=lambda r: int(r[id_col]))
    qmat = np.asarray([np.asarray(r[vec_col], dtype=np.float64) for r in qrows])
    qq = np.floor(qmat * 1_000_000.0 + 0.5).astype(np.int64)

    sub = dim // m
    luts: list[tuple[np.ndarray, np.ndarray]] = []
    for j, (groups, cent) in enumerate(codebooks):
        qj = qq[:, j * sub : (j + 1) * sub]  # (nq, sub)
        diff = qj[:, None, :] - cent[None, :, :]  # (nq, g, sub) — tiny
        luts.append((groups, (diff * diff).sum(axis=2)))
    lut_ref = ray.put((np.asarray(qids, dtype=np.int64), luts))

    def local_topk(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return out_schema.empty_table()
        qids_arr, lut_list = ray.get(lut_ref)
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        dist = np.zeros((len(qids_arr), len(ids)), dtype=np.int64)
        for j, (groups, lut) in enumerate(lut_list):
            code = batch.column(f"code_{j}").to_numpy().astype(np.int64)
            pos = np.searchsorted(groups, code)
            dist += lut[:, pos]
        kk = min(topk, len(ids))
        out_q, out_i, out_d = [], [], []
        for qi in range(len(qids_arr)):
            row = dist[qi]
            # deterministic local top-k with (d2, id) tie order
            order = np.lexsort((ids, row))[:kk]
            out_q.append(np.full(kk, qids_arr[qi], dtype=np.int64))
            out_i.append(ids[order])
            out_d.append(row[order])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                id_col: pa.array(np.concatenate(out_i), pa.int64()),
                "adc_d2": pa.array(np.concatenate(out_d), pa.int64()),
                "rank": pa.array(
                    np.zeros(kk * len(qids_arr), dtype=np.int64), pa.int64()
                ),
            }
        )

    partials = codes.map_batches(local_topk, batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        q = t.column("query_id").to_numpy().astype(np.int64)
        i = t.column(id_col).to_numpy().astype(np.int64)
        d = t.column("adc_d2").to_numpy().astype(np.int64)
        order = np.lexsort((i, d, q))
        q, i, d = q[order], i[order], d[order]
        starts = np.r_[True, q[1:] != q[:-1]]
        rank = np.arange(len(q)) - np.repeat(np.nonzero(starts)[0],
                                             np.diff(np.append(np.nonzero(starts)[0], len(q)))) + 1
        keep = rank <= topk
        return pa.table(
            {
                "query_id": pa.array(q[keep], pa.int64()),
                id_col: pa.array(i[keep], pa.int64()),
                "adc_d2": pa.array(d[keep], pa.int64()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    return ray.data.from_arrow_refs(
        [gather_blocks(partials, final, out_schema.empty_table())]
    )
