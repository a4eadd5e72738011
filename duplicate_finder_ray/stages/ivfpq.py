"""IVF-PQ on the exact int64 micro-lattice — the canonical
billion-scale ANN index (Jégou, Douze & Schmid, TPAMI 2011; the
FAISS IndexIVFPQ shape — all public), composed end-to-end from the
engine's integer-exact pieces so the WHOLE index build and search
hash-match a chained-CTE DuckDB twin:

1. COARSE quantizer: `kmeans_lattice(k_coarse)` partitions the corpus
   into cells (the inverted file).  At real scale only `nprobe` cells
   are scanned per query — the IVF pruning.
2. RESIDUAL product codes: every vector's residual r = qv − C_cell is
   EXACT int64 (lattice minus lattice); each of the m subspace slices
   trains its own `kmeans_lattice` codebook over the residuals and
   stores one code per vector.  Residuals ride a float64/1e6 bridge
   through the shared quantizer — floor(nearest(r/1e6)·1e6 + 0.5) is
   the identity for |r| < 2^51 (double error ≤ r·2⁻⁵² ≪ 0.5), so the
   bridge is bit-exact and the SQL twin can use the integer residuals
   directly.
3. ADC search with per-cell query residuals: for each query, the
   nprobe nearest coarse cells (ties → smaller cell) are probed; the
   LUT for cell c is built from the QUERY's residual against that
   cell — LUT_j[c][g] = ‖(q − C_c)_j − K_j[g]‖² — and a database
   vector's distance is m lookups keyed by its stored codes.

Scale shape: training is 1 + m kmeans_lattice passes (k×d moment
partials per block; vectors never shuffle); the code table is
(id, cell, m codes) — slim rows through ONE id-keyed pivot exchange;
search reads ONLY the code table (the scan never touches embeddings),
broadcasts nq × nprobe × m × k_sub LUT ints, keeps a local top-k per
block and ranks in one tiny reduce.  In this sandbox the scan visits
every block (cells are not physically clustered); on a real deployment
the code table is written partitioned by cell so a probe reads
nprobe/k_coarse of the data — the semantics here are identical.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from duplicate_finder_ray.stages.exchange import hash_exchange
from duplicate_finder_ray.stages.kmeans import _assign_arrays, _quantize, kmeans_lattice
from duplicate_finder_ray.stages.util import gather_blocks

_MICRO = 1_000_000.0


def ivfpq_adc_topk(
    emb: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    dim: int,
    m: int,
    k_coarse: int,
    k_sub: int,
    query_ids: list[int],
    topk: int,
    nprobe: int,
    iterations: int = 2,
    n_parts: int = 16,
) -> ray.data.Dataset:
    """Full IVF-PQ build + ADC probe search. Output
    (query_id, id, adc_d2, rank), rank 1..topk per query over
    (adc_d2, id) — only vectors whose coarse cell is among the query's
    nprobe nearest cells are candidates (the IVF pruning, reproduced
    verbatim by the SQL twin's LUT join)."""
    if m <= 0 or dim <= 0 or dim % m != 0:
        raise ValueError(f"dim ({dim}) must be a positive multiple of m ({m})")
    if topk <= 0 or nprobe <= 0:
        raise ValueError("topk and nprobe must be positive")
    qids = sorted({int(q) for q in query_ids})
    if not qids:
        raise ValueError("query_ids must be non-empty")
    sub = dim // m

    slim = emb.select_columns([id_col, vec_col])
    out_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            (id_col, pa.int64()),
            ("adc_d2", pa.int64()),
            ("rank", pa.int64()),
        ]
    )

    # ---- 1. coarse quantizer ----------------------------------------
    asg_c, (gc, cc) = kmeans_lattice(
        slim, id_col, vec_col, k_coarse, iterations, return_centroids=True
    )
    if len(gc) == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    coarse_ref = ray.put((gc, cc))

    # ---- 2. residual subspace codebooks -----------------------------
    def residual_slice(lo: int, hi: int):
        def fn(batch: pa.Table) -> pa.Table:
            g, c = ray.get(coarse_ref)
            q = _quantize(batch, vec_col)
            cl, _ = _assign_arrays(q, g, c)
            r = q - c[np.searchsorted(g, cl)]
            # float64/1e6 bridge: exact round trip through _quantize
            rs = r[:, lo:hi].astype(np.float64) / _MICRO
            col = pa.FixedSizeListArray.from_arrays(
                pa.array(rs.ravel(), pa.float64()), hi - lo
            )
            return pa.table({id_col: batch[id_col], vec_col: col})

        return fn

    tag_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("sub", pa.int64()),
            ("cluster", pa.int64()),
        ]
    )
    tagged = []
    codebooks = []
    for j in range(m):
        res_ds = slim.map_batches(
            residual_slice(j * sub, (j + 1) * sub), batch_format="pyarrow"
        )
        asg_j, (gj, cj) = kmeans_lattice(
            res_ds, id_col, vec_col, k_sub, iterations, return_centroids=True
        )
        codebooks.append((gj, cj))

        def tag(batch: pa.Table, j=j) -> pa.Table:
            if len(batch) == 0:
                return tag_schema.empty_table()
            return pa.table(
                {
                    id_col: batch[id_col],
                    "sub": pa.array(np.full(len(batch), j, dtype=np.int64)),
                    "cluster": batch["cluster"],
                }
            )

        tagged.append(asg_j.map_batches(tag, batch_format="pyarrow"))

    # coarse cell rides the same pivot as sub index m
    def tag_coarse(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return tag_schema.empty_table()
        return pa.table(
            {
                id_col: batch[id_col],
                "sub": pa.array(np.full(len(batch), m, dtype=np.int64)),
                "cluster": batch["cluster"],
            }
        )

    tagged.append(asg_c.map_batches(tag_coarse, batch_format="pyarrow"))
    rows = tagged[0].union(*tagged[1:])

    code_fields = [(id_col, pa.int64()), ("cell", pa.int64())]
    code_fields += [(f"code_{j}", pa.int64()) for j in range(m)]
    code_schema = pa.schema(code_fields)
    n_tags = m + 1

    def pivot(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return code_schema.empty_table()
        ids = tbl.column(id_col).to_numpy().astype(np.int64)
        subs = tbl.column("sub").to_numpy().astype(np.int64)
        cl = tbl.column("cluster").to_numpy().astype(np.int64)
        order = np.lexsort((subs, ids))
        ids, subs, cl = ids[order], subs[order], cl[order]
        if len(ids) % n_tags != 0 or not (
            subs.reshape(-1, n_tags) == np.arange(n_tags)
        ).all():
            raise ValueError("every vector needs one code per subspace + cell")
        uids = ids.reshape(-1, n_tags)[:, 0]
        codes = cl.reshape(-1, n_tags)
        cols: dict[str, pa.Array] = {
            id_col: pa.array(uids, pa.int64()),
            "cell": pa.array(codes[:, m], pa.int64()),
        }
        for j in range(m):
            cols[f"code_{j}"] = pa.array(codes[:, j], pa.int64())
        return pa.table(cols)

    codes = hash_exchange(
        rows, id_col, n_parts, pivot, code_schema.empty_table()
    ).materialize()

    # ---- 3. query side: probes + per-cell residual LUTs -------------
    qset = np.asarray(qids, dtype=np.int64)

    def probe_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        return batch.filter(pa.array(np.isin(ids, qset)))

    qtab = slim.map_batches(probe_rows, batch_format="pyarrow").materialize()
    qrows = qtab.take_all()
    if len(qrows) != len(qids):
        raise ValueError(f"found {len(qrows)} of {len(qids)} query ids")
    qrows.sort(key=lambda r: int(r[id_col]))
    qmat = np.asarray([np.asarray(r[vec_col], dtype=np.float64) for r in qrows])
    qq = np.floor(qmat * _MICRO + 0.5).astype(np.int64)

    # coarse distances -> nprobe cells per query (ties -> smaller cell)
    probes: dict[int, np.ndarray] = {}
    luts: dict[int, dict[int, list[np.ndarray]]] = {}
    for qi, qid in enumerate(qids):
        diff = qq[qi][None, :] - cc  # (G, dim)
        d2 = (diff * diff).sum(axis=1)
        order = np.lexsort((gc, d2))[: min(nprobe, len(gc))]
        cells = gc[order]
        probes[qid] = cells
        luts[qid] = {}
        for cell in cells:
            rq = qq[qi] - cc[np.searchsorted(gc, cell)]
            per_sub = []
            for j, (gj, cj) in enumerate(codebooks):
                rj = rq[j * sub : (j + 1) * sub]
                d = rj[None, :] - cj
                per_sub.append((d * d).sum(axis=1))  # (len(gj),) ints
            luts[qid][int(cell)] = per_sub
    lut_ref = ray.put((qids, probes, luts, [g for g, _ in codebooks]))

    def local_topk(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return out_schema.empty_table()
        qids_l, probes_l, luts_l, groups_l = ray.get(lut_ref)
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        cell = batch.column("cell").to_numpy().astype(np.int64)
        code_pos = [
            np.searchsorted(
                groups_l[j], batch.column(f"code_{j}").to_numpy().astype(np.int64)
            )
            for j in range(m)
        ]
        out_q, out_i, out_d = [], [], []
        for qid in qids_l:
            for c in probes_l[qid]:
                mask = cell == c
                if not mask.any():
                    continue
                per_sub = luts_l[qid][int(c)]
                dist = np.zeros(int(mask.sum()), dtype=np.int64)
                for j in range(m):
                    dist += per_sub[j][code_pos[j][mask]]
                out_q.append(np.full(len(dist), qid, dtype=np.int64))
                out_i.append(ids[mask])
                out_d.append(dist)
        if not out_q:
            return out_schema.empty_table()
        q = np.concatenate(out_q)
        i = np.concatenate(out_i)
        d = np.concatenate(out_d)
        # local top-k per query
        keep_idx = []
        for qid in qids_l:
            qm = np.nonzero(q == qid)[0]
            if len(qm):
                order = qm[np.lexsort((i[qm], d[qm]))[: min(topk, len(qm))]]
                keep_idx.append(order)
        sel = np.concatenate(keep_idx)
        return pa.table(
            {
                "query_id": pa.array(q[sel], pa.int64()),
                id_col: pa.array(i[sel], pa.int64()),
                "adc_d2": pa.array(d[sel], pa.int64()),
                "rank": pa.array(np.zeros(len(sel), dtype=np.int64), pa.int64()),
            }
        )

    partials = codes.map_batches(local_topk, batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        q = t.column("query_id").to_numpy().astype(np.int64)
        i = t.column(id_col).to_numpy().astype(np.int64)
        d = t.column("adc_d2").to_numpy().astype(np.int64)
        order = np.lexsort((i, d, q))
        q, i, d = q[order], i[order], d[order]
        starts_mask = np.r_[True, q[1:] != q[:-1]]
        start_pos = np.nonzero(starts_mask)[0]
        sizes = np.diff(np.append(start_pos, len(q)))
        rank = np.arange(len(q)) - np.repeat(start_pos, sizes) + 1
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
