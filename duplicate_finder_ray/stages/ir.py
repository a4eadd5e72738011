"""Okapi BM25 top-k retrieval over the documents table — the IR
ranking primitive (Robertson & Zaragoza, FnTIR 2009 — public) a
corpus-scale engine needs for "find training docs about X" triage,
next to the embedding (ANN/LSH) and exact (token/shingle) retrieval
families.

score(d) = Σ_t idf_t · tf_t·(k1+1) / (tf_t + k1·(1 − b + b·dl/avgdl)),
idf_t = ln(1 + (N − df_t + 0.5)/(df_t + 0.5))   (the Lucene form —
always positive, so adding a matched term never lowers a score).

Cross-engine gating: BM25 is irreducibly floating-point (ln), so the
engine fixes ONE evaluation-order for every double op — per-term
scores summed in query-term order, literals written identically — and
emits the half-up micro-quantized ``score_micro`` the SQL twin
reproduces with the same expression tree; ranking compares the
QUANTIZED value (ties → smaller doc id), so rank order cannot drift
even where the raw doubles differ in the last ulp. (The repo-wide
%.6g float canonicalization would tolerate far more, but quantize-
then-rank removes the tie-flip hazard outright.)

Scale shape: two streaming passes. Pass 1 folds one tiny partial row
per block — (n_docs, Σdl, df per query term) — into driver scalars
(T+2 ints; the vocabulary never materializes because df is only
needed for the query's own terms). Pass 2 recomputes tf map-side
(tokenize once per pass with the shared Arrow split + C-level
cumsum-diff segment counts), scores every doc against the broadcast
constants, keeps a local top-k per block (≤ topk rows leave each
block) and one tiny task ranks the survivors. Documents never
shuffle; nothing driver-side ever exceeds T+2 integers + topk rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor

from duplicate_finder_ray.stages.textstats import TOKEN_SPLIT_REGEX
from duplicate_finder_ray.stages.util import block_refs, gather_blocks

K1 = 1.2
B = 0.75


def _doc_term_stats(
    batch: pa.Table, text_col: str, terms: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """(dl, tf) per doc: dl = non-empty token count, tf = (n, T) count
    of tokens equal to each query term. One tokenize pass, C-level
    segment sums (cumsum-diff — safe for empty docs, unlike reduceat)."""
    toks = pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
    lengths = pc.list_value_length(toks).to_numpy().astype(np.int64)
    starts = np.r_[0, np.cumsum(lengths)]
    flat = pc.list_flatten(toks)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    cs = np.r_[0, np.cumsum(nonempty.astype(np.int64))]
    dl = cs[starts[1:]] - cs[starts[:-1]]
    tf = np.empty((len(batch), len(terms)), dtype=np.int64)
    for j, term in enumerate(terms):
        eq = pc.equal(flat, term).to_numpy(zero_copy_only=False)
        ce = np.r_[0, np.cumsum(eq.astype(np.int64))]
        tf[:, j] = ce[starts[1:]] - ce[starts[:-1]]
    return dl, tf


def bm25_topk(
    docs: ray.data.Dataset,
    id_col: str,
    text_col: str,
    terms: list[str],
    topk: int,
) -> ray.data.Dataset:
    """Top-k docs by BM25 for the fixed query ``terms``:
    (id, score_micro, rank) with rank 1..topk over score_micro DESC,
    id ASC; zero-score docs never rank."""
    if topk <= 0:
        raise ValueError("topk must be positive")
    terms = list(terms)
    if not terms or len(set(terms)) != len(terms):
        raise ValueError("terms must be a non-empty list of distinct tokens")

    slim = docs.select_columns([id_col, text_col])
    stat_fields = [("n", pa.int64()), ("dls", pa.int64())]
    stat_fields += [(f"df_{j}", pa.int64()) for j in range(len(terms))]
    stat_schema = pa.schema(stat_fields)

    def stat_partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return stat_schema.empty_table()
        dl, tf = _doc_term_stats(batch, text_col, terms)
        cols = {
            "n": pa.array([len(batch)], pa.int64()),
            "dls": pa.array([int(dl.sum())], pa.int64()),
        }
        for j in range(len(terms)):
            cols[f"df_{j}"] = pa.array([int((tf[:, j] > 0).sum())], pa.int64())
        return pa.table(cols)

    stats = slim.map_batches(stat_partial, batch_format="pyarrow").to_pandas()
    out_schema = pa.schema(
        [(id_col, pa.int64()), ("score_micro", pa.int64()), ("rank", pa.int64())]
    )
    n_total = int(stats["n"].sum()) if len(stats) else 0
    if n_total == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    dls = int(stats["dls"].sum())
    dfs = [int(stats[f"df_{j}"].sum()) for j in range(len(terms))]
    # the ONE fixed evaluation order, mirrored token-for-token in SQL:
    # avgdl = dls/n; idf = ln(1 + (n - df + 0.5)/(df + 0.5))
    avgdl = float(dls) / float(n_total)
    idfs = [
        float(np.log(1.0 + (float(n_total) - df + 0.5) / (df + 0.5))) for df in dfs
    ]

    def score_block(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return out_schema.empty_table()
        dl, tf = _doc_term_stats(batch, text_col, terms)
        ratio = dl.astype(np.float64) / avgdl
        denom_tail = K1 * ((1.0 - B) + B * ratio)
        score = np.zeros(len(batch), dtype=np.float64)
        for j, idf in enumerate(idfs):  # fixed term order
            tff = tf[:, j].astype(np.float64)
            score = score + (idf * (tff * (K1 + 1.0))) / (tff + denom_tail)
        micro = np.floor(score * 1_000_000.0 + 0.5).astype(np.int64)
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        keep = micro > 0
        ids, micro = ids[keep], micro[keep]
        if len(ids) == 0:
            return out_schema.empty_table()
        order = np.lexsort((ids, -micro))[: min(topk, len(ids))]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "score_micro": pa.array(micro[order], pa.int64()),
                "rank": pa.array(np.zeros(len(order), dtype=np.int64), pa.int64()),
            }
        )

    partials = slim.map_batches(score_block, batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy().astype(np.int64)
        micro = t.column("score_micro").to_numpy().astype(np.int64)
        order = np.lexsort((ids, -micro))[: min(topk, len(ids))]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "score_micro": pa.array(micro[order], pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    return ray.data.from_arrow_refs(
        [gather_blocks(partials, final, out_schema.empty_table())]
    )


def docs_with_all_terms(
    docs: ray.data.Dataset,
    id_col: str,
    text_col: str,
    must_terms: list[str],
    must_not_terms: list[str] = (),
) -> ray.data.Dataset:
    """Boolean AND/NOT retrieval: docs containing EVERY ``must_terms``
    token and NONE of ``must_not_terms`` — the pre-filter stage in
    front of BM25 ranking (and the classic inverted-index demo, here
    scan-side: with tf computable per batch the postings list never
    needs to exist). Output (id, tf_0..tf_{M-1}) with the must-term
    frequencies. Zero shuffle; documents stream once."""
    must = list(must_terms)
    nots = list(must_not_terms)
    if not must or len(set(must)) != len(must):
        raise ValueError("must_terms must be a non-empty list of distinct tokens")
    if set(must) & set(nots):
        raise ValueError("a term cannot be both required and excluded")
    all_terms = must + nots

    fields = [(id_col, pa.int64())]
    fields += [(f"tf_{j}", pa.int64()) for j in range(len(must))]
    out_schema = pa.schema(fields)

    def scan(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return out_schema.empty_table()
        _, tf = _doc_term_stats(batch, text_col, all_terms)
        keep = (tf[:, : len(must)] > 0).all(axis=1)
        if nots:
            keep &= (tf[:, len(must) :] == 0).all(axis=1)
        ids = batch.column(id_col).to_numpy().astype(np.int64)[keep]
        cols = {id_col: pa.array(ids, pa.int64())}
        for j in range(len(must)):
            cols[f"tf_{j}"] = pa.array(tf[keep, j], pa.int64())
        return pa.table(cols)

    return docs.select_columns([id_col, text_col]).map_batches(
        scan, batch_format="pyarrow"
    )


def rrf_fuse(
    rankings: list[tuple[ray.data.Dataset, str]],
    topk: int,
    k0: int = 60,
) -> ray.data.Dataset:
    """Reciprocal-rank fusion (Cormack, Clarke & Buettcher, SIGIR'09 —
    public): combine R rank tables — e.g. lexical BM25 and a vector
    ANN ranking, the standard hybrid-retrieval move — without score
    calibration:

        rrf(d) = Σ_r 1 / (k0 + rank_r(d)),   missing rank → 0.

    Each input is (dataset, id_col) where the dataset carries an
    integer id column and a 1-based ``rank``. Output
    (doc_id, rrf_micro, rank): contributions are summed in the given
    ranking order (one fixed double evaluation order), half-up
    micro-quantized, then ranked (ties → smaller id) — same
    quantize-then-rank discipline as bm25_topk, so a SQL twin with
    COALESCEd terms reproduces it exactly.

    Scale note: rank tables are topk-sized BY CONSTRUCTION (the
    upstream operators each emit ≤ topk rows), so fusion runs in ONE
    remote task over R tiny tables — the heavy lifting happened in
    the rankers."""
    if topk <= 0:
        raise ValueError("topk must be positive")
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    if not rankings:
        raise ValueError("rankings must be non-empty")
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("rrf_micro", pa.int64()), ("rank", pa.int64())]
    )

    # collect the R tiny tables' refs; tag each ref with its ranking
    # index so contribution order stays fixed
    tagged_refs: list[tuple[int, object, str]] = []
    for r, (ds, id_col) in enumerate(rankings):
        for ref in block_refs(ds):
            tagged_refs.append((r, ref, id_col))

    @ray.remote
    def fuse(tags: list[tuple[int, str]], *blocks: pa.Table) -> pa.Table:
        contribs: dict[int, list[float]] = {}
        n_rankers = max(t[0] for t in tags) + 1 if tags else 0
        for (r, id_col), b in zip(tags, blocks):
            b = BlockAccessor.for_block(b).to_arrow()
            if len(b) == 0 or id_col not in b.column_names:
                continue
            ids = b.column(id_col).to_numpy().astype(np.int64)
            ranks = b.column("rank").to_numpy().astype(np.int64)
            for i, rk in zip(ids, ranks):
                contribs.setdefault(int(i), [0.0] * n_rankers)[r] = 1.0 / (
                    k0 + int(rk)
                )
        if not contribs:
            return out_schema.empty_table()
        ids = np.array(sorted(contribs), dtype=np.int64)
        score = np.zeros(len(ids), dtype=np.float64)
        for r in range(n_rankers):  # fixed ranker order
            score = score + np.array(
                [contribs[int(i)][r] for i in ids], dtype=np.float64
            )
        micro = np.floor(score * 1_000_000.0 + 0.5).astype(np.int64)
        order = np.lexsort((ids, -micro))[: min(topk, len(ids))]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "rrf_micro": pa.array(micro[order], pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    if not tagged_refs:
        return ray.data.from_arrow(out_schema.empty_table())
    tags = [(r, id_col) for r, _, id_col in tagged_refs]
    refs = [ref for _, ref, _ in tagged_refs]
    return ray.data.from_arrow_refs([fuse.remote(tags, *refs)])
