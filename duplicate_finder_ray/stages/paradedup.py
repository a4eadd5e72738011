"""Paragraph-level exact dedup — RefinedWeb / CCNet-style boilerplate
removal, a training-data-pipeline extension (the reference engine dedups
whole files only; SURVEY.md §2.5).

Web-corpus recipes remove REPEATED SPANS, not repeated documents: every
paragraph (here: a fixed window of whitespace tokens, the line-dedup
analogue for the space-separated test corpus — swap the window splitter
for a ``\\n`` splitter on real text) keeps only its globally FIRST
occurrence, ordered by (doc_id, window_idx); every later copy is cut out
of its document and the survivors are re-joined in order. Documents that
lose every window disappear (fully-boilerplate docs).

Scale shape (100-TB doctrine: payload crosses a shuffle at most once):

1. chunk kernel (`chunking.chunk_table`, stride = width ⇒ lossless
   non-overlapping windows) runs inside stateless ``map_batches``;
2. identity pass ships ONLY slim keys: (md5-128 of the window text,
   doc_id, idx) — 24 bytes/window, never the text — pre-combined per
   batch (local first per digest) before ONE hash exchange picks the
   global first per digest. md5-128 as span identity is the same
   exact-content-hash doctrine as the engine's sha256 file identity
   (reference utils.py:10-16); the DuckDB oracle groups by the window
   TEXT itself, so the hash-match gate also certifies the identity
   encoding.
3. reassembly co-partitions the original documents with the kept
   (doc_id, idx) keys by ``doc_id`` (union-with-tag, one exchange — the
   document text crosses exactly once) and RE-CHUNKS each doc in-partition
   (cheap CPU beats re-shipping exploded window rows), filters to kept
   windows, and binary-joins them back in window order.

Skew note: a corpus-hot window (license header, empty line) sends only
its slim key copies to one partition — O(copies × 24 B), not
O(copies × text); the hot-window payload is never co-located.

Partition-count bound (the knob that must scale with the corpus): each
identity-pass reduce holds its hash range's slim keys in memory —
O(total_windows × 32 B / num_partitions). At 10¹² windows (a ~100 TB
corpus) that is ~32 TB of keys, so num_partitions must be O(10⁴) (a
small multiple of cluster parallelism, as with every hash_exchange
user); the per-batch local-first combiner has already removed
within-block repeats before the exchange. Measured: 1 M docs / 8 M
windows in 21.7 s at 32 CPUs with asserted-exact removal counts
(`scripts/bench_paragraph_dedup.py`).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.stages.chunking import chunk_table
from duplicate_finder_ray.stages.exchange import hash_exchange

_KEPT_SCHEMA = pa.schema([("doc", pa.int64()), ("idx", pa.int64())])


def _md5_u128(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the full md5 digest of the utf8 bytes as two big-endian
    uint64 halves. Same memoryview-fed loop as
    ``relational._md5_prefix_u64`` (md5 is the irreducible per-row
    work; no per-row Python string objects) but keeps all 128 bits —
    span identity must be collision-free in practice, like sha256 file
    identity."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    total = sum(len(c) for c in chunks)
    h1 = np.empty(total, dtype=np.uint64)
    h2 = np.empty(total, dtype=np.uint64)
    md5 = hashlib.md5
    pos = 0
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        width = 8 if pa.types.is_large_string(chunk.type) else 4
        dtype = np.int64 if width == 8 else np.int32
        bufs = chunk.buffers()
        offs = np.frombuffer(
            bufs[1], dtype=dtype, count=len(chunk) + 1, offset=chunk.offset * width
        )
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        for j in range(len(chunk)):
            d = md5(data[offs[j] : offs[j + 1]]).digest()
            h1[pos] = int.from_bytes(d[:8], "big")
            h2[pos] = int.from_bytes(d[8:], "big")
            pos += 1
    return h1, h2


def _first_per_digest(
    h1: np.ndarray, h2: np.ndarray, doc: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Boolean mask of the (doc, idx)-minimal row per (h1, h2) digest —
    vectorized lexsort + neighbor-diff, the engine's standard
    first-per-key kernel."""
    order = np.lexsort((idx, doc, h2, h1))
    first_sorted = np.empty(len(h1), dtype=bool)
    first_sorted[0] = True
    np.logical_or(
        h1[order][1:] != h1[order][:-1],
        h2[order][1:] != h2[order][:-1],
        out=first_sorted[1:],
    )
    mask = np.zeros(len(h1), dtype=bool)
    mask[order[first_sorted]] = True
    return mask


def paragraph_dedup(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    window_tokens: int = 8,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Remove every non-first occurrence of each ``window_tokens``-token
    window across the whole corpus ("first" = smallest (doc_id, window
    index)), then rebuild each document from its surviving windows.
    Returns (id, n_chunks, n_kept, text_dedup); documents with zero
    surviving windows (or empty text) emit nothing."""
    if window_tokens <= 0:
        raise ValueError("window_tokens must be positive")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    W, P = window_tokens, num_partitions

    # ---- pass 1: slim identity keys, pre-combined per batch ----------
    slim_schema = pa.schema(
        [
            ("h1", pa.uint64()),
            ("h2", pa.uint64()),
            ("doc", pa.int64()),
            ("idx", pa.int64()),
        ]
    )

    def slim_keys(batch: pa.Table) -> pa.Table:
        chunks = chunk_table(batch, id_col, text_col, W, W)
        if len(chunks) == 0:
            return slim_schema.empty_table()
        h1, h2 = _md5_u128(chunks.column("chunk_text"))
        doc = chunks.column(id_col).to_numpy().astype(np.int64)
        idx = chunks.column("chunk_idx").to_numpy().astype(np.int64)
        mask = _first_per_digest(h1, h2, doc, idx)  # local combiner
        return pa.table(
            {
                "h1": pa.array(h1[mask], pa.uint64()),
                "h2": pa.array(h2[mask], pa.uint64()),
                "doc": pa.array(doc[mask], pa.int64()),
                "idx": pa.array(idx[mask], pa.int64()),
            }
        )

    slim = ds.select_columns([id_col, text_col]).map_batches(
        slim_keys, batch_format="pyarrow"
    )

    def global_first(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _KEPT_SCHEMA.empty_table()
        h1 = tbl.column("h1").to_numpy().astype(np.uint64)
        h2 = tbl.column("h2").to_numpy().astype(np.uint64)
        doc = tbl.column("doc").to_numpy().astype(np.int64)
        idx = tbl.column("idx").to_numpy().astype(np.int64)
        mask = _first_per_digest(h1, h2, doc, idx)
        return pa.table(
            {
                "doc": pa.array(doc[mask], pa.int64()),
                "idx": pa.array(idx[mask], pa.int64()),
            }
        )

    kept = hash_exchange(
        slim, "h1", P, global_first, _KEPT_SCHEMA.empty_table()
    )

    # ---- pass 2: co-partition docs + kept keys by doc_id, rebuild ----
    tagged_schema = pa.schema(
        [
            ("doc", pa.int64()),
            ("side", pa.int8()),
            ("text", pa.string()),
            ("idx", pa.int64()),
        ]
    )

    def tag_docs(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "doc": pc.cast(batch.column(id_col), pa.int64()),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "text": pc.cast(batch.column(text_col), pa.string()),
                "idx": pa.nulls(n, pa.int64()),
            }
        )

    def tag_kept(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "doc": batch.column("doc"),
                "side": pa.array(np.ones(n, dtype=np.int8)),
                "text": pa.nulls(n, pa.string()),
                "idx": batch.column("idx"),
            }
        )

    both = (
        ds.select_columns([id_col, text_col])
        .map_batches(tag_docs, batch_format="pyarrow")
        .union(kept.map_batches(tag_kept, batch_format="pyarrow"))
    )

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("n_chunks", pa.int64()),
            ("n_kept", pa.int64()),
            ("text_dedup", pa.string()),
        ]
    )

    def rebuild(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        side = tbl.column("side").to_numpy()
        docs_tbl = tbl.filter(pa.array(side == 0)).select(["doc", "text"])
        kept_tbl = tbl.filter(pa.array(side == 1)).select(["doc", "idx"])
        if len(docs_tbl) == 0 or len(kept_tbl) == 0:
            return out_schema.empty_table()
        chunks = chunk_table(docs_tbl, "doc", "text", W, W)
        if len(chunks) == 0:
            return out_schema.empty_table()
        cdoc = chunks.column("doc").to_numpy().astype(np.int64)
        cidx = chunks.column("chunk_idx").to_numpy().astype(np.int64)
        # total windows per doc (before dedup), aligned to chunk rows
        merged = pd.DataFrame({"doc": cdoc, "idx": cidx, "row": np.arange(len(cdoc))})
        kd = pd.DataFrame(
            {
                "doc": kept_tbl.column("doc").to_numpy().astype(np.int64),
                "idx": kept_tbl.column("idx").to_numpy().astype(np.int64),
            }
        )
        hit = merged.merge(kd, on=["doc", "idx"], how="inner")
        if len(hit) == 0:
            return out_schema.empty_table()
        rows = hit["row"].to_numpy()
        order = np.lexsort((cidx[rows], cdoc[rows]))
        rows = rows[order]
        kdoc = cdoc[rows]
        text_arr = chunks.column("chunk_text")
        if isinstance(text_arr, pa.ChunkedArray):
            text_arr = text_arr.combine_chunks()
        ktext = text_arr.take(pa.array(rows))
        if isinstance(ktext, pa.ChunkedArray):
            ktext = ktext.combine_chunks()
        starts = np.nonzero(np.r_[True, kdoc[1:] != kdoc[:-1]])[0]
        n_kept = np.diff(np.append(starts, len(kdoc))).astype(np.int64)
        offs = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(n_kept, out=offs[1:])
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(offs), ktext), " "
        )
        # per-doc total window counts for the surviving docs
        out_docs = kdoc[starts]
        tot_sorted_docs = np.sort(cdoc)
        lo = np.searchsorted(tot_sorted_docs, out_docs, side="left")
        hi = np.searchsorted(tot_sorted_docs, out_docs, side="right")
        return pa.table(
            {
                id_col: pa.array(out_docs, pa.int64()),
                "n_chunks": pa.array((hi - lo).astype(np.int64), pa.int64()),
                "n_kept": pa.array(n_kept, pa.int64()),
                "text_dedup": pc.cast(joined, pa.string()),
            }
        )

    return hash_exchange(both, "doc", P, rebuild, out_schema.empty_table())
