"""Per-document novelty: how much of a document's k-gram content is
unique to it corpus-wide.

Curation signal from the web-corpus playbook (the complement of
boilerplate share): a doc whose shingles all appear in other documents
is template/duplicate material; a doc with a high unique-shingle share
carries new content. Emits exact integers (doc_id, n_shingles,
n_unique) — novelty = n_unique / n_shingles is the caller's division,
so the DuckDB oracle gates bit-exact counts.

Scale shape (the paragraph-dedup pattern at shingle granularity):

1. per-batch: distinct k-gram shingle hashes per doc via the
   Shingler's batch CSR kernel in SQL-parity ASCII mode
   (`functions/shingles.py` — provably the same sets as DuckDB's
   `regexp_extract_all` + slice CTE); emit slim (hash u64, doc i64)
   rows — 16 B per distinct shingle, never text;
2. ONE hash-keyed exchange co-locates equal shingles; each partition
   computes document frequency per hash locally (all copies of a hash
   are present) and marks each (doc, shingle) row unique or not;
3. one doc-keyed ``grouped_aggregate`` counts the rows and sums the
   marks (each split task pre-sums its block).

Shingle identity is the rolling 64-bit k-gram hash — the same
identity every n-gram operator in the engine uses and the hash-match
gate certifies against the text-keyed SQL twin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from duplicate_finder_ray.functions.shingles import Shingler
from duplicate_finder_ray.stages.exchange import grouped_aggregate, hash_exchange

_SLIM = pa.schema([("h", pa.uint64()), ("doc", pa.int64())])
_PART = pa.schema([("doc_id", pa.int64()), ("n_unique", pa.int64())])


def novelty_counts(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    k: int = 5,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """(doc_id, n_shingles, n_unique) per document with ≥1 k-gram —
    see module docstring."""
    if k <= 0:
        raise ValueError("k must be positive")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    K = k

    def slim(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _SLIM.empty_table()
        sh = Shingler(k=K)
        flat, offs = sh.shingle_hashes_batch_column(
            batch[text_col], ascii_only=True
        )
        counts = np.diff(offs)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "h": pa.array(flat, pa.uint64()),
                "doc": pa.array(np.repeat(ids, counts), pa.int64()),
            }
        )

    slim_ds = ds.select_columns([id_col, text_col]).map_batches(
        slim, batch_format="pyarrow"
    )

    def doc_partials(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _PART.empty_table()
        h = tbl.column("h").to_numpy().astype(np.uint64)
        doc = tbl.column("doc").to_numpy().astype(np.int64)
        order = np.argsort(h, kind="stable")
        hs = h[order]
        starts = np.nonzero(np.r_[True, hs[1:] != hs[:-1]])[0]
        df = np.diff(np.append(starts, len(hs)))
        # rows are per-doc DISTINCT shingles, so rows-per-hash = doc freq
        unique_row = np.empty(len(hs), dtype=bool)
        unique_row[order] = np.repeat(df == 1, df)
        return pa.table({"doc_id": doc, "n_unique": unique_row.astype(np.int64)})

    partials = hash_exchange(
        slim_ds, "h", num_partitions, doc_partials, _PART.empty_table()
    )
    return grouped_aggregate(
        partials,
        "doc_id",
        {"n_shingles": ("count", None), "n_unique": ("sum", "n_unique")},
    )
