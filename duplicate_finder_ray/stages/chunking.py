"""Document chunking for context-window preparation.

Training-data-pipeline extension (the reference engine has nothing
comparable — SURVEY.md §2.5). Before tokenizer-level packing, corpus
pipelines split long documents into fixed-size token windows with a
stride (overlap keeps boundary context; every public LM data recipe —
BERT's create_pretraining_data, GPT-NeoX, RedPajama prep — has this
step). The operator is embarrassingly parallel: one row in, its chunks
out, no shuffle, no state — a pure vectorized ``map_batches`` that
scales linearly with input blocks.

Tokens here are whitespace-delimited words (RE2 ``\\s+`` split on both
engines, so the DuckDB oracle gates exact equality including the
rebuilt chunk text); swap in a real subword tokenizer by chunking the
token-id column the same way.

Vectorization: the chunk layout (per-doc chunk counts, start/end token
ranges) is computed with numpy arithmetic, the token gather for ALL
chunks of a batch is ONE ``take`` + ``binary_join`` over a LargeList
view — no per-doc or per-chunk Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from duplicate_finder_ray.functions.hashing import stable_hash_array


def chunk_table(
    batch: pa.Table,
    id_col: str,
    text_col: str,
    chunk_tokens: int,
    stride: int,
) -> pa.Table:
    """The chunking kernel over one Arrow table — factored out so other
    stages (paragraph dedup's reassembly pass) can re-chunk documents
    inside their own exchange partitions without re-shipping chunk rows.
    Emits (id, chunk_idx, n_tokens, chunk_text)."""
    C, S = chunk_tokens, stride
    trimmed = pc.utf8_trim_whitespace(batch.column(text_col))
    keep = pc.not_equal(pc.fill_null(trimmed, ""), "")
    ids = batch.column(id_col).filter(keep)
    txt = trimmed.filter(keep)
    n_docs = len(txt)
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
        }
    )
    if n_docs == 0:
        return empty
    words = pc.split_pattern_regex(txt, r"\s+")
    n = pc.list_value_length(words).to_numpy().astype(np.int64)
    flat = pc.list_flatten(words)
    doc_off = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(n, out=doc_off[1:])
    n_chunks = np.where(
        n <= C, 1, 1 + ((n - C + S - 1) // S)
    ).astype(np.int64)
    total = int(n_chunks.sum())
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_chunks)
    chunk_base = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(n_chunks[:-1], out=chunk_base[1:])
    idx = np.arange(total, dtype=np.int64) - chunk_base[doc_of]
    starts = idx * S
    ends = np.minimum(starts + C, n[doc_of])
    lens = ends - starts
    out_off = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(lens, out=out_off[1:])
    gather = (
        np.arange(out_off[-1], dtype=np.int64)
        - np.repeat(out_off[:-1], lens)
        + np.repeat(doc_off[doc_of] + starts, lens)
    )
    toks = flat.take(pa.array(gather))
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lists = pa.LargeListArray.from_arrays(pa.array(out_off), toks)
    chunk_text = pc.binary_join(lists, " ")
    return pa.table(
        {
            id_col: pc.cast(ids.take(pa.array(doc_of)), pa.int64()),
            "chunk_idx": pa.array(idx, pa.int64()),
            "n_tokens": pa.array(lens, pa.int64()),
            "chunk_text": pc.cast(chunk_text, pa.string()),
        }
    )


def chunk_documents(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    chunk_tokens: int = 64,
    stride: int = 48,
) -> ray.data.Dataset:
    """Split each document into windows of ``chunk_tokens`` whitespace
    tokens advancing by ``stride`` (overlap = chunk_tokens - stride).
    Emits (id, chunk_idx, n_tokens, chunk_text); the final window is
    short rather than padded; documents of ≤ chunk_tokens tokens emit
    exactly one chunk; empty/whitespace-only documents emit none."""
    if chunk_tokens <= 0 or stride <= 0 or stride > chunk_tokens:
        raise ValueError("need 0 < stride <= chunk_tokens")
    C, S = chunk_tokens, stride

    def chunks(batch: pa.Table) -> pa.Table:
        return chunk_table(batch, id_col, text_col, C, S)

    return ds.select_columns([id_col, text_col]).map_batches(
        chunks, batch_format="pyarrow"
    )


def pack_assignments(
    ds: ray.data.Dataset,
    id_col: str,
    count_col: str,
    budget: int,
) -> ray.data.Dataset:
    """GPT-style sequence packing WITH document splitting: documents
    are concatenated in ``id_col`` order into one virtual token stream,
    the stream is cut into consecutive ``budget``-token packs, and each
    document is assigned to every pack it overlaps — (id, pack_id,
    tokens_in_pack) rows. This is the pretraining batch-prep shape
    (concat-then-slice at the context boundary); zero-token rows pack
    nowhere.

    Execution is a DISTRIBUTED PREFIX SCAN — the third wide primitive
    next to the hash exchange and the broadcast semi-join: one sort by
    id (the only all-to-all, on two slim columns), one scalar per block
    to the driver (block token sums — O(blocks), never rows), exclusive
    cumsum, then each block computes its rows' global stream offsets
    independently. Pack boundaries are pure arithmetic on the offsets,
    so the result is identical at ANY block count / parallelism."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    B = np.int64(budget)

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("pack_id", pa.int64()),
            ("tokens_in_pack", pa.int64()),
        ]
    )

    import ray
    from ray.data.block import BlockAccessor

    from duplicate_finder_ray.stages.util import block_refs

    blocks = list(block_refs(ds.select_columns([id_col, count_col]).sort(id_col)))

    @ray.remote
    def block_sum(tbl) -> int:
        tbl = BlockAccessor.for_block(tbl).to_arrow()
        if len(tbl) == 0 or count_col not in tbl.column_names:
            return 0
        return int(tbl.column(count_col).to_numpy().sum())

    sums = np.array(ray.get([block_sum.remote(b) for b in blocks]), dtype=np.int64)
    starts = np.zeros(len(sums), dtype=np.int64)
    if len(sums) > 1:
        np.cumsum(sums[:-1], out=starts[1:])

    @ray.remote
    def assign(tbl, start: int) -> pa.Table:
        tbl = BlockAccessor.for_block(tbl).to_arrow()
        if len(tbl) == 0 or count_col not in tbl.column_names:
            return out_schema.empty_table()
        n = tbl.column(count_col).to_numpy().astype(np.int64)
        ids = tbl.column(id_col).to_numpy().astype(np.int64)
        keep = n > 0
        n, ids = n[keep], ids[keep]
        if len(n) == 0:
            return out_schema.empty_table()
        before = start + np.cumsum(n) - n
        first = before // B
        last = (before + n - 1) // B
        cnt = last - first + 1
        total = int(cnt.sum())
        doc_of = np.repeat(np.arange(len(n), dtype=np.int64), cnt)
        base = np.zeros(len(n), dtype=np.int64)
        np.cumsum(cnt[:-1], out=base[1:])
        pack = first[doc_of] + (np.arange(total, dtype=np.int64) - base[doc_of])
        lo = np.maximum(pack * B, before[doc_of])
        hi = np.minimum((pack + 1) * B, (before + n)[doc_of])
        return pa.table(
            {
                id_col: pa.array(ids[doc_of], pa.int64()),
                "pack_id": pa.array(pack, pa.int64()),
                "tokens_in_pack": pa.array(hi - lo, pa.int64()),
            }
        )

    if not blocks:
        return ray.data.from_arrow(out_schema.empty_table())
    return ray.data.from_arrow_refs(
        [assign.remote(b, int(s)) for b, s in zip(blocks, starts)]
    )


def chunk_share_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    chunk_tokens: int = 64,
    stride: int = 48,
    num_partitions: int = 16,
    cap: int = 1 << 20,
) -> ray.data.Dataset:
    """Partial-overlap detection by chunk identity: (a, b,
    n_shared_chunks) for every document pair sharing ≥1 IDENTICAL
    chunk (distinct chunk values; a < b). Catches the
    'one file pasted inside another' overlap that whole-document
    dedup misses and exact-span LCS prices per pair — at chunk
    granularity it is two barrier-free hash exchanges:

    1. chunk-hash exchange: identical chunks co-locate; per partition,
       (chunk, doc) dedupe + the triangular bucket-pair kernel shared
       with LSH (`bucket_pairs_arrays`) emits each pair once per shared
       chunk value, pre-counted per partition;
    2. pair exchange keyed on hash(a, b) (hub-skew-safe): partial
       counts sum to exact n_shared_chunks.

    ``cap`` bounds a hot chunk's bucket (boilerplate/license chunks
    explode quadratically at corpus scale — same observable-truncation
    trade as the LSH band cap; the sf-scale oracle runs uncapped)."""
    from duplicate_finder_ray.stages.exchange import hash_exchange
    from duplicate_finder_ray.stages.neardup import bucket_pairs_arrays

    import pandas as pd
    import ray

    chunks = chunk_documents(ds, id_col, text_col, chunk_tokens, stride)

    def prep(batch: pa.Table) -> pa.Table:
        h = stable_hash_array(
            batch.column("chunk_text").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "h": pa.array(h, pa.uint64()),
                "d": pc.cast(batch.column(id_col), pa.uint64()),
            }
        )

    slim = chunks.map_batches(prep, batch_format="pyarrow")

    part_schema = pa.schema(
        [("a", pa.uint64()), ("b", pa.uint64()), ("n", pa.int64())]
    )

    def pairs_kernel(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return part_schema.empty_table()
        h = tbl.column("h").to_numpy().astype(np.uint64)
        d = tbl.column("d").to_numpy().astype(np.uint64)
        order = np.lexsort((d, h))
        h, d = h[order], d[order]
        first = np.empty(len(h), dtype=bool)
        first[0] = True
        np.logical_or(h[1:] != h[:-1], d[1:] != d[:-1], out=first[1:])
        h, d = h[first], d[first]  # distinct (chunk, doc)
        a, b, _ = bucket_pairs_arrays(h, d, cap)
        if len(a) == 0:
            return part_schema.empty_table()
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        pf = np.empty(len(a), dtype=bool)
        pf[0] = True
        np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=pf[1:])
        starts = np.nonzero(pf)[0]
        n = np.diff(np.append(starts, len(a))).astype(np.int64)
        return pa.table(
            {
                "a": pa.array(a[starts], pa.uint64()),
                "b": pa.array(b[starts], pa.uint64()),
                "n": pa.array(n, pa.int64()),
            }
        )

    partials = hash_exchange(
        slim, "h", num_partitions, pairs_kernel, part_schema.empty_table()
    )

    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("n_shared_chunks", pa.int64())]
    )

    def sum_kernel(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        a = tbl.column("a").to_numpy().astype(np.uint64)
        b = tbl.column("b").to_numpy().astype(np.uint64)
        n = tbl.column("n").to_numpy()
        order = np.lexsort((b, a))
        a, b, n = a[order], b[order], n[order]
        pf = np.empty(len(a), dtype=bool)
        pf[0] = True
        np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=pf[1:])
        starts = np.nonzero(pf)[0]
        totals = np.add.reduceat(n, starts)
        return pa.table(
            {
                "a": pa.array(a[starts].astype(np.int64), pa.int64()),
                "b": pa.array(b[starts].astype(np.int64), pa.int64()),
                "n_shared_chunks": pa.array(totals, pa.int64()),
            }
        )

    return hash_exchange(
        partials, ["a", "b"], num_partitions, sum_kernel, out_schema.empty_table()
    )


def greedy_pack(
    ds: ray.data.Dataset,
    id_col: str,
    count_col: str,
    budget: int,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """No-split greedy packing (the SFT shape): documents are packed
    WHOLE into bins of ≤ ``budget`` tokens — next-fit-sequential (one
    open bin, closed when the next doc overflows it) in doc-id order
    inside each of ``num_partitions`` hash partitions.
    Emits (id, pack_id, n_tokens, pack_fill); documents longer than the
    budget get a singleton (overflowing) pack; zero-token docs pack
    nowhere. ``pack_id = partition * 2^32 + local_seq`` — globally
    unique and deterministic.

    NOTE ``num_partitions`` is a SEMANTIC parameter (it shapes which
    docs share a bin), not an execution width — results are identical
    at any parallelism for a fixed value, and bin quality is unaffected
    because bins only need to be full, not globally ordered. Greedy
    bin state is inherently sequential (each row's bin depends on the
    running remainder), so the reset scan is an honest compact Python
    loop over the partition's rows — bounded at rows/num_partitions,
    run once per dataset; ``pack_assignments`` is the fully vectorized
    order-exact alternative when splitting documents is acceptable.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("pack_id", pa.int64()),
            ("n_tokens", pa.int64()),
            ("pack_fill", pa.int64()),
        ]
    )

    def part_of(tbl: pa.Table, p: int) -> np.ndarray:
        # md5-prefix partition hash: SQL-replayable (DuckDB
        # ('0x'||substr(md5(id::VARCHAR),1,16))::UBIGINT % p), so the
        # SEMANTIC grouping parameter is reproducible cross-engine and
        # the driver oracle can replay the packing verbatim
        from duplicate_finder_ray.stages.relational import _md5_prefix_u64

        ids = _md5_prefix_u64(tbl.column(id_col))
        return (ids % np.uint64(p)).astype(np.int64)

    def pack_partition(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        ids = tbl.column(id_col).to_numpy().astype(np.int64)
        n = tbl.column(count_col).to_numpy().astype(np.int64)
        keep = n > 0
        ids, n = ids[keep], n[keep]
        if len(ids) == 0:
            return out_schema.empty_table()
        order = np.argsort(ids, kind="stable")
        ids, n = ids[order], n[order]
        local = np.empty(len(ids), dtype=np.int64)
        fill = np.empty(len(ids), dtype=np.int64)
        cur, acc = 0, 0
        for i in range(len(ids)):
            if acc + n[i] > budget and acc > 0:
                cur += 1
                acc = 0
            acc += n[i]
            local[i] = cur
            fill[i] = acc
        # pack_fill = final fill of the bin each row landed in
        starts = np.nonzero(np.r_[True, local[1:] != local[:-1]])[0]
        ends = np.append(starts[1:], len(ids)) - 1
        bin_last = np.repeat(fill[ends], np.diff(np.append(starts, len(ids))))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "pack_id": pa.array(local + (np.int64(p) << np.int64(32)), pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "pack_fill": pa.array(bin_last, pa.int64()),
            }
        )

    from duplicate_finder_ray.stages.exchange import hash_exchange

    slim = ds.select_columns([id_col, count_col])
    return hash_exchange(
        slim, part_of, num_partitions, pack_partition, out_schema.empty_table()
    )

def reassemble_chunks(
    chunks: ray.data.Dataset,
    id_col: str,
    chunk_tokens: int,
    stride: int,
    out_col: str = "text",
    n_parts: int = 32,
) -> ray.data.Dataset:
    """Inverse of :func:`chunk_documents` — rebuild each document from
    its overlapping windows (the round-trip that validates a
    chunk-store: ``reassemble(chunk(docs))`` must equal the
    whitespace-normalized originals token for token).

    ONE hash exchange co-locates a document's chunk rows; inside each
    partition the overlap cut is vectorized — a maxsplit-(C-S) string
    split keeps everything after the first ``chunk_tokens - stride``
    overlap tokens of each non-first chunk WITHOUT exploding tokens —
    and chunks concatenate in chunk_idx order (a per-document join of
    pre-cut strings, O(output chars)). Reducer memory is bounded by
    the partition's documents, never the corpus."""
    import pandas as pd

    if chunk_tokens <= 0 or stride <= 0 or stride > chunk_tokens:
        raise ValueError("need 0 < stride <= chunk_tokens")
    overlap = chunk_tokens - stride

    out_schema = pa.schema([(id_col, pa.int64()), (out_col, pa.string())])

    def rebuild(_p: int, part: pa.Table) -> pa.Table:
        df = (
            part.select([id_col, "chunk_idx", "chunk_text"])
            .to_pandas()
            .sort_values([id_col, "chunk_idx"], kind="mergesort")
        )
        texts = df["chunk_text"]
        if overlap > 0:
            # remainder after the first `overlap` tokens; chunks that
            # are entirely overlap (impossible under the emission rule,
            # handled defensively) contribute nothing
            tail = texts.str.split(" ", n=overlap).str[overlap].fillna("")
        else:
            tail = texts
        piece = np.where(df["chunk_idx"].to_numpy() == 0, texts, tail)
        joined = (
            pd.DataFrame({id_col: df[id_col].to_numpy(), "p": piece})
            .groupby(id_col, sort=False)["p"]
            .agg(" ".join)
        )
        return pa.table(
            {
                id_col: pa.array(joined.index.to_numpy(), pa.int64()),
                out_col: pa.array(joined.to_numpy(), pa.string()),
            }
        )

    from duplicate_finder_ray.stages.exchange import hash_exchange

    return hash_exchange(
        chunks, id_col, n_parts, rebuild, out_schema.empty_table()
    )
