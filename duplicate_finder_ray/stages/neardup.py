"""Near-duplicate detection stages: signatures → LSH bands → candidate
pairs → verified pairs.

North_rule extension (no counterpart in the reference, which is
exact-only — SURVEY.md §2.5): MinHash shingle signatures per file
(SimHash fingerprints on request), LSH banding to generate candidate
pairs, and signature-based verification at threshold τ.

Execution shape:

* ``signature_batch`` is a plain function mapped as Ray tasks, one per
  block, in ``derive_batch_size``-row slices. The map sets no batch
  size, so Ray fuses it with the identity map and projection upstream
  and, when ``read_code_table`` reads a block per file, with the
  Parquet read: one task per file reads its rows, derives ``file_id``
  and emits signatures, and ``content`` never enters the object store.
  The shingler token memo, the (a, b) permutation tables and the kernel
  workspaces live in per-worker-process ``functools.lru_cache`` entries
  keyed on the config fields the kernel reads, so every batch — and
  every later job on the same worker — reuses them without an actor
  pool's start-up. The task folds the MinHash signature into its LSH
  band keys, so the signature table carries ``bands`` (b uint64 per
  doc), not the K-wide ``minhash`` column; that column is emitted only
  on request (estimate-mode verify, the signature queries).
* Candidate generation reads the signature blocks directly: the band
  explosion (flatten ``bands``, repeat fids — n_docs × bands rows) runs
  inside the candidate tasks, so the band rows never materialize. At
  scale that is ONE shuffle on ``band_hash`` — the skewed shuffle of
  this engine — with the explosion as the split-side premap; below
  ``BAND_EXCHANGE_BROADCAST_LIMIT`` band rows, one fused remote lexsort
  task with zero barriers. Hot buckets (license headers, generated
  code) are capped per emission task at the ``band_pair_budget``-derived
  member cap (``band_bucket_cap=None``, the default — truncates NOTHING
  while the task's pair volume fits the budget) or at an explicit
  ``band_bucket_cap``: pairs are emitted only among the first cap
  members (by file_id), every emitted pair carries the TRUE
  ``bucket_size``, and a binding cap warns loudly — truncation is
  observable, never silent (SURVEY.md §7.3). Multiple bands keep recall
  up for capped buckets.
* Pair verification re-reads NOTHING: exact mode scores candidate pairs
  against the shingle sets already emitted by the signature pass,
  assembled into fid-keyed CSR buffers in remote tasks, keeping
  endpoint rows only. Each candidate-pair block is scored where it is,
  by one task that gets every CSR as an argument; the pairs never
  shuffle. Up to ``broadcast_verify_limit`` endpoints there is one
  CSR, built straight from the signature blocks; above it (or with a
  prestarted split) one CSR per ``fid % n_shards`` shard of a
  ``split_wave`` over the signature blocks. Estimate mode hash-joins
  the minhash columns and filters on the Jaccard estimate ≥ τ.
* After the signature pass, the below-limit paths start no Ray Data
  execution: the fused candidate task, the pair dedupe task, the
  endpoint and CSR builds (``util.gather_blocks``) and the verify
  scoring (``map_blocks``) are plain Ray tasks over the materialized
  blocks' refs, wrapped with ``from_arrow_refs``.
"""

from __future__ import annotations

import functools
import logging
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.functions.shingles import (
    Shingler,
    band_keys,
    minhash_params,
    batch_minhash,
    batch_simhash,
    simhash_band_keys,
)
from duplicate_finder_ray.stages.util import (
    block_refs,
    gather_blocks,
    in_sorted,
    map_blocks,
    sorted_distinct,
)

#: layout of the signature table :func:`signature_batch` emits. Part of
#: every checkpoint's config hash, so a stage written under another
#: layout is recomputed, never loaded. 2: LSH ``bands`` per row,
#: ``minhash`` only on request (1 carried ``minhash`` and no ``bands``).
SIGNATURE_FORMAT = 2

#: candidate pairs flow as compact uint64 surrogate ids ("fid" =
#: fixed-key siphash64 of file_id) — the skewed band exchange and the
#: pair tables never ship the long file_id strings; translation back to
#: strings happens once, at the verified-pair boundary, via a broadcast
#: (sorted fids, file_ids) map. Collision odds are the usual 64-bit
#: birthday bound (~n²/2⁶⁵ — negligible to ~10^8 files; at 10^12-file
#: scale swap fid for a 128-bit digest pair, the plumbing is unchanged).
PAIRS_SCHEMA = pa.schema(
    [
        ("a", pa.uint64()),
        ("b", pa.uint64()),
        ("bucket_size", pa.int64()),
    ]
)

_EMPTY_PAIRS = PAIRS_SCHEMA.empty_table()

#: band rows (signature rows × resolved bands; 16 B/row) up to which
#: LSH bucketing, pair emission and the cross-band dedupe run fused in
#: one remote lexsort task — zero shuffle barriers on small inputs.
#: 8M rows ≈ 128 MB and a ~1 s lexsort; past it the two-level band
#: exchange keeps the 10^12-scale shape.
BAND_EXCHANGE_BROADCAST_LIMIT = 8_000_000

#: raw (pre-dedupe) pair rows up to which the cross-band pair dedupe
#: runs as ONE remote lexsort + reduceat task instead of an exchange
#: (an exchange's fixed barrier cost is CPU-count independent; 20M
#: rows × 24 B ≈ 0.5 GB and a ~3 s lexsort in one task).
PAIR_DEDUPE_BROADCAST_LIMIT = 20_000_000

#: deduped candidate pairs (uint64 fids + band-collision count)
CAND_SCHEMA = pa.schema(
    [
        ("a", pa.uint64()),
        ("b", pa.uint64()),
        ("n_bands", pa.int64()),
        ("bucket_size", pa.int64()),
    ]
)

VERIFIED_SCHEMA = pa.schema(
    [
        ("a", pa.string()),
        ("b", pa.string()),
        ("n_bands", pa.int64()),
        ("jaccard", pa.float64()),
        # exact shingle-set intersection/union sizes — integer twins of
        # ``jaccard`` (= n_inter / n_union) that survive any float
        # canonicalization; -1 on the estimate path (no sets in hand)
        ("n_inter", pa.int64()),
        ("n_union", pa.int64()),
    ]
)


def fid_of(ids: np.ndarray) -> np.ndarray:
    """uint64 surrogate id per file_id string — vectorized fixed-key
    siphash (deterministic across processes/nodes)."""
    return stable_hash_array(np.asarray(ids, dtype=object))


def effective_parallelism(cfg: PipelineConfig) -> int:
    """cfg.parallelism clamped to the CPUs the current Ray session
    actually has — a fixed pool/partition count larger than the session
    starves or deadlocks small sessions."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", cfg.parallelism))
    except ray.exceptions.RayError:
        cpus = cfg.parallelism
    return max(2, min(cfg.parallelism, cpus))


@functools.lru_cache(maxsize=4)
def _shingler(k: int, mode: str, token_hash: str) -> Shingler:
    """This worker process's ``Shingler`` for one shingle config: its
    token memo persists across the batches and jobs the process runs."""
    return Shingler(k=k, mode=mode, token_hash=token_hash)


@functools.lru_cache(maxsize=4)
def _minhash_tables(perms: int, seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """This worker process's permutation tables ``(a, b)`` and the
    kernel workspaces they fill (reused: fresh large temps can fault
    pages at single-digit MB/s)."""
    a, b = minhash_params(perms, seed)
    return a, b, {}


def signature_batch(
    batch: pa.Table,
    cfg: PipelineConfig,
    emit_shingles: bool = False,
    emit_simhash: bool = False,
    emit_minhash: bool = False,
) -> pa.Table:
    """Signature kernel over one (file_id, content) batch →
    (file_id, fid, bands list<uint64>[b], n_shingles): the LSH band
    keys of the MinHash signature at ``cfg.resolved_lsh_bands`` bands,
    computed in the task so the K-wide signature never leaves it. On
    request it also emits the signature itself (``emit_minhash``:
    estimate verify and the signature queries read it), the deduped
    shingle set (``emit_shingles``: exact verify reuses it instead of a
    second content read + shingle pass) and the SimHash fingerprint
    (``emit_simhash``). Kernel state comes from the per-process caches,
    keyed on exactly the config fields the kernel reads."""
    shingler = _shingler(cfg.shingle_k, cfg.shingle_mode, cfg.token_hash)
    a, b, work = _minhash_tables(cfg.minhash_perms, cfg.minhash_seed)
    # whole-batch CSR kernels (shingle_hashes_batch_column /
    # batch_minhash / batch_simhash) — bit-identical to the per-doc
    # functions (property-tested); ASCII token batches tokenize
    # entirely in Arrow C (no per-token Python strings)
    flat, offsets = shingler.shingle_hashes_batch_column(batch.column("content"))
    sigs = batch_minhash(flat, offsets, a, b, work=work)
    num_bands = cfg.resolved_lsh_bands
    out = batch.drop_columns(["content"])
    out = out.append_column("fid", _fid_column(batch))
    out = out.append_column("bands", _u64_rows(band_keys(sigs, num_bands)))
    if emit_minhash:
        out = out.append_column("minhash", _u64_rows(sigs))
    if emit_simhash:
        simhashes = batch_simhash(flat, offsets, work=work)
        out = out.append_column("simhash", pa.array(simhashes, type=pa.uint64()))
    out = out.append_column(
        "n_shingles", pa.array(np.diff(offsets), type=pa.int64())
    )
    if emit_shingles:
        out = out.append_column("shingles", _u64_binary(flat, offsets))
    return out


def _u64_rows(m: np.ndarray) -> pa.Array:
    """(n, w) uint64 matrix → ``fixed_size_list<uint64>[w]``."""
    return pa.FixedSizeListArray.from_arrays(
        pa.array(m.reshape(-1), type=pa.uint64()), m.shape[1]
    )


def _fid_column(batch: pa.Table) -> pa.Array:
    ids = batch.column("file_id").to_numpy(zero_copy_only=False)
    return pa.array(fid_of(ids), pa.uint64())


def _u64_binary(flat: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Per-row uint64 runs (CSR ``flat``/``offsets``: shingle sets,
    signatures) as ``large_binary`` of uint64-LE values. The CSR form IS
    that layout — byte offsets are 8 × element offsets — so the column
    is built zero-copy from the kernel's buffers. (Binary, not list:
    pyarrow's hash join rejects list-typed payload columns.)"""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(offsets * 8), pa.py_buffer(flat)],
    )


def signatures(
    ds: ray.data.Dataset,
    cfg: PipelineConfig,
    emit_shingles: bool = False,
    emit_simhash: bool = False,
    emit_minhash: bool = False,
) -> ray.data.Dataset:
    """Map :func:`signature_batch` over a dataset bearing
    (file_id, content) as plain tasks, one per block. The map sets no
    batch size, so Ray fuses it with the maps upstream and, over an
    unsplit read (``read_code_table`` with a block per file), with the
    read itself: ``content`` then never reaches the object store. Each
    task runs the kernel over ``cfg.derive_batch_size``-row slices of
    its block, which bounds the kernel's memory. The per-process kernel
    caches outlive the job, so no job pays for actor start-up or a cold
    token memo."""
    return ds.map_batches(
        _signature_slices,
        fn_kwargs={
            "cfg": cfg,
            "emit_shingles": emit_shingles,
            "emit_simhash": emit_simhash,
            "emit_minhash": emit_minhash,
        },
        batch_format="pyarrow",
    )


def _signature_slices(block: pa.Table, cfg: PipelineConfig, **emit) -> pa.Table:
    """:func:`signature_batch` over ``cfg.derive_batch_size``-row
    slices of ``block``, concatenated (an empty block is one empty
    slice, so its output keeps the signature schema)."""
    rows = cfg.derive_batch_size
    return pa.concat_tables(
        signature_batch(block.slice(start, rows), cfg, **emit)
        for start in range(0, max(len(block), 1), rows)
    )


def _u64_matrix(batch: pa.Table, name: str) -> np.ndarray:
    """A ``fixed_size_list<uint64>`` column as an (n, w) matrix."""
    col = batch.column(name)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # copy=False: the flattened uint64 child array is already the right
    # dtype — an unconditional astype would copy the whole column
    # (fresh pages fault at ~80 MB/s on a small shared host)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(
        np.uint64, copy=False
    )
    return flat.reshape(len(batch), col.type.list_size)


def explode_bands(ds: ray.data.Dataset, cfg: PipelineConfig) -> ray.data.Dataset:
    """Signature table → (band_hash, fid) × num_bands rows as a
    standalone dataset (the incremental probe and the band-rows form of
    :func:`candidate_pairs`; the pipeline explodes inside its candidate
    tasks instead)."""
    return ds.map_batches(
        make_band_explode(cfg), batch_format="pyarrow"
    )


def make_band_explode(cfg: PipelineConfig):
    """The (fid, bands, n_shingles) → (band_hash, fid) × bands kernel:
    it flattens the signature table's band keys and repeats the fids.
    Docs with zero shingles are excluded — the empty-set sentinel
    signature would otherwise bucket all short docs together.

    The exchange rows are TWO uint64s: band_keys() folds the band index
    into the hash itself, and the file identity travels as the compact
    fid surrogate, not the file_id string — the skewed exchange moves
    bands × corpus rows, so every byte here is multiplied by both."""
    num_bands = cfg.resolved_lsh_bands

    def explode(batch: pa.Table) -> pa.Table:
        if "n_shingles" in batch.column_names:
            batch = batch.filter(pa.compute.greater(batch["n_shingles"], 0))
        if len(batch) == 0:
            return pa.table(
                {
                    "band_hash": pa.array([], pa.uint64()),
                    "fid": pa.array([], pa.uint64()),
                }
            )
        keys = _u64_matrix(batch, "bands")
        if keys.shape[1] != num_bands:
            raise ValueError(
                f"signature table carries {keys.shape[1]} band keys per "
                f"row, the config resolves {num_bands} bands"
            )
        fids = batch.column("fid").to_numpy().astype(np.uint64)
        return pa.table(
            {
                "band_hash": pa.array(keys.reshape(-1), pa.uint64()),
                "fid": pa.array(np.repeat(fids, num_bands), pa.uint64()),
            }
        )

    return explode


def derive_bucket_cap(sizes: np.ndarray, budget: int) -> int:
    """Largest per-bucket member cap such that total emitted pairs
    Σ C(min(size, cap), 2) stay within ``budget`` — the recall-safe
    replacement for a fixed member cap: when the task's pair volume
    fits the budget NOTHING is truncated (cap = max bucket size), and
    when it doesn't the cap degrades gracefully instead of silently
    guillotining every near-clique at a magic constant (the failure
    mode the sf0.1 density probe exposed for the old fixed default).
    Monotone in cap ⇒ binary search; never below 2 so every overflowed
    bucket still emits pairs carrying its TRUE size downstream."""
    if len(sizes) == 0:
        return 2
    smax = int(sizes.max())
    if smax <= 2:
        return 2
    sizes = sizes.astype(np.int64)

    def n_pairs(m: int) -> int:
        c = np.minimum(sizes, m)
        return int((c * (c - 1) // 2).sum())

    if n_pairs(smax) <= budget:
        return smax
    lo, hi = 2, smax
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if n_pairs(mid) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def warn_bucket_overflow(
    sizes: np.ndarray, cap: int, kind: str = "LSH"
) -> None:
    """LOUD recall-risk signal when a cap actually binds: pairs among
    members beyond the cap are never emitted, so recall can silently
    drop. Emitted via warnings + logging in whatever process runs the
    kernel (driver for the fused path, worker for exchange reduces —
    worker logs stream to the driver in local mode)."""
    over = sizes > cap
    n_over = int(over.sum())
    if n_over == 0:
        return
    dropped = int((sizes[over] - cap).sum())
    msg = (
        f"{kind} bucket cap {cap} BINDING: {n_over} bucket(s) overflow "
        f"(max size {int(sizes.max())}), {dropped} member slot(s) "
        f"truncated — candidate recall may drop; raise band_pair_budget "
        f"/ band_bucket_cap (embedding LSH: bucket_cap) or check for "
        f"degenerate content. True bucket_size is recorded on every "
        f"emitted pair."
    )
    warnings.warn(msg, RuntimeWarning, stacklevel=3)
    logging.getLogger(__name__).warning(msg)


def bucket_pairs_arrays(
    bh: np.ndarray,
    ids: np.ndarray,
    cap: int | None,
    budget: int | None = None,
    kind: str = "LSH",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pair emission over a band-row array: lexsort by
    (band_hash, fid), cap each bucket at ``cap`` members (or, when cap
    is None, at the pair-budget-derived cap — see derive_bucket_cap),
    emit all intra-bucket pairs per distinct capped size (np.triu
    block trick). Returns raw (a, b, true_bucket_size) — NOT yet
    deduped across bands. The engine's one LSH bucket emitter: the
    MinHash candidate paths (the incremental pipeline's too), SimHash
    (``simhash_bucket_pairs``) and embedding LSH
    (``similarity.lsh_cosine_pairs``) all run it. A binding cap warns
    loudly (never silent), naming ``kind``."""
    none = (
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.int64),
    )
    if len(bh) == 0:
        return none
    order = np.lexsort((ids, bh))
    bh, ids = bh[order], ids[order]
    first = np.empty(len(bh), dtype=bool)
    first[0] = True
    np.not_equal(bh[1:], bh[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    sizes = np.diff(np.append(starts, len(bh)))
    if cap is None:
        cap = derive_bucket_cap(sizes, budget or 10_000_000)
    warn_bucket_overflow(sizes, cap, kind)
    capped = np.minimum(sizes, cap)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_sz: list[np.ndarray] = []
    for m in np.unique(capped):
        if m < 2:
            continue
        sel = capped == m
        st = starts[sel]
        ia, ib = np.triu_indices(int(m), k=1)
        out_a.append(ids[(st[:, None] + ia[None, :]).ravel()])
        out_b.append(ids[(st[:, None] + ib[None, :]).ravel()])
        out_sz.append(np.repeat(sizes[sel], len(ia)))
    if not out_a:
        return none
    return (
        np.concatenate(out_a),
        np.concatenate(out_b),
        np.concatenate(out_sz).astype(np.int64),
    )


def dedupe_pair_arrays(
    a: np.ndarray, b: np.ndarray, sz: np.ndarray
) -> pa.Table:
    """Cross-band dedupe of raw pair arrays by run-length reduce:
    (a, b, n_bands = collision count, bucket_size = max true size)."""
    if len(a) == 0:
        return CAND_SCHEMA.empty_table()
    order = np.lexsort((b, a))
    a, b, sz = a[order], b[order], sz[order]
    first = np.empty(len(a), dtype=bool)
    first[0] = True
    np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=first[1:])
    pstarts = np.nonzero(first)[0]
    n_bands = np.diff(np.append(pstarts, len(a))).astype(np.int64)
    bucket = np.maximum.reduceat(sz, pstarts)
    return pa.table(
        {
            "a": pa.array(a[pstarts], pa.uint64()),
            "b": pa.array(b[pstarts], pa.uint64()),
            "n_bands": pa.array(n_bands),
            "bucket_size": pa.array(bucket),
        }
    )


def candidate_pairs(
    band_rows: ray.data.Dataset | None,
    cfg: PipelineConfig,
    sigs_source: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Band buckets → unordered candidate pairs (a < b, uint64 fids),
    deduped across bands with a band-collision count (``n_bands`` — a
    free similarity signal).

    Input: the signature table as ``sigs_source`` (then ``band_rows`` is
    never read and may be None) — the band explosion runs inside the
    candidate tasks over the signature blocks, so the bands × corpus
    (band_hash, fid) rows never materialize as an intermediate dataset.
    Without it, the standalone band rows of :func:`explode_bands`.

    TWO-LEVEL grouping: the shuffle key is a coarse partition id
    (``hash(band_hash) % P``), and the real bucketing runs VECTORIZED
    (one lexsort) inside each partition — a per-bucket
    ``groupby().map_groups`` would pay a Python call per bucket.
    band_hash is uniform (mixed uint64), so partitions balance; hot
    BUCKETS inside a partition are capped at ``band_bucket_cap`` (or
    the ``band_pair_budget``-derived cap when it is None — the default,
    which truncates NOTHING while a task's pair volume fits the budget)
    with the true bucket size recorded on every emitted pair and a loud
    warning whenever a cap binds (never silent).
    """
    cap = cfg.band_bucket_cap
    budget = cfg.band_pair_budget
    num_parts = effective_parallelism(cfg) * 2
    if sigs_source is not None:
        source = sigs_source.materialize()
        explode = make_band_explode(cfg)
        schema = source.schema()
        names = schema.names if schema is not None else []
        rows_in = [c for c in ("fid", "bands", "n_shingles") if c in names]
        # an upper bound: zero-shingle docs explode to no rows
        n_band_rows = source.count() * cfg.resolved_lsh_bands
    else:
        source = band_rows.materialize()
        explode = None
        rows_in = ["band_hash", "fid"]
        n_band_rows = source.count()

    def band_arrays(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return bucket_pairs_arrays(
            tbl.column("band_hash").to_numpy().astype(np.uint64),
            tbl.column("fid").to_numpy().astype(np.uint64),
            cap,
            budget,
        )

    if n_band_rows <= BAND_EXCHANGE_BROADCAST_LIMIT:
        # SMALL-INPUT FUSED PATH: ONE remote task explodes and lexsorts
        # the band rows (2 uint64 cols — 16 B/row), emits capped pairs
        # per bucket run AND dedupes them across bands in the same pass
        # — zero shuffle barriers (the exchange's fixed cost is
        # CPU-count-independent and dominates small inputs). Same
        # pattern as the pair-dedupe broadcast path; both record the
        # true bucket_size.
        out_parts = int(min(num_parts, max(1, n_band_rows // 10_000 + 1)))

        def fused_bucket_pairs(tbl: pa.Table):
            if explode is not None:
                tbl = explode(tbl)
            a, b, sz = band_arrays(tbl)
            return _task_outputs(dedupe_pair_arrays(a, b, sz), out_parts)

        empty = _task_outputs(CAND_SCHEMA.empty_table(), out_parts)
        return _from_task_outputs(
            gather_blocks(
                source,
                fused_bucket_pairs,
                empty,
                columns=rows_in,
                num_returns=out_parts,
            ),
            out_parts,
        )

    # --- scale path: barrier-free hash exchange (stages/exchange.py) ---
    # band_hash already folds the band index in, so it alone is the
    # bucket key; keying the exchange on band_hash keeps buckets whole.
    # With a signature source the explode is the split-side premap: the
    # band rows are born inside the split tasks. Each reduce runs the
    # SAME vectorized kernel the fused path uses (path equality is
    # test-guarded).
    from duplicate_finder_ray.stages.exchange import hash_exchange

    def emit_reduce(p: int, tbl: pa.Table) -> pa.Table:
        a, b, sz = band_arrays(tbl)
        if len(a) == 0:
            return _EMPTY_PAIRS
        return pa.table(
            {
                "a": pa.array(a, pa.uint64()),
                "b": pa.array(b, pa.uint64()),
                "bucket_size": pa.array(sz.astype(np.int64)),
            }
        )

    pairs = hash_exchange(
        source, "band_hash", num_parts, emit_reduce, _EMPTY_PAIRS, premap=explode
    )
    return _dedupe_candidates(pairs, num_parts)


def _task_outputs(tbl: pa.Table, n: int):
    """``tbl`` cut into ``n`` contiguous slices, the return value of a
    ``num_returns=n`` task (slices past the end are typed and empty)."""
    step = max(1, -(-len(tbl) // n))
    outs = tuple(tbl.slice(i * step, step) for i in range(n))
    return outs[0] if n == 1 else outs


def _from_task_outputs(refs, n: int) -> ray.data.Dataset:
    """The Dataset over a ``num_returns=n`` task's ``_task_outputs``."""
    return ray.data.from_arrow_refs([refs] if n == 1 else list(refs))


def _dedupe_table(tbl: pa.Table) -> pa.Table:
    """:func:`dedupe_pair_arrays` over a raw (a, b, bucket_size) table."""
    return dedupe_pair_arrays(
        tbl.column("a").to_numpy().astype(np.uint64),
        tbl.column("b").to_numpy().astype(np.uint64),
        tbl.column("bucket_size").to_numpy().astype(np.int64),
    )


def _dedupe_candidates(pairs: ray.data.Dataset, num_parts: int) -> ray.data.Dataset:
    """Cross-band dedupe of the band exchange's raw (a, b, bucket_size)
    pairs into candidate pairs with their band-collision count."""
    # The raw (pre-dedupe) pair table is orders of magnitude smaller
    # than the band exchange, so up to ``PAIR_DEDUPE_BROADCAST_LIMIT``
    # rows ONE remote task runs the dedupe kernel — replacing a whole
    # exchange barrier (its fixed cost is CPU-count independent and was
    # a measured scaling-efficiency drag). The result is split into
    # ``num_parts`` blocks so downstream scoring parallelizes. Past the
    # limit, the distributed exchange below is the 10^12-scale shape.
    raw = pairs.materialize()
    n_raw = raw.count()

    if n_raw <= PAIR_DEDUPE_BROADCAST_LIMIT:
        out_parts = int(min(num_parts, max(1, n_raw // 1_000 + 1)))
        return _from_task_outputs(
            gather_blocks(
                raw,
                lambda tbl: _task_outputs(_dedupe_table(tbl), out_parts),
                _task_outputs(CAND_SCHEMA.empty_table(), out_parts),
                num_returns=out_parts,
            ),
            out_parts,
        )

    # distributed fallback: the engine's grouped aggregate keyed on the
    # FULL (a, b) pair (a hub file that near-matches much of the corpus
    # would otherwise funnel its pairs into one partition): the band
    # count and the largest true bucket size per pair.
    from duplicate_finder_ray.stages.exchange import grouped_aggregate

    return grouped_aggregate(
        raw,
        ["a", "b"],
        {"n_bands": ("count", None), "bucket_size": ("max", "bucket_size")},
    )


def _fid_map(tbl: pa.Table) -> tuple:
    """(sorted fids, file_ids aligned) from (fid, file_id) rows."""
    tbl = tbl.sort_by("fid")
    return (
        tbl.column("fid").to_numpy().astype(np.uint64),
        tbl.column("file_id").to_numpy(zero_copy_only=False),
    )


def fid_map_ref(sigs: ray.data.Dataset):
    """Broadcast fid → file_id lookup, built in one task over the
    materialized signature blocks; the driver only passes refs around."""
    return gather_blocks(
        sigs.materialize(),
        _fid_map,
        (np.empty(0, np.uint64), np.empty(0, dtype=object)),
        columns=["fid", "file_id"],
    )


def _pair_strings(batch: pa.Table, fid_map: tuple) -> pa.Table:
    """``batch`` with its uint64 ``a, b`` columns replaced by the file_id
    strings of ``fid_map`` (sorted fids, their names), first, in
    ``a < b`` string order."""
    fids, names = fid_map
    sa = names[np.searchsorted(fids, batch.column("a").to_numpy().astype(np.uint64))]
    sb = names[np.searchsorted(fids, batch.column("b").to_numpy().astype(np.uint64))]
    swap = sa > sb
    out = batch.drop_columns(["a", "b"])
    return pa.table(
        {
            "a": pa.array(np.where(swap, sb, sa), pa.string()),
            "b": pa.array(np.where(swap, sa, sb), pa.string()),
            **{c: out.column(c) for c in out.column_names},
        }
    )


def translate_pairs(
    pairs: ray.data.Dataset, sigs: ray.data.Dataset
) -> ray.data.Dataset:
    """uint64 (a, b) pair columns → file_id strings, re-canonicalized to
    a < b in STRING order (fid order and lexicographic order differ).
    Other columns pass through. One task per pair block; every task
    reads the one fid → file_id map as a task argument."""
    pairs = pairs.materialize()
    schema = pairs.schema().base_schema
    empty = pa.schema(
        [("a", pa.string()), ("b", pa.string())]
        + [f for f in schema if f.name not in ("a", "b")]
    ).empty_table()
    return map_blocks(pairs, _pair_strings, empty, fid_map_ref(sigs))


def verify_pairs(
    pairs: ray.data.Dataset,
    sigs: ray.data.Dataset,
    cfg: PipelineConfig,
) -> ray.data.Dataset:
    """Attach both endpoints' MinHash rows (two shuffle hash joins on
    the uint64 fid) and keep pairs whose MinHash Jaccard estimate ≥ τ.

    Output: (a, b, n_bands, jaccard) with STRING ids — the joins carry
    file_id as payload, so translation back from fids is free here.
    jaccard is the MinHash ESTIMATE (σ ≈ 0.035 at K=128). Only the
    (small) pair table and the signature table shuffle, never content.
    """
    from duplicate_finder_ray.stages.join import shuffle_hash_join
    from duplicate_finder_ray.stages.util import rename_cols

    n_parts = effective_parallelism(cfg)
    payload = ["file_id", "minhash"]
    joined = rename_cols(
        shuffle_hash_join(pairs, sigs, "a", "fid", n_parts, right_cols=payload),
        {"minhash": "minhash_a", "file_id": "fa"},
    )
    joined = rename_cols(
        shuffle_hash_join(joined, sigs, "b", "fid", n_parts, right_cols=payload),
        {"minhash": "minhash_b", "file_id": "fb"},
    )

    threshold = cfg.jaccard_threshold

    def score(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return VERIFIED_SCHEMA.empty_table()
        est = (
            _u64_matrix(batch, "minhash_a") == _u64_matrix(batch, "minhash_b")
        ).mean(axis=1)
        fa = batch.column("fa").to_numpy(zero_copy_only=False)
        fb = batch.column("fb").to_numpy(zero_copy_only=False)
        swap = fa > fb
        out = pa.table(
            {
                "a": pa.array(np.where(swap, fb, fa), pa.string()),
                "b": pa.array(np.where(swap, fa, fb), pa.string()),
                "n_bands": pa.compute.cast(batch["n_bands"], pa.int64()),
                "jaccard": pa.array(est, pa.float64()),
                "n_inter": pa.array(np.full(len(est), -1, dtype=np.int64)),
                "n_union": pa.array(np.full(len(est), -1, dtype=np.int64)),
            }
        )
        return out.filter(pa.compute.greater_equal(out["jaccard"], threshold))

    return joined.map_batches(score, batch_format="pyarrow")


def _fid_shard(fids: np.ndarray, n_shards: int) -> np.ndarray:
    """Exact-verify shard of each fid: ``fid % n_shards``. The shard
    split places CSR rows by it and the scoring tasks look CSRs up by
    it, so the two cannot disagree."""
    return (fids.astype(np.uint64) % np.uint64(n_shards)).astype(np.int64)


def _sig_shard(tbl: pa.Table, n: int) -> np.ndarray:
    return _fid_shard(tbl.column("fid").to_numpy(), n)


def _verify_shards(cfg: PipelineConfig) -> int:
    return max(4, effective_parallelism(cfg))


def _shard_split(
    sigs: ray.data.Dataset, n_shards: int, endpoints_ref=None
) -> list[list]:
    """The verify shard split: each signature block's (fid, file_id,
    shingles) rows cut by ``_fid_shard`` on ``split_wave``, as
    blocks × shards sub-table refs. With ``endpoints_ref`` (a ref to
    the sorted uint64 endpoint array) the split keeps only endpoint
    rows; without it, the CSR builds apply that filter."""
    from duplicate_finder_ray.stages.exchange import split_wave

    def premap(block: pa.Table) -> pa.Table:
        if "fid" not in block.column_names:  # zero-column empty block
            return block
        block = block.select(["fid", "file_id", "shingles"])
        if endpoints_ref is None:
            return block
        fids = block.column("fid").to_numpy().astype(np.uint64)
        return block.filter(pa.array(in_sorted(ray.get(endpoints_ref), fids)))

    return split_wave(block_refs(sigs.materialize()), _sig_shard, n_shards, premap)


def prestart_verify_split(sigs: ray.data.Dataset, cfg: PipelineConfig) -> dict:
    """Launch the exact-verify shard split of the signature table NOW,
    so it overlaps candidate generation instead of serializing after it
    (the split wave was a measured ~1.8 s critical-path term at 32 CPUs
    on the 2.4 M scaling corpus).

    The prestarted split is UNFILTERED: pair endpoints are unknown
    until candidates finish, so the full signature payload is
    partitioned and the CSR build (which runs after endpoints exist)
    applies the endpoint semi-join instead — verify's built-CSR memory
    is unchanged; only the transient split sub-blocks cover the whole
    corpus. Returns an opaque handle for ``verify_pairs_exact``'s
    ``prestarted=`` parameter; a handle whose shard count matches makes
    verify build its CSRs from these shards whatever the endpoint
    count, so the split is never launched and then thrown away."""
    n_shards = _verify_shards(cfg)
    return {"n_shards": n_shards, "split_refs": _shard_split(sigs, n_shards)}


def verify_pairs_exact(
    pairs: ray.data.Dataset,
    sigs: ray.data.Dataset,
    cfg: PipelineConfig,
    prestarted: dict | None = None,
) -> ray.data.Dataset:
    """Exact-Jaccard verification: keep pairs with true shingle Jaccard
    ≥ τ. Pairs arrive as uint64 fids; ``sigs`` is a signature table
    carrying ``shingles`` (``emit_shingles=True``). Output is (a, b,
    n_bands, jaccard, n_inter, n_union) with STRING file_ids (a < b
    lexicographically). One shape at every size:

    1. collect the distinct pair endpoints (uint64, small vs corpus)
       in one remote task; the sorted array stays in the object store;
    2. build one fid-keyed CSR of the endpoint rows' shingle sets per
       verify shard (``_csr_ref``; content does NOT shuffle, no
       endpoint dataset is written);
    3. score each candidate-pair block where it is, one task per block
       (``map_blocks``) with every shard CSR a task argument: the task
       groups its rows by (a-shard, b-shard) and runs the exact-Jaccard
       kernel once per group, filters ≥ τ and translates fids back to
       strings via the file_ids the CSRs carry.

    Up to ``broadcast_verify_limit`` endpoints, and without a
    ``prestarted`` handle, there is one shard, its CSR built in one
    task straight from the signature blocks; no Ray Data execution
    starts. Otherwise ``_verify_shards(cfg)`` shards: the signature
    blocks are split by ``_fid_shard`` (the ``prestarted`` split, or
    one launched here with the endpoint probe in its split tasks) and
    each shard's CSR is built by its own task. Pairs never move. Fids
    are hashed, so a pair block meets nearly every shard: every scoring
    task reads every shard CSR (zero-copy from the object store), and
    the shards bound the size of each CSR build, not a scoring task's
    memory.
    """
    schema = sigs.schema()  # None: a signature table without blocks
    if schema is not None and "shingles" not in schema.names:
        raise ValueError(
            "verify_pairs_exact needs a signature table with a 'shingles' "
            "column (signatures(..., emit_shingles=True))"
        )
    # distinct pair endpoints, computed in ONE remote task over the pair
    # blocks (driver reads back only the count — the sorted uint64 array
    # stays in the object store for the split and CSR tasks)
    pairs = pairs.materialize()
    count_ref, endpoints_ref = gather_blocks(
        pairs,
        sorted_distinct,
        (0, np.empty(0, dtype=np.uint64)),
        columns=["a", "b"],
        num_returns=2,
    )
    n_endpoints = int(ray.get(count_ref))
    if n_endpoints == 0:
        # typed empty output: a map over 0-row blocks emits no blocks,
        # and a materialized blockless Dataset has no schema
        return ray.data.from_arrow(VERIFIED_SCHEMA.empty_table())
    threshold = cfg.jaccard_threshold
    n_shards = _verify_shards(cfg)
    if prestarted is not None and prestarted["n_shards"] != n_shards:
        prestarted = None

    if prestarted is None and n_endpoints <= cfg.broadcast_verify_limit:
        # one shard: its CSR is built straight from the signature blocks
        csr_refs = [_csr_ref(sigs.materialize(), endpoints_ref)]
    else:
        split_refs = (
            prestarted["split_refs"]
            if prestarted is not None
            else _shard_split(sigs, n_shards, endpoints_ref)
        )
        csr_refs = [
            _csr_ref([row[s] for row in split_refs], endpoints_ref)
            for s in range(n_shards)
        ]

    def score(batch: pa.Table, *csrs: tuple) -> pa.Table:
        # one group per (a-shard, b-shard); one shard is one group
        n = len(csrs)
        group = _fid_shard(batch.column("a").to_numpy(), n) * n + _fid_shard(
            batch.column("b").to_numpy(), n
        )
        keys = np.unique(group)
        return pa.concat_tables(
            [
                _score_pairs_two_csr(
                    batch if len(keys) == 1 else batch.filter(pa.array(group == k)),
                    csrs[k // n],
                    csrs[k % n],
                    threshold,
                )
                for k in keys
            ]
        )

    return map_blocks(pairs, score, VERIFIED_SCHEMA.empty_table(), *csr_refs)


_EMPTY_CSR = (
    np.empty(0, dtype=np.uint64),      # sorted fids
    np.empty(0, dtype=np.int64),       # sort permutation -> row index
    None,                              # shingle sets (arrow, row order)
    None,                              # file_ids (arrow, row order)
)


def _csr_views(col: pa.Array | pa.ChunkedArray | None) -> tuple:
    """(byte offsets / 8, flat uint64 view) over an arrow large_binary
    column of uint64-LE sets — ZERO copies for an unchunked array; the
    data stays in the plasma-mapped buffer."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col is None or len(col) == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.uint64)
    arrow_offsets = np.frombuffer(
        col.buffers()[1], dtype=np.int64, count=len(col) + 1,
        offset=col.offset * 8,
    )
    data_buf = col.buffers()[2]
    flat = (
        np.frombuffer(data_buf, dtype=np.uint64)[
            arrow_offsets[0] // 8 : arrow_offsets[-1] // 8
        ]
        if data_buf is not None
        else np.empty(0, dtype=np.uint64)
    )
    return ((arrow_offsets - arrow_offsets[0]) // 8).astype(np.int64), flat


def _csr_ref(sigs, endpoints_ref):
    """The ref of ``_build_csr`` over the signature blocks ``sigs`` (a
    Dataset, or the sub-table refs of one verify shard)."""
    return gather_blocks(
        sigs,
        _build_csr,
        _EMPTY_CSR,
        endpoints_ref,
        columns=["fid", "file_id", "shingles"],
    )


def _build_csr(tbl: pa.Table, endpoints: np.ndarray) -> tuple:
    """fid-keyed CSR over the endpoint rows of (a shard of) the
    signature table's shingle sets.

    NO payload sort and NO numpy copy of the values: only the 8-byte
    keys are argsorted; an indirection array maps sorted-key position ->
    original row, and the shingle/name payloads travel as ARROW columns
    (pickle5 out-of-band buffers — one plasma write, zero-copy reads per
    task). A table sort_by here physically rearranges the
    multi-hundred-MB payload, and a numpy .copy() of it pays this
    sandbox's ~80 MB/s fresh-page fault cost — both measured at 10-45 s
    serial with every scoring task blocked behind.

    ``endpoints``: sorted uint64 array — rows whose fid is not in it
    are dropped BEFORE the argsort (the prestarted split partitions the
    full signature payload because endpoints are unknown at split time;
    this filter keeps the built CSR endpoint-sized either way). Which
    rows belong to which shard is the split's business alone."""
    fids = tbl.column("fid").to_numpy().astype(np.uint64)
    keep = in_sorted(endpoints, fids)
    if not keep.all():
        tbl = tbl.filter(pa.array(keep))
        fids = fids[keep]
    order = np.argsort(fids, kind="stable").astype(np.int64)
    col = tbl.column("shingles").combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks else pa.array([], pa.large_binary())
    names = tbl.column("file_id").combine_chunks()
    if isinstance(names, pa.ChunkedArray):
        names = names.chunk(0) if names.num_chunks else pa.array([], pa.string())
    return fids[order], order, col, names


def _csr_rows(csr: tuple, probe: np.ndarray) -> np.ndarray:
    """Row indices (-1 = missing) of ``probe`` keys in a CSR."""
    keys, order = csr[0], csr[1]
    nk = len(keys)
    if nk == 0:
        return np.full(len(probe), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, probe), nk - 1)
    return np.where(keys[pos] == probe, order[pos], -1)


def _score_pairs_two_csr(
    batch: pa.Table, csr_a: tuple, csr_b: tuple, threshold: float
) -> pa.Table:
    """Exact-Jaccard scoring kernel of ``verify_pairs_exact``: a-side
    rows resolve against ``csr_a``, b-side against ``csr_b`` (the same
    object when both sides share a shard). Emits the VERIFIED_SCHEMA
    with string file_ids, a < b."""
    row_a = _csr_rows(csr_a, batch.column("a").to_numpy().astype(np.uint64))
    row_b = _csr_rows(csr_b, batch.column("b").to_numpy().astype(np.uint64))
    offs_a, flat_a = _csr_views(csr_a[2])
    offs_b, flat_b = _csr_views(csr_b[2])
    jac = np.empty(len(batch), dtype=np.float64)
    n_inter = np.zeros(len(batch), dtype=np.int64)
    n_union = np.zeros(len(batch), dtype=np.int64)
    for i in range(len(batch)):
        ra, rb = row_a[i], row_b[i]
        if ra < 0 or rb < 0:
            jac[i] = 0.0  # unresolvable endpoint can never verify
            continue
        xa = flat_a[offs_a[ra] : offs_a[ra + 1]]
        xb = flat_b[offs_b[rb] : offs_b[rb + 1]]
        inter = len(np.intersect1d(xa, xb, assume_unique=True))
        union = len(xa) + len(xb) - inter
        n_inter[i], n_union[i] = inter, union
        jac[i] = 1.0 if union == 0 else inter / union
    keep = jac >= threshold
    if not keep.any():
        return VERIFIED_SCHEMA.empty_table()
    names_a, names_b = csr_a[3], csr_b[3]
    sa = names_a.take(
        pa.array(np.maximum(row_a[keep], 0), pa.int64())
    ).to_numpy(zero_copy_only=False)
    sb = names_b.take(
        pa.array(np.maximum(row_b[keep], 0), pa.int64())
    ).to_numpy(zero_copy_only=False)
    swap = sa > sb
    return pa.table(
        {
            "a": pa.array(np.where(swap, sb, sa), pa.string()),
            "b": pa.array(np.where(swap, sa, sb), pa.string()),
            "n_bands": pc.cast(
                batch.column("n_bands").filter(pa.array(keep)), pa.int64()
            ),
            "jaccard": pa.array(jac[keep], pa.float64()),
            "n_inter": pa.array(n_inter[keep]),
            "n_union": pa.array(n_union[keep]),
        }
    )


def simhash_bucket_pairs(
    tbl: pa.Table, cap: int | None, budget: int, max_hamming: int
) -> pa.Table:
    """Pairs within ``max_hamming`` bits among the SimHash block-key
    rows ``tbl`` (bkey, file_id, simhash): ``bucket_pairs_arrays`` over
    the row positions of ``tbl`` sorted by file_id, so a binding cap
    keeps each bucket's first members by file_id and ``a < b``."""
    tbl = tbl.take(pc.sort_indices(tbl, [("file_id", "ascending")]))
    a, b, _ = bucket_pairs_arrays(
        tbl.column("bkey").to_numpy(),
        np.arange(len(tbl), dtype=np.int64),
        cap,
        budget,
        kind="SimHash",
    )
    fps = tbl.column("simhash").to_numpy()
    x = np.bitwise_xor(fps[a], fps[b])
    ham = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
    keep = ham <= max_hamming
    ids = tbl.column("file_id")
    return pa.table(
        {
            "a": ids.take(a[keep]),
            "b": ids.take(b[keep]),
            "hamming": pa.array(ham[keep].astype(np.int64)),
        }
    )


def simhash_candidate_pairs(
    sigs: ray.data.Dataset, cfg: PipelineConfig, max_hamming: int = 3
) -> ray.data.Dataset:
    """SimHash near-dup: block the 64-bit fingerprint into
    ``max_hamming + 1`` bit-blocks (pigeonhole: any pair within the
    Hamming radius shares ≥1 exact block), co-locate by block value,
    verify exact Hamming ≤ radius. Same skew cap as LSH.

    Both waves ride the barrier-free hash exchange
    (stages/exchange.py), mirroring the MinHash band exchange: bucket
    co-location keyed on the mixed (band, block-value) key, the block
    explosion running in its split tasks (``premap``) and each
    partition bucketed by ``simhash_bucket_pairs`` (the MinHash
    ``bucket_pairs_arrays`` kernel); then ``grouped_aggregate`` keyed
    on (a, b) keeps each pair's smallest Hamming distance — no
    sort-based groupby, no Python call per bucket."""
    num_blocks = max_hamming + 1
    cap = cfg.band_bucket_cap
    budget = cfg.band_pair_budget
    _EMPTY_OUT = pa.schema(
        [("a", pa.string()), ("b", pa.string()), ("hamming", pa.int64())]
    ).empty_table()

    def explode(batch: pa.Table) -> pa.Table:
        if "n_shingles" in batch.column_names:
            batch = batch.filter(pa.compute.greater(batch["n_shingles"], 0))
        if len(batch) == 0:
            return pa.table(
                {
                    "bkey": pa.array([], pa.uint64()),
                    "file_id": pa.array([], pa.string()),
                    "simhash": pa.array([], pa.uint64()),
                }
            )
        fps = batch.column("simhash").to_numpy().astype(np.uint64)
        keys = simhash_band_keys(fps, num_blocks)  # (n, num_blocks)
        n = len(batch)
        # fold the band index into one uint64 key (same trick as the
        # MinHash band_hash), then mix for partition balance — the raw
        # bit-slices are low-entropy
        band_ids = np.tile(
            np.arange(num_blocks, dtype=np.uint64), n
        )
        with np.errstate(over="ignore"):
            folded = keys.reshape(-1) * np.uint64(num_blocks) + band_ids
        bkey = stable_hash_array(folded)
        take = pa.array(np.repeat(np.arange(n), num_blocks))
        return pa.table(
            {
                "bkey": pa.array(bkey, pa.uint64()),
                "file_id": batch.column("file_id").take(take),
                "simhash": batch.column("simhash").take(take),
            }
        )

    from duplicate_finder_ray.stages.exchange import (
        default_partitions,
        grouped_aggregate,
        hash_exchange,
    )

    pairs = hash_exchange(
        sigs,
        "bkey",
        default_partitions(),
        lambda p, tbl: simhash_bucket_pairs(tbl, cap, budget, max_hamming),
        _EMPTY_OUT,
        premap=explode,
    )
    return grouped_aggregate(pairs, ["a", "b"], {"hamming": ("min", "hamming")})


# ---------------------------------------------------------------------------
# n-gram Jaccard brute force (oracle-checkable baseline; LSH is the scale
# path). ASCII tokenization so the DuckDB SQL twin matches exactly.
# ---------------------------------------------------------------------------

_ASCII_TOKEN_RE = None  # compiled lazily (keeps module import cheap)


def ascii_shingle_hashes(text: str, k: int) -> np.ndarray:
    """Deduped uint64 hashes of the k-token shingles of ``text`` under
    ASCII ``[A-Za-z0-9_]+`` tokenization — the tokenizer the DuckDB
    oracle can reproduce (RE2 class, identical on both engines). Shingle
    identity is the blake2b-64 of tokens joined with US (0x1f), so equal
    shingle strings hash equal on every worker."""
    global _ASCII_TOKEN_RE
    if _ASCII_TOKEN_RE is None:
        import re

        _ASCII_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
    import hashlib

    tokens = _ASCII_TOKEN_RE.findall(text)
    n = len(tokens)
    if n < k:
        return np.empty(0, dtype=np.uint64)
    out = np.empty(n - k + 1, dtype=np.uint64)
    for i in range(n - k + 1):
        s = "\x1f".join(tokens[i : i + k])
        out[i] = int.from_bytes(
            hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little"
        )
    return np.unique(out)


def _ascii_sets(id_col: str, text_col: str, k: int):
    """(id, text) batch → (doc_key, shingles) kernel: each doc's
    ``ascii_shingle_hashes`` set as uint64-LE bytes."""

    def to_sets(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table(
            {
                "doc_key": pa.compute.cast(batch[id_col], pa.string()),
                "shingles": pa.array(
                    [ascii_shingle_hashes(t or "", k).tobytes() for t in texts],
                    pa.large_binary(),
                ),
            }
        )

    return to_sets


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    k: int,
    threshold: float,
) -> ray.data.Dataset:
    """All unordered pairs with exact k-gram Jaccard ≥ threshold.

    Distributed brute force with an inverted-index broadcast: each doc's
    deduped shingle-hash set (small — hashes only, never text) is
    materialized, then ONE REMOTE TASK builds the global postings array
    sorted by shingle from the block refs — the driver reads back only a
    row count, never the corpus-sized array. One task per set block
    (``map_blocks``, the postings a task argument) then scores its
    docs against the whole corpus via searchsorted + bincount —
    O(|S_a| log M) per doc, no per-pair Python work, no shuffle.
    Baseline for the LSH pipelines' recall; fine to ~10^5 docs (postings
    stay ~10^7 u64)."""
    return shingle_set_jaccard_pairs(
        ds.map_batches(_ascii_sets(id_col, text_col, k), batch_format="pyarrow"),
        threshold,
    )


def _build_postings(tbl: pa.Table) -> tuple:
    """The global sorted postings array (shingle-hash → doc index) of
    the (doc_key, shingles) rows. Shared by the exact-Jaccard and
    containment all-pairs scorers."""
    tbl = tbl.sort_by("doc_key")
    keys = tbl.column("doc_key").to_numpy(zero_copy_only=False)
    offsets, all_sh = _csr_views(tbl.column("shingles"))
    sizes = np.diff(offsets)
    all_doc = np.repeat(np.arange(len(keys), dtype=np.int64), sizes)
    order = np.argsort(all_sh, kind="stable")
    return keys, sizes, all_sh[order], all_doc[order]


def _postings_ref(sets_ds: ray.data.Dataset):
    """The ref of ``_build_postings``, built in one task over a
    materialized set dataset (the driver never holds the corpus-sized
    array), or None when it holds no doc."""
    if sets_ds.count() == 0:
        return None
    return gather_blocks(sets_ds, _build_postings, None)


def _doc_overlaps(batch: pa.Table, postings: tuple):
    """Per non-empty set of ``batch``: (doc_key, |S|, overlap counts
    |S ∩ S_j| against every postings doc j) — a searchsorted gather of
    the matching postings, then one bincount."""
    keys_g, _, sh_sorted, doc_sorted = postings
    keys = batch.column("doc_key").to_pylist()
    for key, blob in zip(keys, batch.column("shingles").to_pylist()):
        sa = np.frombuffer(blob, dtype=np.uint64)
        if len(sa) == 0:
            continue
        lo = np.searchsorted(sh_sorted, sa, side="left")
        runs = np.searchsorted(sh_sorted, sa, side="right") - lo
        idx = np.repeat(lo, runs) + (
            np.arange(int(runs.sum())) - np.repeat(np.cumsum(runs) - runs, runs)
        )
        yield key, len(sa), np.bincount(doc_sorted[idx], minlength=len(keys_g))


_JACCARD_SCHEMA = pa.schema(
    [("a", pa.string()), ("b", pa.string()), ("jaccard", pa.float64())]
)


def shingle_set_jaccard_pairs(
    sets_ds: ray.data.Dataset, threshold: float
) -> ray.data.Dataset:
    """Exact-Jaccard ALL-pairs ≥ threshold over pre-shingled docs
    ``(doc_key: string, shingles: large_binary of uint64-LE)`` — the
    brute-force truth oracle for the LSH pipelines' recall gate
    (north_rule: dup-pair recall ≥ 0.99 at identical shingle config).
    Same inverted-postings broadcast shape as ``ngram_jaccard_pairs``.
    """
    sets_ds = sets_ds.materialize()
    ref = _postings_ref(sets_ds)
    if ref is None:
        return ray.data.from_arrow(_JACCARD_SCHEMA.empty_table())

    def score_block(batch: pa.Table, postings: tuple) -> pa.Table:
        keys_g, sizes_g = postings[0], postings[1]
        cols: tuple[list, list, list] = ([], [], [])
        for key, n_a, inter in _doc_overlaps(batch, postings):
            union = n_a + sizes_g - inter
            with np.errstate(divide="ignore", invalid="ignore"):
                jac = np.where(union > 0, inter / union, 0.0)
            (cand,) = np.nonzero(jac >= threshold)
            hit = cand[keys_g[cand] > key]  # unordered dedupe + drop self
            cols[0].append(np.full(len(hit), key, dtype=object))
            cols[1].append(keys_g[hit])
            cols[2].append(jac[hit])
        if not cols[0]:
            return _JACCARD_SCHEMA.empty_table()
        a, b, jac = (np.concatenate(c) for c in cols)
        return pa.table(
            [
                pa.array(a, pa.string()),
                pa.array(b, pa.string()),
                pa.array(np.round(jac, 6)),
            ],
            schema=_JACCARD_SCHEMA,
        )

    return map_blocks(sets_ds, score_block, _JACCARD_SCHEMA.empty_table(), ref)


_CONTAIN_SCHEMA = pa.schema(
    [
        ("a", pa.string()),
        ("b", pa.string()),
        ("n_inter", pa.int64()),
        ("n_a", pa.int64()),
        ("n_b", pa.int64()),
    ]
)


def ngram_containment_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    k: int,
    threshold: float,
) -> ray.data.Dataset:
    """Asymmetric near-dup: all unordered pairs whose k-gram shingle
    CONTAINMENT ``|A ∩ B| / min(|A|, |B|)`` ≥ threshold — catches
    sub/superset documents (a file embedded in a larger one, quoted
    passages, template+payload) that symmetric Jaccard misses because
    the size imbalance dilutes the union. ASCII tokenization so the
    DuckDB twin matches exactly; emits exact integer set sizes
    (rounding-proof oracle columns). Same inverted-postings broadcast
    shape as :func:`ngram_jaccard_pairs` — a ≤10^5-doc truth baseline;
    the LSH pipelines remain the scale path."""
    return shingle_set_containment_pairs(
        ds.map_batches(_ascii_sets(id_col, text_col, k), batch_format="pyarrow"),
        threshold,
    )


def shingle_set_containment_pairs(
    sets_ds: ray.data.Dataset, threshold: float
) -> ray.data.Dataset:
    """Containment ALL-pairs ≥ threshold over pre-shingled docs
    ``(doc_key: string, shingles: large_binary of uint64-LE)`` →
    ``(a, b, n_inter, n_a, n_b)`` with a < b. One task per set block
    probes the one-task global postings array (a task argument) via
    searchsorted + bincount — the
    same O(|S_a| log M) per doc, no shuffle, driver never sees the
    postings."""
    sets_ds = sets_ds.materialize()
    ref = _postings_ref(sets_ds)
    if ref is None:
        return ray.data.from_arrow(_CONTAIN_SCHEMA.empty_table())

    def score_block(batch: pa.Table, postings: tuple) -> pa.Table:
        keys_g, sizes_g = postings[0], postings[1]
        cols: tuple[list, ...] = ([], [], [], [], [])
        for key, n_a, inter in _doc_overlaps(batch, postings):
            denom = np.minimum(n_a, sizes_g)
            with np.errstate(divide="ignore", invalid="ignore"):
                cont = np.where(denom > 0, inter / denom, 0.0)
            (cand,) = np.nonzero(cont >= threshold)
            hit = cand[keys_g[cand] > key]  # unordered dedupe + drop self
            cols[0].append(np.full(len(hit), key, dtype=object))
            cols[1].append(keys_g[hit])
            cols[2].append(inter[hit])
            cols[3].append(np.full(len(hit), n_a))
            cols[4].append(sizes_g[hit])
        if not cols[0]:
            return _CONTAIN_SCHEMA.empty_table()
        a, b, *counts = (np.concatenate(c) for c in cols)
        return pa.table(
            [pa.array(a, pa.string()), pa.array(b, pa.string())]
            + [pa.array(c, pa.int64()) for c in counts],
            schema=_CONTAIN_SCHEMA,
        )

    return map_blocks(sets_ds, score_block, _CONTAIN_SCHEMA.empty_table(), ref)
