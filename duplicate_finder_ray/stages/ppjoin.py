"""Prefix-filtered exact set-similarity self-join (PPJoin-style).

Exact ALL unordered pairs with shingle-set Jaccard >= tau — the
zero-false-negative candidate generator sitting between LSH banding
(stages/neardup.py:candidate_pairs — probabilistic, recall-targeted)
and the single-task global-postings baseline
(stages/neardup.py:ngram_jaccard_pairs — labelled <=1e5-doc truth
oracle). Classic prefix filtering (SSJoin, Chaudhuri et al. ICDE'06;
PPJoin, Xiao et al. WWW'08, both public): under ANY fixed global
total order over tokens, if |A ∩ B| >= t then the first |A|-t+1
tokens of A and the first |B|-t+1 tokens of B must share at least
one token (the last t-1 positions of either set cannot hold all t
shared tokens). Jaccard >= tau implies
|A∩B| >= tau·|A∪B| >= tau·max(|A|,|B|) >= tau·|A|, so emitting each
doc's first n - ceil(tau·n) + 1 hashes — computed from the doc's OWN
size, a sound (slightly longer than pairwise-optimal) prefix —
guarantees every true pair collides on >= 1 prefix token. Tokens are
ordered by the shingle HASH VALUE itself (df-free variant): no
global document-frequency pass is needed, at the cost of more
candidates than df-ascending PPJoin; the filter stays exact and the
length filter (min >= tau·max) prunes size-mismatched pairs at
emission.

Scale shape: prefix rows are three slim columns
(token u64, fid u64, n int64) — ~(1-tau)·total_shingles rows through
ONE token-keyed hash exchange (stages/exchange.py; no sort barrier);
per-partition pair expansion is the fully vectorized within-group
predecessor trick (stages/repostats.py:repo_overlap_pairs shape, no
Python loop over token groups); cross-token pair dedupe rides a
second hash(a, b)-keyed exchange so hub docs cannot funnel their
pairs into one partition. Hot prefix tokens (a license-header
shingle small enough to land in many prefixes) cost O(bucket²)
candidate pairs — df-ascending ordering is the classic mitigation
(hot tokens leave every prefix); here bucket loads stay observable
through the emitted ``n_bands`` (shared-prefix-token count) and
``bucket_size`` (largest token bucket the pair was seen in).
Verification reuses stages/neardup.py:verify_pairs_exact (fid-keyed
shingle CSRs of the pair endpoints; each pair block is scored where it
is, and the pairs never shuffle).

Reference anchor: the reference computes exact sha256 groups only
(/root/reference/duplicate_finder/duplicate_finder.py:198-239); the
near-dup surface is the north_rule generalization axis, and this
operator is its exact-path member.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.stages.exchange import hash_exchange
from duplicate_finder_ray.stages.neardup import (
    CAND_SCHEMA,
    _csr_views,
    effective_parallelism,
)

_PREFIX_SCHEMA = pa.schema(
    [("token", pa.uint64()), ("fid", pa.uint64()), ("n", pa.int64())]
)


def prefix_lengths(sizes: np.ndarray, tau: float) -> np.ndarray:
    """Sound per-doc prefix length n - ceil(tau·n) + 1 (0 for empty
    sets). The 1e-9 slack can only under-estimate the ceiling, which
    LENGTHENS the prefix — never costs recall."""
    sizes = np.asarray(sizes, dtype=np.int64)
    t = np.maximum(np.ceil(tau * sizes - 1e-9).astype(np.int64), 1)
    return np.where(sizes > 0, sizes - t + 1, 0)


def prefix_filter_candidates(
    sigs: ray.data.Dataset,
    cfg: PipelineConfig,
    n_parts: int | None = None,
) -> ray.data.Dataset:
    """Signature table (fid, n_shingles, shingles) → exact candidate
    pairs (a, b, n_bands, bucket_size) in CAND_SCHEMA, a < b, deduped.
    Guaranteed superset of the true >= tau pair set; feed into
    verify_pairs_exact for the exact join."""
    tau = cfg.jaccard_threshold
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"jaccard_threshold must be in (0, 1], got {tau}")
    parts = n_parts if n_parts is not None else max(4, effective_parallelism(cfg))

    def emit_prefix(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _PREFIX_SCHEMA.empty_table()
        offsets, flat = _csr_views(batch.column("shingles"))
        sizes = np.diff(offsets)
        plen = prefix_lengths(sizes, tau)
        total = int(plen.sum())
        if total == 0:
            return _PREFIX_SCHEMA.empty_table()
        # gather each doc's first plen hashes: sets are ascending-sorted
        # (functions/shingles.py dedupes with np.unique), so the prefix
        # under hash order IS the leading slice
        run_start = np.repeat(np.cumsum(plen) - plen, plen)
        within = np.arange(total, dtype=np.int64) - run_start
        idx = np.repeat(offsets[:-1], plen) + within
        fids = batch.column("fid").to_numpy().astype(np.uint64)
        return pa.table(
            {
                "token": pa.array(flat[idx], pa.uint64()),
                "fid": pa.array(np.repeat(fids, plen), pa.uint64()),
                "n": pa.array(np.repeat(sizes, plen), pa.int64()),
            }
        )

    prefix_rows = sigs.map_batches(emit_prefix, batch_format="pyarrow")

    def expand_pairs(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return CAND_SCHEMA.empty_table()
        tok = tbl.column("token").to_numpy().astype(np.uint64)
        fid = tbl.column("fid").to_numpy().astype(np.uint64)
        n = tbl.column("n").to_numpy().astype(np.int64)
        order = np.lexsort((fid, tok))
        tok, fid, n = tok[order], fid[order], n[order]
        starts = np.r_[True, tok[1:] != tok[:-1]]
        start_pos = np.nonzero(starts)[0]
        gidx = np.cumsum(starts) - 1
        local = np.arange(len(tok)) - start_pos[gidx]  # rank within bucket
        bucket = np.diff(np.append(start_pos, len(tok)))[gidx]
        total = int(local.sum())
        if total == 0:
            return CAND_SCHEMA.empty_table()
        # within-bucket all-pairs: row i pairs with every earlier row of
        # its token bucket (vectorized predecessor expansion)
        b_idx = np.repeat(np.arange(len(tok)), local)
        run_start = np.repeat(np.cumsum(local) - local, local)
        a_idx = np.repeat(start_pos[gidx], local) + (
            np.arange(total, dtype=np.int64) - run_start
        )
        fa, fb = fid[a_idx], fid[b_idx]
        na, nb = n[a_idx], n[b_idx]
        # length filter: jaccard >= tau needs min(|A|,|B|) >= tau·max
        # (slack relaxes the bound — prune-only, never drops true pairs)
        lo = np.minimum(na, nb).astype(np.float64)
        hi = np.maximum(na, nb).astype(np.float64)
        keep = lo >= tau * hi - 1e-9
        # a doc's set has unique hashes, so fa != fb within a bucket
        a = np.where(fa < fb, fa, fb)[keep]
        b = np.where(fa < fb, fb, fa)[keep]
        if len(a) == 0:
            return CAND_SCHEMA.empty_table()
        return pa.table(
            {
                "a": pa.array(a, pa.uint64()),
                "b": pa.array(b, pa.uint64()),
                "n_bands": pa.array(np.ones(len(a), dtype=np.int64), pa.int64()),
                "bucket_size": pa.array(bucket[b_idx][keep], pa.int64()),
            }
        )

    raw_pairs = hash_exchange(
        prefix_rows, "token", parts, expand_pairs, CAND_SCHEMA.empty_table()
    )

    def dedupe(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return CAND_SCHEMA.empty_table()
        a = tbl.column("a").to_numpy().astype(np.uint64)
        b = tbl.column("b").to_numpy().astype(np.uint64)
        bucket = tbl.column("bucket_size").to_numpy().astype(np.int64)
        order = np.lexsort((b, a))
        a, b, bucket = a[order], b[order], bucket[order]
        firsts = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        start_pos = np.nonzero(firsts)[0]
        counts = np.diff(np.append(start_pos, len(a)))
        return pa.table(
            {
                "a": pa.array(a[start_pos], pa.uint64()),
                "b": pa.array(b[start_pos], pa.uint64()),
                "n_bands": pa.array(counts, pa.int64()),
                "bucket_size": pa.array(
                    np.maximum.reduceat(bucket, start_pos), pa.int64()
                ),
            }
        )

    return hash_exchange(
        raw_pairs, ["a", "b"], parts, dedupe, CAND_SCHEMA.empty_table()
    )


def ppjoin_pairs(
    code_with_id: ray.data.Dataset, cfg: PipelineConfig
) -> ray.data.Dataset:
    """Exact Jaccard >= tau self-join over (file_id, content): prefix
    candidates + exact verify. Output = VERIFIED_SCHEMA (string
    ids, a < b) — identical row set to the brute-force oracle."""
    from duplicate_finder_ray.stages import neardup

    sigs = neardup.signatures(
        code_with_id.select_columns(["file_id", "content"]),
        cfg,
        emit_shingles=True,
    ).materialize()
    cands = prefix_filter_candidates(sigs, cfg).materialize()
    return neardup.verify_pairs_exact(cands, sigs, cfg)
