"""Driver-contract queries: Ray pipeline per operator + DuckDB oracle SQL.

Each entry in ``QUERIES`` is a callable ``(sf_dir) -> Dataset | DataFrame``
exercising one operator family from SURVEY.md §2 over the deterministic
``code_files`` table derived from ``{sf_dir}/documents.parquet`` (see
sources/code_table.py — the Python and SQL derivations are twins).
``ORACLE_SQL`` holds the equivalent ANSI SQL for DuckDB over the driver's
pre-registered views. Column names match exactly on both sides; the
driver compares row count + schema + order-insensitive value hash.
Entries without SQL (sketches, LSH, clustering) get a rows-only check
from the driver and full oracles in tests/.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.sources.code_table import (
    CODE_FILES_SQL,
    code_files_from_documents,
    read_code_table,
)
from duplicate_finder_ray.stages import exact
from duplicate_finder_ray.stages.derive import add_identity, add_sha256, drop_content
from duplicate_finder_ray.stages.exchange import grouped_aggregate
from duplicate_finder_ray.stages.filters import make_glob_filter, make_size_filter

# Shared SQL prelude: code_files + identity/size/sha256 derivation.
_D_SQL = f"""
WITH code_files AS ({CODE_FILES_SQL}),
d AS (
  SELECT repo, path, "commit", lang, content,
         repo || ':' || path || '@' || "commit" AS file_id,
         octet_length(encode(content)) AS size,
         sha256(content) AS sha256
  FROM code_files
)
"""

_MEMBER_SQL = f"""
{_D_SQL},
members AS (
  -- rank on the (repo, path, commit) tuple, matching the engine: the
  -- joined file_id string would mis-order prefix paths ('@' > '.')
  SELECT file_id, repo, path, "commit", lang, size, sha256,
         sha256 AS group_id,
         count(*) OVER (PARTITION BY size, sha256) AS n_files,
         row_number() OVER (PARTITION BY size, sha256
                            ORDER BY repo, path, "commit") - 1 AS "rank",
         (row_number() OVER (PARTITION BY size, sha256
                             ORDER BY repo, path, "commit") - 1) = 0 AS is_keeper
  FROM d
)
"""


def _read(
    sf_dir: str, table: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    return read_code_table(f"{sf_dir}/{table}.parquet", columns)


def _derived(sf_dir: str) -> ray.data.Dataset:
    ds = code_files_from_documents(sf_dir)
    ds = ds.map_batches(add_identity, batch_format="pyarrow")
    ds = ds.map_batches(add_sha256, batch_format="pyarrow")
    return ds.map_batches(drop_content, batch_format="pyarrow")


def q_code_files_derive(sf_dir: str) -> ray.data.Dataset:
    """F5/F7: identity + size + sha256 derivation over the code table."""
    return _derived(sf_dir).select_columns(
        ["file_id", "repo", "path", "commit", "lang", "size", "sha256"]
    )


def q_exact_dup_groups(sf_dir: str) -> ray.data.Dataset:
    """G1–G4: duplicate groups (group_id, size, n_files)."""
    res = DedupPipeline(PipelineConfig()).run_on(code_files_from_documents(sf_dir))
    return res.groups


def q_exact_dup_members(sf_dir: str) -> ray.data.Dataset:
    """G4/G8: exploded membership with lexicographic rank + keeper flag."""
    res = DedupPipeline(PipelineConfig()).run_on(code_files_from_documents(sf_dir))
    return res.members


def q_exact_dup_members_verified(sf_dir: str) -> ray.data.Dataset:
    """G7: verify_content=True — byte-exact refinement; on collision-free
    input the assignments equal the hash-only ones (SURVEY.md §2.4)."""
    cfg = PipelineConfig(verify_content=True)
    res = DedupPipeline(cfg).run_on(code_files_from_documents(sf_dir))
    return res.members


def q_dedup_keepers(sf_dir: str) -> ray.data.Dataset:
    """S5 (non-destructive deletion): keepers of duplicate groups only."""
    res = DedupPipeline(PipelineConfig()).run_on(code_files_from_documents(sf_dir))
    return res.keepers().select_columns(["file_id", "size", "group_id"])


def q_deletion_tally(sf_dir: str) -> Any:
    """G10: deletion summary (count + freed bytes) as a 1-row table."""
    import pandas as pd

    res = DedupPipeline(PipelineConfig()).run_on(code_files_from_documents(sf_dir))
    return pd.DataFrame([res.tally()])


def q_filter_globs(sf_dir: str) -> ray.data.Dataset:
    """F3/F4: include ['*.py','*.log'] then exclude ['*temp*','*.git/*']."""
    cfg = PipelineConfig(
        include_patterns=["*.py", "*.log"], exclude_patterns=["*temp*", "*.git/*"]
    )
    ds = code_files_from_documents(sf_dir)
    ds = ds.map_batches(add_identity, batch_format="pyarrow")
    ds = ds.map_batches(make_glob_filter(cfg), batch_format="pyarrow")
    return ds.select_columns(["file_id", "size"])


def q_filter_size_range(sf_dir: str) -> ray.data.Dataset:
    """F2: min '100', max '1 KiB' (truthy-gated bounds)."""
    cfg = PipelineConfig(min_file_size_str="100", max_file_size_str="1 KiB")
    ds = code_files_from_documents(sf_dir)
    ds = ds.map_batches(add_identity, batch_format="pyarrow")
    ds = ds.map_batches(
        make_size_filter(cfg.min_file_size, cfg.max_file_size), batch_format="pyarrow"
    )
    return ds.select_columns(["file_id", "size"])


def q_size_prefilter(sf_dir: str) -> ray.data.Dataset:
    """G2: rows surviving the size prefilter (size observed ≥2 times)."""
    ds = _derived(sf_dir)
    sizes = exact.candidate_sizes(ds)
    return exact.apply_size_prefilter(ds, sizes).select_columns(["file_id", "size"])


def q_group_sort_by_n(sf_dir: str) -> ray.data.Dataset:
    """G5: groups ordered by group size desc (order itself is checked by
    tests; the driver hash is order-insensitive)."""
    res = DedupPipeline(PipelineConfig(sort_by_group_size=True)).run_on(
        code_files_from_documents(sf_dir)
    )
    return res.groups.sort(["n_files", "group_id"], descending=[True, False])


def q_group_sort_by_size(sf_dir: str) -> ray.data.Dataset:
    """G6: groups ordered by member file size desc (reference's
    sort-by-size reporting mode; driver hash is order-insensitive, the
    order itself is asserted in tests/test_exact_dedup.py)."""
    res = DedupPipeline(PipelineConfig(sort_by_file_size=True)).run_on(
        code_files_from_documents(sf_dir)
    )
    return res.groups.sort(["size", "group_id"], descending=[True, False])


def q_token_counts(sf_dir: str) -> ray.data.Dataset:
    """Text analysis: whitespace token count per document."""

    def count_tokens(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(batch["text"])
        n_tokens = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
        n_tokens = pc.if_else(
            pc.equal(trimmed, ""), pa.scalar(0, pa.int32()), n_tokens
        )
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": pc.cast(n_tokens, pa.int64())}
        )

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(count_tokens, batch_format="pyarrow")


#: SQL-replayable signature config: md5 token ids (DuckDB
#: md5_number_lower), 16 perms × 4 bands — the FULL signature pipeline
#: (rolling shingle mix, MinHash permutations, band-key fold, SimHash
#: votes) is uint64-wraparound arithmetic that the generated oracle
#: replays with HUGEINT limb products, so the driver hash-verifies the
#: production kernels (batch_minhash/batch_simhash/band_keys —
#: identical code, parameterized token hash). The default
#: budget-derived bucket cap never binds at gate scales (see
#: q_near_dup_pairs), so no cap override is needed.
def _md5_sig_config() -> PipelineConfig:
    return PipelineConfig(
        token_hash="md5",
        minhash_perms=16,
        lsh_bands=4,
    )


#: verified near-dup config of the ``near_dup_*`` queries: τ = 0.5
#: (word-salad texts need a low τ to produce pairs) with
#: recall-targeted auto banding, so the LSH pipeline returns the
#: complete ≥τ pair set the brute-force SQL computes. The word-salad
#: corpus turns near-clique at sf0.1 (~720k true pairs over 5k docs) —
#: the answer is genuinely quadratic there. The default budget-derived
#: cap (band_bucket_cap=None + band_pair_budget) truncates nothing
#: while pair volume fits the per-task budget and warns loudly if it
#: ever binds, so no override is needed.
def _near_dup_cfg() -> PipelineConfig:
    return PipelineConfig(jaccard_threshold=0.5, lsh_bands=0)


def q_minhash_signatures(sf_dir: str) -> ray.data.Dataset:
    """M3: MinHash + SimHash signature table in long form
    (file_id, perm, minhash, simhash, n_shingles) under the
    SQL-replayable md5 hash family — HASH-MATCH oracle: the generated
    SQL recomputes every signature bit-for-bit (determinism/estimator
    oracles additionally in tests/test_shingles.py). Zero-shingle docs
    (< k tokens — exact-dedup territory) drop out on both sides."""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

    cfg = _md5_sig_config()
    sigs = NearDupPipeline(cfg).signatures_for(
        code_files_from_documents(sf_dir), simhash=True, minhash=True
    )

    def explode(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["n_shingles"], 0))
        col = batch.column("minhash")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n, k = len(batch), cfg.minhash_perms
        rep = pa.array(np.repeat(np.arange(n), k))
        return pa.table(
            {
                "file_id": pc.take(batch.column("file_id"), rep),
                "perm": pa.array(np.tile(np.arange(k, dtype=np.int64), n)),
                "minhash": col.flatten(),
                "simhash": pc.take(batch.column("simhash"), rep),
                "n_shingles": pc.take(batch.column("n_shingles"), rep),
            }
        )

    return sigs.map_batches(explode, batch_format="pyarrow")


def q_lsh_candidate_pairs(sf_dir: str) -> ray.data.Dataset:
    """M4: LSH candidate pairs (a, b, n_bands, bucket_size) under the
    md5 family's 4×4 banding — HASH-MATCH oracle: the generated SQL
    folds the same band keys and emits intra-bucket pairs with the
    same cross-band dedupe/counts (recall-vs-τ oracle additionally in
    tests/test_neardup.py). The production recall-targeted auto
    banding is exercised by q_near_dup_pairs."""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
    from duplicate_finder_ray.stages import neardup

    cfg = _md5_sig_config()
    sigs = NearDupPipeline(cfg).signatures_for(code_files_from_documents(sf_dir))
    sigs = sigs.materialize()  # consumed by both the candidates and the id map
    return neardup.translate_pairs(
        neardup.candidate_pairs(None, cfg, sigs_source=sigs), sigs
    )


def q_near_dup_pairs(sf_dir: str) -> ray.data.Dataset:
    """M4/M5: verified near-dup pairs at τ=0.5 over the documents-derived
    code table (word-salad texts need a low τ to produce pairs).

    HASH-MATCH oracle: with recall-targeted auto banding (lsh_bands=0)
    the LSH+exact-verify pipeline returns the complete ≥τ pair set, so
    the brute-force n-gram-Jaccard SQL is its oracle. The comparison
    rides on the INTEGER intersection/union sizes — exact twins of the
    float jaccard that no rounding mode can smudge."""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

    cfg = _near_dup_cfg()
    res = NearDupPipeline(cfg).run_on(code_files_from_documents(sf_dir))
    return res.pairs.select_columns(["a", "b", "n_inter", "n_union"])


def q_near_dup_clusters(sf_dir: str) -> ray.data.Dataset:
    """M5: connected-component labels over verified pairs — with auto
    banding the pair graph equals the brute-force graph, so the WITH
    RECURSIVE transitive-closure SQL is a full hash-match oracle
    (union-find oracle also in tests/test_neardup.py)."""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

    cfg = _near_dup_cfg()
    res = NearDupPipeline(cfg).run_on(code_files_from_documents(sf_dir))
    return res.labels


def q_near_dup_spans(sf_dir: str) -> ray.data.Dataset:
    """M6: longest common byte span per verified near-dup pair
    (rows-only; exact-LCS oracle in tests/test_spans.py)."""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
    from duplicate_finder_ray.stages.derive import add_identity
    from duplicate_finder_ray.stages.spans import common_spans

    cfg = _near_dup_cfg()
    code = code_files_from_documents(sf_dir)
    res = NearDupPipeline(cfg).run_on(code)
    with_id = code.map_batches(add_identity, batch_format="pyarrow")
    return common_spans(res.pairs, with_id, min_span=16)


def q_ngram_jaccard_pairs(sf_dir: str) -> ray.data.Dataset:
    """n-gram Jaccard near-dup baseline: ALL pairs with exact 5-gram
    Jaccard ≥ 0.5 under ASCII tokenization (inverted-index broadcast
    brute force — the oracle-checkable baseline; LSH is the scale
    path)."""
    from duplicate_finder_ray.stages.derive import add_identity
    from duplicate_finder_ray.stages.neardup import ngram_jaccard_pairs

    ds = code_files_from_documents(sf_dir).map_batches(
        add_identity, batch_format="pyarrow"
    )
    return ngram_jaccard_pairs(ds, "file_id", "content", k=5, threshold=0.5)


def q_ngram_jaccard_clusters(sf_dir: str) -> ray.data.Dataset:
    """Connected components over the exact n-gram-Jaccard pair graph —
    gives the distributed CC stage (stages/cc.py) a full hash-match SQL
    oracle: DuckDB computes the same components via a WITH RECURSIVE
    transitive closure + min-label reduction."""
    from duplicate_finder_ray.stages.cc import connected_components

    return connected_components(q_ngram_jaccard_pairs(sf_dir), PipelineConfig())


def q_ppjoin_pairs(sf_dir: str) -> ray.data.Dataset:
    """Prefix-filtered EXACT set-similarity self-join (PPJoin-style,
    stages/ppjoin.py): all pairs with exact 5-gram Jaccard >= 0.5, zero
    false negatives by the prefix-filter lemma — so the brute-force
    n-gram-Jaccard SQL is a full hash-match oracle (same row set as
    near_dup_pairs, reached without LSH's probabilistic banding and
    without the single-task postings of ngram_jaccard_pairs). The
    comparison rides on the integer n_inter/n_union twins."""
    from duplicate_finder_ray.stages.derive import add_identity
    from duplicate_finder_ray.stages.ppjoin import ppjoin_pairs

    cfg = PipelineConfig(jaccard_threshold=0.5)
    code = code_files_from_documents(sf_dir).map_batches(
        add_identity, batch_format="pyarrow"
    )
    return ppjoin_pairs(code, cfg).select_columns(["a", "b", "n_inter", "n_union"])


def q_simhash_pairs(sf_dir: str) -> ray.data.Dataset:
    """SimHash near-dup: Hamming ≤ 3 pairs via bit-block pigeonhole
    banding under the md5 family — HASH-MATCH oracle: pigeonhole
    blocking has zero false negatives at the radius, so the O(n²)
    bit_count(xor) SQL over the recomputed fingerprints is exact
    (hamming oracle additionally in tests/test_neardup.py)."""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
    from duplicate_finder_ray.stages.neardup import simhash_candidate_pairs

    cfg = _md5_sig_config()
    sigs = NearDupPipeline(cfg).signatures_for(
        code_files_from_documents(sf_dir), simhash=True
    )
    return simhash_candidate_pairs(sigs, cfg, max_hamming=3)


def q_ann_topk(sf_dir: str) -> ray.data.Dataset:
    """ANN baseline: brute-force cosine top-10 for query vecs 0..7
    (broadcast query matrix, per-batch local top-k, tiny global reduce)."""
    from duplicate_finder_ray.stages import similarity

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    topk = similarity.topk_neighbors(emb, query_ids=list(range(8)), k=10)

    def round_score(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("score"),
            "score",
            pc.round(batch["score"], ndigits=6),
        )

    return topk.map_batches(round_score, batch_format="pyarrow")


def q_ann_topk_ivf(sf_dir: str) -> ray.data.Dataset:
    """IVF-partitioned ANN top-k (the scale path): k-means inverted
    file → probe-pruned assignment shuffle → per-cell local top-k →
    tiny per-query merge. Run here with exhaustive probing
    (nprobe=n_centroids) and cell_splits=2 so the whole
    train/partition/score/merge machinery is exercised while the result
    stays EXACT — hash-checked against the same brute-force SQL oracle
    as ann_topk. Approximate recall at nprobe≪n_centroids is gated in
    tests/test_similarity.py."""
    from duplicate_finder_ray.stages import similarity

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    topk = similarity.ivf_topk_neighbors(
        emb,
        query_ids=list(range(8)),
        k=10,
        n_centroids=16,
        nprobe=None,
        cell_splits=2,
    )

    def round_score(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("score"),
            "score",
            pc.round(batch["score"], ndigits=6),
        )

    return topk.map_batches(round_score, batch_format="pyarrow")


def q_embedding_cosine_pairs(sf_dir: str) -> ray.data.Dataset:
    """Embedding near-dup: all pairs with cosine ≥ 0.4 (brute-force
    distributed baseline; the corpus matrix is broadcast once)."""
    from duplicate_finder_ray.stages import similarity

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = similarity.cosine_pairs(emb, threshold=0.4)

    def round_score(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("score"),
            "score",
            pc.round(batch["score"], ndigits=6),
        )

    return pairs.map_batches(round_score, batch_format="pyarrow")


def q_embedding_lsh_pairs(sf_dir: str) -> ray.data.Dataset:
    """Scale-path ANN pairs: random-hyperplane LSH buckets + exact
    cosine verify, with recall-targeted auto parameters (54 tables ×
    4 bits at τ=0.4 / target 0.9999 — the old fixed 8×8 detected ~18%
    of threshold pairs). HASH-MATCH oracle: the pair set equals the
    brute-force cosine truth, so it shares embedding_cosine_pairs' SQL
    (recall property also gated in tests/test_similarity.py)."""
    from duplicate_finder_ray.stages import similarity

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    n_tables, n_bits = similarity.hyperplane_params_for(0.4, 0.9999)
    pairs = similarity.lsh_cosine_pairs(
        emb, threshold=0.4, n_tables=n_tables, n_bits=n_bits
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch["a"],
                "b": batch["b"],
                "score": pc.round(batch["score"], ndigits=6),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


def q_incremental_embedding_pairs(sf_dir: str) -> ray.data.Dataset:
    """Incremental embedding dedup: vectors with vec_id % 10 == 0 are
    the NEW batch, the rest the persisted baseline; report every
    cosine ≥ 0.4 pair touching the increment. The increment matrix is
    broadcast once; the baseline streams through one scoring pass —
    never re-scored against itself (the point of incremental mode)."""
    from duplicate_finder_ray.stages import similarity

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def split(batch: pa.Table, keep_inc: bool) -> pa.Table:
        vid = batch.column("vec_id").to_numpy()
        is_inc = (vid % 10) == 0
        return batch.filter(pa.array(is_inc if keep_inc else ~is_inc))

    import functools

    baseline = emb.map_batches(
        functools.partial(split, keep_inc=False), batch_format="pyarrow"
    )
    increment = emb.map_batches(
        functools.partial(split, keep_inc=True), batch_format="pyarrow"
    )
    pairs = similarity.incremental_cosine_pairs(baseline, increment, 0.4)

    def round_score(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("score"),
            "score",
            pc.round(batch["score"], ndigits=6),
        )

    return pairs.map_batches(round_score, batch_format="pyarrow")


def q_events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1-hour windowed aggregate over events (row-local window
    key + one grouped aggregate; integer-cent sums ⇒ order-proof)."""
    from duplicate_finder_ray.stages import events as ev

    return ev.hourly_rollup(_read(sf_dir, "events"))


def q_events_sessions(sf_dir: str) -> ray.data.Dataset:
    """Gap-based sessionization (30-min gap) per user over events."""
    from duplicate_finder_ray.stages import events as ev

    return ev.sessionize(
        _read(sf_dir, "events"), gap_minutes=30
    )


def q_media_meta(sf_dir: str) -> ray.data.Dataset:
    """Multimodal: payload → typed metadata via the actor-pool decode
    stage (DecoderStub arithmetic is SQL-expressible, so the oracle
    verifies the distributed plumbing end-to-end)."""
    from duplicate_finder_ray.stages import multimodal as mm

    meta = mm.media_meta(mm.media_from_documents(sf_dir))
    return meta.drop_columns(["payload"])


def q_media_frame_sample(sf_dir: str) -> ray.data.Dataset:
    """Multimodal: video rows exploded into every 10th frame row."""
    from duplicate_finder_ray.stages import multimodal as mm

    frames = mm.sample_frames(mm.media_from_documents(sf_dir), stride=10)
    return frames.select_columns(["media_id", "frame_idx"])


def q_media_features(sf_dir: str) -> ray.data.Dataset:
    """Multimodal: batched fake-model inference in an actor pool,
    exploded to (media_id, media_type, dim_idx, feature) — HASH-MATCH
    oracle: the stub's md5-counter lanes and the /2^32 - 0.5 float
    ladder are recomputed verbatim in SQL, so the driver verifies the
    actor-pool plumbing end-to-end (determinism oracle additionally in
    tests/test_multimodal.py). Swapping in a real model keeps the
    plumbing and drops only this oracle."""
    from duplicate_finder_ray.stages import multimodal as mm

    feats = mm.media_features(mm.media_from_documents(sf_dir), dim=64)

    def explode(batch: pa.Table) -> pa.Table:
        col = batch.column("features")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n, k = len(batch), 64
        rep = pa.array(np.repeat(np.arange(n), k))
        return pa.table(
            {
                "media_id": pc.take(batch.column("media_id"), rep),
                "media_type": pc.take(batch.column("media_type"), rep),
                "dim_idx": pa.array(np.tile(np.arange(k, dtype=np.int64), n)),
                "feature": col.flatten(),
            }
        )

    return feats.map_batches(explode, batch_format="pyarrow")


def q_quality_scores(sf_dir: str) -> ray.data.Dataset:
    """Text quality metrics (prose-ness heuristics) per document."""
    from duplicate_finder_ray.stages import textstats

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(textstats.quality_scores, batch_format="pyarrow")


def q_language_id(sf_dir: str) -> ray.data.Dataset:
    """Marker-word language ID (hash-match oracle: the SQL twin is
    generated from the same LANG_MARKERS constant; python oracle in
    tests/test_textstats.py)."""
    from duplicate_finder_ray.stages import textstats

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(textstats.language_id, batch_format="pyarrow")


def q_doc_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Winnowing fingerprints in long form (doc_id, fp) — HASH-MATCH
    oracle: the byte-level polynomial k-gram hash (mod 2^31-1, base
    1000003) and the window-min selection are integer-exact, so DuckDB
    recomputes them verbatim over hex(encode(text)) (python oracle also
    in tests/test_textstats.py). Docs with zero fingerprints
    (< k bytes) drop out of the long form on both sides."""
    from duplicate_finder_ray.stages import textstats

    def explode(batch: pa.Table) -> pa.Table:
        col = batch.column("fingerprints")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parents = pc.list_parent_indices(col)
        return pa.table(
            {
                "doc_id": pc.take(batch.column("doc_id"), parents),
                "fp": pc.cast(pc.list_flatten(col), pa.int64()),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(textstats.fingerprint_docs, batch_format="pyarrow")
        .map_batches(explode, batch_format="pyarrow")
    )


def q_token_counts_bpe(sf_dir: str) -> ray.data.Dataset:
    """Whitespace + BPE-ish token counts per document."""
    from duplicate_finder_ray.stages import textstats

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(textstats.token_counts, batch_format="pyarrow")


def _split_docs_code(sf_dir: str, increment: bool) -> ray.data.Dataset:
    """documents split into baseline (doc_id % 5 ≠ 0) vs increment
    (doc_id % 5 = 0), then the standard code-table derivation —
    deterministic and SQL-expressible on both sides."""
    from duplicate_finder_ray.sources.code_table import _derive_code_files_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        keep = (ids % 5 == 0) if increment else (ids % 5 != 0)
        return batch.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow").map_batches(
        _derive_code_files_batch, batch_format="pyarrow"
    )


def q_incremental_dedup(sf_dir: str) -> ray.data.Dataset:
    """Incremental exact dedup: documents with doc_id % 5 = 0 arrive as
    the new increment against the rest as the already-digested
    baseline; every increment file is labeled with its group, keeper
    flag and (when it matches an existing group) the baseline keeper."""
    from duplicate_finder_ray.pipelines.incremental import (
        IncrementalDedup,
        _digests,
    )

    baseline = _digests(_split_docs_code(sf_dir, increment=False))
    inc = _split_docs_code(sf_dir, increment=True)
    return IncrementalDedup(PipelineConfig()).run(baseline, inc).members


def q_incremental_near_dup(sf_dir: str) -> ray.data.Dataset:
    """Incremental NEAR-dup: the doc_id % 5 = 0 increment probed
    against the rest's persisted signature table; returns verified
    pairs touching the increment. HASH-MATCH oracle: the brute-force
    n-gram truth restricted to increment-touching pairs (full-rescan
    equivalence also in tests/test_incremental.py)."""
    from duplicate_finder_ray.pipelines.incremental import IncrementalNearDup
    from duplicate_finder_ray.stages import neardup
    from duplicate_finder_ray.stages.derive import add_identity

    cfg = _near_dup_cfg()
    wid = _split_docs_code(sf_dir, increment=False).map_batches(
        add_identity, batch_format="pyarrow"
    )
    base_sigs = neardup.signatures(
        wid.select_columns(["file_id", "content"]), cfg, emit_shingles=True
    ).materialize()
    inc = _split_docs_code(sf_dir, increment=True)
    pairs = IncrementalNearDup(cfg).run(base_sigs, inc).pairs
    return pairs.select_columns(["a", "b", "n_inter", "n_union"])


# --------------------------------------------------------------------------
# relational operators (joins, set ops, sampling, top-k, quantiles) —
# SURVEY.md §2.5 lists these as absent from the reference; they are
# first-class here because a training-data pipeline needs them
# --------------------------------------------------------------------------


def q_join_segment_revenue(sf_dir: str) -> ray.data.Dataset:
    """Broadcast hash join (fact orders × dim customer, small side
    ray.put once) + partial-aggregate rollup: revenue per market
    segment in exact integer cents."""
    from duplicate_finder_ray.stages import relational as rel

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = rel.broadcast_hash_join(
        orders, cust, "o_custkey", "c_custkey", ["c_mktsegment"]
    )
    return rel.grouped_sum_rollup(
        joined, ["c_mktsegment"], {"o_totalprice": "revenue_cents"}
    )


def q_lineitem_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q1-style rollup with an explicit per-batch combiner: the
    shuffle carries one partial row per (flag, status) per block, never
    raw lineitems."""
    from duplicate_finder_ray.stages import relational as rel

    li = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )
    return rel.grouped_sum_rollup(
        li,
        ["l_returnflag", "l_linestatus"],
        {"l_quantity": "sum_qty_cents", "l_extendedprice": "sum_price_cents"},
    )


def q_asof_last_purchase(sf_dir: str) -> ray.data.Dataset:
    """As-of join: every event annotated with the value (cents) of the
    same user's most recent STRICTLY-earlier purchase event (-1 if
    none). One shuffle keyed by user_id; per-user searchsorted."""
    from duplicate_finder_ray.stages import relational as rel

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "ts_us": ts_us,
                "event_type": batch["event_type"],
                "cents": rel.cents(batch["value"]),
            }
        )

    base = ev.map_batches(prep, batch_format="pyarrow").materialize()
    left = base.select_columns(["event_id", "user_id", "ts_us"])

    def only_purchases(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["event_type"], "purchase")).select(
            ["user_id", "ts_us", "cents"]
        )

    purchases = grouped_aggregate(
        base.map_batches(only_purchases, batch_format="pyarrow"),
        ["user_id", "ts_us"],
        {"cents": ("max", "cents")},
    )
    return rel.asof_join(
        left,
        purchases,
        key="user_id",
        left_ts="ts_us",
        right_ts="ts_us",
        value_col="cents",
        out_col="last_purchase_cents",
    )


#: half-open price ranges (cents) for the range-join query — sorted,
#: non-overlapping, covering lineitem's l_extendedprice domain
_PRICE_BUCKETS = [
    (0, 0, 2_000_000),
    (1, 2_000_000, 4_000_000),
    (2, 4_000_000, 6_000_000),
    (3, 6_000_000, 8_000_000),
    (4, 8_000_000, 20_000_000),
]


def q_range_join_price_buckets(sf_dir: str) -> ray.data.Dataset:
    """Range (interval) join: each lineitem's price against a broadcast
    table of half-open cent ranges, then a per-bucket rollup."""
    from duplicate_finder_ray.stages import relational as rel

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table({"price_cents": rel.cents(batch["l_extendedprice"])})

    bucketed = rel.range_join_buckets(
        li.map_batches(to_cents, batch_format="pyarrow"),
        "price_cents",
        _PRICE_BUCKETS,
    )
    return grouped_aggregate(
        bucketed,
        "bucket_id",
        {"n_items": ("count", None), "sum_price_cents": ("sum", "price_cents")},
    )


def q_events_sliding(sf_dir: str) -> ray.data.Dataset:
    """Sliding-window aggregate (1h windows every 15min): row-local
    window fan-out (amplification = 4, data-independent) + one grouped sum."""
    from duplicate_finder_ray.stages import events as ev

    return ev.sliding_rollup(
        _read(sf_dir, "events"),
        window_minutes=60,
        step_minutes=15,
    )


def q_topk_docs_per_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-group top-k: the 3 longest documents per language (ties by
    doc_id); per-batch local top-k combiner before the shuffle."""
    from duplicate_finder_ray.stages import relational as rel

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    top = rel.topk_per_group(docs, "lang", "n_chars", "doc_id", k=3)
    return top.select_columns(["lang", "rank", "doc_id", "n_chars"])


def _repo_below_org3(batch: pa.Table) -> pa.Table:
    return batch.filter(pc.less(batch["repo"], "org3"))


def _repo_from_org3(batch: pa.Table) -> pa.Table:
    return batch.filter(pc.greater_equal(batch["repo"], "org3"))


def q_set_intersect_repos(sf_dir: str) -> ray.data.Dataset:
    """Distributed INTERSECT: content sha256 values present in both the
    org0-org2 and the org3-org6 repo halves (flag partials + one
    max-flag grouped aggregate; raw rows never shuffled)."""
    from duplicate_finder_ray.stages import relational as rel

    d = _derived(sf_dir).select_columns(["repo", "sha256"]).materialize()
    a = d.map_batches(_repo_below_org3, batch_format="pyarrow")
    b = d.map_batches(_repo_from_org3, batch_format="pyarrow")
    return rel.intersect_keys(a, b, "sha256")


def q_set_except_repos(sf_dir: str) -> ray.data.Dataset:
    """Distributed EXCEPT: sha256 values exclusive to the org0-org2
    half."""
    from duplicate_finder_ray.stages import relational as rel

    d = _derived(sf_dir).select_columns(["repo", "sha256"]).materialize()
    a = d.map_batches(_repo_below_org3, batch_format="pyarrow")
    b = d.map_batches(_repo_from_org3, batch_format="pyarrow")
    return rel.except_keys(a, b, "sha256")


def q_sample_docs_md5(sf_dir: str) -> ray.data.Dataset:
    """Deterministic Bernoulli sample (~5.1%): md5(doc_id) first byte
    < 0x0d — reproducible at any parallelism, unlike random_sample."""
    from duplicate_finder_ray.stages import relational as rel

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "source"])
    return rel.deterministic_sample(docs, "doc_id", hex_lt="0d")


def q_doclen_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact per-language length quantiles (p50/p90 of n_chars, in
    centi-units) — the exact oracle shape a t-digest sketch would be
    validated against."""
    from duplicate_finder_ray.stages import relational as rel

    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    return rel.grouped_quantiles(
        docs, "lang", "n_chars", [("p50_x100", 0.5), ("p90_x100", 0.9)]
    )


def q_doclen_quantiles_sketch(sf_dir: str) -> ray.data.Dataset:
    """Mergeable t-digest twin of ``doclen_quantiles`` — the 100-TB
    path: per-batch bounded centroid partials + associative merge, so
    no task ever holds a whole language's values (the exact oracle's
    group-keyed exchange does). delta=2048 puts every gate-scale group
    under the k1 no-compaction bound (delta/pi ≈ 651 values —
    stages/sketches.py:tdigest_quantile), where the digest answers
    bit-identically to the exact kernel ⇒ the exact-quantile SQL is a
    true HASH-MATCH oracle; beyond the bound the digest compacts and
    the rank-error gate in tests/test_sketches.py takes over."""
    from duplicate_finder_ray.stages.sketches import grouped_quantiles_sketch

    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    # Oracle-validity guard: the exact-quantile SQL is only a hash-match
    # twin while every lang group stays under the k1 no-compaction bound
    # (delta/pi values). If the gate corpus ever outgrows it, fail HERE
    # with a clear message instead of surfacing as an oracle mismatch.
    delta = 2048
    sizes = grouped_aggregate(docs, "lang", {"n": ("count", None)})
    max_group = max(r["n"] for r in sizes.take_all())
    bound = int(delta / np.pi)
    if max_group > bound:
        raise AssertionError(
            f"doclen_quantiles_sketch oracle regime exceeded: largest lang "
            f"group has {max_group} values > no-compaction bound {bound} "
            f"(delta={delta}); raise delta or drop the hash-match claim"
        )
    return grouped_quantiles_sketch(
        docs, "lang", "n_chars", [("p50_x100", 0.5), ("p90_x100", 0.9)],
        delta=delta,
    )


def q_top_tokens(sf_dir: str) -> ray.data.Dataset:
    """Distributed exact heavy hitters: global top-20 tokens by
    frequency (ties by token) — per-batch count partials, one
    vocabulary-keyed grouped count, local-top-k final."""
    from duplicate_finder_ray.stages import textstats

    docs = _read(sf_dir, "documents", ["text"])
    return textstats.top_tokens(docs, "text", k=20)


def q_cms_point_counts(sf_dir: str) -> ray.data.Dataset:
    """Count-Min Sketch point-frequency estimates (stages/cms.py) for
    the exact top-20 tokens: fixed-size per-block partials merge by
    elementwise add through a tree reduce — the corpus vocabulary
    never crosses a shuffle. Hash-matches exact counts because the
    4×4096 sketch is non-binding on the gate corpus's vocabulary (the
    collision regime is bound-gated in tests/test_cms.py, the same
    split as top_tokens_approx / repo_overlap's cap note)."""
    from duplicate_finder_ray.stages import textstats
    from duplicate_finder_ray.stages.cms import cms_point_counts

    docs = _read(sf_dir, "documents", ["text"])
    top = textstats.top_tokens(docs, "text", k=20).to_pandas()  # 20 rows
    return cms_point_counts(docs, "text", top["token"].tolist())


def q_bm25_topk(sf_dir: str) -> ray.data.Dataset:
    """Okapi BM25 top-20 retrieval (stages/ir.py) for the fixed query
    [dup, hash, merge]: two streaming passes (T+2 integer partials,
    then broadcast-constant scoring + local top-k) — documents never
    shuffle. Both engines evaluate one fixed double expression tree
    and rank the half-up micro-quantized score, so the twin matches
    bit-for-bit including tie order."""
    from duplicate_finder_ray.stages.ir import bm25_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(docs, "doc_id", "text", ["dup", "hash", "merge"], topk=20)


def q_hybrid_search_rrf(sf_dir: str) -> ray.data.Dataset:
    """Hybrid retrieval: reciprocal-rank fusion of the lexical BM25
    top-20 and the PQ-ADC vector top-20 for query vector 0
    (stages/ir.py:rrf_fuse) — the standard no-calibration hybrid move;
    both input rankers and the fused ranking hash-match their twins."""
    from duplicate_finder_ray.stages.ir import bm25_topk, rrf_fuse
    from duplicate_finder_ray.stages.pq import pq_adc_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    lex = bm25_topk(docs, "doc_id", "text", ["dup", "hash", "merge"], topk=20)
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    vec = pq_adc_topk(
        emb, "vec_id", "embedding", dim=64, m=2, k=8,
        query_ids=[0], topk=20, iterations=2,
    )
    return rrf_fuse([(lex, "doc_id"), (vec, "vec_id")], topk=20)


def q_boolean_search(sf_dir: str) -> ray.data.Dataset:
    """Boolean AND/NOT retrieval (stages/ir.py:docs_with_all_terms):
    docs containing BOTH 'dup' and 'hash' and NOT 'spark', with the
    must-term frequencies — scan-side tf test, zero shuffle."""
    from duplicate_finder_ray.stages.ir import docs_with_all_terms

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs_with_all_terms(docs, "doc_id", "text", ["dup", "hash"], ["spark"])


def q_rolling_active_users(sf_dir: str) -> ray.data.Dataset:
    """Trailing 3-day distinct active users per day (WAU shape,
    stages/events.py:rolling_active_users): distinct (user, day)
    partials through ONE user-keyed exchange; the ×window fan-out and
    (user, window-day) dedupe stay partition-local, so only day-count
    partials leave; days past the corpus max omitted."""
    from duplicate_finder_ray.stages.events import rolling_active_users

    events = _read(sf_dir, "events", ["user_id", "ts"])
    return rolling_active_users(events, window_days=3)


def q_top_tokens_approx(sf_dir: str) -> ray.data.Dataset:
    """Capacity-bounded (SpaceSaving-style) top-20 tokens — the scale
    path whose shuffle carries ≤ capacity+1 rows per block instead of
    the full vocabulary. On this corpus the k-th count clears the
    underestimate bound, so the result HASH-MATCHES the exact
    top_tokens oracle (the bound itself is gated in
    tests/test_textstats.py)."""
    from duplicate_finder_ray.stages import textstats

    docs = _read(sf_dir, "documents", ["text"])
    top = textstats.approx_top_tokens(docs, "text", k=20)
    return top.select_columns(["token", "n", "rank"])


def q_distinct_tokens_per_lang(sf_dir: str) -> ray.data.Dataset:
    """Exact distinct-token cardinality per language (two-level
    distinct: batch dedupe partials → (lang, token) grouped count → per-lang
    count)."""
    from duplicate_finder_ray.stages import textstats

    docs = _read(sf_dir, "documents", ["text", "lang"])
    return textstats.distinct_token_counts(docs, "text", "lang")


def q_normalize_text(sf_dir: str) -> ray.data.Dataset:
    """Curation: deterministic text normalization (lowercase, collapse
    whitespace, strip) — pure RE2 ops with a bit-identical SQL twin."""
    from duplicate_finder_ray.stages import textstats

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(textstats.normalize_text, batch_format="pyarrow")


def q_quality_prune(sf_dir: str) -> ray.data.Dataset:
    """Curation: keep documents at or above the per-language median
    quality score — tiny per-group quantile aggregate, broadcast to a
    vectorized filter (the corpus never shuffles)."""
    from duplicate_finder_ray.stages import textstats

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return textstats.quality_prune(docs, frac=0.5, group_col="lang")


def q_signature_shingle_counts(sf_dir: str) -> ray.data.Dataset:
    """Hash-checks the signature stage's shingling itself: the per-doc
    DISTINCT 5-token-gram count (n_shingles) must equal the SQL
    set-size CTE the n-gram oracle uses. (The minhash/simhash values
    are not SQL-expressible; their determinism/estimator properties are
    gated in tests/test_shingles.py.)"""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

    sigs = NearDupPipeline(PipelineConfig()).signatures_for(
        code_files_from_documents(sf_dir)
    )

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["n_shingles"], 0)).select(
            ["file_id", "n_shingles"]
        )

    return sigs.map_batches(keep, batch_format="pyarrow")


def q_normalized_dup_groups(sf_dir: str) -> ray.data.Dataset:
    """Curation composition: exact-dup groups AFTER deterministic text
    normalization (catches case/whitespace-only duplicates the byte
    dedup misses). Normalize → sha256 → one grouped count; content
    never shuffles."""
    from duplicate_finder_ray.functions.hashing import sha256_hex_array

    def norm_sha(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch["content"])
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.replace_substring_regex(t, r"^ | $", "")
        return pa.table({"group_id": sha256_hex_array(t)})

    groups = grouped_aggregate(
        code_files_from_documents(sf_dir).map_batches(norm_sha, batch_format="pyarrow"),
        "group_id",
        {"n_files": ("count", None)},
    )

    def dups_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["n_files"], 1))

    return groups.map_batches(dups_only, batch_format="pyarrow")


def q_dataset_split(sf_dir: str) -> ray.data.Dataset:
    """Deterministic train/val/test assignment by md5(doc_id) hex range
    (~80/10/10): reproducible at any parallelism and across engines —
    the split a training pipeline must be able to replay exactly."""
    from duplicate_finder_ray.stages.relational import split_assign

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return split_assign(
        docs, "doc_id", [("train", "cd"), ("val", "e6")], default="test"
    )


def q_shuffle_join_revenue(sf_dir: str) -> ray.data.Dataset:
    """Large × large shuffle hash join (lineitem ⋈ orders — NEITHER
    side broadcastable at 100 TB) on the barrier-free hash exchange,
    then a partial-aggregate rollup per order priority."""
    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = shuffle_hash_join(li, orders, "l_orderkey", "o_orderkey", 16)
    return rel.grouped_sum_rollup(
        joined, ["o_orderpriority"], {"l_extendedprice": "revenue_cents"}
    )


def q_bloom_semi_lineitems(sf_dir: str) -> ray.data.Dataset:
    """EXACT semi-join via Bloom prefilter: lineitems of high-value
    orders. The bitmap crosses the wire once (ray.put); non-matching
    lineitems are dropped map-side BEFORE the exchange, so the shuffle
    carries matches + false positives, not the corpus; the exchange's
    exact pass removes the false positives."""
    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.bloom import bloom_semi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice"])
    hot = _read(
        sf_dir, "orders", ["o_orderkey", "o_totalprice"]
    ).filter(expr="o_totalprice > 400000.0")
    matched = bloom_semi_join(li, hot, "l_orderkey", "o_orderkey", 16)
    return rel.grouped_sum_rollup(
        matched, ["l_returnflag"], {"l_extendedprice": "revenue_cents"}
    )


def q_repetition_stats(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style per-document repetition counters (token / 2-gram
    duplication) — integer counts so the oracle hash-matches."""
    from duplicate_finder_ray.stages.textstats import repetition_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(repetition_stats, batch_format="pyarrow")


def q_redact_props(sf_dir: str) -> ray.data.Dataset:
    """PII-scrub shape: RE2 redaction of digit runs in the event
    payload plus a per-row replacement count."""
    from duplicate_finder_ray.stages.textstats import redact_text

    ev = _read(sf_dir, "events", ["event_id", "props"])
    return ev.map_batches(
        lambda b: redact_text(
            b, [("[0-9]+", "<NUM>")], "props", "props_redacted", "event_id"
        ),
        batch_format="pyarrow",
    )


def q_anti_join_lineitems(sf_dir: str) -> ray.data.Dataset:
    """Anti-join on the hash exchange: lineitems whose order is NOT
    high-value, rolled up per return flag — the 'everything not yet
    processed' shape of incremental pipelines."""
    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice"])
    hot = _read(
        sf_dir, "orders", ["o_orderkey", "o_totalprice"]
    ).filter(expr="o_totalprice > 400000.0")
    rest = shuffle_hash_join(
        li, hot, "l_orderkey", "o_orderkey", 16, how="anti"
    )
    return rel.grouped_sum_rollup(
        rest, ["l_returnflag"], {"l_extendedprice": "revenue_cents"}
    )


def q_events_running_totals(sf_dir: str) -> ray.data.Dataset:
    """Window function SUM() OVER (PARTITION BY user ORDER BY ts) as a
    batch operator: per-user running value totals + event sequence
    numbers via one hash exchange + vectorized partition kernel."""
    from duplicate_finder_ray.stages.events import running_totals

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    return running_totals(ev)


def q_top_tokens_df(sf_dir: str) -> ray.data.Dataset:
    """Top-20 tokens by DOCUMENT frequency (the idf denominator):
    per-row dedupe partials, vocabulary-sized shuffle."""
    from duplicate_finder_ray.stages.textstats import top_tokens_by_df

    docs = _read(sf_dir, "documents", ["text"])
    return top_tokens_by_df(docs, "text", 20)


def q_stratified_sample_docs(sf_dir: str) -> ray.data.Dataset:
    """Per-language md5-deterministic sampling (downsample 'en', keep
    more of the low-resource languages) — the data-mixing shape."""
    from duplicate_finder_ray.stages.relational import stratified_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(
        docs, "doc_id", "lang", {"en": "20", "zh": "e0"}, default_hex_lt="99"
    )


def q_greedy_pack_documents(sf_dir: str) -> ray.data.Dataset:
    """No-split greedy packing (SFT shape): whole documents first-fit
    into ≤512-token bins inside 16 hash partitions. Greedy bin state is
    inherently sequential → no SQL twin (rows-only at the driver); the
    packing invariants (budget, singleton overflow, determinism) are
    gated by a Python oracle in tests/test_chunk_ntile.py."""
    from duplicate_finder_ray.stages.chunking import greedy_pack

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(batch["text"])
        words = pc.split_pattern_regex(trimmed, r"\s+")
        n = pc.cast(pc.list_value_length(words), pa.int64())
        n = pc.if_else(
            pc.equal(pc.fill_null(trimmed, ""), ""), pa.scalar(0, pa.int64()), n
        )
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    slim = docs.map_batches(counts, batch_format="pyarrow")
    return greedy_pack(slim, "doc_id", "n_tokens", 512, 16)


def q_curation_pipeline(sf_dir: str) -> ray.data.Dataset:
    """End-to-end curation COMPOSITION, hash-gated as a whole:
    normalize → length gate (≥100 normalized chars) → normalized exact
    dedup keeping the lowest doc_id → deterministic md5 train/val/test
    split → per-(split, lang) counts. Every stage is an individually
    oracle-gated operator; this query proves they compose exactly."""
    from duplicate_finder_ray.functions.hashing import sha256_hex_array
    from duplicate_finder_ray.stages.relational import (
        split_assign,
        topk_per_group_by,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def norm_gate(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch["text"])
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.replace_substring_regex(t, r"^ | $", "")
        tbl = pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "lang": batch["lang"],
                "sha": sha256_hex_array(t),
                "n_chars_norm": pc.cast(pc.utf8_length(t), pa.int64()),
            }
        )
        return tbl.filter(pc.greater_equal(tbl["n_chars_norm"], 100))

    gated = docs.map_batches(norm_gate, batch_format="pyarrow")
    keepers = topk_per_group_by(
        gated, "sha", ["doc_id"], [True], 1
    ).select_columns(["doc_id", "lang"])
    split = split_assign(keepers, "doc_id", [("train", "cd"), ("val", "e6")], "test")

    return grouped_aggregate(split, ["split", "lang"], {"n_docs": ("count", None)})


def q_docs_rollup(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY ROLLUP(lang, band): doc counts + char sums per
    (lang, length band), per lang, and overall in one pass — every
    level's rows in one level-tagged grouped aggregate."""
    from duplicate_finder_ray.stages.relational import grouped_rollup

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        n = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        band = pc.if_else(
            pc.less(n, 500),
            pa.scalar("short"),
            pc.if_else(pc.less(n, 2000), pa.scalar("medium"), pa.scalar("long")),
        )
        return pa.table({"lang": batch["lang"], "band": band, "n_chars": n})

    return grouped_rollup(
        docs.map_batches(prep, batch_format="pyarrow"),
        ["lang", "band"],
        "n_chars",
    )


def q_user_event_pivot(sf_dir: str) -> ray.data.Dataset:
    """PIVOT / crosstab: per-user count matrix over the five event
    types — one keys-sized grouped sum of per-row type flags."""
    from duplicate_finder_ray.stages.relational import pivot_counts

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return pivot_counts(
        ev, "user_id", "event_type",
        ["click", "error", "purchase", "signup", "view"],
    )


def q_full_join_custorders(sf_dir: str) -> ray.data.Dataset:
    """FULL OUTER join on the shuffle hash join: per-customer order
    rollup ⟗ BUILDING-segment customers — matched rows, customers with
    orders outside the segment (right-null), segment customers with no
    orders (left-null); -1 sentinels keep plain int64 columns."""
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    def order_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(batch["o_totalprice"], 100.0), 0.5)),
            pa.int64(),
        )
        return pa.table(
            {"o_custkey": pc.cast(batch["o_custkey"], pa.int64()), "c": cents}
        )

    left = grouped_aggregate(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            order_cents, batch_format="pyarrow"
        ),
        "o_custkey",
        {"n_orders": ("count", None), "rev_cents": ("sum", "c")},
    )

    def cust_prep(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["c_mktsegment"], "BUILDING")
        b = batch.filter(keep)
        return pa.table(
            {
                "c_custkey": pc.cast(b["c_custkey"], pa.int64()),
                "acctbal_cents": pc.cast(
                    pc.floor(pc.add(pc.multiply(b["c_acctbal"], 100.0), 0.5)),
                    pa.int64(),
                ),
            }
        )

    right = _read(
        sf_dir, "customer",
        ["c_custkey", "c_mktsegment", "c_acctbal"],
    ).map_batches(cust_prep, batch_format="pyarrow")

    joined = shuffle_hash_join(
        left, right, "o_custkey", "c_custkey", 16, how="full"
    )

    def finish(batch: pa.Table) -> pa.Table:
        fill = pa.scalar(-1, pa.int64())
        return pa.table(
            {
                "custkey": batch["o_custkey"],
                "n_orders": pc.fill_null(batch["n_orders"], fill),
                "rev_cents": pc.fill_null(batch["rev_cents"], fill),
                "acctbal_cents": pc.fill_null(batch["acctbal_cents"], fill),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def q_chunk_share_pairs(sf_dir: str) -> ray.data.Dataset:
    """Partial-overlap pairs: documents sharing ≥1 identical 32-token
    chunk (stride 24), with the exact shared-chunk count — two
    barrier-free hash exchanges (chunk-hash co-locate + pair-keyed
    count sum)."""
    from duplicate_finder_ray.stages.chunking import chunk_share_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_share_pairs(docs, "doc_id", "text", 32, 24)


def q_pack_documents(sf_dir: str) -> ray.data.Dataset:
    """Sequence packing (concat-then-slice at a 512-token boundary):
    every document mapped to the pack(s) it overlaps in the doc_id-
    ordered token stream — a distributed prefix scan (one slim sort,
    one scalar per block to the driver, per-block arithmetic)."""
    from duplicate_finder_ray.stages.chunking import pack_assignments

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(batch["text"])
        words = pc.split_pattern_regex(trimmed, r"\s+")
        n = pc.cast(pc.list_value_length(words), pa.int64())
        n = pc.if_else(
            pc.equal(pc.fill_null(trimmed, ""), ""), pa.scalar(0, pa.int64()), n
        )
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    slim = docs.map_batches(counts, batch_format="pyarrow")
    return pack_assignments(slim, "doc_id", "n_tokens", 512)


def q_events_rolling_window(sf_dir: str) -> ray.data.Dataset:
    """Rows-based rolling window: SUM(value) OVER (PARTITION BY user
    ORDER BY ts ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), exact cents,
    hash exchange + cumsum-difference kernel."""
    from duplicate_finder_ray.stages.events import rolling_sum_rows

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    return rolling_sum_rows(ev, window=5)


def q_sample_n_per_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-group budget sampling: cap every language at 40 documents,
    chosen deterministically by md5 order — guaranteed counts (unlike
    Bernoulli), engine-replayable, local-prune combiner."""
    from duplicate_finder_ray.stages.relational import sample_n_per_group

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return sample_n_per_group(docs, "doc_id", "lang", 40)


def q_chunk_documents(sf_dir: str) -> ray.data.Dataset:
    """Context-window prep: split each document into 64-token windows
    advancing by 48 (16-token overlap), rebuilding the chunk text —
    shuffle-free, one vectorized map pass."""
    from duplicate_finder_ray.stages.chunking import chunk_documents

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents(docs, "doc_id", "text", chunk_tokens=64, stride=48)


def q_doc_quartiles(sf_dir: str) -> ray.data.Dataset:
    """NTILE(4) OVER (PARTITION BY lang ORDER BY length, doc_id): the
    percentile-band router (route/drop by per-language length band) via
    one hash exchange + arithmetic bucket kernel."""
    from duplicate_finder_ray.stages.relational import ntile_partitioned

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            }
        )

    return ntile_partitioned(
        docs.map_batches(slim, batch_format="pyarrow"),
        "lang",
        ["n_chars", "doc_id"],
        4,
        out_col="quartile",
    )


def q_distinctive_terms(sf_dir: str) -> ray.data.Dataset:
    """Per-document keyword extraction (integer-exact TF-IDF shape):
    top-3 tokens per doc by (tf DESC, global df ASC, token ASC) —
    (doc,token) tf partials ⋈ vocabulary df table on the token-keyed
    shuffle join, then the local-prune top-k combiner."""
    from duplicate_finder_ray.stages.textstats import distinctive_terms

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return distinctive_terms(docs, "doc_id", "text", k=3)


def q_event_mode(sf_dir: str) -> ray.data.Dataset:
    """Statistical MODE per user: the most frequent event type (ties →
    lexicographically smallest) with its count — per-batch (user, type)
    count partials, one tiny grouped count, local-prune argmax."""
    from duplicate_finder_ray.stages.relational import grouped_mode

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return grouped_mode(ev, "user_id", "event_type")


def q_user_event_sequences(sf_dir: str) -> ray.data.Dataset:
    """Ordered STRING_AGG: each user's comma-joined event-type sequence
    in (ts, event_id) order — one hash exchange, vectorized sort, one
    pandas C groupby join per partition."""
    from duplicate_finder_ray.stages.events import event_sequences

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return event_sequences(ev)


def q_user_first_last(sf_dir: str) -> ray.data.Dataset:
    """FIRST_VALUE/LAST_VALUE per user: first and last event type +
    timestamp on the (ts, event_id) order — boundary-row combiner (≤2
    rows per user per block) then one users-sized exchange."""
    from duplicate_finder_ray.stages.events import user_first_last

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return user_first_last(ev)


def _doc_len_slim(sf_dir: str) -> ray.data.Dataset:
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            }
        )

    return docs.map_batches(slim, batch_format="pyarrow")


def q_doclen_outliers(sf_dir: str) -> ray.data.Dataset:
    """Per-language z-score outlier gate: documents ≥2 sample standard
    deviations from their language's mean length, z in exact half-up
    micro-units — int64 moment partials + one broadcast stats object +
    one vectorized filter pass (stages/stats.py)."""
    from duplicate_finder_ray.stages.stats import grouped_zscore_outliers

    return grouped_zscore_outliers(
        _doc_len_slim(sf_dir), "lang", "n_chars",
        ["doc_id", "lang", "n_chars"], z_thresh=2.0,
    )


def q_lang_len_token_corr(sf_dir: str) -> ray.data.Dataset:
    """Per-language Pearson correlation of char length vs whitespace
    token count, in exact micro-units — one pass of int64 moment
    partials, a groups-sized aggregate, fixed-IEEE finisher."""
    from duplicate_finder_ray.stages.stats import grouped_corr

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def slim(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(batch["text"])
        words = pc.split_pattern_regex(trimmed, r"\s+")
        n_tok = pc.cast(pc.list_value_length(words), pa.int64())
        n_tok = pc.if_else(
            pc.equal(pc.fill_null(trimmed, ""), ""), pa.scalar(0, pa.int64()), n_tok
        )
        return pa.table(
            {
                "lang": batch["lang"],
                "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
                "n_tokens": n_tok,
            }
        )

    return grouped_corr(
        docs.map_batches(slim, batch_format="pyarrow"),
        "lang", "n_chars", "n_tokens",
    )


def q_docs_cube(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY CUBE(lang, source): doc counts + char sums at all four
    aggregation levels in one pass — the full OLAP cross-tabulation
    (superset of docs_rollup's prefix levels)."""
    from duplicate_finder_ray.stages.relational import grouped_cube

    docs = _read(sf_dir, "documents", ["lang", "source", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch["lang"],
                "source": batch["source"],
                "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            }
        )

    return grouped_cube(
        docs.map_batches(prep, batch_format="pyarrow"), ["lang", "source"], "n_chars"
    )


def q_weighted_sample_docs(sf_dir: str) -> ray.data.Dataset:
    """Importance sampling: keep each doc with probability
    min(len, 2000)/2000, decided by the top 16 bits of md5(doc_id)
    against the integer-exact quantized weight — deterministic,
    engine-replayable, one vectorized filter pass."""
    import numpy as np

    from duplicate_finder_ray.stages.relational import weighted_sample

    def add_wq(batch: pa.Table) -> pa.Table:
        n = batch.column("n_chars").to_numpy()
        wq = (np.minimum(n, 2000) * 65536) // 2000
        return batch.append_column("wq", pa.array(wq.astype(np.int64)))

    ds = _doc_len_slim(sf_dir).map_batches(add_wq, batch_format="pyarrow")
    return weighted_sample(ds, "doc_id", "wq").select_columns(
        ["doc_id", "lang", "n_chars", "wq"]
    )


def q_events_windowed_distinct(sf_dir: str) -> ray.data.Dataset:
    """Windowed dedup: first event per (user, type, hour) — retry/
    duplicate-delivery hygiene; per-batch first-row combiner + one
    keys-sized exchange."""
    from duplicate_finder_ray.stages.events import windowed_distinct

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return windowed_distinct(ev)


def q_value_histogram(sf_dir: str) -> ray.data.Dataset:
    """Profiling histogram: fixed-width (25.0) value bins per event
    type, integer-exact on the micro lattice — per-batch count
    partials, one (types × bins)-sized aggregate, sparse bins."""
    from duplicate_finder_ray.stages.stats import value_histogram

    ev = _read(sf_dir, "events", ["event_type", "value"])
    return value_histogram(ev, "event_type", "value", 25_000_000)


def q_minmax_scale_docs(sf_dir: str) -> ray.data.Dataset:
    """Per-language min-max normalization of doc length onto the
    [0, 1e6] int lattice — tiny min/max aggregate broadcast back, one
    vectorized scaling pass, exact integer arithmetic."""
    from duplicate_finder_ray.stages.stats import minmax_scale

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return minmax_scale(docs, "lang", "n_chars", ["doc_id", "lang", "n_chars"])


def q_top_bigrams(sf_dir: str) -> ray.data.Dataset:
    """Corpus bigram counts (LM statistics / boilerplate detection):
    exact global top-30 adjacent token pairs — factorize-once batch
    combiner, bigram-vocab-sized shuffle, local top-k merge."""
    from duplicate_finder_ray.stages.textstats import top_bigrams

    docs = _read(sf_dir, "documents", ["text"])
    return top_bigrams(docs, "text", 30)


def q_funnel_signup_purchase(sf_dir: str) -> ray.data.Dataset:
    """Two-step funnel: users whose first signup strictly precedes
    their first purchase, with the conversion delay — map-side type
    filter, per-batch min partials, one users-sized aggregate."""
    from duplicate_finder_ray.stages.events import funnel_conversions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    return funnel_conversions(ev, "signup", "purchase")


def q_label_centroids(sf_dir: str) -> ray.data.Dataset:
    """Per-label embedding centroid (class prototypes / IVF seeds):
    mean per (label, dim) in exact micro-units — int64 lattice partials
    scatter-added per batch, one (labels × d)-sized aggregate, trunc
    division mirroring SQL's integer `//`."""
    from duplicate_finder_ray.stages.stats import grouped_vector_mean

    emb = _read(sf_dir, "embeddings", ["label", "embedding"])
    return grouped_vector_mean(emb, "label", "embedding")


def q_edit_distance_pairs(sf_dir: str) -> ray.data.Dataset:
    """Fuzzy dedup, sequence level: exact byte Levenshtein over the
    n-gram-Jaccard candidate pairs (τ=0.5), keeping lev ≤ 64 — Myers
    bit-parallel kernel, endpoint contents via a broadcast semi-join of
    only the paired docs (stages/editdist.py)."""
    from duplicate_finder_ray.stages.derive import add_identity
    from duplicate_finder_ray.stages.editdist import edit_distance_pairs
    from duplicate_finder_ray.stages.neardup import ngram_jaccard_pairs

    ds = code_files_from_documents(sf_dir).map_batches(
        add_identity, batch_format="pyarrow"
    )
    pairs = ngram_jaccard_pairs(ds, "file_id", "content", k=5, threshold=0.5)
    return edit_distance_pairs(ds, pairs, "file_id", "content", max_dist=64)


def q_fuzzy_clusters(sf_dir: str) -> ray.data.Dataset:
    """Entity-resolution composition: connected components over the
    bit-exact Levenshtein pair graph (edit_distance_pairs, lev ≤ 64) —
    blocking (n-gram Jaccard) → pairwise verify (Myers Levenshtein) →
    transitive clustering (distributed CC), each link already
    hash-green on its own; the recursive-closure twin gates the
    composition."""
    from duplicate_finder_ray.stages.cc import connected_components

    return connected_components(q_edit_distance_pairs(sf_dir), PipelineConfig())


def q_dedup_aware_sample(sf_dir: str) -> ray.data.Dataset:
    """Sampling that can't leak duplicates: keep the lex-min member of
    every near-dup cluster (= the CC component id) plus every
    un-clustered doc, THEN md5-Bernoulli sample the survivors (~25%) —
    the training-data sampler that guarantees no two sampled docs are
    near-duplicates. Composition: CC labels → distributed EXCEPT /
    distinct UNION (slim file_id rows) → the replayable md5 filter."""
    from duplicate_finder_ray.stages import relational as rel

    labels = q_ngram_jaccard_clusters(sf_dir).materialize()
    files = _derived(sf_dir).select_columns(["file_id"])
    non_members = rel.except_keys(
        files, labels.select_columns(["file_id"]), "file_id"
    )

    def comp_as_fid(batch: pa.Table) -> pa.Table:
        return pa.table({"file_id": batch.column("component")})

    empty = ray.data.from_arrow(
        pa.schema([("file_id", pa.string())]).empty_table()
    )
    keepers = rel.except_keys(
        labels.map_batches(comp_as_fid, batch_format="pyarrow"), empty, "file_id"
    )
    survivors = non_members.union(keepers)
    return rel.deterministic_sample(survivors, "file_id", hex_lt="40")


def q_near_dup_keepers(sf_dir: str) -> ray.data.Dataset:
    """Canonicalization over near-dup clusters: per connected
    component, the keeper = largest member (ties → lexicographically
    smallest file_id) plus the member count — the 'which copy do we
    train on' decision, composed from the hash-green CC labels, one
    broadcast join, the local-prune top-k selector and a tiny count
    aggregate."""
    from duplicate_finder_ray.stages.relational import (
        broadcast_hash_join,
        topk_per_group_by,
    )

    labels = q_ngram_jaccard_clusters(sf_dir)  # (file_id, component)
    files = _derived(sf_dir).select_columns(["file_id", "size"])
    members = broadcast_hash_join(files, labels, "file_id", "file_id", ["component"])

    counts = grouped_aggregate(members, "component", {"n_members": ("count", None)})
    top = topk_per_group_by(
        members, "component", ["size", "file_id"], [False, True], 1
    ).select_columns(["component", "file_id", "size"])
    out = broadcast_hash_join(top, counts, "component", "component", ["n_members"])

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "component": batch["component"],
                "keeper": batch["file_id"],
                "size": batch["size"],
                "n_members": batch["n_members"],
            }
        )

    return out.map_batches(rename, batch_format="pyarrow")


def q_rank_docs_per_lang(sf_dir: str) -> ray.data.Dataset:
    """RANK + DENSE_RANK per language by length (desc): tie-aware
    competition ranking — one hash exchange + change-point kernel."""
    from duplicate_finder_ray.stages.relational import rank_dense_per_group

    return rank_dense_per_group(
        _doc_len_slim(sf_dir), "lang", "n_chars", descending=True
    )


def q_events_lag_deltas(sf_dir: str) -> ray.data.Dataset:
    """LAG() OVER (PARTITION BY user ORDER BY ts) as a batch operator:
    previous event id + microsecond gap per event (-1 on each user's
    first), via one hash exchange + vectorized shift kernel."""
    from duplicate_finder_ray.stages.events import lag_deltas

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return lag_deltas(ev)


def q_decontaminate_docs(sf_dir: str) -> ray.data.Dataset:
    """Benchmark decontamination: documents with doc_id % 37 == 0 play
    the held-out eval set; every OTHER document is annotated with its
    distinct-5-token-gram overlap against that set. Scale shape is a
    broadcast semi-join — the benchmark distils to one sorted uint64
    hash array (distributed build), the training side probes it
    map-side and never shuffles."""
    import numpy as np

    from duplicate_finder_ray.stages.decontam import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(keep_bench: bool):
        def f(batch: pa.Table) -> pa.Table:
            rem = batch.column("doc_id").to_numpy() % 37 == 0
            return batch.filter(pa.array(rem if keep_bench else ~rem))

        return f

    bench = docs.map_batches(split(True), batch_format="pyarrow")
    train = docs.map_batches(split(False), batch_format="pyarrow")
    return decontaminate(train, bench, "doc_id", "text", k=5, threshold=1)


def q_near_dup_degrees(sf_dir: str) -> ray.data.Dataset:
    """Per-node degree of the exact-Jaccard near-dup graph: how many
    near-duplicates each file has (hub detection before cluster
    collapse). Count partials over both endpoint columns → one
    vocabulary-sized grouped count; exact on the string ids."""
    from duplicate_finder_ray.stages.graph import pair_degrees

    return pair_degrees(q_ngram_jaccard_pairs(sf_dir))


def q_near_dup_degree_hist(sf_dir: str) -> ray.data.Dataset:
    """Degree distribution of the near-dup graph — the hub-skew
    audit (a heavy tail here predicts LSH hot buckets and CC giant
    components). Two levels of count partials; the final shuffle is
    (distinct degrees × blocks) rows."""
    from duplicate_finder_ray.stages.graph import degree_histogram

    return degree_histogram(q_ngram_jaccard_pairs(sf_dir))


def q_near_dup_triangles(sf_dir: str):
    """Exact triangle count of the near-dup graph (clique-ness of dup
    neighborhoods): degree-oriented wedge join over four barrier-free
    hash exchanges — the public MapReduce formulation (Suri &
    Vassilvitskii, WWW'11). No task ever holds the whole edge set."""
    from duplicate_finder_ray.stages.graph import triangle_count

    return triangle_count(q_ngram_jaccard_pairs(sf_dir))


def q_centroid_assign(sf_dir: str) -> ray.data.Dataset:
    """Nearest-centroid classification: every embedding assigned to the
    closest per-label centroid (squared L2 on the exact micro-lattice)
    — the assignment half of k-means, tie-broken toward the smaller
    label. Integer distances out (rounding-proof oracle)."""
    from duplicate_finder_ray.stages.stats import (
        grouped_vector_mean,
        nearest_centroid_assign,
    )

    emb = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    cents = grouped_vector_mean(
        emb.select_columns(["label", "embedding"]), "label", "embedding"
    )
    return nearest_centroid_assign(emb, "vec_id", "embedding", cents)


def q_near_dup_pagerank(sf_dir: str) -> ray.data.Dataset:
    """PageRank centrality over the near-dup graph (3 iterations,
    damping 17/20) — which file is the canonical hub its duplicates
    orbit. Exact int64 lattice (r//deg, (17·c)//20, scale//N) so the
    distributed reduction and the chained-CTE SQL twin are
    bit-identical."""
    from duplicate_finder_ray.stages.graph import pagerank

    return pagerank(q_ngram_jaccard_pairs(sf_dir), iterations=3)


def q_containment_pairs(sf_dir: str) -> ray.data.Dataset:
    """Asymmetric near-dup: pairs whose 5-gram shingle containment
    |A∩B| / min(|A|,|B|) ≥ 0.8 — sub/superset documents (embedded
    files, quoted passages) that symmetric Jaccard dilutes below its
    threshold. Integer set sizes out (rounding-proof oracle)."""
    from duplicate_finder_ray.stages.derive import add_identity
    from duplicate_finder_ray.stages.neardup import ngram_containment_pairs

    ds = code_files_from_documents(sf_dir).map_batches(
        add_identity, batch_format="pyarrow"
    )
    return ngram_containment_pairs(ds, "file_id", "content", k=5, threshold=0.8)


def q_paragraph_dedup(sf_dir: str) -> ray.data.Dataset:
    """RefinedWeb-style paragraph (token-window) exact dedup: every
    8-token window keeps only its globally first occurrence (by
    (doc_id, window idx)) and documents are rebuilt from the
    survivors. Slim md5-128 keys cross one exchange; document text
    crosses one exchange; window payload rows never shuffle."""
    from duplicate_finder_ray.stages.paradedup import paragraph_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return paragraph_dedup(docs, "doc_id", "text", window_tokens=8)


def q_semdedup(sf_dir: str) -> ray.data.Dataset:
    """SemDeDup (arXiv:2303.09540) composition: nearest-centroid
    cluster assignment on the exact int lattice → within-cluster
    cosine duplicate edges (τ=0.35) → partition-local connected
    components → keep rule 'farthest from centroid survives'. One
    exchange; embedding payload crosses once; duplicate search is
    exact within clusters and skipped across them (the method's
    published trade)."""
    from duplicate_finder_ray.stages.semdedup import semdedup
    from duplicate_finder_ray.stages.stats import grouped_vector_mean

    emb = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    cents = grouped_vector_mean(
        emb.select_columns(["label", "embedding"]), "label", "embedding"
    )
    return semdedup(emb, "vec_id", "embedding", cents, threshold=0.35)


def q_kmeans_clusters(sf_dir: str) -> ray.data.Dataset:
    """Lloyd's k-means (k=8, 2 updates) on the exact int64 lattice —
    the iterative-algorithm twin of PageRank: deterministic smallest-id
    seeds, integer distances, SQL-truncating centroid division, so the
    chained-CTE oracle reproduces every assignment bit-for-bit. One
    streaming pass + one k×d-sized reduce per iteration; vectors never
    shuffle."""
    from duplicate_finder_ray.stages.kmeans import kmeans_lattice

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_lattice(emb, "vec_id", "embedding", k=8, iterations=2)


def q_pq_adc_topk(sf_dir: str) -> ray.data.Dataset:
    """PQ asymmetric-distance search (stages/pq.py:pq_adc_topk): top-10
    neighbors for query vectors 0..3 scanning ONLY the m int64 code
    columns — distance is m LUT lookups against the lattice codebooks,
    so the whole search (codebooks, codes, LUTs, ranks) hash-matches
    its chained-CTE twin."""
    from duplicate_finder_ray.stages.pq import pq_adc_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return pq_adc_topk(
        emb, "vec_id", "embedding", dim=64, m=2, k=8,
        query_ids=[0, 1, 2, 3], topk=10, iterations=2,
    )


def q_pq_codes(sf_dir: str) -> ray.data.Dataset:
    """Product-quantization encoding (stages/pq.py): 64-dim embeddings
    → 2 subspaces × 8-entry lattice codebooks + summed quantization
    error. Each subspace is an independent integer-exact kmeans_lattice
    over a column slice, so the whole code table hash-matches a
    chained-CTE twin (float PQ could not be cross-engine-gated)."""
    from duplicate_finder_ray.stages.pq import pq_encode

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return pq_encode(emb, "vec_id", "embedding", dim=64, m=2, k=8, iterations=2)


def q_q3_shipping_priority(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q3-shaped 3-table analytics composition: BUILDING-segment
    customers (broadcast dim semi-join into orders) × date-filtered
    orders × shipdate-filtered lineitems, revenue pre-aggregated per
    order BEFORE the large×large join (the combiner-before-shuffle
    doctrine), global top-10 by revenue. Revenue is exact integer
    cents × (100 − discount%) so the oracle is rounding-proof."""
    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    cutoff = pa.scalar(_dt.datetime(1998, 1, 1), pa.timestamp("us"))

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_rev(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch.column("l_shipdate"), cutoff)
        batch = batch.filter(keep)
        price_c = rel.cents(batch.column("l_extendedprice"))
        disc_pct = rel.cents(batch.column("l_discount"))  # 0.07 → 7
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100), disc_pct))
        return pa.table(
            {"l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()), "rev": rev}
        )

    rev = grouped_aggregate(
        li.map_batches(li_rev, batch_format="pyarrow"),
        "l_orderkey",
        {"revenue_units": ("sum", "rev")},
    )

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def order_filter(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch.column("o_orderdate"), cutoff))
        us = pc.cast(batch.column("o_orderdate"), pa.int64())
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "o_orderdate_us": us,
                "o_orderpriority": batch.column("o_orderpriority"),
            }
        )

    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_mktsegment"]
    ).filter(expr="c_mktsegment == 'BUILDING'")
    o_seg = rel.broadcast_hash_join(
        orders.map_batches(order_filter, batch_format="pyarrow"),
        cust,
        "o_custkey",
        "c_custkey",
        [],
    ).select_columns(["o_orderkey", "o_orderdate_us", "o_orderpriority"])

    joined = shuffle_hash_join(
        rev, o_seg, "l_orderkey", "o_orderkey", 8
    )
    return rel.topk_global(
        joined.select_columns(
            ["l_orderkey", "revenue_units", "o_orderdate_us", "o_orderpriority"]
        ),
        by=["revenue_units", "o_orderdate_us", "l_orderkey"],
        ascending=[False, True, True],
        k=10,
    )


def q_trending_tokens(sf_dir: str) -> ray.data.Dataset:
    """Trending terms: top-5 tokens per tumbling hour over the event
    payload stream — window derived map-side, per-batch count
    combiner, one (windows × vocab)-sized grouped count, local-top-k
    selector. Corpus token positions never shuffle."""
    from duplicate_finder_ray.stages.textstats import trending_tokens

    ev = _read(sf_dir, "events", ["ts", "props"])
    return trending_tokens(ev, "ts", "props", window_us=3_600_000_000, k=5)


def q_retention_cohorts(sf_dir: str) -> ray.data.Dataset:
    """Daily retention-cohort matrix: users cohorted by first active
    day, counted per (cohort, day offset) — per-batch distinct
    combiner, one user-keyed exchange, tiny cohort×offset sum; the
    event stream never shuffles."""
    from duplicate_finder_ray.stages.events import retention_cohorts

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return retention_cohorts(ev)


def q_user_revenue_pivot(sf_dir: str) -> ray.data.Dataset:
    """PIVOT with SUM measure: per-user exact-cent value matrix over
    the five event types (revenue-by-channel shape) — same combiner as
    the count pivot, values quantized half-up to cents."""
    from duplicate_finder_ray.stages.relational import pivot_sums

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    return pivot_sums(
        ev, "user_id", "event_type", "value",
        ["click", "error", "purchase", "signup", "view"],
    )


def q_dedup_rate_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Curation reporting composition: per-language corpus size and
    normalized-duplicate share (how dirty is each slice — the number a
    data lead asks for before spending GPU-hours). Normalize map-side
    (lower, collapse whitespace, trim — the engine's standard
    normalization), ship only (md5-128 digest, lang) slim rows through
    ONE digest-keyed exchange, count group sizes partition-locally,
    emit per-lang partials, one tiny lang-keyed sum. Text never
    shuffles; exact integer counts out."""
    import numpy as np

    from duplicate_finder_ray.stages.exchange import hash_exchange
    from duplicate_finder_ray.stages.paradedup import _md5_u128

    docs = _read(sf_dir, "documents", ["lang", "text"])

    slim_schema = pa.schema(
        [("h1", pa.uint64()), ("h2", pa.uint64()), ("lang", pa.string())]
    )

    def slim(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return slim_schema.empty_table()
        t = pc.utf8_lower(batch["text"])
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.replace_substring_regex(t, r"^ | $", "")
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        h1, h2 = _md5_u128(t)
        return pa.table(
            {
                "h1": pa.array(h1, pa.uint64()),
                "h2": pa.array(h2, pa.uint64()),
                "lang": batch["lang"],
            }
        )

    part_schema = pa.schema(
        [("lang", pa.string()), ("dup", pa.int64())]
    )

    def lang_partials(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return part_schema.empty_table()
        h1 = tbl.column("h1").to_numpy().astype(np.uint64)
        h2 = tbl.column("h2").to_numpy().astype(np.uint64)
        order = np.lexsort((h2, h1))
        firsts = np.empty(len(h1), dtype=bool)
        firsts[0] = True
        np.logical_or(
            h1[order][1:] != h1[order][:-1],
            h2[order][1:] != h2[order][:-1],
            out=firsts[1:],
        )
        starts = np.nonzero(firsts)[0]
        sizes = np.diff(np.append(starts, len(h1)))
        is_dup = np.empty(len(h1), dtype=bool)
        is_dup[order] = np.repeat(sizes > 1, sizes)
        return pa.table({"lang": tbl.column("lang"), "dup": is_dup.astype(np.int64)})

    partials = hash_exchange(
        docs.map_batches(slim, batch_format="pyarrow"),
        "h1",
        16,
        lang_partials,
        part_schema.empty_table(),
    )
    return grouped_aggregate(
        partials, "lang", {"n_docs": ("count", None), "n_dup_docs": ("sum", "dup")}
    )


def q_novelty_scores(sf_dir: str) -> ray.data.Dataset:
    """Per-doc novelty counts: of a document's distinct 5-gram
    shingles, how many appear in NO other document — slim (hash, doc)
    rows through one exchange, document frequency partition-local,
    tiny doc-keyed sum. Exact integers (novelty ratio is the caller's
    division)."""
    from duplicate_finder_ray.stages.novelty import novelty_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return novelty_counts(docs, "doc_id", "text", k=5)


def q_session_funnel(sf_dir: str) -> ray.data.Dataset:
    """Within-session funnel: per (user, session), did the first
    signup strictly precede the first purchase inside the session —
    sessionize + funnel composed in ONE user-keyed exchange of slim
    rows; boundaries, first-step times and the conversion flag are a
    single vectorized pass."""
    from duplicate_finder_ray.stages.events import session_funnel

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    return session_funnel(ev, "signup", "purchase")


def q_repo_overlap_pairs(sf_dir: str) -> ray.data.Dataset:
    """Repo-overlap matrix: distinct shared contents per repo pair —
    one sha-keyed exchange, vectorized within-group pair expansion,
    partial counts before the slim final grouped sum."""
    from duplicate_finder_ray.stages.repostats import repo_overlap_pairs

    return repo_overlap_pairs(_derived(sf_dir))


def q_vendored_content(sf_dir: str) -> ray.data.Dataset:
    """Hot-content report: contents present in ≥2 distinct repos with
    file fan-out and reclaimable bytes."""
    from duplicate_finder_ray.stages.repostats import vendored_content

    return vendored_content(_derived(sf_dir), min_repos=2)


def q_dup_dir_groups(sf_dir: str) -> ray.data.Dataset:
    """Duplicate directories: one-level Merkle fingerprint (md5 of the
    sorted member-sha list) groups of ≥2 dirs, members exploded."""
    from duplicate_finder_ray.stages.repostats import dup_dir_groups

    return dup_dir_groups(_derived(sf_dir))


def q_q5_supplier_volume(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q5-shaped 6-table composition: 1995 revenue per ASIA
    nation counting only lineitems whose supplier shares the customer's
    nation. Dims reduce by broadcast (region→nation→supplier/customer
    semi-joins); lineitem revenue pre-aggregates per (orderkey, supplier
    nation) BEFORE the single large×large shuffle join on orderkey; the
    same-nation predicate filters post-join; revenue is exact integer
    cents × (100 − discount%)."""
    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    nation = _read(sf_dir, "nation")
    region = _read(sf_dir, "region").filter(
        expr="r_name == 'ASIA'"
    )
    asia = rel.broadcast_hash_join(
        nation, region, "n_regionkey", "r_regionkey", []
    )  # (n_nationkey, n_name, n_regionkey) for ASIA nations only

    supp = rel.broadcast_hash_join(
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        asia,
        "s_nationkey",
        "n_nationkey",
        ["n_name"],
    )
    cust = rel.broadcast_hash_join(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        asia,
        "c_nationkey",
        "n_nationkey",
        [],
    )

    lo = pa.scalar(_dt.datetime(1995, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))

    def o_filter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi),
        )
        return batch.filter(keep).select(["o_orderkey", "o_custkey"])

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_filter, batch_format="pyarrow")
    o_cust = rel.broadcast_hash_join(
        orders, cust, "o_custkey", "c_custkey", ["c_nationkey"]
    ).select_columns(["o_orderkey", "c_nationkey"])

    li = rel.broadcast_hash_join(
        _read(
            sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ),
        supp,
        "l_suppkey",
        "s_suppkey",
        ["s_nationkey", "n_name"],
    )

    def rev_partials(batch: pa.Table) -> pa.Table:
        price_c = rel.cents(batch.column("l_extendedprice"))
        disc_pct = rel.cents(batch.column("l_discount"))
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100), disc_pct))
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "s_nationkey": batch.column("s_nationkey"),
                "n_name": batch.column("n_name"),
                "rev": rev,
            }
        ).to_pandas()
        g = (
            t.groupby(["l_orderkey", "s_nationkey", "n_name"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "l_orderkey": pa.array(g["l_orderkey"].to_numpy(), pa.int64()),
                "s_nationkey": pa.array(g["s_nationkey"].to_numpy(), pa.int64()),
                "n_name": pa.array(g["n_name"], pa.string()),
                "rev": pa.array(g["rev"].to_numpy(), pa.int64()),
            }
        )

    li_agg = li.map_batches(rev_partials, batch_format="pyarrow")
    joined = shuffle_hash_join(li_agg, o_cust, "l_orderkey", "o_orderkey", 8)

    def same_nation(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("s_nationkey"), batch.column("c_nationkey"))
        return batch.filter(keep).select(["n_name", "rev"])

    return grouped_aggregate(
        joined.map_batches(same_nation, batch_format="pyarrow"),
        "n_name",
        {"revenue_units": ("sum", "rev")},
    )


def q_boilerplate_lines(sf_dir: str) -> ray.data.Dataset:
    """Boilerplate mining: top-15 most repeated non-empty lines across
    the code corpus (license headers / shared payload lines)."""
    from duplicate_finder_ray.stages.textstats import common_lines

    return common_lines(code_files_from_documents(sf_dir), "content", k=15)


def q_fork_candidates(sf_dir: str) -> ray.data.Dataset:
    """Fork detection: repo pairs whose shared distinct contents cover
    ≥50% (500k ppm) of the smaller repo's distinct contents."""
    from duplicate_finder_ray.stages.repostats import fork_candidates

    return fork_candidates(_derived(sf_dir), min_containment_ppm=500_000)


def q_dup_rate_by_size(sf_dir: str) -> ray.data.Dataset:
    """Dedup audit: duplicate-file share per size bucket (decimal digit
    count of the byte size — an exact log-ish bucket)."""
    from duplicate_finder_ray.stages.repostats import dup_rate_by_size

    return dup_rate_by_size(_derived(sf_dir))


def q_near_dup_cluster_hist(sf_dir: str) -> ray.data.Dataset:
    """Near-dup cluster-size histogram: how many clusters of each size
    the verified pair graph produces — tiny slim-row aggregations over
    the CC labels (every labelled node is in a ≥2-cluster)."""
    labels = q_near_dup_clusters(sf_dir)
    sizes = grouped_aggregate(labels, "component", {"cluster_size": ("count", None)})
    return grouped_aggregate(sizes, "cluster_size", {"n_clusters": ("count", None)})


def q_repo_skew_report(sf_dir: str) -> ray.data.Dataset:
    """Shuffle-planning diagnostic: how the repo key distributes over 8
    md5-replayable hash partitions (rows, distinct keys, heaviest key)."""
    from duplicate_finder_ray.stages.diagnostics import key_skew_report

    return key_skew_report(_derived(sf_dir), "repo", n_parts=8)


def q_repo_distinct_contents(sf_dir: str) -> ray.data.Dataset:
    """Distinct content blobs per repo via EXPLICIT salted
    repartitioning — the skew-breaking shape for mega-repos whose full
    blob set must never co-locate on one reducer: values fan out over
    md5(value)-salted partitions, each dedupes its disjoint slice, a
    slim per-repo sum folds the partials."""
    from duplicate_finder_ray.stages.relational import salted_distinct_count

    return salted_distinct_count(
        _derived(sf_dir).select_columns(["repo", "sha256"]),
        "repo",
        "sha256",
        n_salts=4,
        parts_per_salt=2,
        alias="n_distinct",
    )


def q_code_global_rank(sf_dir: str) -> ray.data.Dataset:
    """Exact distributed row_number over the whole code table ordered
    by (size, sha256, file_id) — sampled range boundaries, one range
    exchange, per-slice Arrow sort, driver folds P offset ints."""
    from duplicate_finder_ray.stages.rank import global_rank

    return global_rank(
        _derived(sf_dir).select_columns(["file_id", "size", "sha256"]),
        ["size", "sha256", "file_id"],
        num_partitions=16,
    ).select_columns(["file_id", "rnk"])


def q_snm_candidate_pairs(sf_dir: str) -> ray.data.Dataset:
    """Sorted-neighborhood blocking: candidate pairs within 4 rank
    positions under the (size, sha256, file_id) sort — the classic
    record-linkage window complement to LSH blocking."""
    from duplicate_finder_ray.stages.rank import sorted_neighborhood_pairs

    return sorted_neighborhood_pairs(
        _derived(sf_dir).select_columns(["file_id", "size", "sha256"]),
        ["size", "sha256", "file_id"],
        "file_id",
        window=4,
        chunk=512,
        num_partitions=16,
    )


def q_near_dup_kcore(sf_dir: str) -> ray.data.Dataset:
    """3-core of the exact-Jaccard near-dup graph after three peel
    rounds — separates clique-like duplicate neighborhoods from chains
    and hubs that degree alone can't distinguish. Fixed round count so
    the chained-CTE SQL twin is exact."""
    from duplicate_finder_ray.stages.graph import kcore_peel

    return kcore_peel(
        q_ngram_jaccard_pairs(sf_dir), k=3, rounds=3, n_parts=16
    )


def q_doclen_equidepth_hist(sf_dir: str) -> ray.data.Dataset:
    """Equi-depth (equal-frequency) 8-bucket histogram of document
    lengths: global_rank assigns exact row numbers, bucket =
    rnk*8//n, per-bucket (lo, hi, count) via one slim grouped
    aggregate — the optimizer-statistics shape equi-width histograms
    can't give on heavy-tailed lengths."""
    from duplicate_finder_ray.stages.rank import global_rank

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    ranked = global_rank(docs, ["n_chars", "doc_id"], num_partitions=16)
    n = ranked.count()

    def bucketize(t: pa.Table) -> pa.Table:
        rnk = t.column("rnk").to_numpy()
        return pa.table(
            {
                "bucket": pa.array(rnk * 8 // n, pa.int64()),
                "n_chars": t.column("n_chars").cast(pa.int64()),
            }
        )

    return grouped_aggregate(
        ranked.map_batches(bucketize, batch_format="pyarrow"),
        "bucket",
        {"lo": ("min", "n_chars"), "hi": ("max", "n_chars"), "n_docs": ("count", None)},
    )


def q_events_watermark(sf_dir: str) -> ray.data.Dataset:
    """Watermark accounting per event-time hour: on-time vs late rows
    under a 300 s allowed-lateness budget against a deterministic
    delivery delay (event_id % 600 s) — the streaming audit that sizes
    a pipeline's lateness budget."""
    from duplicate_finder_ray.stages.events import watermark_audit

    return watermark_audit(
        _read(sf_dir, "events", ["event_id", "ts"])
    )


def q_compression_ratios(sf_dir: str) -> ray.data.Dataset:
    """Per-document deflate compressibility (compressed ppm of raw
    bytes) — the Gopher-style repetition signal ratio heuristics miss.
    No deflate in DuckDB ⇒ rows-only; kernel gated against direct zlib
    in tests."""
    from duplicate_finder_ray.stages import textstats

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(textstats.compression_ratios, batch_format="pyarrow")


def q_encoding_audit(sf_dir: str) -> ray.data.Dataset:
    """Per-document encoding health (codepoints vs bytes, non-ASCII /
    control / whitespace counts, ascii_ppm) — the mojibake and
    whitespace-wall detector. Single-char RE2 classes in both engines;
    integer ppm lattice ⇒ hash-match."""
    from duplicate_finder_ray.stages import textstats

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(textstats.encoding_audit, batch_format="pyarrow")


def q_pmi_bigrams(sf_dir: str) -> ray.data.Dataset:
    """Collocation mining: top-30 bigrams by exact integer-lattice PMI
    (n_ab·N·10⁶ // (n_a·n_b), min count 3) — frequency-independent
    phrase detection; HUGEINT cross-multiply twin hash-matches."""
    from duplicate_finder_ray.stages.textstats import pmi_bigrams

    docs = _read(sf_dir, "documents", ["text"])
    return pmi_bigrams(docs, "text", 30, min_n=3)


def q_dedup_retry_events(sf_dir: str) -> ray.data.Dataset:
    """Telemetry retry dedup: drop events whose previous same-(user,
    type) event is ≤4 h older (LAG semantics — exactly the SQL window
    twin); survivors carry gap_same_us. The synthetic events table's
    same-key gaps are minutes-to-days, so 4 h exercises BOTH the kept
    and dropped branches at every sf. One user-keyed exchange +
    vectorized lexsort kernel."""
    from duplicate_finder_ray.stages.events import dedup_retry_events

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return dedup_retry_events(ev, window_us=14_400_000_000)


def q_near_dup_cluster_density(sf_dir: str) -> ray.data.Dataset:
    """Per-cluster edge density of the exact-Jaccard near-dup graph
    (2·edges·10⁶ // n(n−1)): clique-like clusters are safe to collapse,
    low-density chains flag transitive-merge false positives. One slim
    edge→label join + component-keyed count folds."""
    from duplicate_finder_ray.stages.cc import connected_components
    from duplicate_finder_ray.stages.graph import cluster_density

    pairs = q_ngram_jaccard_pairs(sf_dir).materialize()  # slim; reused 2×
    labels = connected_components(pairs, PipelineConfig())
    return cluster_density(pairs, labels)


def q_line_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-doc line-level repetition (Gopher dup-line-fraction signal):
    total/distinct lines, hottest line count, dup_line_ppm."""
    from duplicate_finder_ray.stages import textstats

    return _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(textstats.line_stats, batch_format="pyarrow")


def q_dedup_keepers_by_depth(sf_dir: str) -> ray.data.Dataset:
    """Keeper POLICY variant: per duplicate group keep the shallowest
    path (ties → lex tuple) — the 'canonical copy vs vendored copies'
    rule; one group-keyed exchange over the slim members view."""
    res = DedupPipeline(PipelineConfig()).run_on(code_files_from_documents(sf_dir))
    return exact.keepers_by_depth(res.members)


def q_events_hourly_dense(sf_dir: str) -> ray.data.Dataset:
    """Gap-filled hourly counts: every hour between corpus min and max
    appears (zero-count hours included) — hour dimension synthesized
    from two scalar folds, left-joined; raw events never shuffle."""
    from duplicate_finder_ray.stages.events import hourly_dense

    return hourly_dense(
        _read(sf_dir, "events", ["ts"])
    )


def q_jaccard_threshold_sweep(sf_dir: str) -> ray.data.Dataset:
    """Dedup what-if: near-dup pair count at each Jaccard threshold
    τ ∈ {0.5..0.9} over the ≥0.5 exact pair set — the knob-tuning
    report before an expensive full rerun. Thresholding happens on the
    pair set's round-6 jaccard doubles, which are bit-identical across
    engines (ngram_jaccard_pairs hash-matches), against the same
    tau10/10.0 IEEE literals — so the comparison is deterministic on
    both sides. Per-batch partial counts; the shuffle carries 5 rows
    per block."""
    pairs = q_ngram_jaccard_pairs(sf_dir)
    taus = np.arange(5, 10, dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        if "jaccard" not in batch.column_names:  # empty-filter 0-col block
            return pa.table(
                {
                    "tau10": pa.array([], pa.int64()),
                    "n_pairs": pa.array([], pa.int64()),
                }
            )
        j = batch["jaccard"].to_numpy(zero_copy_only=False)
        n = np.array([(j >= t / 10.0).sum() for t in taus], dtype=np.int64)
        return pa.table({"tau10": pa.array(taus), "n_pairs": pa.array(n)})

    zeros = ray.data.from_arrow(
        pa.table(
            {
                "tau10": pa.array(taus),
                "n_pairs": pa.array(np.zeros(5, dtype=np.int64)),
            }
        )
    )
    counts = (
        pairs.select_columns(["jaccard"])
        .map_batches(partial, batch_format="pyarrow")
        .union(zeros)  # keeps a 0 row per τ even on an empty pair set
    )
    return grouped_aggregate(counts, "tau10", {"n_pairs": ("sum", "n_pairs")})


def q_lang_mismatch(sf_dir: str) -> ray.data.Dataset:
    """Metadata-vs-content audit: docs whose DECLARED lang disagrees
    with the confident marker-word prediction — the mislabeled-slice
    detector quota sampling and per-lang pruning silently depend on.
    Scan-side only (one RE2 pass per language, no shuffle)."""
    from duplicate_finder_ray.stages import textstats

    def audit(batch: pa.Table) -> pa.Table:
        pred = textstats.language_id(batch)
        out = pred.append_column("lang", batch.column("lang"))
        keep = pc.and_(
            pc.not_equal(out["lang_pred"], out["lang"]),
            pc.not_equal(out["lang_pred"], "unknown"),
        )
        return out.filter(keep).select(
            ["doc_id", "lang", "lang_pred", "lang_score"]
        )

    return _read(
        sf_dir, "documents", ["doc_id", "text", "lang"]
    ).map_batches(audit, batch_format="pyarrow")


def q_token_freq_spectrum(sf_dir: str) -> ray.data.Dataset:
    """Good-Turing frequency-of-frequencies over the corpus vocabulary
    (hapax mass, boilerplate-flood shape); O(√N) distinct-frequency
    final shuffle."""
    from duplicate_finder_ray.stages.textstats import token_freq_spectrum

    return token_freq_spectrum(
        _read(sf_dir, "documents", ["text"]),
        "text",
    )


def q_events_anomalous_hours(sf_dir: str) -> ray.data.Dataset:
    """Hours with event count > mean + 3·stddev over the DENSE hourly
    series (stages/events.py:anomalous_hours) — the burst detector.
    The test is the exact integer inequality (H·x − S)² > 9·(H·Q − S²)
    with H·x > S, so distributed partials and the HUGEINT SQL twin are
    bit-identical (float variance would drift under reordering)."""
    from duplicate_finder_ray.stages.events import anomalous_hours

    events = _read(sf_dir, "events", ["ts"])
    return anomalous_hours(events, k_sigma=3)


def q_daily_new_users(sf_dir: str) -> ray.data.Dataset:
    """Adoption curve: per-day first-time users + running total
    (stages/events.py:daily_new_users) — the streaming answer to
    cumulative count(DISTINCT). Per-batch user-min partials, one slim
    user-keyed exchange, tiny day grouped count + one-task cumsum; window-SUM
    SQL twin."""
    from duplicate_finder_ray.stages.events import daily_new_users

    events = _read(sf_dir, "events", ["user_id", "ts"])
    return daily_new_users(events)


def q_inactive_users(sf_dir: str) -> ray.data.Dataset:
    """Churned users: last event > 6 hours before the corpus max
    (stages/events.py:inactive_users). Per-batch user-max partials,
    one slim user-keyed exchange, map-side filter against a broadcast
    corpus-max scalar — the per-user table never funnels into one
    task."""
    from duplicate_finder_ray.stages.events import inactive_users

    events = _read(sf_dir, "events", ["user_id", "ts"])
    return inactive_users(events, cutoff_s=6 * 3_600)


def q_events_hourly_autocorr(sf_dir: str) -> ray.data.Dataset:
    """Lag-1 autocorrelation of the dense hourly count series
    (stages/events.py:hourly_autocorr) — composes hourly_dense with
    the exact-moment Pearson kernel; LEAD-window SQL twin reproduces
    the micro-unit value bit-for-bit."""
    from duplicate_finder_ray.stages.events import hourly_autocorr

    events = _read(sf_dir, "events", ["ts"])
    return hourly_autocorr(events, lag=1)


def q_ab_welch_t(sf_dir: str) -> ray.data.Dataset:
    """A/B significance readout (stages/stats.py:welch_t): Welch's
    unequal-variance t between purchase and click event values on the
    exact cent lattice — moment partials are exact ints, the final
    12-op double expression is evaluated in one fixed order and
    micro-quantized, so the SQL twin matches bit-for-bit."""
    from duplicate_finder_ray.stages.stats import welch_t

    events = _read(sf_dir, "events", ["event_type", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        return pa.table(
            {
                "event_type": batch["event_type"],
                "cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    ds = events.map_batches(cents, batch_format="pyarrow")
    return welch_t(ds, "event_type", "cents", "purchase", "click")


def q_doclen_psi_drift(sf_dir: str) -> ray.data.Dataset:
    """Distribution-drift gate (stages/stats.py:psi_drift): PSI of the
    doc-length distribution, slice src0 vs src1, width-16 buckets.
    Each bucket's term is nano-quantized BEFORE the sum, so the total
    is an order-free integer sum in both engines."""
    from duplicate_finder_ray.stages.stats import psi_drift

    docs = _read(sf_dir, "documents", ["source", "n_chars"])
    return psi_drift(docs, "source", "n_chars", "src0", "src1", bucket_width=16)


def q_zorder_zone_maps(sf_dir: str) -> ray.data.Dataset:
    """Storage-layout pair (stages/layout.py): docs Z-ordered by
    (n_chars, doc_id % 1024) via the magic-mask Morton interleave
    (signed-64-safe, identical BIGINT chain in the twin), then
    64-row zone maps — the min/max skipping statistics a 2-D scan
    predicate consults; tight per-zone ranges on BOTH columns are the
    observable proof the interleave worked."""
    from duplicate_finder_ray.stages.layout import zone_maps

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        return batch.append_column(
            "bucket", pa.array(ids % np.int64(1024), pa.int64())
        )

    ds = docs.map_batches(add_bucket, batch_format="pyarrow")
    return zone_maps(ds, "n_chars", "bucket", "doc_id", zone_rows=64)


def q_lang_source_chi2(sf_dir: str) -> ray.data.Dataset:
    """Categorical independence audit (stages/stats.py:
    chi2_contingency): Pearson chi² of the lang × source contingency
    table — per-cell fixed-order double terms nano-quantized before an
    order-free integer sum (the PSI discipline); zero-observed cells
    of the full cross product contribute e."""
    from duplicate_finder_ray.stages.stats import chi2_contingency

    docs = _read(sf_dir, "documents", ["lang", "source"])
    return chi2_contingency(docs, "lang", "source")


def q_events_seasonality(sf_dir: str) -> ray.data.Dataset:
    """7×24 calendar heatmap: count + exact cent sum per (ISO dow,
    hour-of-day), decoded with pure epoch integer arithmetic (no tz
    lib); scan-side combiner, one ≤168-row grouped aggregate."""
    from duplicate_finder_ray.stages.events import seasonality_profile

    return seasonality_profile(
        _read(sf_dir, "events", ["ts", "value"])
    )


def q_epoch_shuffle(sf_dir: str) -> ray.data.Dataset:
    """Deterministic training-epoch ordering: shuffle_rank = exact
    global row_number over md5(doc_id ':' epoch) — a reproducible,
    resumable permutation (new epoch suffix ⇒ fresh order; a crashed
    run re-derives the same order without storing it). The seeded key
    string is built in Arrow C, hashed via the memoryview md5 kernel
    (no per-row Python objects), ranked by the u64 digest prefix with
    doc_id tiebreak — the SQL twin orders by substring(md5, 1, 16)
    then doc_id, which is the same total order (fixed-width lowercase
    hex sorts like its nibbles; the engine carries the prefix as
    ``u64 XOR 2⁶³`` reinterpreted int64 — offset-binary is
    order-preserving, and int64 is what the range exchange ships).
    One range exchange."""
    from duplicate_finder_ray.stages.rank import global_rank
    from duplicate_finder_ray.stages.relational import _md5_prefix_u64

    epoch = 1
    docs = _read(sf_dir, "documents", ["doc_id"])

    def key(batch: pa.Table) -> pa.Table:
        s = pc.binary_join_element_wise(
            pc.cast(batch["doc_id"], pa.string()), str(epoch), ":"
        )
        u = _md5_prefix_u64(s) ^ np.uint64(1 << 63)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "k": pa.array(u.view(np.int64), pa.int64()),
            }
        )

    keyed = docs.map_batches(key, batch_format="pyarrow")
    return global_rank(
        keyed, ["k", "doc_id"], out_col="shuffle_rank", num_partitions=16
    ).select_columns(["doc_id", "shuffle_rank"])


def q_reassemble_docs(sf_dir: str) -> ray.data.Dataset:
    """Chunk-store round-trip: chunk every document into 64-token /
    48-stride windows, then rebuild the documents from the chunks —
    the oracle asserts reassemble(chunk(docs)) equals the
    whitespace-normalized originals token for token."""
    from duplicate_finder_ray.stages.chunking import (
        chunk_documents,
        reassemble_chunks,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    chunks = chunk_documents(docs, "doc_id", "text", 64, 48)
    return reassemble_chunks(chunks, "doc_id", 64, 48, n_parts=16)


def q_purchase_error_overlaps(sf_dir: str) -> ray.data.Dataset:
    """Interval-overlap join: purchase activity windows × error
    windows (each event extended 1 + event_id%10 minutes, half-open)
    — per purchase, how many error windows it overlapped. The
    inequality-join shape (downtime × activity) via grid-cell
    co-location with single-cell pair ownership."""
    from duplicate_finder_ray.stages.join import interval_overlap_join

    def intervals(etype: str):
        def fn(t: pa.Table) -> pa.Table:
            mask = pc.equal(t.column("event_type"), etype)
            sub = t.filter(mask)
            s = pc.cast(
                pc.cast(sub["ts"], pa.timestamp("us")), pa.int64()
            ).to_numpy()
            eid = sub["event_id"].to_numpy()
            dur = (1 + eid % 10) * np.int64(60_000_000)
            return pa.table(
                {
                    "event_id": pa.array(eid, pa.int64()),
                    "s": pa.array(s, pa.int64()),
                    "e": pa.array(s + dur, pa.int64()),
                }
            )

        return fn

    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type"])
    purchases = ev.map_batches(intervals("purchase"), batch_format="pyarrow")
    errors = ev.map_batches(intervals("error"), batch_format="pyarrow")
    pairs = interval_overlap_join(
        purchases, errors, "event_id", "event_id",
        cell=600_000_000, n_parts=16,
    )
    return (
        grouped_aggregate(pairs, "l_id", {"n_overlaps": ("count", None)})
        .map_batches(
            lambda t: t.rename_columns(["purchase_id", "n_overlaps"]),
            batch_format="pyarrow",
        )
    )


def q_repo_pareto(sf_dir: str) -> ray.data.Dataset:
    """Pareto-frontier repos in (n_files, total_bytes) maximization —
    the 'biggest AND bulkiest' tradeoff picks no single ORDER BY can
    answer. Slim per-repo rollup → per-block local skyline → one small
    merge."""
    from duplicate_finder_ray.stages.relational import pareto_frontier

    rb = grouped_aggregate(
        _derived(sf_dir).select_columns(["repo", "size"]),
        "repo",
        {"n_files": ("count", None), "total_bytes": ("sum", "size")},
    )
    return pareto_frontier(rb, "n_files", "total_bytes")


def q_curriculum_phases(sf_dir: str) -> ray.data.Dataset:
    """Curriculum ordering: every document ranked by (quality_score,
    doc_id) ascending — both engines produce bit-identical doubles, so
    the order is engine-portable — and split into 4 equal-frequency
    training phases (low-quality first → prune, high-quality last).
    global_rank + one scan-side bucket map; no full-corpus task."""
    from duplicate_finder_ray.stages import textstats
    from duplicate_finder_ray.stages.rank import global_rank

    q = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(textstats.quality_scores, batch_format="pyarrow")
        .select_columns(["doc_id", "quality_score"])
    )
    ranked = global_rank(
        q, ["quality_score", "doc_id"], num_partitions=16
    )
    n = ranked.count()

    def phase(t: pa.Table) -> pa.Table:
        rnk = t.column("rnk").to_numpy()
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "phase": pa.array(rnk * 4 // n, pa.int64()),
            }
        )

    return ranked.map_batches(phase, batch_format="pyarrow")


def q_media_phash(sf_dir: str) -> ray.data.Dataset:
    """64-bit DCT perceptual hash per media item — the signature media
    dedup groups on (``phash_groups`` is the grouping op; this corpus
    has no exact-payload dups, so the driver checks the signature
    table itself). The pHash math is real (batched einsum per actor,
    gated against a naive-DCT reference in tests/test_multimodal.py);
    pixel acquisition is the documented codec stub, hence rows-only."""
    from duplicate_finder_ray.stages.multimodal import (
        media_from_documents,
        media_phash,
    )

    return media_phash(media_from_documents(sf_dir)).select_columns(
        ["media_id", "media_type", "phash"]
    )


def q_profile_documents(sf_dir: str) -> ray.data.Dataset:
    """Column profile of the documents table (row/null counts, exact
    distinct cardinality, min/max) — the ingest-time data-quality
    audit. Typed min/max partials fold on the driver; distinct counts
    ride the salted hot-key exchange (col_name is the textbook hot
    key)."""
    from duplicate_finder_ray.stages.profile import profile_table

    cols = ["doc_id", "lang", "source", "n_chars"]
    docs = _read(sf_dir, "documents", cols)
    return profile_table(docs, cols)


def q_skew_join_repo_bytes(sf_dir: str) -> ray.data.Dataset:
    """Skew-adaptive join demo: per-file repo-bytes attribution rolled
    up by language. The join runs through ``skew_join`` with a
    deliberately low hot threshold so most repos take the SALTED path
    (left fans over salts, right rows replicated per salt) — the
    mega-repo shape where a plain hash join pins one reducer."""
    from duplicate_finder_ray.stages.join import skew_join

    d = _derived(sf_dir)
    rb = grouped_aggregate(
        d.select_columns(["repo", "size"]), "repo", {"repo_bytes": ("sum", "size")}
    )
    joined = skew_join(
        d.select_columns(["repo", "lang"]),
        rb,
        "repo",
        "repo",
        n_parts=8,
        right_cols=["repo_bytes"],
        hot_threshold=4,
        n_salts=4,
    )

    return grouped_aggregate(
        joined,
        "lang",
        {"total_repo_bytes": ("sum", "repo_bytes"), "n_files": ("count", None)},
    )


def q_code_snapshot_diff(sf_dir: str) -> ray.data.Dataset:
    """Incremental-validation diff between two deterministic snapshots
    of the code table: v2 drops doc_id%11==0 files (removed), appends
    '!' to doc_id%7==0 texts (changed where content derives from text),
    and generates one new gen/ file per doc_id%13==0 (added)."""
    from duplicate_finder_ray.sources.code_table import (
        _derive_code_files_batch,
    )
    from duplicate_finder_ray.stages.derive import add_sha256
    from duplicate_finder_ray.stages.diagnostics import snapshot_diff

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    left = (
        docs.map_batches(_derive_code_files_batch, batch_format="pyarrow")
        .map_batches(add_sha256, batch_format="pyarrow")
        .select_columns(["repo", "path", "sha256"])
    )

    def mutate(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        batch = batch.filter(pa.array(ids % 11 != 0))
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        bang = pa.array(ids % 7 == 0)
        text = pc.if_else(
            bang,
            pc.binary_join_element_wise(batch.column("text"), "!", ""),
            batch.column("text"),
        )
        return batch.set_column(
            batch.schema.get_field_index("text"), "text", text
        )

    def gen_added(batch: pa.Table) -> pa.Table:
        all_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        ids = all_ids[all_ids % 13 == 0]
        id_str = ids.astype(str).astype(object)
        repo = (
            "org" + (ids % 7).astype(str).astype(object)
            + "/repo" + (ids % 23).astype(str).astype(object)
        )
        return pa.table(
            {
                "repo": pa.array(repo, pa.string()),
                "path": pa.array("gen/f" + id_str + ".gen", pa.string()),
                "content": pa.array("GEN#" + id_str, pa.string()),
            }
        )

    right = (
        docs.map_batches(mutate, batch_format="pyarrow")
        .map_batches(_derive_code_files_batch, batch_format="pyarrow")
        .map_batches(add_sha256, batch_format="pyarrow")
        .select_columns(["repo", "path", "sha256"])
        .union(
            docs.map_batches(gen_added, batch_format="pyarrow")
            .map_batches(add_sha256, batch_format="pyarrow")
            .select_columns(["repo", "path", "sha256"])
        )
    )
    return snapshot_diff(left, right, ["repo", "path"], "sha256")


def q_code_table_fingerprint(sf_dir: str) -> ray.data.Dataset:
    """Order-insensitive content checksum of the derived code table
    (the resumable-run validation primitive)."""
    from duplicate_finder_ray.stages.diagnostics import table_fingerprint

    return table_fingerprint(_derived(sf_dir), ["file_id", "sha256"])


def q_q10_returned_items(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q10-shaped 4-table composition: returned-line revenue
    pre-aggregated per order BEFORE the large×large order join, summed
    per customer, customer/nation dims broadcast in, global top-20.
    Exact integer revenue units."""
    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 7, 1), pa.timestamp("us"))

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def li_rev(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        price_c = rel.cents(batch.column("l_extendedprice"))
        disc_pct = rel.cents(batch.column("l_discount"))
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100), disc_pct))
        return pa.table(
            {"l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()), "rev": rev}
        )

    rev = grouped_aggregate(
        li.map_batches(li_rev, batch_format="pyarrow"),
        "l_orderkey",
        {"rev": ("sum", "rev")},
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def order_window(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi),
        )
        batch = batch.filter(keep)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
            }
        )

    o_win = orders.map_batches(order_window, batch_format="pyarrow")
    joined = shuffle_hash_join(rev, o_win, "l_orderkey", "o_orderkey", 8)
    per_cust = grouped_aggregate(joined, "o_custkey", {"revenue_units": ("sum", "rev")})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    withc = rel.broadcast_hash_join(
        per_cust, cust, "o_custkey", "c_custkey", ["c_name", "c_nationkey"]
    )
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])
    withn = rel.broadcast_hash_join(
        withc, nation, "c_nationkey", "n_nationkey", ["n_name"]
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch.column("o_custkey"),
                "c_name": batch.column("c_name"),
                "n_name": batch.column("n_name"),
                "revenue_units": batch.column("revenue_units"),
            }
        )

    out = withn.map_batches(project, batch_format="pyarrow")
    return rel.topk_global(
        out, by=["revenue_units", "c_custkey"], ascending=[False, True], k=20
    )


def q_repo_size_gini(sf_dir: str) -> ray.data.Dataset:
    """Corpus concentration: Gini of per-repo byte totals on the exact
    integer ppm lattice (one row)."""
    from duplicate_finder_ray.stages.repostats import repo_size_gini

    return repo_size_gini(_derived(sf_dir))


def q_session_cooccurrence(sf_dir: str) -> ray.data.Dataset:
    """Market-basket over sessions: sessions (30-min gap) containing
    BOTH event types, per unordered type pair — sessionize + distinct +
    pair expansion in one user-keyed exchange."""
    from duplicate_finder_ray.stages.events import session_cooccurrence

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    return session_cooccurrence(ev)


def q_dedup_summary(sf_dir: str) -> Any:
    """One-row executive dedup report: total/distinct/dup counts +
    reclaimable bytes — one sha-keyed exchange, one partial row per
    partition."""
    from duplicate_finder_ray.stages.repostats import dedup_summary

    return dedup_summary(_derived(sf_dir))


def q_integrity_audit(sf_dir: str) -> Any:
    """Referential-integrity audit across the fact tables: orders whose
    customer is missing and lineitems whose order is missing — both as
    ANTI-joins (dimension side broadcast for customers; large×large
    shuffle anti for lineitem→orders), reduced to one count row. The
    pre-ingest hygiene check every pipeline runs before joining."""
    import pandas as pd

    from duplicate_finder_ray.stages.join import shuffle_hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    orphan_orders = shuffle_hash_join(
        orders, cust, "o_custkey", "c_custkey", 8, how="anti"
    ).count()
    orphan_lineitems = shuffle_hash_join(
        li,
        orders.select_columns(["o_orderkey"]),
        "l_orderkey",
        "o_orderkey",
        8,
        how="anti",
    ).count()
    return pd.DataFrame(
        {
            "orphan_orders": pd.array([orphan_orders], dtype="int64"),
            "orphan_lineitems": pd.array([orphan_lineitems], dtype="int64"),
        }
    )


def q_dir_rollup(sf_dir: str) -> ray.data.Dataset:
    """Recursive per-directory byte/file rollup (du): every ancestor
    dir of every file, counts pre-aggregated per batch map-side."""
    from duplicate_finder_ray.stages.repostats import dir_rollup

    return dir_rollup(_derived(sf_dir))


def q_user_peak_rate(sf_dir: str) -> ray.data.Dataset:
    """Per-user peak events-per-minute (burst/bot signal): count
    partials + one user-keyed exchange + vectorized argmax."""
    from duplicate_finder_ray.stages.events import user_peak_rate

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return user_peak_rate(ev)


def q_fork_families(sf_dir: str) -> ray.data.Dataset:
    """Repo families: transitive closure (connected components) over
    the ≥50%-containment fork-candidate graph; family = lex-min repo."""
    from duplicate_finder_ray.stages.repostats import fork_families

    return fork_families(_derived(sf_dir), min_containment_ppm=500_000)


def q_clone_groups_type2(sf_dir: str) -> ray.data.Dataset:
    """Type-2 clone groups: files identical modulo identifier names,
    numeric literals and whitespace — RE2 normalization + sha256
    map-side (content never shuffles), one clone-keyed exchange of
    slim rows."""
    from duplicate_finder_ray.stages.clones import clone_groups_type2

    ds = code_files_from_documents(sf_dir)
    ds = ds.map_batches(add_identity, batch_format="pyarrow")
    return clone_groups_type2(ds)


def q_event_transitions(sf_dir: str) -> ray.data.Dataset:
    """Per-user event-type transition counts (first-order Markov
    matrix): LAG-then-GROUP via one user-keyed exchange + vectorized
    successor pairing; final aggregate is |types|² rows."""
    from duplicate_finder_ray.stages.events import event_transitions

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    return event_transitions(ev)


def q_q4_order_priority(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q4-shaped EXISTS decorrelation: orders placed in 1996-Q1
    with at least one RETURNED lineitem, counted per order priority
    (the testdata lineitem carries no commit/receipt dates, so the
    returned-flag predicate stands in for Q4's late-delivery EXISTS).
    Shape: both sides pruned at the read, the returned-line side
    deduplicated per batch (combiner) so the semi-join shuffles one
    slim key row per (order, batch), then ONE barrier-free shuffle
    semi-join + a 5-row count aggregate."""
    import datetime as _dt

    from duplicate_finder_ray.stages.join import shuffle_hash_join

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 4, 1), pa.timestamp("us"))

    def o_filter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi),
        )
        return batch.filter(keep).select(["o_orderkey", "o_orderpriority"])

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_orderpriority", "o_orderdate"],
    ).map_batches(o_filter, batch_format="pyarrow")

    def returned_keys(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("l_returnflag"), pa.scalar("R"))
        keys = batch.filter(keep).column("l_orderkey")
        # batch-local distinct: the semi-join only needs key EXISTENCE,
        # so collapse the ~4 lines/order before they cross the exchange
        return pa.table({"l_orderkey": pc.unique(keys)})

    returned = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]
    ).map_batches(returned_keys, batch_format="pyarrow")

    sem = shuffle_hash_join(
        orders, returned, "o_orderkey", "l_orderkey", 8, how="semi"
    )
    return grouped_aggregate(sem, "o_orderpriority", {"n_orders": ("count", None)})


def q_q6_forecast_revenue(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q6: forecast-revenue delta — sum(extendedprice × discount)
    over 1996 shipments with discount in [5%, 7%] and quantity < 24, on
    the exact cent×percent integer lattice. Pure scan-side map: pruned
    4-column read, per-batch filter + ONE partial row per block; the
    driver folds O(blocks) scalars — nothing shuffles."""
    import pandas as pd

    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), pa.timestamp("us"))
    part_schema = pa.schema(
        [("revenue_cp", pa.int64()), ("n_lines", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc_c = rel.cents(batch.column("l_discount"))
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(batch.column("l_shipdate"), lo),
                pc.less(batch.column("l_shipdate"), hi),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(disc_c, pa.scalar(5)),
                    pc.less_equal(disc_c, pa.scalar(7)),
                ),
                pc.less(batch.column("l_quantity"), pa.scalar(24.0)),
            ),
        )
        sel = batch.filter(keep)
        if len(sel) == 0:
            return part_schema.empty_table()
        rev = pc.multiply(
            rel.cents(sel.column("l_extendedprice")),
            rel.cents(sel.column("l_discount")),
        )
        return pa.table(
            {
                "revenue_cp": pa.array(
                    [pc.sum(rev).as_py() or 0], pa.int64()
                ),
                "n_lines": pa.array([len(sel)], pa.int64()),
            }
        )

    partials = _read(
        sf_dir, "lineitem",
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    ).map_batches(partial, batch_format="pyarrow")
    agg = partials.to_pandas()
    return pd.DataFrame(
        [
            {
                "revenue_cp": int(agg["revenue_cp"].sum()) if len(agg) else 0,
                "n_lines": int(agg["n_lines"].sum()) if len(agg) else 0,
            }
        ]
    )


def q_q12_priority_lines(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q12-shaped priority×shipment matrix: 1996-shipped line
    counts per return flag, split into high-priority (1-URGENT/2-HIGH)
    vs lower-priority orders (the testdata carries no ship mode, so
    the return flag is the grouping axis). Shape: lineitem combines to
    (orderkey, flag, n) partials map-side, ONE large×large shuffle
    join against the pruned orders table, then a 3-row conditional
    aggregate."""
    import datetime as _dt

    from duplicate_finder_ray.stages.join import shuffle_hash_join

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), pa.timestamp("us"))

    def li_partials(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi),
        )
        sel = batch.filter(keep)
        t = pa.table(
            {
                "l_orderkey": sel.column("l_orderkey"),
                "l_returnflag": sel.column("l_returnflag"),
            }
        ).to_pandas()
        g = (
            t.groupby(["l_orderkey", "l_returnflag"], sort=False)
            .size()
            .reset_index(name="n_lines")
        )
        return pa.table(
            {
                "l_orderkey": pa.array(g["l_orderkey"].to_numpy(), pa.int64()),
                "l_returnflag": pa.array(g["l_returnflag"], pa.string()),
                "n_lines": pa.array(g["n_lines"].to_numpy(np.int64)),
            }
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_shipdate"],
    ).map_batches(li_partials, batch_format="pyarrow")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = shuffle_hash_join(
        li, orders, "l_orderkey", "o_orderkey", 8,
        right_cols=["o_orderpriority"],
    )

    def split_counts(batch: pa.Table) -> pa.Table:
        pri = batch.column("o_orderpriority")
        high = pc.or_(
            pc.equal(pri, pa.scalar("1-URGENT")),
            pc.equal(pri, pa.scalar("2-HIGH")),
        )
        n = batch.column("n_lines")
        zero = pa.scalar(0, pa.int64())
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "high_lines": pc.if_else(high, n, zero),
                "low_lines": pc.if_else(high, zero, n),
            }
        )

    return grouped_aggregate(
        joined.map_batches(split_counts, batch_format="pyarrow"),
        "l_returnflag",
        {"high_lines": ("sum", "high_lines"), "low_lines": ("sum", "low_lines")},
    )


def q_q14_promo_revenue(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q14: PROMO-part share of September-1996 revenue, exact to
    the end — revenue on the cent×(100−disc%) lattice, the share as
    ppm via arbitrary-precision integer division (promo×10⁶ // total
    exceeds int64 at warehouse scale; Python ints don't wrap). Shape:
    pruned month read, part dimension broadcast ONCE (ray.put'd table,
    probed per batch), one partial row per block, driver folds three
    scalars."""
    import pandas as pd

    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel

    lo = pa.scalar(_dt.datetime(1996, 9, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 10, 1), pa.timestamp("us"))
    part_schema = pa.schema(
        [("promo_cp", pa.int64()), ("total_cp", pa.int64())]
    )

    def month_filter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi),
        )
        return batch.filter(keep).select(
            ["l_partkey", "l_extendedprice", "l_discount"]
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(month_filter, batch_format="pyarrow")

    joined = rel.broadcast_hash_join(
        li,
        _read(sf_dir, "part", ["p_partkey", "p_type"]),
        "l_partkey",
        "p_partkey",
        ["p_type"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return part_schema.empty_table()
        rev = pc.multiply(
            rel.cents(batch.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), rel.cents(batch.column("l_discount"))
            ),
        )
        promo = pc.if_else(
            pc.equal(batch.column("p_type"), pa.scalar("PROMO")),
            rev,
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "promo_cp": pa.array([pc.sum(promo).as_py() or 0], pa.int64()),
                "total_cp": pa.array([pc.sum(rev).as_py() or 0], pa.int64()),
            }
        )

    agg = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    promo = int(agg["promo_cp"].sum()) if len(agg) else 0
    total = int(agg["total_cp"].sum()) if len(agg) else 0
    return pd.DataFrame(
        [
            {
                "promo_revenue_cp": promo,
                "total_revenue_cp": total,
                "promo_ppm": (promo * 1_000_000) // total if total else 0,
            }
        ]
    )


def q_q18_large_orders(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q18: top-100 largest orders — orders whose total quantity
    exceeds 200 units, with customer name and exact cent total price.
    Shape: ONE slim orderkey-keyed grouped sum of lineitem quantity
    (pre-summed per block), the survivors (a tiny fraction) join orders via
    the shuffle join and the customer dimension by broadcast; the
    global sort ranks only the survivor set, tie-broken by the unique
    orderkey so the top-100 cut is deterministic."""
    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    def int_qty(batch: pa.Table) -> pa.Table:
        qty = pc.cast(
            pc.floor(pc.add(batch.column("l_quantity"), 0.5)), pa.int64()
        )
        return pa.table(
            {"l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()), "q": qty}
        )

    qty = grouped_aggregate(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
            int_qty, batch_format="pyarrow"
        ),
        "l_orderkey",
        {"total_qty": ("sum", "q")},
    ).filter(expr="total_qty > 200")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    joined = shuffle_hash_join(
        qty, orders, "l_orderkey", "o_orderkey", 8,
        right_cols=["o_custkey", "o_totalprice"],
    )

    def price_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("l_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "total_qty": batch.column("total_qty"),
                "o_totalprice_cents": rel.cents(batch.column("o_totalprice")),
            }
        )

    withc = rel.broadcast_hash_join(
        joined.map_batches(price_cents, batch_format="pyarrow"),
        _read(sf_dir, "customer", ["c_custkey", "c_name"]),
        "o_custkey",
        "c_custkey",
        ["c_name"],
    )
    return (
        withc.select_columns(
            ["c_name", "o_orderkey", "total_qty", "o_totalprice_cents"]
        )
        .sort(["o_totalprice_cents", "o_orderkey"], descending=[True, False])
        .limit(100)
    )


def q_q22_lapsed_balances(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q22-shaped lapsed-account report: customers in three
    target segments whose balance exceeds the segment-pool's
    positive-balance average and who placed NO order since 1999
    (the testdata has no phone column and every customer has SOME
    order, so 'no recent order' stands in for Q22's NOT EXISTS).
    The avg comparison is EXACT: bal_c × n_pos > tot_pos cross-multiply
    on the cents lattice — no float division anywhere. Shape: two
    scan-side partial folds (pool stats are 2 scalars), a broadcastable
    predicate, ONE anti semi-join shuffle of slim keys, 3-row final
    aggregate."""
    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    segs = ("AUTOMOBILE", "FURNITURE", "MACHINERY")

    def seg_filter(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("c_mktsegment"), value_set=pa.array(segs)
        )
        sel = batch.filter(keep)
        return pa.table(
            {
                "c_custkey": sel.column("c_custkey"),
                "c_mktsegment": sel.column("c_mktsegment"),
                "bal_c": rel.cents(sel.column("c_acctbal")),
            }
        )

    seg = _read(
        sf_dir, "customer",
        ["c_custkey", "c_mktsegment", "c_acctbal"],
    ).map_batches(seg_filter, batch_format="pyarrow")

    stat_schema = pa.schema([("tot", pa.int64()), ("n", pa.int64())])

    def pos_partial(batch: pa.Table) -> pa.Table:
        bal = batch.column("bal_c")
        pos = batch.filter(pc.greater(bal, pa.scalar(0, pa.int64())))
        if len(pos) == 0:
            return stat_schema.empty_table()
        return pa.table(
            {
                "tot": pa.array(
                    [pc.sum(pos.column("bal_c")).as_py() or 0], pa.int64()
                ),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    stats = seg.map_batches(pos_partial, batch_format="pyarrow").to_pandas()
    # Python ints: bal_c × n_pos overflows int64 once the pool passes
    # ~10^10 positive-balance customers — keep the comparison exact
    tot_pos = int(stats["tot"].sum()) if len(stats) else 0
    n_pos = int(stats["n"].sum()) if len(stats) else 0

    def rich_filter(batch: pa.Table) -> pa.Table:
        bal = batch.column("bal_c").to_numpy().astype(np.int64)
        if (
            n_pos
            and tot_pos < 2**62
            and abs(int(np.abs(bal).max(initial=0))) < (2**62) // n_pos
        ):
            keep = bal * np.int64(n_pos) > np.int64(tot_pos)  # vectorized
        else:  # product would wrap int64 — exact object-int fallback
            keep = np.array(
                [int(b) * n_pos > tot_pos for b in bal], dtype=bool
            )
        return batch.filter(pa.array(keep))

    rich = seg.map_batches(rich_filter, batch_format="pyarrow")

    import datetime as _dt

    lo = pa.scalar(_dt.datetime(1999, 1, 1), pa.timestamp("us"))

    def recent_keys(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch.column("o_orderdate"), lo)
        return pa.table(
            {"o_custkey": pc.unique(batch.filter(keep).column("o_custkey"))}
        )

    recent = _read(
        sf_dir, "orders", ["o_custkey", "o_orderdate"]
    ).map_batches(recent_keys, batch_format="pyarrow")

    lapsed = shuffle_hash_join(
        rich, recent, "c_custkey", "o_custkey", 8, how="anti"
    )
    return grouped_aggregate(
        lapsed,
        "c_mktsegment",
        {"n_custs": ("count", None), "total_balance_cents": ("sum", "bal_c")},
    )


def q_q1_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1: pricing summary — per (returnflag, linestatus) totals
    over lines shipped on/before 1998-09-02, every measure exact on the
    integer lattice (qty half-up units, base cents, discounted revenue
    cent×pct, charge cent×pct×pct; Q1's avg columns are these sums ÷
    n_lines, derivable downstream without float drift). Shape: ONE
    pruned scan of per-line measures into one tiny multi-key grouped
    sum whose split tasks collapse each block to ≤|flag×status|
    partial rows — the fact table never shuffles."""
    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel

    hi = pa.scalar(_dt.datetime(1998, 9, 2), pa.timestamp("us"))

    def measures(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.less_equal(batch.column("l_shipdate"), hi))
        base = rel.cents(sel.column("l_extendedprice"))
        keep_pct = pc.subtract(
            pa.scalar(100, pa.int64()), rel.cents(sel.column("l_discount"))
        )
        tax_pct = pc.add(
            pa.scalar(100, pa.int64()), rel.cents(sel.column("l_tax"))
        )
        disc_cp = pc.multiply(base, keep_pct)
        return pa.table(
            {
                "l_returnflag": sel.column("l_returnflag"),
                "l_linestatus": sel.column("l_linestatus"),
                "sum_qty": pc.cast(
                    pc.floor(pc.add(sel.column("l_quantity"), 0.5)),
                    pa.int64(),
                ),
                "sum_base_cents": base,
                "sum_disc_cp": disc_cp,
                "sum_charge_cpp": pc.multiply(disc_cp, tax_pct),
            }
        )

    sums = ["sum_qty", "sum_base_cents", "sum_disc_cp", "sum_charge_cpp"]
    return grouped_aggregate(
        _read(
            sf_dir, "lineitem",
            [
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_shipdate",
            ],
        ).map_batches(measures, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {**{c: ("sum", c) for c in sums}, "n_lines": ("count", None)},
    )


def q_q7_nation_volume(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q7-shaped volume shipping: revenue between every ordered
    pair of DISTINCT nations (supplier nation → customer nation), per
    ship year, for 1995–1996 shipments, exact cent×pct lattice.
    Shape: the supplier→nation and customer→nation maps broadcast
    (dimension-sized); lineitem pre-aggregates revenue per (orderkey,
    supp_nation, year) map-side BEFORE the one large×large shuffle
    join against orders; a slim multi-key grouped sum finishes."""
    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    lo = pa.scalar(_dt.datetime(1995, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), pa.timestamp("us"))

    def nation_map(key_out: str, name_out: str, table: str, key: str, nk: str):
        return rel.broadcast_hash_join(
            _read(sf_dir, table, [key, nk]),
            _read(sf_dir, "nation", ["n_nationkey", "n_name"]),
            nk,
            "n_nationkey",
            ["n_name"],
        ).map_batches(
            lambda b: pa.table(
                {key_out: b.column(key), name_out: b.column("n_name")}
            ),
            batch_format="pyarrow",
        )

    sup = nation_map("s_suppkey", "supp_nation", "supplier", "s_suppkey", "s_nationkey")
    cust = nation_map("c_custkey", "cust_nation", "customer", "c_custkey", "c_nationkey")

    def li_partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi),
        )
        sel = batch.filter(keep)
        rev = pc.multiply(
            rel.cents(sel.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), rel.cents(sel.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "l_orderkey": sel.column("l_orderkey"),
                "l_suppkey": sel.column("l_suppkey"),
                "l_year": pc.cast(pc.year(sel.column("l_shipdate")), pa.int64()),
                "rev": rev,
            }
        )

    li = (
        _read(
            sf_dir, "lineitem",
            [
                "l_orderkey",
                "l_suppkey",
                "l_extendedprice",
                "l_discount",
                "l_shipdate",
            ],
        )
        .map_batches(li_partial, batch_format="pyarrow")
    )
    withsup = rel.broadcast_hash_join(li, sup, "l_suppkey", "s_suppkey", ["supp_nation"])

    def combine(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "supp_nation": batch.column("supp_nation"),
                "l_year": batch.column("l_year"),
                "rev": batch.column("rev"),
            }
        ).to_pandas()
        g = (
            df.groupby(["l_orderkey", "supp_nation", "l_year"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "l_orderkey": pa.array(g["l_orderkey"].to_numpy(), pa.int64()),
                "supp_nation": pa.array(g["supp_nation"], pa.string()),
                "l_year": pa.array(g["l_year"].to_numpy(np.int64)),
                "rev": pa.array(g["rev"].to_numpy(np.int64)),
            }
        )

    combined = withsup.map_batches(combine, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = shuffle_hash_join(
        combined, orders, "l_orderkey", "o_orderkey", 8, right_cols=["o_custkey"]
    )
    withcust = rel.broadcast_hash_join(
        joined, cust, "o_custkey", "c_custkey", ["cust_nation"]
    )
    cross = withcust.map_batches(
        lambda b: b.filter(
            pc.not_equal(b.column("supp_nation"), b.column("cust_nation"))
        ).select(["supp_nation", "cust_nation", "l_year", "rev"]),
        batch_format="pyarrow",
    )
    return grouped_aggregate(
        cross, ["supp_nation", "cust_nation", "l_year"], {"revenue_cp": ("sum", "rev")}
    )


def q_q8_market_share(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q8-shaped market share: of all 1995–1996 ECONOMY-part
    revenue bought by ASIA-region customers, the share supplied by
    EUROPE-region suppliers, per order year — the share exact as ppm
    via arbitrary-precision integer division. Shape: part keys and the
    supplier→region map broadcast; lineitem combines to (orderkey,
    total, europe) partials map-side; ONE large×large shuffle join
    against the year-filtered orders; customer→region broadcast
    prunes to the ASIA market; a years-sized aggregate folds on the
    driver."""
    import datetime as _dt

    import pandas as pd

    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    econ = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("p_type"), pa.scalar("ECONOMY"))
        ).select(["p_partkey"]),
        batch_format="pyarrow",
    )

    def region_map(key_out: str, reg_out: str, table: str, key: str, nk: str):
        withn = rel.broadcast_hash_join(
            _read(sf_dir, table, [key, nk]),
            _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]),
            nk,
            "n_nationkey",
            ["n_regionkey"],
        )
        withr = rel.broadcast_hash_join(
            withn,
            _read(sf_dir, "region", ["r_regionkey", "r_name"]),
            "n_regionkey",
            "r_regionkey",
            ["r_name"],
        )
        return withr.map_batches(
            lambda b: pa.table({key_out: b.column(key), reg_out: b.column("r_name")}),
            batch_format="pyarrow",
        )

    sup = region_map("s_suppkey", "supp_region", "supplier", "s_suppkey", "s_nationkey")
    asia_cust = region_map(
        "c_custkey", "cust_region", "customer", "c_custkey", "c_nationkey"
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("cust_region"), pa.scalar("ASIA"))
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    li = rel.broadcast_hash_join(li, econ, "l_partkey", "p_partkey", [])
    li = rel.broadcast_hash_join(li, sup, "l_suppkey", "s_suppkey", ["supp_region"])

    def combine(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            rel.cents(batch.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), rel.cents(batch.column("l_discount"))
            ),
        ).to_numpy()
        eu = pc.equal(
            batch.column("supp_region"), pa.scalar("EUROPE")
        ).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "tot": rev,
                "eu": np.where(eu, rev, 0),
            }
        )
        g = df.groupby("l_orderkey", sort=False, as_index=False).sum()
        return pa.table(
            {
                "l_orderkey": pa.array(g["l_orderkey"].to_numpy(), pa.int64()),
                "tot": pa.array(g["tot"].to_numpy(np.int64)),
                "eu": pa.array(g["eu"].to_numpy(np.int64)),
            }
        )

    combined = li.map_batches(combine, batch_format="pyarrow")

    lo = pa.scalar(_dt.datetime(1995, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), pa.timestamp("us"))

    def o_filter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi),
        )
        sel = batch.filter(keep)
        return pa.table(
            {
                "o_orderkey": sel.column("o_orderkey"),
                "o_custkey": sel.column("o_custkey"),
                "o_year": pc.cast(pc.year(sel.column("o_orderdate")), pa.int64()),
            }
        )

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_filter, batch_format="pyarrow")
    joined = shuffle_hash_join(
        combined, orders, "l_orderkey", "o_orderkey", 8,
        right_cols=["o_custkey", "o_year"],
    )
    asia = rel.broadcast_hash_join(joined, asia_cust, "o_custkey", "c_custkey", [])
    years = grouped_aggregate(
        asia, "o_year", {"tot": ("sum", "tot"), "eu": ("sum", "eu")}
    ).to_pandas()
    rows = []
    for _, r in years.sort_values("o_year").iterrows():
        tot, eu = int(r["tot"]), int(r["eu"])
        rows.append(
            {
                "o_year": int(r["o_year"]),
                "total_revenue_cp": tot,
                "europe_revenue_cp": eu,
                "europe_share_ppm": (eu * 1_000_000) // tot if tot else 0,
            }
        )
    return pd.DataFrame(
        rows,
        columns=["o_year", "total_revenue_cp", "europe_revenue_cp", "europe_share_ppm"],
    )


def q_q13_order_distribution(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q13-shaped customer order-count distribution: how many
    customers placed exactly N non-urgent orders, INCLUDING the
    zero-order bucket (the testdata carries no order comment, so the
    urgent-priority exclusion stands in for Q13's comment NOT LIKE).
    Shape: one slim custkey-keyed grouped count of the orders, ONE
    left shuffle join against the customer key table (unmatched
    customers keep the 0 bucket), then a tiny histogram aggregate."""
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    def non_urgent(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(
            batch.column("o_orderpriority"), pa.scalar("1-URGENT")
        )
        return pa.table(
            {"o_custkey": pc.cast(batch.filter(keep).column("o_custkey"), pa.int64())}
        )

    counts = grouped_aggregate(
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
            non_urgent, batch_format="pyarrow"
        ),
        "o_custkey",
        {"n_orders": ("count", None)},
    )
    cust = _read(sf_dir, "customer", ["c_custkey"])
    joined = shuffle_hash_join(
        cust, counts, "c_custkey", "o_custkey", 8,
        how="left", right_cols=["n_orders"],
    )

    def fill(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(
            pc.cast(batch.column("n_orders"), pa.int64()),
            pa.scalar(0, pa.int64()),
        )
        return pa.table({"n_orders": n})

    return grouped_aggregate(
        joined.map_batches(fill, batch_format="pyarrow"),
        "n_orders",
        {"n_custs": ("count", None)},
    )


def q_q15_top_supplier(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q15: the top supplier(s) by 1996-Q1 shipment revenue —
    every tie survives, exact cent×pct lattice. Shape: ONE slim
    suppkey-keyed grouped sum (pre-summed per block) produces the
    supplier-dimension-sized revenue table; the max + tie filter and
    the name join run on that dimension table driver-side."""
    import datetime as _dt

    import pandas as pd

    from duplicate_finder_ray.stages import relational as rel

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 4, 1), pa.timestamp("us"))

    def li_partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi),
        )
        sel = batch.filter(keep)
        rev = pc.multiply(
            rel.cents(sel.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), rel.cents(sel.column("l_discount"))
            ),
        )
        return pa.table(
            {"l_suppkey": pc.cast(sel.column("l_suppkey"), pa.int64()), "rev": rev}
        )

    revenue = grouped_aggregate(
        _read(
            sf_dir, "lineitem",
            ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ).map_batches(li_partial, batch_format="pyarrow"),
        "l_suppkey",
        {"total_revenue_cp": ("sum", "rev")},
    ).to_pandas()  # supplier-dimension-sized
    names = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    if len(revenue) == 0:
        return pd.DataFrame(
            columns=["s_suppkey", "s_name", "total_revenue_cp"]
        ).astype({"s_suppkey": "int64", "s_name": "object", "total_revenue_cp": "int64"})
    top = revenue[revenue["total_revenue_cp"] == revenue["total_revenue_cp"].max()]
    out = top.merge(names, left_on="l_suppkey", right_on="s_suppkey")
    return (
        out[["s_suppkey", "s_name", "total_revenue_cp"]]
        .sort_values("s_suppkey")
        .reset_index(drop=True)
    )


def q_q17_small_qty_revenue(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q17-shaped small-quantity revenue: total price of
    Brand#1 small-part (size ≤ 10) lines whose quantity is below 20%
    of that part's average — the avg predicate EXACT via the
    cross-multiply 5·q·n < Σq (all positive ints; no float division).
    Shape: the brand's part keys broadcast as a semi-probe, the
    surviving slim (partkey, qty, cents) rows materialize ONCE and
    feed two passes: a per-part (Σq, n) grouped aggregate whose
    dimension-sized result broadcasts back, then a scan-side fold to
    one row."""
    import pandas as pd

    from duplicate_finder_ray.stages import relational as rel

    pk = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.equal(b.column("p_brand"), pa.scalar("Brand#1")),
                pc.less_equal(b.column("p_size"), pa.scalar(10, pa.int32())),
            )
        ).select(["p_partkey"]),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": batch.column("l_partkey"),
                "q": pc.cast(
                    pc.floor(pc.add(batch.column("l_quantity"), 0.5)), pa.int64()
                ),
                "price_c": rel.cents(batch.column("l_extendedprice")),
            }
        )

    sel = (
        rel.broadcast_hash_join(li, pk, "l_partkey", "p_partkey", [])
        .map_batches(slim, batch_format="pyarrow")
        .materialize()  # tiny brand slice; feeds both passes below
    )
    stats = grouped_aggregate(
        sel, "l_partkey", {"sq": ("sum", "q"), "n": ("count", None)}
    )
    withstats = rel.broadcast_hash_join(
        sel, stats, "l_partkey", "l_partkey", ["sq", "n"]
    )
    part_schema = pa.schema(
        [("rev", pa.int64()), ("n_lines", pa.int64())]
    )

    def fold(batch: pa.Table) -> pa.Table:
        q = batch.column("q").to_numpy()
        n = batch.column("n").to_numpy().astype(np.int64)
        sq = batch.column("sq").to_numpy()
        # q ≤ ~2^6 and n is per-part line count: 5·q·n stays far from
        # int64 even at warehouse scale
        keep = 5 * q * n < sq
        price = batch.column("price_c").to_numpy()[keep]
        if len(price) == 0:
            return part_schema.empty_table()
        return pa.table(
            {
                "rev": pa.array([int(price.sum())], pa.int64()),
                "n_lines": pa.array([len(price)], pa.int64()),
            }
        )

    agg = withstats.map_batches(fold, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        [
            {
                "small_qty_revenue_cents": int(agg["rev"].sum()) if len(agg) else 0,
                "n_lines": int(agg["n_lines"].sum()) if len(agg) else 0,
            }
        ]
    )


def q_q19_bracket_revenue(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q19-shaped OR-bracket revenue: discounted revenue of
    lines matching any of three (brand, size-range, quantity-range)
    conjunctions — the disjunctive multi-attribute predicate that
    defeats single-column pruning. Shape: part attributes broadcast
    ONCE; each batch evaluates all three brackets vectorized and
    emits one partial row; the driver folds O(blocks) scalars —
    nothing shuffles."""
    import pandas as pd

    from duplicate_finder_ray.stages import relational as rel

    brackets = (
        ("Brand#1", 1, 5, 1, 11),
        ("Brand#2", 1, 10, 10, 20),
        ("Brand#3", 1, 15, 20, 30),
    )
    part_schema = pa.schema([("rev", pa.int64()), ("n_lines", pa.int64())])

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    withp = rel.broadcast_hash_join(
        li,
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]),
        "l_partkey",
        "p_partkey",
        ["p_brand", "p_size"],
    )

    def fold(batch: pa.Table) -> pa.Table:
        brand = batch.column("p_brand").to_numpy(zero_copy_only=False)
        size = batch.column("p_size").to_numpy(zero_copy_only=False).astype(np.int64)
        qty = pc.cast(
            pc.floor(pc.add(batch.column("l_quantity"), 0.5)), pa.int64()
        ).to_numpy()
        keep = np.zeros(len(batch), dtype=bool)
        for b, slo, shi, qlo, qhi in brackets:
            keep |= (
                (brand == b)
                & (size >= slo)
                & (size <= shi)
                & (qty >= qlo)
                & (qty <= qhi)
            )
        if not keep.any():
            return part_schema.empty_table()
        sel = batch.filter(pa.array(keep))
        rev = pc.multiply(
            rel.cents(sel.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), rel.cents(sel.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "rev": pa.array([pc.sum(rev).as_py() or 0], pa.int64()),
                "n_lines": pa.array([len(sel)], pa.int64()),
            }
        )

    agg = withp.map_batches(fold, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        [
            {
                "bracket_revenue_cp": int(agg["rev"].sum()) if len(agg) else 0,
                "n_lines": int(agg["n_lines"].sum()) if len(agg) else 0,
            }
        ]
    )


def q_q21_waiting_suppliers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q21-shaped sole-fault suppliers: on finalized ('F')
    multi-supplier orders, the supplier who is the ONLY one with a
    returned line, counted per supplier (the testdata carries no
    commit/receipt dates, so the returned flag stands in for Q21's
    late-delivery predicate; the ≥2-supplier EXISTS and the
    single-fault NOT EXISTS survive intact). Shape: lineitem collapses
    to per-(order, supplier) returned flags map-side, a semi shuffle
    join keeps F-orders, ONE orderkey-keyed hash exchange computes
    each order's supplier/fault counts vectorized, then a
    supplier-dimension-sized count + broadcast name join."""
    import pandas as pd

    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.exchange import hash_exchange
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    def ls_partial(batch: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {
                    "l_orderkey": batch.column("l_orderkey").to_numpy(),
                    "l_suppkey": batch.column("l_suppkey").to_numpy(),
                    "ret": pc.equal(
                        batch.column("l_returnflag"), pa.scalar("R")
                    )
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                }
            )
            .groupby(["l_orderkey", "l_suppkey"], sort=False, as_index=False)["ret"]
            .max()
        )
        return pa.table(
            {
                "l_orderkey": pa.array(g["l_orderkey"].to_numpy(), pa.int64()),
                "l_suppkey": pa.array(g["l_suppkey"].to_numpy(), pa.int64()),
                "ret": pa.array(g["ret"].to_numpy(np.int64)),
            }
        )

    ls = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_returnflag"],
    ).map_batches(ls_partial, batch_format="pyarrow")

    fkeys = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": pc.unique(
                    b.filter(
                        pc.equal(b.column("o_orderstatus"), pa.scalar("F"))
                    ).column("o_orderkey")
                )
            }
        ),
        batch_format="pyarrow",
    )
    ls_f = shuffle_hash_join(ls, fkeys, "l_orderkey", "o_orderkey", 8, how="semi")

    empty = pa.schema([("l_suppkey", pa.int64())]).empty_table()

    def reduce_fn(_p: int, part: pa.Table) -> pa.Table:
        if len(part) == 0:
            return empty
        # re-collapse cross-block (order, supplier) duplicates, then
        # per-order supplier/fault counts — all vectorized
        g = (
            part.to_pandas()
            .groupby(["l_orderkey", "l_suppkey"], sort=False, as_index=False)["ret"]
            .max()
        )
        per_order = g.groupby("l_orderkey", sort=False)["ret"].agg(
            n_supp="size", n_ret="sum"
        )
        m = g.merge(per_order, on="l_orderkey")
        sel = m[(m["ret"] == 1) & (m["n_supp"] >= 2) & (m["n_ret"] == 1)]
        return pa.table(
            {"l_suppkey": pa.array(sel["l_suppkey"].to_numpy(np.int64))}
        )

    waiting = hash_exchange(ls_f, "l_orderkey", 8, reduce_fn, empty)
    cnt = grouped_aggregate(waiting, "l_suppkey", {"numwait": ("count", None)})
    named = rel.broadcast_hash_join(
        cnt,
        _read(sf_dir, "supplier", ["s_suppkey", "s_name"]),
        "l_suppkey",
        "s_suppkey",
        ["s_name"],
    )
    return named.map_batches(
        lambda b: pa.table(
            {
                "s_name": b.column("s_name"),
                "s_suppkey": b.column("l_suppkey"),
                "numwait": b.column("numwait"),
            }
        ),
        batch_format="pyarrow",
    ).sort(["numwait", "s_name"], descending=[True, False])


def q_q2_min_cost_supplier(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q2-shaped min-cost supplier: for STANDARD parts of size
    ≤ 15, the EUROPE supplier(s) offering each part at the lowest
    observed line price — every tie survives, exact cent lattice
    (lineitem stands in for the absent partsupp table as the
    part→supplier price list). Shape: the region→nation→supplier map
    and the filtered part keys broadcast (dimension-sized); ONE slim
    two-key grouped min of the line prices yields the pair table; its
    per-part min broadcasts back as the tie probe; attribute joins run
    broadcast on the surviving pair-dimension rows."""
    from duplicate_finder_ray.stages import relational as rel

    eu = rel.broadcast_hash_join(
        rel.broadcast_hash_join(
            _read(
                sf_dir, "supplier",
                ["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
            ),
            _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]),
            "s_nationkey",
            "n_nationkey",
            ["n_name", "n_regionkey"],
        ),
        _read(sf_dir, "region", ["r_regionkey", "r_name"]),
        "n_regionkey",
        "r_regionkey",
        ["r_name"],
    ).map_batches(
        lambda b: (
            lambda sel: pa.table(
                {
                    "s_suppkey": sel.column("s_suppkey"),
                    "s_name": sel.column("s_name"),
                    "n_name": sel.column("n_name"),
                    "bal_c": rel.cents(sel.column("s_acctbal")),
                }
            )
        )(b.filter(pc.equal(b.column("r_name"), pa.scalar("EUROPE")))),
        batch_format="pyarrow",
    )
    pk = _read(sf_dir, "part", ["p_partkey", "p_name", "p_type", "p_size"]).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.equal(b.column("p_type"), pa.scalar("STANDARD")),
                pc.less_equal(b.column("p_size"), pa.scalar(15, pa.int32())),
            )
        ).select(["p_partkey", "p_name"]),
        batch_format="pyarrow",
    )

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
    li = rel.broadcast_hash_join(li, pk, "l_partkey", "p_partkey", [])
    li = rel.broadcast_hash_join(li, eu, "l_suppkey", "s_suppkey", [])

    def price_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": pc.cast(batch.column("l_partkey"), pa.int64()),
                "l_suppkey": pc.cast(batch.column("l_suppkey"), pa.int64()),
                "price_c": rel.cents(batch.column("l_extendedprice")),
            }
        )

    pairs = grouped_aggregate(
        li.map_batches(price_cents, batch_format="pyarrow"),
        ["l_partkey", "l_suppkey"],
        {"min_price_cents": ("min", "price_c")},
    )
    pmin = grouped_aggregate(
        pairs, "l_partkey", {"part_min": ("min", "min_price_cents")}
    )
    winners = rel.broadcast_hash_join(
        pairs, pmin, "l_partkey", "l_partkey", ["part_min"]
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("min_price_cents"), b.column("part_min"))
        ).select(["l_partkey", "l_suppkey", "min_price_cents"]),
        batch_format="pyarrow",
    )
    named = rel.broadcast_hash_join(
        winners, eu, "l_suppkey", "s_suppkey", ["s_name", "n_name", "bal_c"]
    )
    withpart = rel.broadcast_hash_join(
        named, pk, "l_partkey", "p_partkey", ["p_name"]
    )
    return withpart.map_batches(
        lambda b: pa.table(
            {
                "s_acctbal_cents": b.column("bal_c"),
                "s_name": b.column("s_name"),
                "n_name": b.column("n_name"),
                "p_partkey": b.column("l_partkey"),
                "p_name": b.column("p_name"),
                "min_price_cents": b.column("min_price_cents"),
            }
        ),
        batch_format="pyarrow",
    )


def q_q9_nation_profit(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q9-shaped nation profit: per (supplier nation, order
    year) profit on 'red…' parts, where profit = discounted revenue
    minus retail cost of the shipped quantity (p_retailprice stands in
    for the absent ps_supplycost), exact on the cent×pct lattice (cost
    cents × 100 to match revenue's cents×pct scale; amounts may be
    negative). Shape: the filtered part cost map and supplier→nation
    map broadcast; lineitem combines profit per (orderkey, nation)
    map-side; ONE large×large shuffle join against orders attaches the
    year; a slim two-key grouped sum finishes."""
    import pandas as pd

    from duplicate_finder_ray.stages import relational as rel
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    pk = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]).map_batches(
        lambda b: (
            lambda sel: pa.table(
                {
                    "p_partkey": sel.column("p_partkey"),
                    "retail_c": rel.cents(sel.column("p_retailprice")),
                }
            )
        )(b.filter(pc.starts_with(b.column("p_name"), "red"))),
        batch_format="pyarrow",
    )
    sup = rel.broadcast_hash_join(
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation", ["n_nationkey", "n_name"]),
        "s_nationkey",
        "n_nationkey",
        ["n_name"],
    ).map_batches(
        lambda b: pa.table(
            {"s_suppkey": b.column("s_suppkey"), "nation": b.column("n_name")}
        ),
        batch_format="pyarrow",
    )

    li = _read(
        sf_dir, "lineitem",
        [
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )
    li = rel.broadcast_hash_join(li, pk, "l_partkey", "p_partkey", ["retail_c"])
    li = rel.broadcast_hash_join(li, sup, "l_suppkey", "s_suppkey", ["nation"])

    def combine(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            rel.cents(batch.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), rel.cents(batch.column("l_discount"))
            ),
        ).to_numpy()
        qty = (
            pc.cast(pc.floor(pc.add(batch.column("l_quantity"), 0.5)), pa.int64())
            .to_numpy()
        )
        cost = batch.column("retail_c").to_numpy() * qty * 100
        g = (
            pd.DataFrame(
                {
                    "l_orderkey": batch.column("l_orderkey").to_numpy(),
                    "nation": batch.column("nation").to_numpy(zero_copy_only=False),
                    "amount": rev - cost,
                }
            )
            .groupby(["l_orderkey", "nation"], sort=False, as_index=False)["amount"]
            .sum()
        )
        return pa.table(
            {
                "l_orderkey": pa.array(g["l_orderkey"].to_numpy(), pa.int64()),
                "nation": pa.array(g["nation"], pa.string()),
                "amount": pa.array(g["amount"].to_numpy(np.int64)),
            }
        )

    combined = li.map_batches(combine, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_year": pc.cast(pc.year(b.column("o_orderdate")), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = shuffle_hash_join(
        combined, orders, "l_orderkey", "o_orderkey", 8, right_cols=["o_year"]
    )
    return grouped_aggregate(
        joined, ["nation", "o_year"], {"profit_cp": ("sum", "amount")}
    )


def q_q11_important_parts(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q11-shaped important parts: per-part shipped value from
    NATION_3 suppliers, keeping parts whose value exceeds 1/1000 of
    that nation's total (lineitem revenue stands in for the absent
    partsupp stock value). The threshold is EXACT without the
    cross-multiply: value·1000 > tot ⟺ value > tot // 1000 for
    non-negative int64 (no overflow path). Shape: the nation's
    supplier keys broadcast; ONE slim partkey-keyed grouped sum
    (pre-summed per block) yields the part-dimension value table, whose
    grand total folds to a driver scalar gating the final filter."""
    from duplicate_finder_ray.stages import relational as rel

    nsup = rel.broadcast_hash_join(
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation", ["n_nationkey", "n_name"]),
        "s_nationkey",
        "n_nationkey",
        ["n_name"],
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("n_name"), pa.scalar("NATION_3"))
        ).select(["s_suppkey"]),
        batch_format="pyarrow",
    )
    li = rel.broadcast_hash_join(
        _read(
            sf_dir, "lineitem",
            ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ),
        nsup,
        "l_suppkey",
        "s_suppkey",
        [],
    )

    def value(batch: pa.Table) -> pa.Table:
        val = pc.multiply(
            rel.cents(batch.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), rel.cents(batch.column("l_discount"))
            ),
        )
        return pa.table(
            {"l_partkey": pc.cast(batch.column("l_partkey"), pa.int64()), "val": val}
        )

    grouped = grouped_aggregate(  # part-dimension-sized; feeds the total + filter
        li.map_batches(value, batch_format="pyarrow"),
        "l_partkey",
        {"value_cp": ("sum", "val")},
    ).materialize()
    tot = int(grouped.sum("value_cp") or 0)
    floor_t = tot // 1000
    return grouped.map_batches(
        lambda b: b.filter(
            pc.greater(b.column("value_cp"), pa.scalar(floor_t, pa.int64()))
        ),
        batch_format="pyarrow",
    )


def q_q16_supplier_counts(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q16-shaped supplier counts: distinct suppliers per
    (brand, type, size) over the observed part→supplier relation
    (distinct lineitem pairs stand in for partsupp), excluding
    Brand#1, PROMO-type parts, sizes outside {1,5,10,15,20,25}, and
    negative-balance suppliers (the complaints stand-in). Shape: the
    filtered part attributes and the excluded supplier keys broadcast;
    lineitem collapses to distinct (part, supplier) pairs map-side;
    ONE slim 4-key grouped count dedupes globally; the final count
    groups the already-distinct rows per attribute triple."""
    import pandas as pd

    from duplicate_finder_ray.stages import relational as rel

    sizes = (1, 5, 10, 15, 20, 25)
    attrs = _read(
        sf_dir, "part",
        ["p_partkey", "p_brand", "p_type", "p_size"],
    ).map_batches(
        lambda b: (
            lambda sel: pa.table(
                {
                    "p_partkey": sel.column("p_partkey"),
                    "p_brand": sel.column("p_brand"),
                    "p_type": sel.column("p_type"),
                    "p_size": pc.cast(sel.column("p_size"), pa.int64()),
                }
            )
        )(
            b.filter(
                pc.and_(
                    pc.and_(
                        pc.not_equal(b.column("p_brand"), pa.scalar("Brand#1")),
                        pc.not_equal(b.column("p_type"), pa.scalar("PROMO")),
                    ),
                    pc.is_in(
                        b.column("p_size"),
                        value_set=pa.array(sizes, pa.int32()),
                    ),
                )
            )
        ),
        batch_format="pyarrow",
    )
    ok = _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"]).map_batches(
        lambda b: b.filter(
            pc.greater_equal(b.column("s_acctbal"), pa.scalar(0.0))
        ).select(["s_suppkey"]),
        batch_format="pyarrow",
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame(
            {
                "l_partkey": batch.column("l_partkey").to_numpy(),
                "l_suppkey": batch.column("l_suppkey").to_numpy(),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "l_partkey": pa.array(g["l_partkey"].to_numpy(), pa.int64()),
                "l_suppkey": pa.array(g["l_suppkey"].to_numpy(), pa.int64()),
            }
        )

    pairs = (
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
        .map_batches(pair_partial, batch_format="pyarrow")
    )
    pairs = rel.broadcast_hash_join(pairs, ok, "l_suppkey", "s_suppkey", [])
    tagged = rel.broadcast_hash_join(
        pairs, attrs, "l_partkey", "p_partkey", ["p_brand", "p_type", "p_size"]
    )
    attr_keys = ["p_brand", "p_type", "p_size"]
    distinct = grouped_aggregate(
        tagged, [*attr_keys, "l_suppkey"], {"_n": ("count", None)}
    )
    return grouped_aggregate(distinct, attr_keys, {"supplier_cnt": ("count", None)})


def q_q20_volume_suppliers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q20-shaped volume suppliers: AFRICA-region suppliers whose
    1996 shipped quantity of 'small…' parts exceeds the average across
    the region's shipping suppliers (the relative threshold stands in
    for Q20's half-of-availqty predicate; without partsupp the
    lineitem sums are the stock proxy). The avg predicate is EXACT
    without float division: qty·n > tot ⟺ qty > tot // n for
    non-negative int64. Shape: part keys and the region's supplier
    keys broadcast; ONE slim suppkey-keyed grouped sum (pre-summed per
    block) yields the supplier-dimension table; its (total, count)
    fold to driver scalars gating the filter; the name join runs
    broadcast on survivors."""
    import datetime as _dt

    from duplicate_finder_ray.stages import relational as rel

    af = rel.broadcast_hash_join(
        rel.broadcast_hash_join(
            _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"]),
            _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]),
            "s_nationkey",
            "n_nationkey",
            ["n_regionkey"],
        ),
        _read(sf_dir, "region", ["r_regionkey", "r_name"]),
        "n_regionkey",
        "r_regionkey",
        ["r_name"],
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("r_name"), pa.scalar("AFRICA"))
        ).select(["s_suppkey", "s_name"]),
        batch_format="pyarrow",
    )
    pk = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda b: b.filter(pc.starts_with(b.column("p_name"), "small")).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), pa.timestamp("us"))

    def shipped_qty(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi),
        )
        sel = batch.filter(keep)
        qty = pc.cast(pc.floor(pc.add(sel.column("l_quantity"), 0.5)), pa.int64())
        return pa.table(
            {"l_suppkey": pc.cast(sel.column("l_suppkey"), pa.int64()), "qty": qty}
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )
    li = rel.broadcast_hash_join(li, pk, "l_partkey", "p_partkey", [])
    li = rel.broadcast_hash_join(li, af, "l_suppkey", "s_suppkey", [])
    shipped = grouped_aggregate(  # supplier-dimension-sized; feeds stats + filter
        li.map_batches(shipped_qty, batch_format="pyarrow"),
        "l_suppkey",
        {"shipped_qty": ("sum", "qty")},
    ).materialize()
    n = shipped.count()
    tot = int(shipped.sum("shipped_qty") or 0) if n else 0
    floor_t = tot // n if n else 0
    over = shipped.map_batches(
        lambda b: b.filter(
            pc.greater(b.column("shipped_qty"), pa.scalar(floor_t, pa.int64()))
        ),
        batch_format="pyarrow",
    )
    return rel.broadcast_hash_join(
        over, af, "l_suppkey", "s_suppkey", ["s_name"]
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b.column("l_suppkey"),
                "s_name": b.column("s_name"),
                "shipped_qty": b.column("shipped_qty"),
            }
        ),
        batch_format="pyarrow",
    )


QUERIES: dict[str, Callable[[str], Any]] = {
    "code_files_derive": q_code_files_derive,
    "incremental_dedup": q_incremental_dedup,
    "incremental_near_dup": q_incremental_near_dup,
    "exact_dup_groups": q_exact_dup_groups,
    "exact_dup_members": q_exact_dup_members,
    "exact_dup_members_verified": q_exact_dup_members_verified,
    "dedup_keepers": q_dedup_keepers,
    "deletion_tally": q_deletion_tally,
    "filter_globs": q_filter_globs,
    "filter_size_range": q_filter_size_range,
    "size_prefilter": q_size_prefilter,
    "group_sort_by_n": q_group_sort_by_n,
    "group_sort_by_size": q_group_sort_by_size,
    "token_counts": q_token_counts,
    # near-dup family (non-SQL-expressible → rows-only driver checks;
    # exact oracles live in tests/)
    "minhash_signatures": q_minhash_signatures,
    "lsh_candidate_pairs": q_lsh_candidate_pairs,
    "near_dup_pairs": q_near_dup_pairs,
    "near_dup_clusters": q_near_dup_clusters,
    "near_dup_spans": q_near_dup_spans,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "ngram_jaccard_clusters": q_ngram_jaccard_clusters,
    "ppjoin_pairs": q_ppjoin_pairs,
    "simhash_pairs": q_simhash_pairs,
    # similarity search over embeddings
    "ann_topk": q_ann_topk,
    "ann_topk_ivf": q_ann_topk_ivf,
    "embedding_cosine_pairs": q_embedding_cosine_pairs,
    "embedding_lsh_pairs": q_embedding_lsh_pairs,
    "incremental_embedding_pairs": q_incremental_embedding_pairs,
    # windowed aggregates over events
    "events_hourly": q_events_hourly,
    "events_sessions": q_events_sessions,
    # multimodal plumbing (decode kernel stubbed; see stages/multimodal.py)
    "media_meta": q_media_meta,
    "media_frame_sample": q_media_frame_sample,
    "media_features": q_media_features,
    # text analysis
    "quality_scores": q_quality_scores,
    "language_id": q_language_id,
    "doc_fingerprints": q_doc_fingerprints,
    "token_counts_bpe": q_token_counts_bpe,
    # relational operators (absent from the reference, SURVEY.md §2.5)
    "join_segment_revenue": q_join_segment_revenue,
    "lineitem_pricing_summary": q_lineitem_pricing_summary,
    "asof_last_purchase": q_asof_last_purchase,
    "range_join_price_buckets": q_range_join_price_buckets,
    "events_sliding": q_events_sliding,
    "topk_docs_per_lang": q_topk_docs_per_lang,
    "set_intersect_repos": q_set_intersect_repos,
    "set_except_repos": q_set_except_repos,
    "sample_docs_md5": q_sample_docs_md5,
    "doclen_quantiles": q_doclen_quantiles,
    "doclen_quantiles_sketch": q_doclen_quantiles_sketch,
    "top_tokens": q_top_tokens,
    "top_tokens_approx": q_top_tokens_approx,
    "cms_point_counts": q_cms_point_counts,
    "bm25_topk": q_bm25_topk,
    "boolean_search": q_boolean_search,
    "rolling_active_users": q_rolling_active_users,
    "hybrid_search_rrf": q_hybrid_search_rrf,
    "fuzzy_clusters": q_fuzzy_clusters,
    "dedup_aware_sample": q_dedup_aware_sample,
    "ab_welch_t": q_ab_welch_t,
    "doclen_psi_drift": q_doclen_psi_drift,
    "lang_source_chi2": q_lang_source_chi2,
    "zorder_zone_maps": q_zorder_zone_maps,
    "distinct_tokens_per_lang": q_distinct_tokens_per_lang,
    "normalize_text": q_normalize_text,
    "quality_prune": q_quality_prune,
    "dataset_split": q_dataset_split,
    "signature_shingle_counts": q_signature_shingle_counts,
    "normalized_dup_groups": q_normalized_dup_groups,
    "shuffle_join_revenue": q_shuffle_join_revenue,
    "bloom_semi_lineitems": q_bloom_semi_lineitems,
    "repetition_stats": q_repetition_stats,
    "redact_props": q_redact_props,
    "anti_join_lineitems": q_anti_join_lineitems,
    "events_running_totals": q_events_running_totals,
    "top_tokens_df": q_top_tokens_df,
    "stratified_sample_docs": q_stratified_sample_docs,
    "decontaminate_docs": q_decontaminate_docs,
    "events_lag_deltas": q_events_lag_deltas,
    "distinctive_terms": q_distinctive_terms,
    "chunk_documents": q_chunk_documents,
    "doc_quartiles": q_doc_quartiles,
    "events_rolling_window": q_events_rolling_window,
    "sample_n_per_lang": q_sample_n_per_lang,
    "pack_documents": q_pack_documents,
    "chunk_share_pairs": q_chunk_share_pairs,
    "full_join_custorders": q_full_join_custorders,
    "user_event_pivot": q_user_event_pivot,
    "docs_rollup": q_docs_rollup,
    "curation_pipeline": q_curation_pipeline,
    "greedy_pack_documents": q_greedy_pack_documents,
    # grouped statistics + window/agg extensions (round-3 session 3)
    "event_mode": q_event_mode,
    "user_event_sequences": q_user_event_sequences,
    "user_first_last": q_user_first_last,
    "doclen_outliers": q_doclen_outliers,
    "lang_len_token_corr": q_lang_len_token_corr,
    "docs_cube": q_docs_cube,
    "weighted_sample_docs": q_weighted_sample_docs,
    "rank_docs_per_lang": q_rank_docs_per_lang,
    "edit_distance_pairs": q_edit_distance_pairs,
    "near_dup_keepers": q_near_dup_keepers,
    "label_centroids": q_label_centroids,
    "events_windowed_distinct": q_events_windowed_distinct,
    "value_histogram": q_value_histogram,
    "minmax_scale_docs": q_minmax_scale_docs,
    "top_bigrams": q_top_bigrams,
    "funnel_signup_purchase": q_funnel_signup_purchase,
    # graph analytics over the near-dup pair graph (round-3 session 4)
    "near_dup_degrees": q_near_dup_degrees,
    "near_dup_degree_hist": q_near_dup_degree_hist,
    "near_dup_triangles": q_near_dup_triangles,
    "near_dup_pagerank": q_near_dup_pagerank,
    "containment_pairs": q_containment_pairs,
    "centroid_assign": q_centroid_assign,
    "paragraph_dedup": q_paragraph_dedup,
    "semdedup": q_semdedup,
    "kmeans_clusters": q_kmeans_clusters,
    "pq_codes": q_pq_codes,
    "pq_adc_topk": q_pq_adc_topk,
    "q3_shipping_priority": q_q3_shipping_priority,
    "trending_tokens": q_trending_tokens,
    "retention_cohorts": q_retention_cohorts,
    "user_revenue_pivot": q_user_revenue_pivot,
    "dedup_rate_by_lang": q_dedup_rate_by_lang,
    "novelty_scores": q_novelty_scores,
    "session_funnel": q_session_funnel,
    "repo_overlap_pairs": q_repo_overlap_pairs,
    "vendored_content": q_vendored_content,
    "dup_dir_groups": q_dup_dir_groups,
    "q5_supplier_volume": q_q5_supplier_volume,
    "boilerplate_lines": q_boilerplate_lines,
    "fork_candidates": q_fork_candidates,
    "dup_rate_by_size": q_dup_rate_by_size,
    "near_dup_cluster_hist": q_near_dup_cluster_hist,
    "repo_skew_report": q_repo_skew_report,
    "code_snapshot_diff": q_code_snapshot_diff,
    "code_table_fingerprint": q_code_table_fingerprint,
    "clone_groups_type2": q_clone_groups_type2,
    "event_transitions": q_event_transitions,
    "fork_families": q_fork_families,
    "dir_rollup": q_dir_rollup,
    "user_peak_rate": q_user_peak_rate,
    "q10_returned_items": q_q10_returned_items,
    "repo_size_gini": q_repo_size_gini,
    "integrity_audit": q_integrity_audit,
    "session_cooccurrence": q_session_cooccurrence,
    "dedup_summary": q_dedup_summary,
    "q1_pricing_summary": q_q1_pricing_summary,
    "q4_order_priority": q_q4_order_priority,
    "q6_forecast_revenue": q_q6_forecast_revenue,
    "q7_nation_volume": q_q7_nation_volume,
    "q8_market_share": q_q8_market_share,
    "q13_order_distribution": q_q13_order_distribution,
    "q15_top_supplier": q_q15_top_supplier,
    "q17_small_qty_revenue": q_q17_small_qty_revenue,
    "q19_bracket_revenue": q_q19_bracket_revenue,
    "q21_waiting_suppliers": q_q21_waiting_suppliers,
    "q2_min_cost_supplier": q_q2_min_cost_supplier,
    "q9_nation_profit": q_q9_nation_profit,
    "q11_important_parts": q_q11_important_parts,
    "q16_supplier_counts": q_q16_supplier_counts,
    "q20_volume_suppliers": q_q20_volume_suppliers,
    "q12_priority_lines": q_q12_priority_lines,
    "q14_promo_revenue": q_q14_promo_revenue,
    "q18_large_orders": q_q18_large_orders,
    "q22_lapsed_balances": q_q22_lapsed_balances,
    "repo_distinct_contents": q_repo_distinct_contents,
    "code_global_rank": q_code_global_rank,
    "snm_candidate_pairs": q_snm_candidate_pairs,
    "skew_join_repo_bytes": q_skew_join_repo_bytes,
    "near_dup_kcore": q_near_dup_kcore,
    "doclen_equidepth_hist": q_doclen_equidepth_hist,
    "profile_documents": q_profile_documents,
    "media_phash": q_media_phash,
    "events_watermark": q_events_watermark,
    "curriculum_phases": q_curriculum_phases,
    "repo_pareto": q_repo_pareto,
    "purchase_error_overlaps": q_purchase_error_overlaps,
    "reassemble_docs": q_reassemble_docs,
    "compression_ratios": q_compression_ratios,
    "encoding_audit": q_encoding_audit,
    "pmi_bigrams": q_pmi_bigrams,
    "dedup_retry_events": q_dedup_retry_events,
    "near_dup_cluster_density": q_near_dup_cluster_density,
    "line_stats": q_line_stats,
    "dedup_keepers_by_depth": q_dedup_keepers_by_depth,
    "events_hourly_dense": q_events_hourly_dense,
    "jaccard_threshold_sweep": q_jaccard_threshold_sweep,
    "lang_mismatch": q_lang_mismatch,
    "token_freq_spectrum": q_token_freq_spectrum,
    "events_seasonality": q_events_seasonality,
    "events_anomalous_hours": q_events_anomalous_hours,
    "daily_new_users": q_daily_new_users,
    "inactive_users": q_inactive_users,
    "events_hourly_autocorr": q_events_hourly_autocorr,
    "epoch_shuffle": q_epoch_shuffle,
}

#: shared CTE chain for the n-gram-Jaccard twins: ASCII tokens →
#: 5-gram shingle sets → per-doc set sizes → pairwise intersections
_NGRAM_CTES = f"""code_files AS ({CODE_FILES_SQL}),
    tok AS (
      SELECT repo || ':' || path || '@' || "commit" AS doc_key,
             regexp_extract_all(content, '[A-Za-z0-9_]+') AS w
      FROM code_files
    ),
    idx AS (
      SELECT doc_key, w, unnest(generate_series(1, len(w) - 4)) AS i
      FROM tok WHERE len(w) >= 5
    ),
    sh AS (
      SELECT DISTINCT doc_key, array_to_string(w[i:i+4], chr(31)) AS s FROM idx
    ),
    n AS (SELECT doc_key, count(*) AS n FROM sh GROUP BY doc_key),
    inter AS (
      SELECT x.doc_key AS a, y.doc_key AS b, count(*) AS c
      FROM sh x JOIN sh y ON x.s = y.s AND x.doc_key < y.doc_key
      GROUP BY 1, 2
    )"""


def _language_id_sql() -> str:
    """SQL twin of stages/textstats.py:language_id, generated from the
    same LANG_MARKERS constant so the word lists stay in lockstep. Both
    engines run RE2 regexes; the score uses the same explicit half-up
    floor(x*1e6 + 0.5) op sequence, so values match bit-for-bit."""
    from duplicate_finder_ray.stages.textstats import LANG_MARKERS

    langs = sorted(LANG_MARKERS)
    rate_cols = ",\n".join(
        f"        len(regexp_extract_all(text, '(?i)\\b({'|'.join(LANG_MARKERS[lang])})\\b'))"
        f" / CAST(greatest(n_words, 1) AS DOUBLE) AS r_{lang}"
        for lang in langs
    )
    # cascading CASE reproduces numpy argmax's first-max (asc-name) tie-break
    cases = []
    for i, lang in enumerate(langs[:-1]):
        conds = " AND ".join(f"r_{lang} >= r_{other}" for other in langs[i + 1 :])
        cases.append(f"WHEN {conds} THEN '{lang}'")
    case_pred = "\n             ".join(cases)
    best = "greatest(" + ", ".join(f"r_{lang}" for lang in langs) + ")"
    return f"""
    WITH t AS (
      SELECT doc_id, text,
             CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0
                  ELSE array_length(regexp_split_to_array(
                         regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
             AS n_words
      FROM documents
    ),
    r AS (
      SELECT doc_id,
{rate_cols}
      FROM t
    )
    SELECT doc_id,
           CASE WHEN {best} < 0.02 THEN 'unknown'
             {case_pred}
             ELSE '{langs[-1]}' END AS lang_pred,
           floor({best} * 1000000 + 0.5) / 1000000 AS lang_score
    FROM r
    """


#: incremental dedup oracle: same doc_id % 5 split, same derivation,
#: keeper rank on the (repo, path, commit) tuple on both sides
_INCR_SQL = f"""
WITH base_docs AS (SELECT * FROM documents WHERE doc_id % 5 <> 0),
inc_docs AS (SELECT * FROM documents WHERE doc_id % 5 = 0),
base_files AS ({CODE_FILES_SQL.replace("FROM documents", "FROM base_docs")}),
inc_files AS ({CODE_FILES_SQL.replace("FROM documents", "FROM inc_docs")}),
d_base AS (
  SELECT repo, path, "commit",
         repo || ':' || path || '@' || "commit" AS file_id,
         octet_length(encode(content)) AS size,
         sha256(content) AS sha256
  FROM base_files
),
d_inc AS (
  SELECT repo, path, "commit",
         repo || ':' || path || '@' || "commit" AS file_id,
         octet_length(encode(content)) AS size,
         sha256(content) AS sha256
  FROM inc_files
),
bk AS (
  SELECT size, sha256, file_id AS baseline_keeper
  FROM (
    SELECT d.*, row_number() OVER (
      PARTITION BY size, sha256 ORDER BY repo, path, "commit") AS rn
    FROM d_base d
  ) WHERE rn = 1
),
i AS (
  SELECT file_id, size, sha256,
         row_number() OVER (
           PARTITION BY size, sha256 ORDER BY repo, path, "commit") - 1 AS rnk
  FROM d_inc
)
SELECT i.file_id, i.size, i.sha256, i.sha256 AS group_id,
       CASE WHEN b.sha256 IS NOT NULL THEN FALSE ELSE i.rnk = 0 END AS is_keeper,
       b.sha256 IS NOT NULL AS matched_baseline,
       coalesce(b.baseline_keeper, '') AS baseline_keeper
FROM i LEFT JOIN bk b ON b.size = i.size AND b.sha256 = i.sha256
"""

#: shared quality-metric CTEs (integer counts → IEEE-754 ratio tree,
#: bit-identical to stages/textstats.py:quality_scores) — reused by the
#: quality_scores twin and the curriculum ordering twin
_QUALITY_SQL_PREFIX = f"""
    WITH c AS (
      SELECT doc_id,
             length(text)::BIGINT AS n_chars,
             (CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0
                   ELSE array_length(regexp_split_to_array(
                          regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+'))
              END)::BIGINT AS n_words,
             len(regexp_extract_all(text, '[!-/:-@\\[-`{{-~]'))::BIGINT AS n_punct,
             len(regexp_extract_all(text, '[0-9]'))::BIGINT AS n_digits,
             len(regexp_extract_all(text,
                 '(?i)\\b({"|".join(__import__("duplicate_finder_ray.stages.textstats", fromlist=["STOPWORDS"]).STOPWORDS)})\\b'
             ))::BIGINT AS n_stopwords
      FROM documents
    ),
    r AS (
      SELECT *,
        CAST(n_punct AS DOUBLE) / CAST(greatest(n_chars, 1) AS DOUBLE) AS punct_ratio,
        CAST(n_digits AS DOUBLE) / CAST(greatest(n_chars, 1) AS DOUBLE) AS digit_ratio,
        CAST(n_stopwords AS DOUBLE) / CAST(greatest(n_words, 1) AS DOUBLE) AS stopword_ratio,
        CAST(n_chars AS DOUBLE) / CAST(greatest(n_words, 1) AS DOUBLE) AS mean_word_len
      FROM c
    )
"""

ORACLE_SQL: dict[str, str] = {
    "code_files_derive": _D_SQL
    + 'SELECT file_id, repo, path, "commit", lang, size, sha256 FROM d',
    "incremental_dedup": _INCR_SQL,
    "exact_dup_groups": _D_SQL
    + """
    SELECT sha256 AS group_id, size, count(*) AS n_files
    FROM d GROUP BY sha256, size HAVING count(*) > 1
    """,
    "exact_dup_members": _MEMBER_SQL + "SELECT * FROM members WHERE n_files > 1",
    "exact_dup_members_verified": _MEMBER_SQL + "SELECT * FROM members WHERE n_files > 1",
    "dedup_keepers": _MEMBER_SQL
    + "SELECT file_id, size, group_id FROM members WHERE n_files > 1 AND is_keeper",
    "deletion_tally": _MEMBER_SQL
    + """
    SELECT count(*) AS n_deleted,
           CAST(coalesce(sum(size), 0) AS BIGINT) AS bytes_freed
    FROM members WHERE n_files > 1 AND NOT is_keeper
    """,
    "filter_globs": _D_SQL
    + """
    SELECT file_id, size FROM d
    WHERE ((repo || '/' || path) LIKE '%.py' OR (repo || '/' || path) LIKE '%.log')
      AND NOT ((repo || '/' || path) LIKE '%temp%' OR (repo || '/' || path) LIKE '%.git/%')
    """,
    "filter_size_range": _D_SQL
    + "SELECT file_id, size FROM d WHERE size >= 100 AND size <= 1024",
    "size_prefilter": _D_SQL
    + """
    SELECT file_id, size FROM d
    WHERE size IN (SELECT size FROM d GROUP BY size HAVING count(*) > 1)
    """,
    "group_sort_by_n": _D_SQL
    + """
    SELECT sha256 AS group_id, size, count(*) AS n_files
    FROM d GROUP BY sha256, size HAVING count(*) > 1
    ORDER BY n_files DESC, group_id
    """,
    "group_sort_by_size": _D_SQL
    + """
    SELECT sha256 AS group_id, size, count(*) AS n_files
    FROM d GROUP BY sha256, size HAVING count(*) > 1
    ORDER BY size DESC, group_id
    """,
    "token_counts": """
    SELECT doc_id,
           CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0
                ELSE array_length(regexp_split_to_array(
                       regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
           ::BIGINT AS n_tokens
    FROM documents
    """,
    # exact same tokenizer class on both engines (RE2 '[A-Za-z0-9_]+');
    # shingle identity differs (blake2b-64 vs the string itself) but
    # Jaccard over the two representations is equal absent 64-bit hash
    # collisions, so the rounded values match bit-for-bit.
    "ngram_jaccard_pairs": "WITH "
    + _NGRAM_CTES
    + """
    SELECT a, b, round(CAST(c AS DOUBLE) / (na.n + nb.n - c), 6) AS jaccard
    FROM inter
    JOIN n na ON na.doc_key = inter.a
    JOIN n nb ON nb.doc_key = inter.b
    WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    """,
    # incremental near-dup: brute-force truth restricted to pairs with
    # ≥1 endpoint in the doc_id % 5 = 0 increment
    "incremental_near_dup": "WITH "
    + _NGRAM_CTES
    + f""",
    inck AS (
      SELECT repo || ':' || path || '@' || "commit" AS doc_key
      FROM ({CODE_FILES_SQL.replace(
          "FROM documents",
          "FROM (SELECT * FROM documents WHERE doc_id % 5 = 0)")})
    )
    SELECT a, b, CAST(c AS BIGINT) AS n_inter,
           CAST(na.n + nb.n - c AS BIGINT) AS n_union
    FROM inter
    JOIN n na ON na.doc_key = inter.a
    JOIN n nb ON nb.doc_key = inter.b
    WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
      AND (inter.a IN (SELECT doc_key FROM inck)
           OR inter.b IN (SELECT doc_key FROM inck))
    """,
    # the LSH pipeline's full oracle: same pair set (auto banding ⇒
    # recall ≥ target at τ), compared on exact integer set sizes
    "near_dup_pairs": "WITH "
    + _NGRAM_CTES
    + """
    SELECT a, b, CAST(c AS BIGINT) AS n_inter,
           CAST(na.n + nb.n - c AS BIGINT) AS n_union
    FROM inter
    JOIN n na ON na.doc_key = inter.a
    JOIN n nb ON nb.doc_key = inter.b
    WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    """,
    # distributed connected components vs a WITH RECURSIVE transitive
    # closure + min-label reduction over the same exact-Jaccard pair
    # graph (component id = lexicographically smallest member)
    "ngram_jaccard_clusters": "WITH RECURSIVE "
    + _NGRAM_CTES
    + """,
    e AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    )
    SELECT src AS file_id, least(src, min(dst)) AS component
    FROM reach GROUP BY src
    """,
    "near_dup_clusters": "WITH RECURSIVE "
    + _NGRAM_CTES
    + """,
    e AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    )
    SELECT src AS file_id, least(src, min(dst)) AS component
    FROM reach GROUP BY src
    """,
    "ann_topk": """
    WITH q AS (
      SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 8
    ),
    s AS (
      SELECT q.query_id, e.vec_id,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    CAST(q.qe AS DOUBLE[])) AS raw
      FROM embeddings e CROSS JOIN q
      WHERE e.vec_id <> q.query_id
    ),
    r AS (
      SELECT query_id, vec_id, raw,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY raw DESC, vec_id) AS "rank"
      FROM s
    )
    SELECT query_id, vec_id, round(raw, 6) AS score, "rank"
    FROM r WHERE "rank" <= 10
    """,
    # exhaustive-probe IVF is exact — same truth as the brute force
    "ann_topk_ivf": """
    WITH q AS (
      SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 8
    ),
    s AS (
      SELECT q.query_id, e.vec_id,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    CAST(q.qe AS DOUBLE[])) AS raw
      FROM embeddings e CROSS JOIN q
      WHERE e.vec_id <> q.query_id
    ),
    r AS (
      SELECT query_id, vec_id, raw,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY raw DESC, vec_id) AS "rank"
      FROM s
    )
    SELECT query_id, vec_id, round(raw, 6) AS score, "rank"
    FROM r WHERE "rank" <= 10
    """,
    "embedding_cosine_pairs": """
    SELECT x.vec_id AS a, y.vec_id AS b,
           round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                        CAST(y.embedding AS DOUBLE[])), 6) AS score
    FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
    WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                 CAST(y.embedding AS DOUBLE[])) >= 0.4
    """,
    # auto-tuned LSH returns the complete >=0.4 pair set -> same truth
    "embedding_lsh_pairs": """
    SELECT x.vec_id AS a, y.vec_id AS b,
           round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                        CAST(y.embedding AS DOUBLE[])), 6) AS score
    FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
    WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                 CAST(y.embedding AS DOUBLE[])) >= 0.4
    """,
    "events_hourly": """
    SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
           event_type,
           count(*) AS n_events,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS sum_value_cents
    FROM events
    GROUP BY 1, 2
    """,
    "events_sessions": """
    WITH e AS (
      SELECT user_id, event_id, epoch_us(ts) AS ts_us,
             lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id)
               AS prev_us
      FROM events
    ),
    s AS (
      SELECT user_id, ts_us,
             CAST(sum(CASE WHEN prev_us IS NULL OR ts_us - prev_us > 1800000000
                           THEN 1 ELSE 0 END)
                    OVER (PARTITION BY user_id ORDER BY ts_us, event_id)
                  AS BIGINT) AS session_id
      FROM e
    )
    SELECT user_id, session_id, count(*) AS n_events,
           min(ts_us) AS session_start_us, max(ts_us) AS session_end_us
    FROM s GROUP BY 1, 2
    """,
    # media table + DecoderStub arithmetic twins (stages/multimodal.py)
    "media_meta": """
    WITH m AS (
      SELECT doc_id AS media_id,
             CASE CAST(doc_id % 3 AS INTEGER)
               WHEN 0 THEN 'image' WHEN 1 THEN 'audio' ELSE 'video' END AS media_type,
             octet_length(encode(text)) AS n_bytes,
             sha256(text) AS payload_sha
      FROM documents
    )
    SELECT media_id, media_type, n_bytes,
           CASE media_type WHEN 'image' THEN 16 + n_bytes % 624
                           WHEN 'audio' THEN 0 ELSE 320 END AS width,
           CASE media_type WHEN 'image' THEN 16 + (n_bytes * 7) % 464
                           WHEN 'audio' THEN 0 ELSE 240 END AS height,
           CASE media_type WHEN 'audio' THEN 1 ELSE 3 END AS n_channels,
           CASE media_type WHEN 'image' THEN 1
                           WHEN 'audio' THEN n_bytes // 2
                           ELSE 1 + n_bytes // 1024 END AS n_frames,
           payload_sha
    FROM m
    """,
    "media_frame_sample": """
    WITH v AS (
      SELECT doc_id AS media_id,
             1 + octet_length(encode(text)) // 1024 AS n_frames
      FROM documents WHERE CAST(doc_id % 3 AS INTEGER) = 2
    )
    SELECT media_id, unnest(generate_series(0, n_frames - 1, 10)) AS frame_idx
    FROM v
    """,
    # quality_scores: the SQL evaluates the SAME IEEE-754 expression
    # tree over the same integer counts as stages/textstats.py, so the
    # unrounded doubles match bit-for-bit (both engines run RE2).
    "quality_scores": _QUALITY_SQL_PREFIX + """
    SELECT doc_id, n_chars, n_words, n_punct, n_digits, n_stopwords,
           punct_ratio, digit_ratio, stopword_ratio, mean_word_len,
           least(stopword_ratio * 2.5, 1.0) *
             (greatest(1.0 - punct_ratio * 2.0, 0.0) *
              greatest(1.0 - digit_ratio * 2.0, 0.0)) AS quality_score
    FROM r
    """,
    "token_counts_bpe": """
    SELECT doc_id,
           (CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0
                 ELSE array_length(regexp_split_to_array(
                        regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+'))
            END)::BIGINT AS n_tokens_ws,
           len(regexp_extract_all(text, '[A-Za-z0-9]{1,4}|[^A-Za-z0-9\\s]'))::BIGINT
             AS n_tokens_bpe
    FROM documents
    """,
    "language_id": _language_id_sql(),
    "join_segment_revenue": """
    SELECT c_mktsegment,
           CAST(count(*) AS BIGINT) AS n_rows,
           CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS revenue_cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY 1
    """,
    "lineitem_pricing_summary": """
    SELECT l_returnflag, l_linestatus,
           CAST(count(*) AS BIGINT) AS n_rows,
           CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS sum_qty_cents,
           CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS sum_price_cents
    FROM lineitem
    GROUP BY 1, 2
    """,
    "asof_last_purchase": """
    WITH e AS (
      SELECT event_id, user_id, epoch_us(ts) AS ts_us, event_type,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
      FROM events
    ),
    p AS (
      SELECT user_id, ts_us, CAST(max(cents) AS BIGINT) AS cents
      FROM e WHERE event_type = 'purchase' GROUP BY 1, 2
    )
    SELECT e.event_id, e.user_id, e.ts_us,
           coalesce(p.cents, -1) AS last_purchase_cents
    FROM e ASOF LEFT JOIN p
      ON e.user_id = p.user_id AND e.ts_us > p.ts_us
    """,
    "range_join_price_buckets": """
    WITH b(bucket_id, lo, hi) AS (VALUES
      (0, 0, 2000000), (1, 2000000, 4000000), (2, 4000000, 6000000),
      (3, 6000000, 8000000), (4, 8000000, 20000000)),
    l AS (
      SELECT CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS price_cents
      FROM lineitem
    )
    SELECT CAST(b.bucket_id AS BIGINT) AS bucket_id,
           CAST(count(*) AS BIGINT) AS n_items,
           CAST(sum(l.price_cents) AS BIGINT) AS sum_price_cents
    FROM l JOIN b ON l.price_cents >= b.lo AND l.price_cents < b.hi
    GROUP BY 1
    """,
    "events_sliding": """
    WITH e AS (
      SELECT epoch_us(ts) AS ts_us,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
      FROM events
    ),
    w AS (
      SELECT (ts_us // 900000000) * 900000000
               - CAST(k.k AS BIGINT) * 900000000 AS window_start_us,
             cents
      FROM e CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS k) k
    )
    SELECT window_start_us,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(cents) AS BIGINT) AS sum_value_cents
    FROM w GROUP BY 1
    """,
    "topk_docs_per_lang": """
    SELECT lang, CAST(rn AS BIGINT) AS rank, doc_id, n_chars FROM (
      SELECT lang, doc_id, n_chars,
             row_number() OVER (
               PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn
      FROM documents)
    WHERE rn <= 3
    """,
    "set_intersect_repos": _D_SQL
    + """
    SELECT sha256 FROM (
      SELECT DISTINCT sha256 FROM d WHERE repo < 'org3'
      INTERSECT
      SELECT DISTINCT sha256 FROM d WHERE repo >= 'org3')
    """,
    "set_except_repos": _D_SQL
    + """
    SELECT sha256 FROM (
      SELECT DISTINCT sha256 FROM d WHERE repo < 'org3'
      EXCEPT
      SELECT DISTINCT sha256 FROM d WHERE repo >= 'org3')
    """,
    "sample_docs_md5": """
    SELECT doc_id, lang, source FROM documents
    WHERE substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) < '0d'
    """,
    "doclen_quantiles": """
    SELECT lang,
           CAST(floor(quantile_cont(n_chars, 0.5) * 100 + 0.5) AS BIGINT)
             AS p50_x100,
           CAST(floor(quantile_cont(n_chars, 0.9) * 100 + 0.5) AS BIGINT)
             AS p90_x100
    FROM documents GROUP BY 1
    """,
    "top_tokens": """
    WITH tok AS (
      SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS token
      FROM documents
    ),
    c AS (SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY 1),
    r AS (
      SELECT token, n,
             CAST(row_number() OVER (ORDER BY n DESC, token) AS BIGINT)
               AS "rank"
      FROM c
    )
    SELECT token, n, "rank" FROM r WHERE "rank" <= 20
    """,
    "distinct_tokens_per_lang": """
    WITH tok AS (
      SELECT lang, unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS token
      FROM documents
    )
    SELECT lang, CAST(count(DISTINCT token) AS BIGINT) AS n_distinct_tokens
    FROM tok GROUP BY 1
    """,
}

ORACLE_SQL["incremental_embedding_pairs"] = """
    SELECT x.vec_id AS a, y.vec_id AS b,
           round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                        CAST(y.embedding AS DOUBLE[])), 6) AS score
    FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
    WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                 CAST(y.embedding AS DOUBLE[])) >= 0.4
      AND (x.vec_id % 10 = 0 OR y.vec_id % 10 = 0)
    """

# the capacity-bounded top-k shares the exact oracle: on this corpus
# the k-th count clears the SpaceSaving underestimate bound, so the
# sketch's answer IS the exact answer (bound gated in tests)
ORACLE_SQL["top_tokens_approx"] = ORACLE_SQL["top_tokens"]

ORACLE_SQL["normalize_text"] = """
SELECT doc_id,
       regexp_replace(regexp_replace(lower(text), '\\s+', ' ', 'g'),
                      '^ | $', '', 'g') AS text_norm,
       CAST(length(regexp_replace(regexp_replace(lower(text), '\\s+', ' ', 'g'),
                                  '^ | $', '', 'g')) AS BIGINT) AS n_chars_norm
FROM documents
"""

#: per-language median-quality pruning — reuses the quality_scores twin
#: so the score expression stays defined in exactly one place per engine
ORACLE_SQL["quality_prune"] = f"""
WITH qs AS ({ORACLE_SQL["quality_scores"]}),
j AS (
  SELECT qs.doc_id, d.lang, qs.quality_score
  FROM qs JOIN documents d USING (doc_id)
),
cut AS (
  SELECT lang, quantile_cont(quality_score, 0.5) AS c FROM j GROUP BY 1
)
SELECT j.doc_id, j.lang, j.quality_score
FROM j JOIN cut USING (lang)
WHERE j.quality_score >= cut.c
"""

#: the signature stage's shingle-set sizes vs the n-gram oracle's CTE
ORACLE_SQL["signature_shingle_counts"] = (
    "WITH "
    + _NGRAM_CTES
    + """
    SELECT doc_key AS file_id, CAST(n AS BIGINT) AS n_shingles FROM n
    """
)

ORACLE_SQL["normalized_dup_groups"] = f"""
WITH code_files AS ({CODE_FILES_SQL}),
nrm AS (
  SELECT sha256(regexp_replace(regexp_replace(lower(content),
                                              '\\s+', ' ', 'g'),
                               '^ | $', '', 'g')) AS group_id
  FROM code_files
)
SELECT group_id, CAST(count(*) AS BIGINT) AS n_files
FROM nrm GROUP BY 1 HAVING count(*) > 1
"""

ORACLE_SQL["dataset_split"] = '''
SELECT doc_id, lang,
       CASE WHEN substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'cd'
              THEN 'train'
            WHEN substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'e6'
              THEN 'val'
            ELSE 'test' END AS split
FROM documents
'''

ORACLE_SQL["shuffle_join_revenue"] = """
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1
"""

ORACLE_SQL["bloom_semi_lineitems"] = """
SELECT l_returnflag,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM lineitem
WHERE l_orderkey IN (
  SELECT o_orderkey FROM orders WHERE o_totalprice > 400000.0
)
GROUP BY 1
"""

ORACLE_SQL["repetition_stats"] = """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
flat AS (SELECT doc_id, unnest(w) AS t FROM tok),
uni AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
         CAST(count(*) AS BIGINT) AS n_distinct_tokens,
         CAST(max(c) AS BIGINT) AS top_token_n
  FROM (SELECT doc_id, t, count(*) AS c FROM flat GROUP BY 1, 2) GROUP BY 1),
big AS (
  SELECT doc_id, w[i] || ' ' || w[i+1] AS g
  FROM (SELECT doc_id, w, unnest(generate_series(1, len(w) - 1)) AS i
        FROM tok WHERE len(w) >= 2)),
bi AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_2grams,
         CAST(count(*) AS BIGINT) AS n_distinct_2grams,
         CAST(max(c) AS BIGINT) AS top_2gram_n
  FROM (SELECT doc_id, g, count(*) AS c FROM big GROUP BY 1, 2) GROUP BY 1)
SELECT uni.doc_id, n_tokens, n_distinct_tokens, top_token_n,
       COALESCE(n_2grams, 0) AS n_2grams,
       COALESCE(n_distinct_2grams, 0) AS n_distinct_2grams,
       COALESCE(top_2gram_n, 0) AS top_2gram_n
FROM uni LEFT JOIN bi USING (doc_id)
"""

ORACLE_SQL["redact_props"] = """
SELECT event_id,
       regexp_replace(props, '[0-9]+', '<NUM>', 'g') AS props_redacted,
       CAST(len(regexp_extract_all(props, '[0-9]+')) AS BIGINT) AS n_redactions
FROM events
"""

ORACLE_SQL["anti_join_lineitems"] = """
SELECT l_returnflag,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM lineitem
WHERE l_orderkey NOT IN (
  SELECT o_orderkey FROM orders WHERE o_totalprice > 400000.0
)
GROUP BY 1
"""

ORACLE_SQL["events_running_totals"] = """
SELECT event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(row_number() OVER w AS BIGINT) AS event_seq,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w AS BIGINT)
         AS cum_value_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""

ORACLE_SQL["top_tokens_df"] = """
WITH dt AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS token
  FROM documents
),
c AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df FROM dt
  WHERE token <> '' GROUP BY 1
),
r AS (
  SELECT token, df,
         CAST(row_number() OVER (ORDER BY df DESC, token) AS BIGINT) AS "rank"
  FROM c
)
SELECT token, df, "rank" FROM r WHERE "rank" <= 20
"""

ORACLE_SQL["stratified_sample_docs"] = """
SELECT doc_id, lang FROM documents
WHERE substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) <
      CASE lang WHEN 'en' THEN '20' WHEN 'zh' THEN 'e0' ELSE '99' END
"""

ORACLE_SQL["decontaminate_docs"] = """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS w
  FROM documents
),
idx AS (
  SELECT doc_id, w, unnest(generate_series(1, len(w) - 4)) AS i
  FROM tok WHERE len(w) >= 5
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+4], chr(31)) AS s FROM idx
),
bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 37 = 0),
n AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_shingles
  FROM sh WHERE doc_id % 37 <> 0 GROUP BY 1
),
hits AS (
  SELECT sh.doc_id, CAST(count(*) AS BIGINT) AS n_hits
  FROM sh JOIN bench USING (s) WHERE sh.doc_id % 37 <> 0 GROUP BY 1
)
SELECT d.doc_id,
       CAST(coalesce(n.n_shingles, 0) AS BIGINT) AS n_shingles,
       CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
       coalesce(h.n_hits, 0) >= 1 AS contaminated
FROM documents d
LEFT JOIN n ON d.doc_id = n.doc_id
LEFT JOIN hits h ON d.doc_id = h.doc_id
WHERE d.doc_id % 37 <> 0
"""

ORACLE_SQL["events_lag_deltas"] = """
SELECT event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(coalesce(lag(event_id) OVER w, -1) AS BIGINT) AS prev_event_id,
       CAST(coalesce(
         epoch_us(ts) - epoch_us(lag(ts) OVER w), -1) AS BIGINT) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""

ORACLE_SQL["distinctive_terms"] = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS token
  FROM documents
),
tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
  FROM tok GROUP BY 1, 2
),
df AS (
  SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM tok GROUP BY 1
),
r AS (
  SELECT tf.doc_id, tf.token, tf.tf, df.df,
         CAST(row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf DESC, df.df ASC, tf.token ASC
         ) AS BIGINT) AS "rank"
  FROM tf JOIN df USING (token)
)
SELECT doc_id, token, tf, df, "rank" FROM r WHERE "rank" <= 3
"""

ORACLE_SQL["chunk_documents"] = r"""
WITH t AS (
  SELECT doc_id,
         regexp_split_to_array(
           regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+') AS w
  FROM documents
  WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
),
c AS (
  SELECT doc_id, w, len(w) AS n,
         unnest(generate_series(0,
           CASE WHEN len(w) <= 64 THEN 0
                ELSE CAST(ceil((len(w) - 64) / 48.0) AS BIGINT) END)) AS i
  FROM t
)
SELECT doc_id,
       CAST(i AS BIGINT) AS chunk_idx,
       CAST(least(i * 48 + 64, n) - i * 48 AS BIGINT) AS n_tokens,
       array_to_string(
         w[CAST(i * 48 + 1 AS BIGINT):CAST(least(i * 48 + 64, n) AS BIGINT)],
         ' ') AS chunk_text
FROM c
"""

ORACLE_SQL["doc_quartiles"] = """
SELECT doc_id, lang,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(ntile(4) OVER (
         PARTITION BY lang ORDER BY length(text), doc_id
       ) AS BIGINT) AS quartile
FROM documents
"""

ORACLE_SQL["events_rolling_window"] = """
SELECT event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS win_value_cents
FROM events
"""

ORACLE_SQL["sample_n_per_lang"] = """
WITH r AS (
  SELECT doc_id, lang,
         CAST(row_number() OVER (
           PARTITION BY lang
           ORDER BY substring(md5(CAST(doc_id AS VARCHAR)), 1, 16), doc_id
         ) AS BIGINT) AS "rank"
  FROM documents
)
SELECT doc_id, lang, "rank" FROM r WHERE "rank" <= 40
"""

ORACLE_SQL["pack_documents"] = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = '' THEN 0
              ELSE len(regexp_split_to_array(
                     regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')) END
           AS n
  FROM documents
),
c AS (
  SELECT doc_id, n,
         CAST(sum(n) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) - n
              AS BIGINT) AS before
  FROM t WHERE n > 0
),
p AS (
  SELECT doc_id, n, before,
         unnest(generate_series(before // 512, (before + n - 1) // 512))
           AS pack_id
  FROM c
)
SELECT doc_id,
       CAST(pack_id AS BIGINT) AS pack_id,
       CAST(least((pack_id + 1) * 512, before + n)
            - greatest(pack_id * 512, before) AS BIGINT) AS tokens_in_pack
FROM p
"""

ORACLE_SQL["chunk_share_pairs"] = r"""
WITH t AS (
  SELECT doc_id,
         regexp_split_to_array(
           regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+') AS w
  FROM documents
  WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
),
c AS (
  SELECT doc_id, w, len(w) AS n,
         unnest(generate_series(0,
           CASE WHEN len(w) <= 32 THEN 0
                ELSE CAST(ceil((len(w) - 32) / 24.0) AS BIGINT) END)) AS i
  FROM t
),
d AS (
  SELECT DISTINCT doc_id,
         array_to_string(
           w[CAST(i * 24 + 1 AS BIGINT):CAST(least(i * 24 + 32, n) AS BIGINT)],
           ' ') AS chunk_text
  FROM c
)
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(count(*) AS BIGINT) AS n_shared_chunks
FROM d x JOIN d y ON x.chunk_text = y.chunk_text AND x.doc_id < y.doc_id
GROUP BY 1, 2
"""

ORACLE_SQL["full_join_custorders"] = """
WITH l AS (
  SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS rev_cents
  FROM orders GROUP BY 1
),
r AS (
  SELECT CAST(c_custkey AS BIGINT) AS c_custkey,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS acctbal_cents
  FROM customer WHERE c_mktsegment = 'BUILDING'
)
SELECT CAST(coalesce(l.o_custkey, r.c_custkey) AS BIGINT) AS custkey,
       CAST(coalesce(l.n_orders, -1) AS BIGINT) AS n_orders,
       CAST(coalesce(l.rev_cents, -1) AS BIGINT) AS rev_cents,
       CAST(coalesce(r.acctbal_cents, -1) AS BIGINT) AS acctbal_cents
FROM l FULL OUTER JOIN r ON l.o_custkey = r.c_custkey
"""

ORACLE_SQL["user_event_pivot"] = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_click,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_error,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_signup,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_view
FROM events
GROUP BY 1
"""

ORACLE_SQL["docs_rollup"] = """
WITH t AS (
  SELECT lang,
         CASE WHEN length(text) < 500 THEN 'short'
              WHEN length(text) < 2000 THEN 'medium'
              ELSE 'long' END AS band,
         CAST(length(text) AS BIGINT) AS n_chars
  FROM documents
)
SELECT coalesce(lang, 'ALL') AS lang,
       coalesce(band, 'ALL') AS band,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
FROM t
GROUP BY ROLLUP(lang, band)
"""

ORACLE_SQL["curation_pipeline"] = r"""
WITH n AS (
  SELECT doc_id, lang,
         regexp_replace(regexp_replace(lower(text), '\s+', ' ', 'g'),
                        '^ | $', '', 'g') AS ntext
  FROM documents
),
q AS (SELECT * FROM n WHERE length(ntext) >= 100),
k AS (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY sha256(ntext) ORDER BY doc_id) AS rn
  FROM q
),
s AS (
  SELECT doc_id, lang,
         CASE WHEN substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'cd'
                THEN 'train'
              WHEN substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'e6'
                THEN 'val'
              ELSE 'test' END AS split
  FROM k WHERE rn = 1
)
SELECT split, lang, CAST(count(*) AS BIGINT) AS n_docs
FROM s GROUP BY 1, 2
"""

ORACLE_SQL["event_mode"] = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY user_id
                               ORDER BY n DESC, event_type) AS rn
  FROM c
)
SELECT CAST(user_id AS BIGINT) AS user_id, event_type, n
FROM r WHERE rn = 1
"""

ORACLE_SQL["user_event_sequences"] = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS seq
FROM events GROUP BY user_id
"""

ORACLE_SQL["user_first_last"] = """
WITH o AS (
  SELECT user_id, event_type, epoch_us(ts) AS ts_us,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS ra,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rd
  FROM events
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       max(CASE WHEN ra = 1 THEN event_type END) AS first_event,
       CAST(max(CASE WHEN ra = 1 THEN ts_us END) AS BIGINT) AS first_ts_us,
       max(CASE WHEN rd = 1 THEN event_type END) AS last_event,
       CAST(max(CASE WHEN rd = 1 THEN ts_us END) AS BIGINT) AS last_ts_us
FROM o GROUP BY user_id
"""

#: z-score finalization mirrors stages/stats.py bit-for-bit: exact
#: BIGINT moment sums, then m = sx/n; sd = sqrt((sxx - sx*m)/(n-1));
#: z = (x-m)/sd — every op an IEEE-correctly-rounded double.
ORACLE_SQL["doclen_outliers"] = """
WITH t AS (
  SELECT doc_id, lang, CAST(length(text) AS BIGINT) AS n_chars
  FROM documents
),
s AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(n_chars) AS BIGINT) AS sx,
         CAST(sum(n_chars * n_chars) AS BIGINT) AS sxx
  FROM t GROUP BY lang
),
p AS (
  SELECT lang,
         CAST(sx AS DOUBLE) / n AS m,
         sqrt((CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE)
               * (CAST(sx AS DOUBLE) / n)) / (n - 1)) AS sd
  FROM s WHERE n > 1
)
SELECT t.doc_id, t.lang, t.n_chars,
       CAST(floor((t.n_chars - p.m) / p.sd * 1000000 + 0.5) AS BIGINT)
         AS z_micro
FROM t JOIN p ON t.lang = p.lang
WHERE p.sd > 0 AND abs((t.n_chars - p.m) / p.sd) >= 2.0
"""

#: correlation from exact BIGINT sums cast to DOUBLE before the
#: products (the engine does the same — n·Σxy overflows int64 at scale)
ORACLE_SQL["lang_len_token_corr"] = r"""
WITH t AS (
  SELECT lang, CAST(length(text) AS BIGINT) AS x,
         CAST(CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
                THEN 0
              ELSE len(regexp_split_to_array(
                     regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'))
              END AS BIGINT) AS y
  FROM documents
),
s AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy,
         CAST(sum(x * y) AS BIGINT) AS sxy
  FROM t GROUP BY lang
),
p AS (
  SELECT lang, n,
         CAST(n AS DOUBLE) * sxy - CAST(sx AS DOUBLE) * sy AS cov,
         CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx AS vx,
         CAST(n AS DOUBLE) * syy - CAST(sy AS DOUBLE) * sy AS vy
  FROM s
)
SELECT lang, n AS n_rows,
       CAST(floor((CASE WHEN sqrt(vx * vy) > 0
                        THEN cov / sqrt(vx * vy) ELSE 0.0 END)
                  * 1000000 + 0.5) AS BIGINT) AS corr_micro
FROM p
"""

ORACLE_SQL["docs_cube"] = """
WITH t AS (
  SELECT lang, source, CAST(length(text) AS BIGINT) AS n_chars
  FROM documents
)
SELECT coalesce(lang, 'ALL') AS lang,
       coalesce(source, 'ALL') AS source,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
FROM t
GROUP BY CUBE(lang, source)
"""

#: weight quantized on the md5 top-16-bit lattice in exact integer
#: arithmetic; '0x'-cast turns the 4-char digest prefix into the same
#: uint16 the engine compares (stages/relational.py:weighted_sample)
ORACLE_SQL["weighted_sample_docs"] = """
WITH t AS (
  SELECT doc_id, lang, CAST(length(text) AS BIGINT) AS n_chars,
         (LEAST(CAST(length(text) AS BIGINT), 2000) * 65536) // 2000 AS wq
  FROM documents
)
SELECT doc_id, lang, n_chars, CAST(wq AS BIGINT) AS wq
FROM t
WHERE CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) AS INTEGER) < wq
"""

ORACLE_SQL["rank_docs_per_lang"] = """
SELECT doc_id, lang, CAST(length(text) AS BIGINT) AS n_chars,
       CAST(rank() OVER w AS BIGINT) AS rnk,
       CAST(dense_rank() OVER w AS BIGINT) AS drnk
FROM documents
WINDOW w AS (PARTITION BY lang ORDER BY length(text) DESC)
"""

#: sequence-level verify over the same candidate CTEs as near_dup_pairs;
#: DuckDB's levenshtein() is UTF-8-byte unit-cost — the engine's Myers
#: kernel runs on encoded bytes to match (stages/editdist.py)
ORACLE_SQL["edit_distance_pairs"] = (
    "WITH "
    + _NGRAM_CTES
    + """,
    sz AS (
      SELECT repo || ':' || path || '@' || "commit" AS fid, content
      FROM code_files
    ),
    p AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    d AS (
      SELECT p.a, p.b,
             CAST(levenshtein(x.content, y.content) AS BIGINT) AS lev
      FROM p JOIN sz x ON x.fid = p.a JOIN sz y ON y.fid = p.b
    )
    SELECT a, b, lev FROM d WHERE lev <= 64
    """
)

#: keeper per component: largest member, ties to the smallest file_id;
#: same recursive closure as ngram_jaccard_clusters
ORACLE_SQL["near_dup_keepers"] = (
    "WITH RECURSIVE "
    + _NGRAM_CTES
    + """,
    e AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    ),
    comp AS (
      SELECT src AS file_id, least(src, min(dst)) AS component
      FROM reach GROUP BY src
    ),
    sz AS (
      SELECT repo || ':' || path || '@' || "commit" AS file_id,
             CAST(octet_length(encode(content)) AS BIGINT) AS size
      FROM code_files
    ),
    m AS (
      SELECT comp.component, comp.file_id, sz.size
      FROM comp JOIN sz USING (file_id)
    ),
    k AS (
      SELECT *,
             row_number() OVER (PARTITION BY component
                                ORDER BY size DESC, file_id) AS rn,
             count(*) OVER (PARTITION BY component) AS nm
      FROM m
    )
    SELECT component, file_id AS keeper, size,
           CAST(nm AS BIGINT) AS n_members
    FROM k WHERE rn = 1
    """
)

#: centroid oracle on the same int64 micro-lattice: quantize each
#: element with the identical floor(x*1e6 + 0.5) double op sequence,
#: sum exactly, divide with DuckDB's truncating integer `//`
ORACLE_SQL["label_centroids"] = """
WITH u AS (
  SELECT CAST(label AS BIGINT) AS label,
         CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,
         unnest(embedding) AS v
  FROM embeddings
),
q AS (
  SELECT label, dim,
         CAST(floor(CAST(v AS DOUBLE) * 1000000 + 0.5) AS BIGINT) AS qv
  FROM u
)
SELECT label, dim, CAST(count(*) AS BIGINT) AS n_vecs,
       CAST(sum(qv) AS BIGINT) // count(*) AS mean_micro
FROM q GROUP BY label, dim
"""

# nearest-centroid assignment on the same lattice: quantize vectors
# and centroids identically, exact int64 squared distances, smallest
# label wins ties (ROW_NUMBER ORDER BY d2, label = numpy argmin over
# label-ascending centroids)
ORACLE_SQL["centroid_assign"] = """
WITH u AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id,
         CAST(label AS BIGINT) AS label,
         CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)
              AS BIGINT) AS qv
  FROM embeddings
),
cent AS (
  SELECT label, dim, CAST(sum(qv) AS BIGINT) // count(*) AS mean_micro
  FROM u GROUP BY label, dim
),
d AS (
  SELECT u.vec_id, cent.label,
         CAST(sum((u.qv - cent.mean_micro) * (u.qv - cent.mean_micro))
              AS BIGINT) AS d2
  FROM u JOIN cent ON cent.dim = u.dim
  GROUP BY u.vec_id, cent.label
),
r AS (
  SELECT vec_id, label, d2,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, label) AS rn
  FROM d
)
SELECT vec_id, label, d2 FROM r WHERE rn = 1
"""

ORACLE_SQL["events_windowed_distinct"] = """
WITH w AS (
  SELECT CAST(event_id AS BIGINT) AS event_id,
         CAST(user_id AS BIGINT) AS user_id,
         event_type,
         (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
         epoch_us(ts) AS ts_us,
         row_number() OVER (
           PARTITION BY user_id, event_type,
                        epoch_us(ts) // 3600000000
           ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT event_id, user_id, event_type,
       CAST(window_start_us AS BIGINT) AS window_start_us,
       CAST(ts_us AS BIGINT) AS ts_us
FROM w WHERE rn = 1
"""

ORACLE_SQL["value_histogram"] = """
WITH q AS (
  SELECT event_type,
         CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS v_micro
  FROM events
)
SELECT event_type,
       (v_micro // 25000000) * 25000000 AS bin_lo_micro,
       CAST(count(*) AS BIGINT) AS n
FROM q GROUP BY event_type, bin_lo_micro
"""

ORACLE_SQL["minmax_scale_docs"] = """
WITH s AS (
  SELECT doc_id, lang, CAST(n_chars AS BIGINT) AS n_chars,
         min(n_chars) OVER (PARTITION BY lang) AS mn,
         max(n_chars) OVER (PARTITION BY lang) AS mx
  FROM documents
)
SELECT doc_id, lang, n_chars,
       CASE WHEN mx > mn
            THEN CAST(((n_chars - mn) * 1000000) // (mx - mn) AS BIGINT)
            ELSE CAST(0 AS BIGINT) END AS scaled_micro
FROM s
"""

ORACLE_SQL["top_bigrams"] = """
WITH t AS (
  SELECT regexp_extract_all(text, '[A-Za-z0-9_]+') AS ts FROM documents
),
p AS (
  SELECT unnest(ts[1:len(ts) - 1]) AS tok_a, unnest(ts[2:len(ts)]) AS tok_b
  FROM t
),
c AS (SELECT tok_a, tok_b, CAST(count(*) AS BIGINT) AS n FROM p GROUP BY 1, 2)
SELECT tok_a, tok_b, n,
       CAST(row_number() OVER (ORDER BY n DESC, tok_a, tok_b) AS BIGINT)
         AS "rank"
FROM c QUALIFY "rank" <= 30
"""

ORACLE_SQL["encoding_audit"] = r"""
WITH b AS (
  SELECT doc_id,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(strlen(text) AS BIGINT) AS n_bytes,
         CAST(length(text)
              - length(regexp_replace(text, '[^\x00-\x7f]', '', 'g'))
           AS BIGINT) AS n_non_ascii,
         CAST(length(text)
              - length(regexp_replace(
                  text, '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]', '', 'g'))
           AS BIGINT) AS n_control,
         CAST(length(text)
              - length(regexp_replace(text, '[\t\n\f\r ]', '', 'g'))
           AS BIGINT) AS n_ws
  FROM documents
)
SELECT doc_id, n_chars, n_bytes, n_non_ascii, n_control, n_ws,
       CAST((n_chars - n_non_ascii) * 1000000 // GREATEST(n_chars, 1)
         AS BIGINT) AS ascii_ppm,
       CAST(n_ws * 1000000 // GREATEST(n_chars, 1) AS BIGINT) AS ws_ppm
FROM b
"""

ORACLE_SQL["pmi_bigrams"] = """
WITH t AS (
  SELECT regexp_extract_all(text, '[A-Za-z0-9_]+') AS ts FROM documents
),
p AS (
  SELECT unnest(ts[1:len(ts) - 1]) AS tok_a, unnest(ts[2:len(ts)]) AS tok_b
  FROM t
),
big AS (
  SELECT tok_a, tok_b, CAST(count(*) AS BIGINT) AS n
  FROM p GROUP BY 1, 2 HAVING count(*) >= 3
),
u AS (SELECT unnest(ts) AS tok FROM t),
uni AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM u GROUP BY 1),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM u),
f AS (
  SELECT big.tok_a, big.tok_b, big.n,
         CAST(CAST(big.n AS HUGEINT) * (SELECT n FROM tot) * 1000000
              // (CAST(ua.n AS HUGEINT) * ub.n) AS BIGINT) AS pmi_ppm
  FROM big
  JOIN uni ua ON ua.tok = big.tok_a
  JOIN uni ub ON ub.tok = big.tok_b
)
SELECT tok_a, tok_b, n, pmi_ppm,
       CAST(row_number() OVER (ORDER BY pmi_ppm DESC, tok_a, tok_b)
         AS BIGINT) AS "rank"
FROM f QUALIFY "rank" <= 30
"""

ORACLE_SQL["funnel_signup_purchase"] = """
WITH m AS (
  SELECT CAST(user_id AS BIGINT) AS user_id,
         min(CASE WHEN event_type = 'signup' THEN epoch_us(ts) END) AS first_us,
         min(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS then_us
  FROM events GROUP BY 1
)
SELECT user_id, CAST(first_us AS BIGINT) AS first_us,
       CAST(then_us AS BIGINT) AS then_us,
       CAST(then_us - first_us AS BIGINT) AS delay_us
FROM m
WHERE first_us IS NOT NULL AND then_us IS NOT NULL AND then_us > first_us
"""

#: shared edge CTE of the graph-analytics twins — the same exact
#: 5-gram-Jaccard ≥ 0.5 pair set the cluster oracles use (a < b)
_EDGE_CTE = """
    e AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    )"""

ORACLE_SQL["epoch_shuffle"] = """
SELECT doc_id,
       CAST(row_number() OVER (
         ORDER BY substring(md5(CAST(doc_id AS VARCHAR) || ':1'), 1, 16),
                  doc_id) - 1 AS BIGINT) AS shuffle_rank
FROM documents
"""

ORACLE_SQL["events_seasonality"] = """
SELECT ((epoch_us(ts) // 86400000000 + 3) % 7) + 1 AS dow,
       (epoch_us(ts) // 3600000000) % 24 AS hour,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_value_cents
FROM events
GROUP BY 1, 2
"""

ORACLE_SQL["lang_mismatch"] = f"""
WITH li AS ({ORACLE_SQL["language_id"]})
SELECT d.doc_id, d.lang, li.lang_pred, li.lang_score
FROM documents d JOIN li ON li.doc_id = d.doc_id
WHERE li.lang_pred <> d.lang AND li.lang_pred <> 'unknown'
"""

ORACLE_SQL["token_freq_spectrum"] = """
WITH tok AS (
  SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS token
  FROM documents
),
c AS (SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY 1)
SELECT n AS freq, CAST(count(*) AS BIGINT) AS n_tokens
FROM c GROUP BY 1
"""

ORACLE_SQL["line_stats"] = """
WITH l AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents
),
c AS (SELECT doc_id, line, count(*) AS n FROM l GROUP BY 1, 2),
s AS (SELECT doc_id, CAST(sum(n) AS BIGINT) AS n_lines,
             CAST(count(*) AS BIGINT) AS n_distinct_lines,
             CAST(max(n) AS BIGINT) AS top_line_n
      FROM c GROUP BY 1)
SELECT doc_id, n_lines, n_distinct_lines, top_line_n,
       CAST((n_lines - n_distinct_lines) * 1000000 // GREATEST(n_lines, 1)
         AS BIGINT) AS dup_line_ppm
FROM s
"""

ORACLE_SQL["dedup_keepers_by_depth"] = _MEMBER_SQL + """
, dup AS (SELECT * FROM members WHERE n_files > 1),
r AS (
  SELECT file_id, repo, path, group_id,
         CAST(length(path) - length(replace(path, '/', '')) AS BIGINT)
           AS depth,
         row_number() OVER (
           PARTITION BY group_id
           ORDER BY length(path) - length(replace(path, '/', '')),
                    repo, path, "commit") AS rn
  FROM dup
)
SELECT file_id, repo, path, depth, group_id FROM r WHERE rn = 1
"""

ORACLE_SQL["events_hourly_dense"] = """
WITH c AS (
  SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS hour_us,
         CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1
),
b AS (SELECT min(hour_us) AS lo, max(hour_us) AS hi FROM c),
h AS (
  SELECT CAST(b.lo + 3600000000 * t.x AS BIGINT) AS hour_us
  FROM b,
       unnest(generate_series(0, CAST((b.hi - b.lo) // 3600000000 AS BIGINT)))
         AS t(x)
)
SELECT h.hour_us, CAST(COALESCE(c.n_events, 0) AS BIGINT) AS n_events
FROM h LEFT JOIN c USING (hour_us)
"""

ORACLE_SQL["dedup_retry_events"] = """
WITH x AS (
  SELECT CAST(event_id AS BIGINT) AS event_id,
         CAST(user_id AS BIGINT) AS user_id,
         event_type,
         CAST(epoch_us(ts) AS BIGINT) AS ts_us,
         lag(epoch_us(ts)) OVER (
           PARTITION BY user_id, event_type ORDER BY ts, event_id
         ) AS prev_us
  FROM events
)
SELECT event_id, user_id, event_type, ts_us,
       CAST(COALESCE(ts_us - prev_us, -1) AS BIGINT) AS gap_same_us
FROM x
WHERE prev_us IS NULL OR ts_us - prev_us > 14400000000
"""

ORACLE_SQL["jaccard_threshold_sweep"] = f"""
WITH pr AS ({ORACLE_SQL["ngram_jaccard_pairs"]}),
taus AS (SELECT CAST(unnest([5, 6, 7, 8, 9]) AS BIGINT) AS tau10)
SELECT t.tau10, CAST(count(p.a) AS BIGINT) AS n_pairs
FROM taus t LEFT JOIN pr p ON p.jaccard >= t.tau10 / 10.0
GROUP BY 1
"""

ORACLE_SQL["near_dup_cluster_density"] = (
    "WITH RECURSIVE "
    + _NGRAM_CTES
    + ","
    + _EDGE_CTE
    + """,
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    ),
    comp AS (
      SELECT src AS file_id, least(src, min(dst)) AS component
      FROM reach GROUP BY src
    ),
    nn AS (
      SELECT component, CAST(count(*) AS BIGINT) AS n_nodes
      FROM comp GROUP BY 1
    ),
    ne AS (
      SELECT c.component, CAST(count(*) AS BIGINT) AS n_edges
      FROM e JOIN comp c ON c.file_id = e.a GROUP BY 1
    )
    SELECT nn.component, nn.n_nodes, ne.n_edges,
           CAST(ne.n_edges * 2000000
                // GREATEST(nn.n_nodes * (nn.n_nodes - 1), 1)
             AS BIGINT) AS density_ppm
    FROM nn JOIN ne ON ne.component = nn.component
    """
)

ORACLE_SQL["near_dup_degrees"] = (
    "WITH "
    + _NGRAM_CTES
    + ","
    + _EDGE_CTE
    + """,
    ends AS (SELECT a AS node FROM e UNION ALL SELECT b AS node FROM e)
    SELECT node, CAST(count(*) AS BIGINT) AS degree FROM ends GROUP BY node
    """
)

ORACLE_SQL["near_dup_degree_hist"] = (
    "WITH "
    + _NGRAM_CTES
    + ","
    + _EDGE_CTE
    + """,
    ends AS (SELECT a AS node FROM e UNION ALL SELECT b AS node FROM e),
    d AS (SELECT node, CAST(count(*) AS BIGINT) AS degree
          FROM ends GROUP BY node)
    SELECT degree, CAST(count(*) AS BIGINT) AS n_nodes FROM d GROUP BY degree
    """
)

def _pagerank_sql(iterations: int = 3, dn: int = 17, dd: int = 20,
                  scale: int = 10**12) -> str:
    """Chained-CTE SQL twin of stages/graph.py:pagerank, generated from
    the SAME parameters so the integer op sequence (scale//N teleport,
    r//d per edge, (dn·c)//dd damping) stays in lockstep. DuckDB's //
    is integer division on BIGINT; sums CAST back from HUGEINT."""
    tele = f"({scale} - ({scale} * {dn}) // {dd}) // p.n"
    cte = [
        "ends AS (SELECT a AS node FROM e UNION ALL SELECT b FROM e)",
        "deg AS (SELECT node, CAST(count(*) AS BIGINT) AS d"
        "        FROM ends GROUP BY node)",
        "p AS (SELECT CAST(count(*) AS BIGINT) AS n FROM deg)",
        "ed AS (SELECT a AS u, b AS v FROM e"
        "       UNION ALL SELECT b AS u, a AS v FROM e)",
        f"r0 AS (SELECT node, {scale} // p.n AS r, d FROM deg, p)",
    ]
    for i in range(1, iterations + 1):
        cte.append(
            f"c{i} AS (SELECT ed.v AS node,"
            f"  CAST(sum(r{i-1}.r // r{i-1}.d) AS BIGINT) AS c"
            f"  FROM ed JOIN r{i-1} ON r{i-1}.node = ed.u GROUP BY ed.v)"
        )
        cte.append(
            f"r{i} AS (SELECT deg.node,"
            f"  {tele} + ({dn} * COALESCE(c{i}.c, 0)) // {dd} AS r, deg.d"
            f"  FROM deg LEFT JOIN c{i} ON c{i}.node = deg.node, p)"
        )
    return (
        "WITH " + _NGRAM_CTES + "," + _EDGE_CTE + ",\n    "
        + ",\n    ".join(cte)
        + f'\n    SELECT node, CAST(r AS BIGINT) AS "rank" FROM r{iterations}'
    )


ORACLE_SQL["near_dup_pagerank"] = _pagerank_sql(iterations=3)


def _kcore_sql(k: int = 3, rounds: int = 3) -> str:
    """Chained-CTE SQL twin of stages/graph.py:kcore_peel — same k,
    same FIXED round count, so the peel sequence is in lockstep."""
    cte = ["e0 AS (SELECT a, b FROM e)"]
    for i in range(1, rounds + 1):
        cte.append(
            f"d{i} AS (SELECT node, CAST(count(*) AS BIGINT) AS deg"
            f" FROM (SELECT a AS node FROM e{i-1}"
            f"       UNION ALL SELECT b FROM e{i-1}) GROUP BY node)"
        )
        cte.append(f"k{i} AS (SELECT node FROM d{i} WHERE deg >= {k})")
        cte.append(
            f"e{i} AS (SELECT x.a, x.b FROM e{i-1} x"
            f" JOIN k{i} ka ON ka.node = x.a"
            f" JOIN k{i} kb ON kb.node = x.b)"
        )
    return (
        "WITH " + _NGRAM_CTES + "," + _EDGE_CTE + ",\n    "
        + ",\n    ".join(cte)
        + f"\n    SELECT node, CAST(count(*) AS BIGINT) AS degree"
        f" FROM (SELECT a AS node FROM e{rounds}"
        f"       UNION ALL SELECT b FROM e{rounds}) GROUP BY node"
    )


ORACLE_SQL["near_dup_kcore"] = _kcore_sql(k=3, rounds=3)

# watermark audit: same row-local synthetic delay (event_id % 600) and
# the same 300 s lateness budget as stages/events.py:watermark_audit
ORACLE_SQL["events_watermark"] = """
WITH a AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) AS ts_us,
         event_id % 600 AS delay_s
  FROM events
),
w AS (
  SELECT (ts_us // 3600000000) * 3600000000 AS window_start_us,
         delay_s,
         ts_us + delay_s * 1000000
           > (ts_us // 3600000000) * 3600000000 + 3600000000 + 300000000
           AS late
  FROM a
)
SELECT window_start_us,
       CAST(sum(CASE WHEN late THEN 0 ELSE 1 END) AS BIGINT) AS n_on_time,
       CAST(sum(CASE WHEN late THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       CAST(max(delay_s) AS BIGINT) AS max_delay_s_seen
FROM w GROUP BY 1
"""


# round-trip twin: the reassembled text must equal the whitespace-
# normalized original (same tokenization as the chunk_documents twin)
ORACLE_SQL["reassemble_docs"] = r"""
SELECT doc_id,
       array_to_string(
         regexp_split_to_array(
           regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'),
         ' ') AS text
FROM documents
WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
"""

# interval-overlap twin: DuckDB's IEJoin handles the inequality join
ORACLE_SQL["purchase_error_overlaps"] = """
WITH L AS (
  SELECT event_id, CAST(epoch_us(ts) AS BIGINT) AS s,
         CAST(epoch_us(ts) AS BIGINT)
           + (1 + event_id % 10) * 60000000 AS e
  FROM events WHERE event_type = 'purchase'
),
R AS (
  SELECT event_id, CAST(epoch_us(ts) AS BIGINT) AS s,
         CAST(epoch_us(ts) AS BIGINT)
           + (1 + event_id % 10) * 60000000 AS e
  FROM events WHERE event_type = 'error'
)
SELECT L.event_id AS purchase_id, CAST(count(*) AS BIGINT) AS n_overlaps
FROM L JOIN R ON L.s < R.e AND R.s < L.e
GROUP BY 1
"""

# skyline twin: textbook NOT EXISTS dominance over the repo rollup
ORACLE_SQL["repo_pareto"] = f"""
{_D_SQL},
rb AS (SELECT repo, CAST(count(*) AS BIGINT) AS n_files,
              CAST(sum(size) AS BIGINT) AS total_bytes
       FROM d GROUP BY repo)
SELECT repo, n_files, total_bytes FROM rb a
WHERE NOT EXISTS (
  SELECT 1 FROM rb b
  WHERE b.n_files >= a.n_files AND b.total_bytes >= a.total_bytes
    AND (b.n_files > a.n_files OR b.total_bytes > a.total_bytes))
"""

# curriculum ordering: ORDER BY the bit-identical quality doubles then
# doc_id; phase = rnk*4//n on the integer lattice
ORACLE_SQL["curriculum_phases"] = _QUALITY_SQL_PREFIX + """
    , q AS (
      SELECT doc_id,
             least(stopword_ratio * 2.5, 1.0) *
               (greatest(1.0 - punct_ratio * 2.0, 0.0) *
                greatest(1.0 - digit_ratio * 2.0, 0.0)) AS quality_score
      FROM r
    ),
    rk AS (
      SELECT doc_id,
             row_number() OVER (ORDER BY quality_score, doc_id) - 1 AS rnk,
             count(*) OVER () AS n
      FROM q
    )
    SELECT doc_id, CAST((rnk * 4) // n AS BIGINT) AS phase FROM rk
"""


def _profile_sql(table: str, cols: list[str]) -> str:
    """UNION-ALL-per-column twin of stages/profile.py:profile_table —
    same null semantics (count/min/max skip nulls) and the same
    int→VARCHAR stringification (Arrow cast ≡ DuckDB CAST)."""
    parts = [
        f"SELECT '{c}' AS col_name,"
        f" CAST(count(*) AS BIGINT) AS n_rows,"
        f" CAST(count(*) - count({c}) AS BIGINT) AS n_null,"
        f" CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct,"
        f" CAST(min({c}) AS VARCHAR) AS min_value,"
        f" CAST(max({c}) AS VARCHAR) AS max_value"
        f" FROM {table}"
        for c in cols
    ]
    return "\nUNION ALL\n".join(parts)


ORACLE_SQL["profile_documents"] = _profile_sql(
    "documents", ["doc_id", "lang", "source", "n_chars"]
)

ORACLE_SQL["doclen_equidepth_hist"] = """
WITH r AS (
  SELECT n_chars,
         row_number() OVER (ORDER BY n_chars, doc_id) - 1 AS rnk,
         count(*) OVER () AS n
  FROM documents
)
SELECT CAST((rnk * 8) // n AS BIGINT) AS bucket,
       CAST(min(n_chars) AS BIGINT) AS lo,
       CAST(max(n_chars) AS BIGINT) AS hi,
       CAST(count(*) AS BIGINT) AS n_docs
FROM r GROUP BY 1
"""

# containment on the same shingle CTEs: c / least(na, nb) — both
# engines compare the identical float64 division of exact ints, and
# the emitted columns are the exact integers themselves
ORACLE_SQL["containment_pairs"] = (
    "WITH "
    + _NGRAM_CTES
    + """
    SELECT a, b, CAST(c AS BIGINT) AS n_inter,
           CAST(na.n AS BIGINT) AS n_a, CAST(nb.n AS BIGINT) AS n_b
    FROM inter
    JOIN n na ON na.doc_key = inter.a
    JOIN n nb ON nb.doc_key = inter.b
    WHERE CAST(c AS DOUBLE) / least(na.n, nb.n) >= 0.8
    """
)

#: each triangle x < y < z matched exactly once as (x,y),(y,z),(x,z)
ORACLE_SQL["near_dup_triangles"] = (
    "WITH "
    + _NGRAM_CTES
    + ","
    + _EDGE_CTE
    + """
    SELECT CAST(count(*) AS BIGINT) AS n_triangles
    FROM e e1
    JOIN e e2 ON e2.a = e1.b
    JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
    """
)

# paragraph dedup: the oracle groups by the window TEXT itself (the
# engine's md5-128 span identity must agree — the hash-match gate
# certifies the identity encoding); keep rule = smallest (doc_id, idx)
ORACLE_SQL["paragraph_dedup"] = r"""
WITH t AS (
  SELECT doc_id,
         regexp_split_to_array(
           regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+') AS w
  FROM documents
  WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
),
c AS (
  SELECT doc_id, w, len(w) AS n,
         unnest(generate_series(0,
           CASE WHEN len(w) <= 8 THEN 0
                ELSE CAST(ceil((len(w) - 8) / 8.0) AS BIGINT) END)) AS i
  FROM t
),
paras AS (
  SELECT doc_id, CAST(i AS BIGINT) AS idx,
         array_to_string(
           w[CAST(i * 8 + 1 AS BIGINT):CAST(least(i * 8 + 8, n) AS BIGINT)],
           ' ') AS para
  FROM c
),
tot AS (SELECT doc_id, count(*) AS n_chunks FROM paras GROUP BY doc_id),
ranked AS (
  SELECT doc_id, idx, para,
         row_number() OVER (PARTITION BY para ORDER BY doc_id, idx) AS rn
  FROM paras
),
kept AS (SELECT doc_id, idx, para FROM ranked WHERE rn = 1)
SELECT k.doc_id,
       CAST(tot.n_chunks AS BIGINT) AS n_chunks,
       CAST(count(*) AS BIGINT) AS n_kept,
       string_agg(k.para, ' ' ORDER BY k.idx) AS text_dedup
FROM kept k JOIN tot ON tot.doc_id = k.doc_id
GROUP BY k.doc_id, tot.n_chunks
"""

# SemDeDup: lattice assignment (shared with centroid_assign) → same-
# cluster cosine edges → recursive closure → keep = max d2, tie to the
# smallest vec_id. Emits only members of ≥2-duplicate groups.
ORACLE_SQL["semdedup"] = """
WITH RECURSIVE u AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id,
         CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)
              AS BIGINT) AS qv
  FROM embeddings
),
cent AS (
  SELECT CAST(e.label AS BIGINT) AS label, u.dim,
         CAST(sum(u.qv) AS BIGINT) // count(*) AS mean_micro
  FROM u JOIN embeddings e ON e.vec_id = u.vec_id
  GROUP BY e.label, u.dim
),
d AS (
  SELECT u.vec_id, cent.label,
         CAST(sum((u.qv - cent.mean_micro) * (u.qv - cent.mean_micro))
              AS BIGINT) AS d2
  FROM u JOIN cent ON cent.dim = u.dim
  GROUP BY u.vec_id, cent.label
),
r AS (
  SELECT vec_id, label, d2,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, label) AS rn
  FROM d
),
a AS (SELECT vec_id, label, d2 FROM r WHERE rn = 1),
e AS (
  SELECT x.vec_id AS ea, y.vec_id AS eb
  FROM a x JOIN a y ON x.label = y.label AND x.vec_id < y.vec_id
  JOIN embeddings ex ON ex.vec_id = x.vec_id
  JOIN embeddings ey ON ey.vec_id = y.vec_id
  WHERE list_cosine_similarity(CAST(ex.embedding AS DOUBLE[]),
                               CAST(ey.embedding AS DOUBLE[])) >= 0.35
),
sym AS (SELECT ea, eb FROM e UNION SELECT eb AS ea, ea AS eb FROM e),
reach(src, dst) AS (
  SELECT ea, eb FROM sym
  UNION
  SELECT rch.src, s.eb FROM reach rch JOIN sym s ON s.ea = rch.dst
),
comp AS (
  SELECT src AS vec_id, least(src, min(dst)) AS component
  FROM reach GROUP BY src
)
SELECT c.vec_id,
       CAST(a.label AS BIGINT) AS cluster,
       CAST(c.component AS BIGINT) AS component,
       a.d2,
       CAST(CASE WHEN row_number() OVER (
              PARTITION BY c.component ORDER BY a.d2 DESC, c.vec_id
            ) = 1 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM comp c JOIN a ON a.vec_id = c.vec_id
"""


def _kmeans_sql(k: int, iterations: int) -> str:
    """Chained-CTE twin of `stages.kmeans.kmeans_lattice`: c0 = the k
    smallest-id vectors; per iteration an exact-int assignment (tie →
    smaller cluster id) and a trunc-division centroid update; final
    SELECT is the assignment against the last centroids."""
    cte = [
        "u AS (SELECT CAST(vec_id AS BIGINT) AS vec_id,"
        " CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,"
        " CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)"
        " AS BIGINT) AS qv FROM embeddings)",
        "seed AS (SELECT vec_id,"
        " CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cl"
        f" FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k}))",
        "c0 AS (SELECT s.cl, u.dim, u.qv AS m"
        " FROM seed s JOIN u ON u.vec_id = s.vec_id)",
    ]
    for t in range(1, iterations + 1):
        cte.append(
            f"d{t} AS (SELECT u.vec_id, c.cl,"
            " CAST(sum((u.qv - c.m) * (u.qv - c.m)) AS BIGINT) AS d2"
            f" FROM u JOIN c{t - 1} c ON c.dim = u.dim"
            " GROUP BY u.vec_id, c.cl)"
        )
        cte.append(
            f"a{t} AS (SELECT vec_id, cl, d2 FROM (SELECT vec_id, cl, d2,"
            " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl) AS rn"
            f" FROM d{t}) WHERE rn = 1)"
        )
        cte.append(
            f"c{t} AS (SELECT a.cl, u.dim,"
            " CAST(sum(u.qv) AS BIGINT) // count(*) AS m"
            f" FROM a{t} a JOIN u ON u.vec_id = a.vec_id"
            " GROUP BY a.cl, u.dim)"
        )
    cte.append(
        "df AS (SELECT u.vec_id, c.cl,"
        " CAST(sum((u.qv - c.m) * (u.qv - c.m)) AS BIGINT) AS d2"
        f" FROM u JOIN c{iterations} c ON c.dim = u.dim"
        " GROUP BY u.vec_id, c.cl)"
    )
    return (
        "WITH "
        + ",\n     ".join(cte)
        + "\nSELECT vec_id, cl AS cluster, d2 FROM"
        " (SELECT vec_id, cl, d2,"
        " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl) AS rn"
        " FROM df) WHERE rn = 1"
    )


ORACLE_SQL["kmeans_clusters"] = _kmeans_sql(k=8, iterations=2)

# TPC-H Q3 shape over the synthetic tables: exact integer revenue
# units (cents × (100 − discount%)), deterministic top-10
ORACLE_SQL["q3_shipping_priority"] = """
WITH li AS (
  SELECT l_orderkey,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
           * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)) AS rev
  FROM lineitem
  WHERE l_shipdate > TIMESTAMP '1998-01-01'
),
rev AS (
  SELECT l_orderkey, CAST(sum(rev) AS BIGINT) AS revenue_units
  FROM li GROUP BY l_orderkey
),
o AS (
  SELECT o_orderkey, epoch_us(o_orderdate) AS o_orderdate_us,
         o_orderpriority
  FROM orders JOIN customer ON c_custkey = o_custkey
  WHERE c_mktsegment = 'BUILDING'
    AND o_orderdate < TIMESTAMP '1998-01-01'
),
j AS (
  SELECT r.l_orderkey, r.revenue_units, o.o_orderdate_us, o.o_orderpriority
  FROM rev r JOIN o ON o.o_orderkey = r.l_orderkey
)
SELECT l_orderkey, revenue_units,
       CAST(o_orderdate_us AS BIGINT) AS o_orderdate_us, o_orderpriority,
       CAST(row_number() OVER (
         ORDER BY revenue_units DESC, o_orderdate_us, l_orderkey
       ) AS BIGINT) AS "rank"
FROM j
ORDER BY "rank" LIMIT 10
"""

# trending tokens: same tokenization class as top_tokens
# (regexp_extract_all on the token class = RE2 split on its complement)
ORACLE_SQL["trending_tokens"] = """
WITH tok AS (
  SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
         unnest(regexp_extract_all(props, '[A-Za-z0-9_]+')) AS token
  FROM events
),
c AS (
  SELECT window_start_us, token, count(*) AS n
  FROM tok GROUP BY 1, 2
),
r AS (
  SELECT window_start_us, token, n,
         row_number() OVER (
           PARTITION BY window_start_us ORDER BY n DESC, token
         ) AS rk
  FROM c
)
SELECT CAST(window_start_us AS BIGINT) AS window_start_us, token,
       CAST(n AS BIGINT) AS n, CAST(rk AS BIGINT) AS "rank"
FROM r WHERE rk <= 5
"""

ORACLE_SQL["retention_cohorts"] = """
WITH w AS (
  SELECT DISTINCT user_id,
         (epoch_us(ts) // 86400000000) * 86400000000 AS day_us
  FROM events
),
f AS (SELECT user_id, min(day_us) AS cohort_us FROM w GROUP BY user_id)
SELECT CAST(f.cohort_us AS BIGINT) AS cohort_us,
       CAST((w.day_us - f.cohort_us) // 86400000000 AS BIGINT) AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM w JOIN f ON f.user_id = w.user_id
GROUP BY 1, 2
"""

ORACLE_SQL["user_revenue_pivot"] = """
WITH q AS (
  SELECT user_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(sum(CASE WHEN event_type = 'click' THEN cents ELSE 0 END)
            AS BIGINT) AS sum_click_cents,
       CAST(sum(CASE WHEN event_type = 'error' THEN cents ELSE 0 END)
            AS BIGINT) AS sum_error_cents,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN cents ELSE 0 END)
            AS BIGINT) AS sum_purchase_cents,
       CAST(sum(CASE WHEN event_type = 'signup' THEN cents ELSE 0 END)
            AS BIGINT) AS sum_signup_cents,
       CAST(sum(CASE WHEN event_type = 'view' THEN cents ELSE 0 END)
            AS BIGINT) AS sum_view_cents
FROM q GROUP BY user_id
"""

# dedup-rate report: digest identity = the normalized text itself in
# SQL (the hash-match gate certifies the md5-128 encoding, as in
# paragraph_dedup)
ORACLE_SQL["dedup_rate_by_lang"] = r"""
WITH n AS (
  SELECT lang,
         regexp_replace(regexp_replace(lower(text), '\s+', ' ', 'g'),
                        '^ | $', '', 'g') AS norm
  FROM documents
),
c AS (SELECT norm, count(*) AS s FROM n GROUP BY norm)
SELECT n.lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN c.s > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dup_docs
FROM n JOIN c ON c.norm = n.norm
GROUP BY n.lang
"""

# novelty: shingle identity = the 5-gram text in SQL, the rolling
# 64-bit hash in the engine (same certified equivalence as the n-gram
# pair family); documents with < 5 tokens emit nothing in both engines
ORACLE_SQL["novelty_scores"] = """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS w
  FROM documents
),
idx AS (
  SELECT doc_id, w, unnest(generate_series(1, len(w) - 4)) AS i
  FROM tok WHERE len(w) >= 5
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+4], chr(31)) AS s FROM idx
),
df AS (SELECT s, count(*) AS d FROM sh GROUP BY s)
SELECT sh.doc_id,
       CAST(count(*) AS BIGINT) AS n_shingles,
       CAST(sum(CASE WHEN df.d = 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_unique
FROM sh JOIN df ON df.s = sh.s
GROUP BY sh.doc_id
"""

# within-session funnel: sessionization convention identical to
# events_sessions (gap > 30 min, ties by event_id); converted = first
# signup strictly before first purchase inside the session (NULL mins
# fall to the ELSE 0)
ORACLE_SQL["session_funnel"] = """
WITH e AS (
  SELECT user_id, event_id, event_type, epoch_us(ts) AS ts_us,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_us
  FROM events
),
s AS (
  SELECT user_id, event_id, event_type, ts_us,
         CAST(sum(CASE WHEN prev_us IS NULL OR ts_us - prev_us > 1800000000
                       THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY ts_us, event_id)
              AS BIGINT) AS session_id
  FROM e
)
SELECT CAST(user_id AS BIGINT) AS user_id, session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(COALESCE(
         min(CASE WHEN event_type = 'signup' THEN ts_us END) <
         min(CASE WHEN event_type = 'purchase' THEN ts_us END), FALSE)
         AS BIGINT) AS converted
FROM s GROUP BY user_id, session_id
"""

# repo-overlap matrix: distinct contents shared per unordered repo pair
ORACLE_SQL["repo_overlap_pairs"] = f"""
{_D_SQL},
h AS (SELECT DISTINCT repo, sha256 FROM d)
SELECT a.repo AS repo_a, b.repo AS repo_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM h a JOIN h b ON a.sha256 = b.sha256 AND a.repo < b.repo
GROUP BY a.repo, b.repo
"""

# hot-content report: contents vendored into >=2 distinct repos
ORACLE_SQL["vendored_content"] = f"""
{_D_SQL}
SELECT sha256,
       CAST(count(DISTINCT repo) AS BIGINT) AS n_repos,
       CAST(count(*) AS BIGINT) AS n_files,
       CAST(min(size) AS BIGINT) AS size,
       CAST(min(size) * (count(*) - 1) AS BIGINT) AS wasted_bytes
FROM d GROUP BY sha256
HAVING count(DISTINCT repo) >= 2
"""

# duplicate directories: md5 over the sorted member-sha multiset; only
# fingerprints shared by >=2 directories survive, members exploded
ORACLE_SQL["dup_dir_groups"] = f"""
{_D_SQL},
f AS (SELECT repo, regexp_replace(path, '/[^/]*$', '') AS dir, sha256 FROM d),
g AS (SELECT repo, dir,
             md5(string_agg(sha256, ',' ORDER BY sha256)) AS dir_hash,
             CAST(count(*) AS BIGINT) AS n_files
      FROM f GROUP BY repo, dir)
SELECT dir_hash, repo, dir, n_files
FROM g
WHERE dir_hash IN (SELECT dir_hash FROM g GROUP BY dir_hash HAVING count(*) > 1)
"""

# TPC-H Q5 shape: ASIA-region 1995 revenue per nation, customer and
# supplier in the SAME nation; revenue on the exact cent lattice
ORACLE_SQL["q5_supplier_volume"] = """
SELECT n_name,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)))
            AS BIGINT) AS revenue_units
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1995-01-01'
  AND o_orderdate < TIMESTAMP '1996-01-01'
GROUP BY n_name
"""

# boilerplate mining: top-15 repeated non-empty lines in code content
ORACLE_SQL["boilerplate_lines"] = f"""
WITH code_files AS ({CODE_FILES_SQL}),
l AS (
  SELECT unnest(string_split(content, chr(10))) AS line FROM code_files
),
c AS (SELECT line, CAST(count(*) AS BIGINT) AS n
      FROM l WHERE line <> '' GROUP BY 1),
r AS (
  SELECT line, n,
         CAST(row_number() OVER (ORDER BY n DESC, line) AS BIGINT) AS "rank"
  FROM c
)
SELECT line, n, "rank" FROM r WHERE "rank" <= 15
"""

# fork detection: containment of shared distinct contents vs the
# smaller repo, on the integer ppm lattice (// truncates; all positive)
ORACLE_SQL["fork_candidates"] = f"""
{_D_SQL},
h AS (SELECT DISTINCT repo, sha256 FROM d),
rc AS (SELECT repo, CAST(count(*) AS BIGINT) AS n_contents FROM h GROUP BY 1),
ov AS (
  SELECT a.repo AS repo_a, b.repo AS repo_b,
         CAST(count(*) AS BIGINT) AS n_shared
  FROM h a JOIN h b ON a.sha256 = b.sha256 AND a.repo < b.repo
  GROUP BY a.repo, b.repo
)
SELECT ov.repo_a, ov.repo_b, ov.n_shared,
       ra.n_contents AS n_a, rb.n_contents AS n_b,
       CAST((ov.n_shared * 1000000) // least(ra.n_contents, rb.n_contents)
            AS BIGINT) AS containment_ppm
FROM ov
JOIN rc ra ON ra.repo = ov.repo_a
JOIN rc rb ON rb.repo = ov.repo_b
WHERE (ov.n_shared * 1000000) // least(ra.n_contents, rb.n_contents) >= 500000
"""

# dedup audit: duplicate share per size bucket (decimal digit count —
# exact in both engines, unlike float log2 buckets)
ORACLE_SQL["dup_rate_by_size"] = f"""
{_D_SQL},
m AS (SELECT size, count(*) OVER (PARTITION BY sha256) AS n FROM d),
b AS (SELECT CAST(length(CAST(size AS VARCHAR)) AS BIGINT) AS size_digits,
             CASE WHEN n > 1 THEN 1 ELSE 0 END AS is_dup
      FROM m)
SELECT size_digits, CAST(count(*) AS BIGINT) AS n_files,
       CAST(sum(is_dup) AS BIGINT) AS n_dup_files,
       CAST((sum(is_dup) * 1000000) // count(*) AS BIGINT) AS dup_rate_ppm
FROM b GROUP BY 1
"""

# near-dup cluster-size histogram over the same recursive-closure truth
# as near_dup_clusters
ORACLE_SQL["near_dup_cluster_hist"] = (
    "WITH RECURSIVE "
    + _NGRAM_CTES
    + """,
    e AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    ),
    lab AS (
      SELECT src AS file_id, least(src, min(dst)) AS component
      FROM reach GROUP BY src
    ),
    cs AS (SELECT component, CAST(count(*) AS BIGINT) AS cluster_size
           FROM lab GROUP BY 1)
    SELECT cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
    FROM cs GROUP BY 1
    """
)

# skew diagnostic: md5-prefix partitioner (replayable on any engine),
# per-partition load + heaviest key (ties lexicographic)
ORACLE_SQL["repo_skew_report"] = f"""
{_D_SQL},
b AS (SELECT CAST(('0x' || substr(md5(repo), 1, 8)) AS BIGINT) % 8 AS pid,
             repo
      FROM d),
c AS (SELECT pid, repo, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY 1, 2),
top AS (SELECT pid, repo, n,
               row_number() OVER (PARTITION BY pid ORDER BY n DESC, repo)
                 AS rn
        FROM c),
agg AS (SELECT pid, CAST(sum(n) AS BIGINT) AS n_rows,
               CAST(count(*) AS BIGINT) AS n_keys
        FROM c GROUP BY 1)
SELECT agg.pid AS partition_id, agg.n_rows, agg.n_keys,
       top.repo AS top_key, top.n AS top_key_n
FROM agg JOIN top ON top.pid = agg.pid AND top.rn = 1
"""

# snapshot diff: v2 = drop %11 files, '!'-mutate %7 texts, add %13 gen
# files; statuses via FULL OUTER on (repo, path), zero statuses omitted
ORACLE_SQL["code_snapshot_diff"] = f"""
WITH m AS (
  SELECT doc_id, lang,
         CASE WHEN doc_id % 7 = 0 THEN text || '!' ELSE text END AS text
  FROM documents WHERE doc_id % 11 <> 0
),
lf AS ({CODE_FILES_SQL}),
rf AS ({CODE_FILES_SQL.replace("FROM documents", "FROM m")}),
ra AS (
  SELECT 'org' || CAST(doc_id % 7 AS VARCHAR) || '/repo'
           || CAST(doc_id % 23 AS VARCHAR) AS repo,
         'gen/f' || CAST(doc_id AS VARCHAR) || '.gen' AS path,
         'GEN#' || CAST(doc_id AS VARCHAR) AS content
  FROM documents WHERE doc_id % 13 = 0
),
l AS (SELECT repo, path, sha256(content) AS sha FROM lf),
r AS (SELECT repo, path, sha256(content) AS sha FROM rf
      UNION ALL
      SELECT repo, path, sha256(content) FROM ra),
j AS (
  SELECT CASE WHEN l.sha IS NULL THEN 'added'
              WHEN r.sha IS NULL THEN 'removed'
              WHEN l.sha = r.sha THEN 'unchanged'
              ELSE 'changed' END AS status
  FROM l FULL OUTER JOIN r ON l.repo = r.repo AND l.path = r.path
)
SELECT status, CAST(count(*) AS BIGINT) AS n_keys FROM j GROUP BY 1
"""

# distinct blobs per repo — the salted-repartition skew breaker's twin
ORACLE_SQL["repo_distinct_contents"] = f"""
{_D_SQL}
SELECT repo, CAST(count(DISTINCT sha256) AS BIGINT) AS n_distinct
FROM d GROUP BY repo
"""

# skew-adaptive join: the salted routing is invisible to the result,
# so the twin is the plain join + rollup
ORACLE_SQL["skew_join_repo_bytes"] = f"""
{_D_SQL},
rb AS (SELECT repo, CAST(sum(size) AS BIGINT) AS repo_bytes
       FROM d GROUP BY repo)
SELECT d.lang,
       CAST(sum(rb.repo_bytes) AS BIGINT) AS total_repo_bytes,
       CAST(count(*) AS BIGINT) AS n_files
FROM d JOIN rb USING (repo)
GROUP BY d.lang
"""

# global row_number / sorted-neighborhood twins: Arrow's multi-key sort
# and DuckDB's ORDER BY both compare strings bytewise (binary
# collation), so the rank assignment is engine-identical
ORACLE_SQL["code_global_rank"] = f"""
{_D_SQL}
SELECT file_id,
       row_number() OVER (ORDER BY size, sha256, file_id) - 1 AS rnk
FROM d
"""

ORACLE_SQL["snm_candidate_pairs"] = f"""
{_D_SQL},
r AS (
  SELECT file_id,
         row_number() OVER (ORDER BY size, sha256, file_id) - 1 AS rnk
  FROM d
)
SELECT x.file_id AS a, y.file_id AS b, CAST(y.rnk - x.rnk AS BIGINT) AS dist
FROM r x JOIN r y ON y.rnk > x.rnk AND y.rnk <= x.rnk + 4
"""

# order-insensitive 60-bit-md5 wrap-sum checksum (mod 2^64)
ORACLE_SQL["code_table_fingerprint"] = f"""
{_D_SQL}
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       lower(lpad(hex(CAST(
         sum(CAST(('0x' || substr(md5(file_id || chr(31) || sha256), 1, 15))
                  AS BIGINT))
         % 18446744073709551616 AS UBIGINT)), 16, '0')) AS fingerprint
FROM d
"""

# Type-2 clones: RE2 normalization (identifier->ID, digits->N,
# whitespace stripped) is byte-identical in DuckDB (same regex engine),
# so sha256(normalized) hash-gates the clone detector end to end.
ORACLE_SQL["clone_groups_type2"] = f"""
WITH code_files AS ({CODE_FILES_SQL}),
norm AS (
  SELECT repo,
         repo || ':' || path || '@' || "commit" AS file_id,
         sha256(regexp_replace(regexp_replace(regexp_replace(content,
             '[A-Za-z_][A-Za-z0-9_]*', 'ID', 'g'),
             '[0-9]+', 'N', 'g'),
             '\\s+', '', 'g')) AS clone_id
  FROM code_files
)
SELECT clone_id,
       CAST(count(*) AS BIGINT) AS n_files,
       CAST(count(DISTINCT repo) AS BIGINT) AS n_repos,
       min(file_id) AS rep_file
FROM norm
GROUP BY clone_id
HAVING count(*) >= 2
"""

# Markov transition matrix: LAG ties broken by (ts, event_id), same
# order as the engine's lexsort((event_id, ts, user)).
ORACLE_SQL["event_transitions"] = """
WITH lagged AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS prev_type
  FROM events
)
SELECT prev_type AS from_type, event_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM lagged
WHERE prev_type IS NOT NULL
GROUP BY 1, 2
"""

# Fork families: recursive closure over the same containment-filtered
# pair CTEs as fork_candidates; family = least(repo, min reachable).
ORACLE_SQL["fork_families"] = (
    _D_SQL.replace("WITH code_files", "WITH RECURSIVE code_files", 1)
    + """,
h AS (SELECT DISTINCT repo, sha256 FROM d),
rc AS (SELECT repo, CAST(count(*) AS BIGINT) AS n_contents FROM h GROUP BY 1),
ov AS (
  SELECT a.repo AS repo_a, b.repo AS repo_b,
         CAST(count(*) AS BIGINT) AS n_shared
  FROM h a JOIN h b ON a.sha256 = b.sha256 AND a.repo < b.repo
  GROUP BY a.repo, b.repo
),
fp AS (
  SELECT ov.repo_a, ov.repo_b
  FROM ov
  JOIN rc ra ON ra.repo = ov.repo_a
  JOIN rc rb ON rb.repo = ov.repo_b
  WHERE (ov.n_shared * 1000000) // least(ra.n_contents, rb.n_contents)
        >= 500000
),
sym AS (SELECT repo_a AS a, repo_b AS b FROM fp
        UNION SELECT repo_b, repo_a FROM fp),
reach(src, dst) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
)
SELECT src AS repo, least(src, min(dst)) AS family
FROM reach GROUP BY src
"""
)

# du rollup: DuckDB builds the same ancestor set by slicing the
# split-path list at every depth short of the filename.
ORACLE_SQL["dir_rollup"] = f"""
{_D_SQL},
parts AS (SELECT repo, size, string_split(path, '/') AS p FROM d),
pref AS (
  SELECT repo, size, array_to_string(p[1:i], '/') AS dir
  FROM parts, UNNEST(generate_series(1, len(p) - 1)) AS t(i)
)
SELECT repo, dir, CAST(count(*) AS BIGINT) AS n_files,
       CAST(sum(size) AS BIGINT) AS total_bytes
FROM pref GROUP BY 1, 2
"""

# peak rate: tumbling 1-minute buckets; ties take the earliest bucket.
ORACLE_SQL["user_peak_rate"] = """
WITH c AS (
  SELECT user_id,
         (epoch_us(CAST(ts AS TIMESTAMP)) // 60000000) * 60000000
           AS bucket_us,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT user_id, bucket_us, n,
         row_number() OVER (
           PARTITION BY user_id ORDER BY n DESC, bucket_us
         ) AS rn
  FROM c
)
SELECT user_id, n AS peak_events, bucket_us AS peak_bucket_us
FROM r WHERE rn = 1
"""

# Q10 shape: same cent lattice as Q3; rank ties break on c_custkey.
ORACLE_SQL["q10_returned_items"] = """
WITH li AS (
  SELECT l_orderkey,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
           * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)) AS rev
  FROM lineitem WHERE l_returnflag = 'R'
),
rev AS (SELECT l_orderkey, CAST(sum(rev) AS BIGINT) AS rev
        FROM li GROUP BY 1),
o AS (SELECT o_orderkey, o_custkey FROM orders
      WHERE o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate < TIMESTAMP '1996-07-01'),
percust AS (
  SELECT o_custkey, CAST(sum(rev) AS BIGINT) AS revenue_units
  FROM rev JOIN o ON o_orderkey = l_orderkey GROUP BY 1
),
j AS (
  SELECT c_custkey, c_name, n_name, revenue_units
  FROM percust
  JOIN customer ON c_custkey = o_custkey
  JOIN nation ON n_nationkey = c_nationkey
)
SELECT c_custkey, c_name, n_name, revenue_units,
       CAST(row_number() OVER (
         ORDER BY revenue_units DESC, c_custkey
       ) AS BIGINT) AS "rank"
FROM j ORDER BY "rank" LIMIT 20
"""

# Gini on the exact ppm lattice: DuckDB's HUGEINT sums mirror the
# engine's Python-int reduce; // truncates identically (non-negative).
ORACLE_SQL["repo_size_gini"] = f"""
{_D_SQL},
rt AS (SELECT repo, CAST(sum(size) AS BIGINT) AS bytes FROM d GROUP BY 1),
rk AS (SELECT repo, bytes,
              row_number() OVER (ORDER BY bytes, repo) AS r,
              count(*) OVER () AS n,
              sum(bytes) OVER () AS tot
       FROM rt)
SELECT CAST(max(n) AS BIGINT) AS n_repos,
       CAST(max(tot) AS BIGINT) AS total_bytes,
       CAST((1000000 * (2 * sum(r * bytes) - (max(n) + 1) * max(tot)))
            // (max(n) * max(tot)) AS BIGINT) AS gini_ppm
FROM rk
"""

# integrity audit: NOT EXISTS twins of the two anti-joins
ORACLE_SQL["integrity_audit"] = """
SELECT
  (SELECT CAST(count(*) AS BIGINT) FROM orders o
   WHERE NOT EXISTS (SELECT 1 FROM customer c
                     WHERE c.c_custkey = o.o_custkey)) AS orphan_orders,
  (SELECT CAST(count(*) AS BIGINT) FROM lineitem l
   WHERE NOT EXISTS (SELECT 1 FROM orders o
                     WHERE o.o_orderkey = l.l_orderkey)) AS orphan_lineitems
"""

# session co-occurrence: same session CTE as events_sessions, then a
# distinct-type self-join per session with type_a < type_b.
ORACLE_SQL["session_cooccurrence"] = """
WITH e AS (
  SELECT user_id, event_id, event_type, epoch_us(ts) AS ts_us,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_us
  FROM events
),
s AS (
  SELECT user_id, event_type,
         CAST(sum(CASE WHEN prev_us IS NULL OR ts_us - prev_us > 1800000000
                       THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY ts_us, event_id)
              AS BIGINT) AS session_id
  FROM e
),
d AS (SELECT DISTINCT user_id, session_id, event_type FROM s)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_sessions
FROM d a
JOIN d b ON a.user_id = b.user_id AND a.session_id = b.session_id
        AND a.event_type < b.event_type
GROUP BY 1, 2
"""

# executive dedup summary: per-sha group stats folded to five scalars
ORACLE_SQL["dedup_summary"] = f"""
{_D_SQL},
g AS (SELECT sha256, CAST(count(*) AS BIGINT) AS n,
             CAST(min(size) AS BIGINT) AS size
      FROM d GROUP BY 1)
SELECT CAST(sum(n) AS BIGINT) AS total_files,
       CAST(count(*) AS BIGINT) AS distinct_contents,
       CAST(sum(CASE WHEN n > 1 THEN 1 ELSE 0 END) AS BIGINT) AS dup_groups,
       CAST(sum(CASE WHEN n > 1 THEN n ELSE 0 END) AS BIGINT) AS dup_files,
       CAST(sum((n - 1) * size) AS BIGINT) AS reclaimable_bytes
FROM g
"""

# TPC-H Q4-shaped: 1996-Q1 orders with >=1 returned line, per priority
ORACLE_SQL["q4_order_priority"] = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
FROM orders o
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1996-04-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY 1
"""

# TPC-H Q6: exact cent x percent lattice revenue delta
ORACLE_SQL["q6_forecast_revenue"] = """
SELECT CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
               * CAST(floor(l_discount * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_cp,
       CAST(count(*) AS BIGINT) AS n_lines
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND CAST(floor(l_discount * 100 + 0.5) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""

# TPC-H Q12-shaped: 1996-shipped line counts per return flag, split by
# order priority class
ORACLE_SQL["q12_priority_lines"] = """
SELECT l_returnflag,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_lines,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_lines
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY 1
"""

# TPC-H Q14: PROMO revenue share for 1996-09, ppm on the integer
# lattice (HUGEINT product; // truncates, both operands positive)
ORACLE_SQL["q14_promo_revenue"] = """
WITH m AS (
  SELECT CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
         * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)) AS rev,
         p_type
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE l_shipdate >= TIMESTAMP '1996-09-01'
    AND l_shipdate < TIMESTAMP '1996-10-01'
),
s AS (
  SELECT CAST(sum(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 END)
              AS HUGEINT) AS promo,
         CAST(sum(rev) AS HUGEINT) AS total
  FROM m
)
SELECT CAST(promo AS BIGINT) AS promo_revenue_cp,
       CAST(total AS BIGINT) AS total_revenue_cp,
       CAST((promo * 1000000) // total AS BIGINT) AS promo_ppm
FROM s
"""

# TPC-H Q18: top-100 orders by total quantity > 200, deterministic cut
# (unique orderkey tiebreak)
ORACLE_SQL["q18_large_orders"] = """
WITH q AS (
  SELECT l_orderkey,
         CAST(sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT)
           AS total_qty
  FROM lineitem GROUP BY 1 HAVING total_qty > 200
)
SELECT c_name, o_orderkey, total_qty,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS o_totalprice_cents
FROM q
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
ORDER BY o_totalprice_cents DESC, o_orderkey
LIMIT 100
"""

# TPC-H Q1: pricing summary on the integer lattice (qty half-up, base
# cents, disc cent×pct, charge cent×pct×pct); HUGEINT sums cast back
ORACLE_SQL["q1_pricing_summary"] = """
WITH m AS (
  SELECT l_returnflag, l_linestatus,
         CAST(floor(l_quantity + 0.5) AS BIGINT) AS qty,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS base,
         100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS keep_pct,
         100 + CAST(floor(l_tax * 100 + 0.5) AS BIGINT) AS tax_pct
  FROM lineitem
  WHERE l_shipdate <= TIMESTAMP '1998-09-02'
)
SELECT l_returnflag, l_linestatus,
       CAST(sum(qty) AS BIGINT) AS sum_qty,
       CAST(sum(base) AS BIGINT) AS sum_base_cents,
       CAST(sum(base * keep_pct) AS BIGINT) AS sum_disc_cp,
       CAST(sum(base * keep_pct * tax_pct) AS BIGINT) AS sum_charge_cpp,
       CAST(count(*) AS BIGINT) AS n_lines
FROM m
GROUP BY 1, 2
"""

# TPC-H Q7-shaped: revenue per (supp_nation → cust_nation, ship year),
# all distinct directed nation pairs, 1995–1996
ORACLE_SQL["q7_nation_volume"] = """
WITH l AS (
  SELECT l_orderkey,
         CAST(year(l_shipdate) AS BIGINT) AS l_year,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
           * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)) AS rev,
         sn.n_name AS supp_nation
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation sn ON sn.n_nationkey = s_nationkey
  WHERE l_shipdate >= TIMESTAMP '1995-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
)
SELECT supp_nation, cn.n_name AS cust_nation, l_year,
       CAST(sum(rev) AS BIGINT) AS revenue_cp
FROM l
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation cn ON cn.n_nationkey = c_nationkey
WHERE supp_nation <> cn.n_name
GROUP BY 1, 2, 3
"""

# TPC-H Q8-shaped: EUROPE-supplier share of ASIA-market ECONOMY-part
# revenue per order year; ppm on HUGEINT (// truncates, both positive)
ORACLE_SQL["q8_market_share"] = """
WITH l AS (
  SELECT l_orderkey,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
           * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)) AS rev,
         CASE WHEN sr.r_name = 'EUROPE' THEN 1 ELSE 0 END AS eu
  FROM lineitem
  JOIN part ON p_partkey = l_partkey AND p_type = 'ECONOMY'
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation sn ON sn.n_nationkey = s_nationkey
  JOIN region sr ON sr.r_regionkey = sn.n_regionkey
),
o AS (
  SELECT o_orderkey, CAST(year(o_orderdate) AS BIGINT) AS o_year
  FROM orders
  JOIN customer ON c_custkey = o_custkey
  JOIN nation cn ON cn.n_nationkey = c_nationkey
  JOIN region cr ON cr.r_regionkey = cn.n_regionkey
  WHERE cr.r_name = 'ASIA'
    AND o_orderdate >= TIMESTAMP '1995-01-01'
    AND o_orderdate < TIMESTAMP '1997-01-01'
),
y AS (
  SELECT o_year, CAST(sum(rev) AS HUGEINT) AS total,
         CAST(sum(rev * eu) AS HUGEINT) AS eu
  FROM l JOIN o ON o_orderkey = l_orderkey
  GROUP BY 1
)
SELECT o_year,
       CAST(total AS BIGINT) AS total_revenue_cp,
       CAST(eu AS BIGINT) AS europe_revenue_cp,
       CAST((eu * 1000000) // total AS BIGINT) AS europe_share_ppm
FROM y
"""

# TPC-H Q13-shaped: customer count per non-urgent order count,
# including the zero-order bucket (LEFT JOIN with the filter in the
# join condition)
ORACLE_SQL["q13_order_distribution"] = """
WITH c AS (
  SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS n_orders
  FROM customer
  LEFT JOIN orders
    ON o_custkey = c_custkey AND o_orderpriority <> '1-URGENT'
  GROUP BY 1
)
SELECT n_orders, CAST(count(*) AS BIGINT) AS n_custs
FROM c
GROUP BY 1
"""

# TPC-H Q15: top supplier(s) by 1996-Q1 revenue, every tie survives
ORACLE_SQL["q15_top_supplier"] = """
WITH r AS (
  SELECT l_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                  * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)))
              AS BIGINT) AS total_revenue_cp
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY 1
)
SELECT s_suppkey, s_name, total_revenue_cp
FROM r JOIN supplier ON s_suppkey = l_suppkey
WHERE total_revenue_cp = (SELECT max(total_revenue_cp) FROM r)
"""

# TPC-H Q17-shaped: revenue of small-quantity Brand#1 small-part lines;
# the 20%-of-avg predicate exact via cross-multiply 5·q·n < Σq
ORACLE_SQL["q17_small_qty_revenue"] = """
WITH pk AS (
  SELECT p_partkey FROM part WHERE p_brand = 'Brand#1' AND p_size <= 10
),
l AS (
  SELECT l_partkey,
         CAST(floor(l_quantity + 0.5) AS BIGINT) AS q,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS price_c
  FROM lineitem JOIN pk ON l_partkey = p_partkey
),
s AS (
  SELECT l_partkey, CAST(sum(q) AS BIGINT) AS sq,
         CAST(count(*) AS BIGINT) AS n
  FROM l GROUP BY 1
)
SELECT COALESCE(CAST(sum(price_c) AS BIGINT), 0)
         AS small_qty_revenue_cents,
       CAST(count(*) AS BIGINT) AS n_lines
FROM l JOIN s USING (l_partkey)
WHERE 5 * q * n < sq
"""

# TPC-H Q19-shaped: OR-ed (brand, size, quantity) bracket revenue
ORACLE_SQL["q19_bracket_revenue"] = """
WITH m AS (
  SELECT CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
           * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)) AS rev,
         CAST(floor(l_quantity + 0.5) AS BIGINT) AS qty,
         p_brand, p_size
  FROM lineitem JOIN part ON p_partkey = l_partkey
)
SELECT COALESCE(CAST(sum(rev) AS BIGINT), 0) AS bracket_revenue_cp,
       CAST(count(*) AS BIGINT) AS n_lines
FROM m
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 5
       AND qty BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 10
       AND qty BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 15
       AND qty BETWEEN 20 AND 30)
"""

# TPC-H Q21-shaped: sole-fault suppliers on finalized multi-supplier
# orders (returned flag stands in for the late-delivery predicate)
ORACLE_SQL["q21_waiting_suppliers"] = """
WITH ls AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS ret
  FROM lineitem
  GROUP BY 1, 2
),
o AS (
  SELECT l_orderkey, count(*) AS n_supp, sum(ret) AS n_ret
  FROM ls
  JOIN orders ON o_orderkey = l_orderkey AND o_orderstatus = 'F'
  GROUP BY 1
)
SELECT s_name, s_suppkey, CAST(count(*) AS BIGINT) AS numwait
FROM ls
JOIN o USING (l_orderkey)
JOIN supplier ON s_suppkey = l_suppkey
WHERE ls.ret = 1 AND o.n_supp >= 2 AND o.n_ret = 1
GROUP BY 1, 2
"""

# TPC-H Q22-shaped: lapsed high-balance customers per segment; the
# avg comparison is the exact cross-multiply bal*n > tot on HUGEINT
ORACLE_SQL["q22_lapsed_balances"] = """
WITH seg AS (
  SELECT c_custkey, c_mktsegment,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bal_c
  FROM customer
  WHERE c_mktsegment IN ('AUTOMOBILE', 'FURNITURE', 'MACHINERY')
),
st AS (
  SELECT CAST(sum(CASE WHEN bal_c > 0 THEN bal_c ELSE 0 END) AS HUGEINT)
           AS tot,
         CAST(sum(CASE WHEN bal_c > 0 THEN 1 ELSE 0 END) AS HUGEINT) AS n
  FROM seg
)
SELECT c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_custs,
       CAST(sum(bal_c) AS BIGINT) AS total_balance_cents
FROM seg, st
WHERE CAST(bal_c AS HUGEINT) * n > tot
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = seg.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '1999-01-01')
GROUP BY 1
"""

# TPC-H Q2-shaped: min-price EUROPE supplier per STANDARD small part,
# all ties survive; lineitem stands in for partsupp
ORACLE_SQL["q2_min_cost_supplier"] = """
WITH eu AS (
  SELECT s_suppkey, s_name, n_name,
         CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) AS bal_c
  FROM supplier
  JOIN nation ON n_nationkey = s_nationkey
  JOIN region ON r_regionkey = n_regionkey
  WHERE r_name = 'EUROPE'
),
pk AS (
  SELECT p_partkey, p_name FROM part
  WHERE p_type = 'STANDARD' AND p_size <= 15
),
pairs AS (
  SELECT l_partkey, l_suppkey,
         CAST(min(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS min_price_cents
  FROM lineitem
  JOIN pk ON p_partkey = l_partkey
  JOIN eu ON eu.s_suppkey = l_suppkey
  GROUP BY 1, 2
),
pm AS (
  SELECT l_partkey, min(min_price_cents) AS part_min FROM pairs GROUP BY 1
)
SELECT bal_c AS s_acctbal_cents, s_name, n_name,
       pairs.l_partkey AS p_partkey, p_name, min_price_cents
FROM pairs
JOIN pm ON pm.l_partkey = pairs.l_partkey AND min_price_cents = part_min
JOIN eu ON eu.s_suppkey = pairs.l_suppkey
JOIN pk ON pk.p_partkey = pairs.l_partkey
"""

# TPC-H Q9-shaped: per-(nation, year) profit on red parts; retailprice
# stands in for supplycost; cost cents x100 to match the cents x pct
# revenue lattice
ORACLE_SQL["q9_nation_profit"] = """
WITH pk AS (
  SELECT p_partkey,
         CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT) AS retail_c
  FROM part WHERE p_name LIKE 'red%'
),
l AS (
  SELECT l_orderkey, n_name AS nation,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
           * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT))
           - retail_c * CAST(floor(l_quantity + 0.5) AS BIGINT) * 100
           AS amount
  FROM lineitem
  JOIN pk ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
)
SELECT nation, CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(amount) AS BIGINT) AS profit_cp
FROM l JOIN orders ON o_orderkey = l_orderkey
GROUP BY 1, 2
"""

# TPC-H Q11-shaped: parts whose NATION_3 shipped value exceeds 1/1000
# of the nation total; the threshold is the exact integer equivalent
# value*1000 > tot <=> value > tot // 1000
ORACLE_SQL["q11_important_parts"] = """
WITH v AS (
  SELECT l_partkey,
         CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                  * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)))
              AS BIGINT) AS value_cp
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  WHERE n_name = 'NATION_3'
  GROUP BY 1
)
SELECT l_partkey, value_cp
FROM v
WHERE CAST(value_cp AS HUGEINT) * 1000 > (SELECT CAST(sum(value_cp) AS HUGEINT) FROM v)
"""

# TPC-H Q16-shaped: distinct suppliers per (brand, type, size) over
# the observed lineitem part-supplier relation, with brand/type/size
# and negative-balance supplier exclusions
ORACLE_SQL["q16_supplier_counts"] = """
WITH ps AS (
  SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
),
attrs AS (
  SELECT p_partkey, p_brand, p_type, CAST(p_size AS BIGINT) AS p_size
  FROM part
  WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
    AND p_size IN (1, 5, 10, 15, 20, 25)
),
ok AS (
  SELECT s_suppkey FROM supplier WHERE s_acctbal >= 0
)
SELECT p_brand, p_type, p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM ps
JOIN attrs ON p_partkey = l_partkey
JOIN ok ON ok.s_suppkey = l_suppkey
GROUP BY 1, 2, 3
"""

# TPC-H Q20-shaped: AFRICA suppliers whose 1996 shipped qty of small
# parts beats the region average; qty*n > tot exactly as HUGEINT
ORACLE_SQL["q20_volume_suppliers"] = """
WITH pk AS (
  SELECT p_partkey FROM part WHERE p_name LIKE 'small%'
),
af AS (
  SELECT s_suppkey, s_name
  FROM supplier
  JOIN nation ON n_nationkey = s_nationkey
  JOIN region ON r_regionkey = n_regionkey
  WHERE r_name = 'AFRICA'
),
q AS (
  SELECT l_suppkey,
         CAST(sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT)
           AS shipped_qty
  FROM lineitem
  JOIN pk ON p_partkey = l_partkey
  JOIN af ON af.s_suppkey = l_suppkey
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
  GROUP BY 1
),
st AS (
  SELECT CAST(sum(shipped_qty) AS HUGEINT) AS tot,
         CAST(count(*) AS HUGEINT) AS n
  FROM q
)
SELECT s_suppkey, s_name, shipped_qty
FROM q
JOIN af ON af.s_suppkey = q.l_suppkey, st
WHERE CAST(shipped_qty AS HUGEINT) * n > tot
"""

# PPJoin reaches the same exact >= tau pair set as the LSH+verify
# flagship, so it shares the brute-force truth SQL verbatim
ORACLE_SQL["ppjoin_pairs"] = ORACLE_SQL["near_dup_pairs"]

ORACLE_SQL["events_anomalous_hours"] = """
WITH c AS (
  SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS hour_us,
         CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1
),
b AS (SELECT min(hour_us) AS lo, max(hour_us) AS hi FROM c),
h AS (
  SELECT CAST(b.lo + 3600000000 * t.x AS BIGINT) AS hour_us
  FROM b,
       unnest(generate_series(0, CAST((b.hi - b.lo) // 3600000000 AS BIGINT)))
         AS t(x)
),
dense AS (
  SELECT h.hour_us, CAST(COALESCE(c.n_events, 0) AS BIGINT) AS n_events
  FROM h LEFT JOIN c USING (hour_us)
),
st AS (
  SELECT CAST(count(*) AS HUGEINT) AS nh,
         CAST(sum(n_events) AS HUGEINT) AS s,
         sum(CAST(n_events AS HUGEINT) * n_events) AS q
  FROM dense
)
SELECT d.hour_us, d.n_events
FROM dense d, st
WHERE st.nh * d.n_events - st.s > 0
  AND (st.nh * d.n_events - st.s) * (st.nh * d.n_events - st.s)
      > 9 * (st.nh * st.q - st.s * st.s)
"""

ORACLE_SQL["daily_new_users"] = """
WITH f AS (
  SELECT user_id,
         min((epoch_us(ts) // 86400000000) * 86400000000) AS day_us
  FROM events GROUP BY user_id
),
d AS (SELECT day_us, CAST(count(*) AS BIGINT) AS n_new_users FROM f GROUP BY 1)
SELECT CAST(day_us AS BIGINT) AS day_us, n_new_users,
       CAST(SUM(n_new_users) OVER (ORDER BY day_us) AS BIGINT) AS cum_users
FROM d
"""

# CMS estimates for the exact top-20 tokens equal their exact counts
# when the sketch width is non-binding (documented assumption; the
# collision regime is separately bound-gated in tests/test_cms.py)
ORACLE_SQL["cms_point_counts"] = """
WITH tok AS (
  SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS token
  FROM documents
),
c AS (SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY 1),
r AS (
  SELECT token, n,
         row_number() OVER (ORDER BY n DESC, token) AS rk
  FROM c
)
SELECT token, n AS est_n FROM r WHERE rk <= 20
"""


def _pq_ctes(dim: int, m: int, k: int, iterations: int) -> list[str]:
    """Shared CTE chain for the PQ twins: the `_kmeans_sql` chain
    instantiated once per subspace over a dim-sliced (re-based) view of
    the quantized vectors; per subspace j the final assignment CTE is
    ``f{j}`` (vec_id, cl, d2) and the final centroids are
    ``c{j}_{iterations}``."""
    sub = dim // m
    cte = [
        "u AS (SELECT CAST(vec_id AS BIGINT) AS vec_id,"
        " CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,"
        " CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)"
        " AS BIGINT) AS qv FROM embeddings)",
        "seed AS (SELECT vec_id,"
        " CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cl"
        f" FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k}))",
    ]
    for j in range(m):
        lo, hi = j * sub, (j + 1) * sub
        cte.append(
            f"u{j} AS (SELECT vec_id, dim - {lo} AS dim, qv FROM u"
            f" WHERE dim >= {lo} AND dim < {hi})"
        )
        cte.append(
            f"c{j}_0 AS (SELECT s.cl, u.dim, u.qv AS m"
            f" FROM seed s JOIN u{j} u ON u.vec_id = s.vec_id)"
        )
        for t in range(1, iterations + 1):
            cte.append(
                f"d{j}_{t} AS (SELECT u.vec_id, c.cl,"
                " CAST(sum((u.qv - c.m) * (u.qv - c.m)) AS BIGINT) AS d2"
                f" FROM u{j} u JOIN c{j}_{t - 1} c ON c.dim = u.dim"
                " GROUP BY u.vec_id, c.cl)"
            )
            cte.append(
                f"a{j}_{t} AS (SELECT vec_id, cl, d2 FROM"
                " (SELECT vec_id, cl, d2,"
                " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl)"
                f" AS rn FROM d{j}_{t}) WHERE rn = 1)"
            )
            cte.append(
                f"c{j}_{t} AS (SELECT a.cl, u.dim,"
                " CAST(sum(u.qv) AS BIGINT) // count(*) AS m"
                f" FROM a{j}_{t} a JOIN u{j} u ON u.vec_id = a.vec_id"
                " GROUP BY a.cl, u.dim)"
            )
        cte.append(
            f"df{j} AS (SELECT u.vec_id, c.cl,"
            " CAST(sum((u.qv - c.m) * (u.qv - c.m)) AS BIGINT) AS d2"
            f" FROM u{j} u JOIN c{j}_{iterations} c ON c.dim = u.dim"
            " GROUP BY u.vec_id, c.cl)"
        )
        cte.append(
            f"f{j} AS (SELECT vec_id, cl, d2 FROM (SELECT vec_id, cl, d2,"
            " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl) AS rn"
            f" FROM df{j}) WHERE rn = 1)"
        )
    return cte


def _pq_sql(dim: int, m: int, k: int, iterations: int) -> str:
    """Chained-CTE twin of `stages.pq.pq_encode`: per-subspace final
    codes joined on vec_id with the summed lattice quantization
    error."""
    cte = _pq_ctes(dim, m, k, iterations)
    codes = ", ".join(f"f{j}.cl AS code_{j}" for j in range(m))
    qerr = " + ".join(f"f{j}.d2" for j in range(m))
    joins = " ".join(f"JOIN f{j} ON f{j}.vec_id = f0.vec_id" for j in range(1, m))
    return (
        "WITH "
        + ",\n     ".join(cte)
        + f"\nSELECT f0.vec_id, {codes}, CAST({qerr} AS BIGINT) AS qerr"
        + f" FROM f0 {joins}"
    )


def _pq_adc_sql(
    dim: int, m: int, k: int, iterations: int, query_ids: list[int], topk: int
) -> str:
    """Chained-CTE twin of `stages.pq.pq_adc_topk`: per-subspace LUTs
    = exact int64 squared distances from each query's dim slice to the
    final centroids; adc distance = sum of one LUT lookup per code;
    rank via ROW_NUMBER (adc_d2, vec_id)."""
    sub = dim // m
    cte = _pq_ctes(dim, m, k, iterations)
    ids = ", ".join(str(int(q)) for q in sorted(set(query_ids)))
    for j in range(m):
        lo, hi = j * sub, (j + 1) * sub
        cte.append(
            f"lut{j} AS (SELECT q.vec_id AS qid, c.cl,"
            " CAST(sum((q.qv - c.m) * (q.qv - c.m)) AS BIGINT) AS d"
            f" FROM (SELECT vec_id, dim - {lo} AS dim, qv FROM u"
            f" WHERE vec_id IN ({ids}) AND dim >= {lo} AND dim < {hi}) q"
            f" JOIN c{j}_{iterations} c ON c.dim = q.dim GROUP BY 1, 2)"
        )
    lut_joins = ["JOIN lut0 l0 ON l0.cl = f0.cl"]
    for j in range(1, m):
        lut_joins.append(f"JOIN lut{j} l{j} ON l{j}.cl = f{j}.cl AND l{j}.qid = l0.qid")
    f_joins = " ".join(f"JOIN f{j} ON f{j}.vec_id = f0.vec_id" for j in range(1, m))
    dsum = " + ".join(f"l{j}.d" for j in range(m))
    cte.append(
        "dist AS (SELECT l0.qid AS query_id, f0.vec_id,"
        f" CAST({dsum} AS BIGINT) AS adc_d2"
        f" FROM f0 {f_joins} {' '.join(lut_joins)})"
    )
    return (
        "WITH "
        + ",\n     ".join(cte)
        + "\nSELECT query_id, vec_id, adc_d2, CAST(rn AS BIGINT) AS rank FROM"
        " (SELECT query_id, vec_id, adc_d2,"
        " row_number() OVER (PARTITION BY query_id ORDER BY adc_d2, vec_id)"
        f" AS rn FROM dist) WHERE rn <= {topk}"
    )


ORACLE_SQL["pq_codes"] = _pq_sql(dim=64, m=2, k=8, iterations=2)
ORACLE_SQL["pq_adc_topk"] = _pq_adc_sql(
    dim=64, m=2, k=8, iterations=2, query_ids=[0, 1, 2, 3], topk=10
)

ORACLE_SQL["inactive_users"] = """
WITH u AS (
  SELECT CAST(user_id AS BIGINT) AS user_id,
         CAST(max(epoch_us(ts)) AS BIGINT) AS last_ts_us
  FROM events GROUP BY 1
),
m AS (SELECT max(last_ts_us) AS mx FROM u)
SELECT u.user_id, u.last_ts_us
FROM u, m
WHERE u.last_ts_us < m.mx - 21600000000
"""

ORACLE_SQL["events_hourly_autocorr"] = """
WITH c AS (
  SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS hour_us,
         CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1
),
b AS (SELECT min(hour_us) AS lo, max(hour_us) AS hi FROM c),
h AS (
  SELECT CAST(b.lo + 3600000000 * t.x AS BIGINT) AS hour_us
  FROM b,
       unnest(generate_series(0, CAST((b.hi - b.lo) // 3600000000 AS BIGINT)))
         AS t(x)
),
dense AS (
  SELECT h.hour_us, CAST(COALESCE(c.n_events, 0) AS BIGINT) AS n_events
  FROM h LEFT JOIN c USING (hour_us)
),
lagged AS (
  SELECT n_events AS x,
         lead(n_events) OVER (ORDER BY hour_us) AS y
  FROM dense
),
t AS (SELECT CAST(x AS BIGINT) AS x, CAST(y AS BIGINT) AS y
      FROM lagged WHERE y IS NOT NULL),
s AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy,
         CAST(sum(x * y) AS BIGINT) AS sxy
  FROM t
),
p AS (
  SELECT n,
         CAST(n AS DOUBLE) * sxy - CAST(sx AS DOUBLE) * sy AS cov,
         CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx AS vx,
         CAST(n AS DOUBLE) * syy - CAST(sy AS DOUBLE) * sy AS vy
  FROM s
)
SELECT CAST(1 AS BIGINT) AS lag, n AS n_rows,
       CAST(floor((CASE WHEN sqrt(vx * vy) > 0
                        THEN cov / sqrt(vx * vy) ELSE 0.0 END)
                  * 1000000 + 0.5) AS BIGINT) AS corr_micro
FROM p
"""


def _bm25_sql(terms: list[str], topk: int) -> str:
    """Twin of stages/ir.py:bm25_topk — the SAME double expression
    tree, literal for literal ((1.2 + 1.0), not 2.2: they differ in
    the last ulp), ranked on the half-up micro-quantized score."""
    tf_cols = ",\n         ".join(
        f"CAST(len(list_filter(w, x -> x = '{t}')) AS BIGINT) AS tf{j}"
        for j, t in enumerate(terms)
    )
    df_cols = ",\n         ".join(
        f"CAST(sum(CASE WHEN tf{j} > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df{j}"
        for j in range(len(terms))
    )
    score_terms = " + ".join(
        f"(ln(1.0 + (CAST(g.n AS DOUBLE) - g.df{j} + 0.5) / (g.df{j} + 0.5))"
        f" * (tf{j} * (1.2 + 1.0)))"
        f" / (tf{j} + 1.2 * ((1.0 - 0.75) + 0.75"
        " * (CAST(dl AS DOUBLE) / g.avgdl)))"
        for j in range(len(terms))
    )
    return f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS w
  FROM documents
),
t AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(len(w) AS BIGINT) AS dl,
         {tf_cols}
  FROM tok
),
g AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(dl) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS avgdl,
         {df_cols}
  FROM t
),
s AS (
  SELECT t.doc_id,
         CAST(floor(({score_terms}) * 1000000 + 0.5) AS BIGINT)
           AS score_micro
  FROM t, g
)
SELECT doc_id, score_micro, CAST(rn AS BIGINT) AS rank FROM (
  SELECT doc_id, score_micro,
         row_number() OVER (ORDER BY score_micro DESC, doc_id) AS rn
  FROM s WHERE score_micro > 0
) WHERE rn <= {topk}
"""


ORACLE_SQL["bm25_topk"] = _bm25_sql(["dup", "hash", "merge"], topk=20)

ORACLE_SQL["boolean_search"] = """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS w
  FROM documents
),
t AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(len(list_filter(w, x -> x = 'dup')) AS BIGINT) AS tf_0,
         CAST(len(list_filter(w, x -> x = 'hash')) AS BIGINT) AS tf_1,
         CAST(len(list_filter(w, x -> x = 'spark')) AS BIGINT) AS tfn
  FROM tok
)
SELECT doc_id, tf_0, tf_1 FROM t
WHERE tf_0 > 0 AND tf_1 > 0 AND tfn = 0
"""

ORACLE_SQL["rolling_active_users"] = """
WITH ud AS (
  SELECT DISTINCT CAST(user_id AS BIGINT) AS u,
         CAST((epoch_us(ts) // 86400000000) * 86400000000 AS BIGINT) AS d
  FROM events
),
b AS (SELECT max(d) AS mx FROM ud),
w AS (
  SELECT DISTINCT u, d + 86400000000 * t.x AS wd
  FROM ud, unnest(generate_series(0, 2)) AS t(x)
)
SELECT CAST(w.wd AS BIGINT) AS day_us, CAST(count(*) AS BIGINT) AS n_active
FROM w, b WHERE w.wd <= b.mx
GROUP BY 1
"""

# hybrid RRF: the two input rankings' full twins nest as subqueries
# (DuckDB allows WITH inside a derived table); contributions COALESCE
# to 0.0 and sum lexical-first — the same fixed double order as
# stages/ir.py:rrf_fuse — then quantize-then-rank
ORACLE_SQL["hybrid_search_rrf"] = f"""
WITH lex AS (SELECT doc_id AS id, rank FROM ({ORACLE_SQL["bm25_topk"]})),
vec AS (SELECT vec_id AS id, rank
        FROM ({_pq_adc_sql(dim=64, m=2, k=8, iterations=2,
                           query_ids=[0], topk=20)})
        WHERE query_id = 0),
ids AS (SELECT id FROM lex UNION SELECT id FROM vec),
s AS (
  SELECT ids.id,
         CAST(floor((COALESCE(1.0 / (60 + l.rank), 0.0)
                     + COALESCE(1.0 / (60 + v.rank), 0.0))
                    * 1000000 + 0.5) AS BIGINT) AS rrf_micro
  FROM ids
  LEFT JOIN lex l ON l.id = ids.id
  LEFT JOIN vec v ON v.id = ids.id
)
SELECT id AS doc_id, rrf_micro, CAST(rn AS BIGINT) AS rank FROM (
  SELECT id, rrf_micro,
         row_number() OVER (ORDER BY rrf_micro DESC, id) AS rn
  FROM s
) WHERE rn <= 20
"""

# fuzzy entity clusters: recursive closure over the Levenshtein pair
# graph (same sz/p/d CTEs as edit_distance_pairs)
ORACLE_SQL["fuzzy_clusters"] = (
    "WITH RECURSIVE "
    + _NGRAM_CTES
    + """,
    sz AS (
      SELECT repo || ':' || path || '@' || "commit" AS fid, content
      FROM code_files
    ),
    p AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    d AS (
      SELECT p.a, p.b,
             CAST(levenshtein(x.content, y.content) AS BIGINT) AS lev
      FROM p JOIN sz x ON x.fid = p.a JOIN sz y ON y.fid = p.b
    ),
    e AS (SELECT a, b FROM d WHERE lev <= 64),
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    )
    SELECT src AS file_id, least(src, min(dst)) AS component
    FROM reach GROUP BY src
    """
)

# duplicate-safe sampling: lex-min keeper per near-dup component (the
# component id) + every unclustered doc, then the replayable md5 gate
ORACLE_SQL["dedup_aware_sample"] = (
    "WITH RECURSIVE "
    + _NGRAM_CTES
    + """,
    e AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    ),
    comp AS (
      SELECT src AS file_id, least(src, min(dst)) AS component
      FROM reach GROUP BY src
    ),
    cf AS (
      SELECT repo || ':' || path || '@' || "commit" AS file_id
      FROM code_files
    ),
    surv AS (
      SELECT file_id FROM cf
      WHERE file_id NOT IN (SELECT file_id FROM comp)
      UNION
      SELECT DISTINCT component AS file_id FROM comp
    )
    SELECT file_id FROM surv
    WHERE substring(md5(file_id), 1, 2) < '40'
    """
)

ORACLE_SQL["ab_welch_t"] = """
WITH t AS (
  SELECT event_type AS g,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS x
  FROM events WHERE event_type IN ('purchase', 'click')
),
s AS (
  SELECT g, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx,
         CAST(sum(x * x) AS BIGINT) AS sxx
  FROM t GROUP BY g
),
m AS (
  SELECT
    CAST(a.sx AS DOUBLE) / CAST(a.n AS DOUBLE) AS mx,
    CAST(b.sx AS DOUBLE) / CAST(b.n AS DOUBLE) AS my,
    (CAST(a.sxx AS DOUBLE)
       - (CAST(a.sx AS DOUBLE) * CAST(a.sx AS DOUBLE)) / CAST(a.n AS DOUBLE))
      / (CAST(a.n AS DOUBLE) - 1.0) AS vx,
    (CAST(b.sxx AS DOUBLE)
       - (CAST(b.sx AS DOUBLE) * CAST(b.sx AS DOUBLE)) / CAST(b.n AS DOUBLE))
      / (CAST(b.n AS DOUBLE) - 1.0) AS vy,
    CAST(a.n AS DOUBLE) AS naf, CAST(b.n AS DOUBLE) AS nbf,
    a.n AS n_a, b.n AS n_b
  FROM (SELECT * FROM s WHERE g = 'purchase') a,
       (SELECT * FROM s WHERE g = 'click') b
)
SELECT 'purchase' AS group_a, 'click' AS group_b, n_a, n_b,
       CAST(CASE WHEN n_a < 2 OR n_b < 2 THEN 0
                 WHEN sqrt(vx / naf + vy / nbf) = 0 THEN 0
                 ELSE floor((mx - my) / sqrt(vx / naf + vy / nbf)
                            * 1000000 + 0.5)
            END AS BIGINT) AS t_micro
FROM m
"""

ORACLE_SQL["doclen_psi_drift"] = """
WITH t AS (
  SELECT source AS s, CAST(n_chars AS BIGINT) // 16 AS bucket
  FROM documents WHERE source IN ('src0', 'src1')
),
c AS (SELECT s, bucket, CAST(count(*) AS BIGINT) AS n FROM t GROUP BY 1, 2),
piv AS (
  SELECT bucket,
         CAST(COALESCE(sum(CASE WHEN s = 'src0' THEN n END), 0) AS BIGINT) AS ca,
         CAST(COALESCE(sum(CASE WHEN s = 'src1' THEN n END), 0) AS BIGINT) AS cb
  FROM c GROUP BY bucket
),
tot AS (
  SELECT CAST(sum(ca) AS BIGINT) AS na, CAST(sum(cb) AS BIGINT) AS nb,
         CAST(count(*) AS BIGINT) AS nbk
  FROM piv
),
pq AS (
  SELECT CAST(piv.ca AS DOUBLE) / CAST(tot.na AS DOUBLE) AS p,
         CAST(piv.cb AS DOUBLE) / CAST(tot.nb AS DOUBLE) AS q
  FROM piv, tot
),
terms AS (
  SELECT CAST(floor(
           ((CASE WHEN p > 0 THEN p ELSE 0.000001 END)
            - (CASE WHEN q > 0 THEN q ELSE 0.000001 END))
           * ln((CASE WHEN p > 0 THEN p ELSE 0.000001 END)
                / (CASE WHEN q > 0 THEN q ELSE 0.000001 END))
           * 1000000000 + 0.5) AS BIGINT) AS nano
  FROM pq
)
SELECT tot.na AS n_a, tot.nb AS n_b, tot.nbk AS n_buckets,
       CAST((SELECT sum(nano) FROM terms) AS BIGINT) AS psi_nano
FROM tot
"""

ORACLE_SQL["lang_source_chi2"] = """
WITH c AS (
  SELECT lang AS r, source AS c, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2
),
rt AS (SELECT r, CAST(sum(n) AS BIGINT) AS rn FROM c GROUP BY r),
ct AS (SELECT c.c, CAST(sum(n) AS BIGINT) AS cn FROM c GROUP BY c.c),
tot AS (SELECT CAST(sum(n) AS BIGINT) AS n FROM c),
cells AS (
  SELECT rt.r, ct.c,
         CAST(COALESCE(o.n, 0) AS BIGINT) AS o,
         (CAST(rt.rn AS DOUBLE) * CAST(ct.cn AS DOUBLE))
           / CAST(tot.n AS DOUBLE) AS e
  FROM rt CROSS JOIN ct CROSS JOIN tot
  LEFT JOIN c o ON o.r = rt.r AND o.c = ct.c
),
terms AS (
  SELECT CAST(floor(
           ((CAST(o AS DOUBLE) - e) * (CAST(o AS DOUBLE) - e)) / e
           * 1000000000 + 0.5) AS BIGINT) AS nano
  FROM cells
)
SELECT tot.n,
       CAST((SELECT count(*) FROM rt) AS BIGINT) AS n_rows,
       CAST((SELECT count(*) FROM ct) AS BIGINT) AS n_cols,
       CAST(((SELECT count(*) FROM rt) - 1)
            * ((SELECT count(*) FROM ct) - 1) AS BIGINT) AS dof,
       CAST((SELECT sum(nano) FROM terms) AS BIGINT) AS chi2_nano
FROM tot
"""


def _ivfpq_sql(
    dim: int,
    m: int,
    k_coarse: int,
    k_sub: int,
    iterations: int,
    query_ids: list[int],
    topk: int,
    nprobe: int,
) -> str:
    """Chained-CTE twin of `stages.ivfpq.ivfpq_adc_topk`: the coarse
    kmeans chain over u, EXACT integer residuals ru = qv − C_cell, one
    kmeans chain per residual subspace, per-(query, probed-cell)
    residual LUTs, and the ADC sum keyed by each vector's stored codes
    — the IVF pruning appears as the LUT join (only probed cells have
    LUT rows)."""
    sub = dim // m
    ids = ", ".join(str(int(q)) for q in sorted(set(query_ids)))
    it = iterations
    cte = [
        "u AS (SELECT CAST(vec_id AS BIGINT) AS vec_id,"
        " CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,"
        " CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)"
        " AS BIGINT) AS qv FROM embeddings)",
        "seedc AS (SELECT vec_id,"
        " CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cl"
        f" FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k_coarse}))",
        "cc_0 AS (SELECT s.cl, u.dim, u.qv AS m"
        " FROM seedc s JOIN u ON u.vec_id = s.vec_id)",
    ]
    for t in range(1, it + 1):
        cte.append(
            f"dc_{t} AS (SELECT u.vec_id, c.cl,"
            " CAST(sum((u.qv - c.m) * (u.qv - c.m)) AS BIGINT) AS d2"
            f" FROM u JOIN cc_{t - 1} c ON c.dim = u.dim"
            " GROUP BY u.vec_id, c.cl)"
        )
        cte.append(
            f"ac_{t} AS (SELECT vec_id, cl, d2 FROM (SELECT vec_id, cl, d2,"
            " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl) AS rn"
            f" FROM dc_{t}) WHERE rn = 1)"
        )
        cte.append(
            f"cc_{t} AS (SELECT a.cl, u.dim,"
            " CAST(sum(u.qv) AS BIGINT) // count(*) AS m"
            f" FROM ac_{t} a JOIN u ON u.vec_id = a.vec_id"
            " GROUP BY a.cl, u.dim)"
        )
    cte.append(
        "dfc AS (SELECT u.vec_id, c.cl,"
        " CAST(sum((u.qv - c.m) * (u.qv - c.m)) AS BIGINT) AS d2"
        f" FROM u JOIN cc_{it} c ON c.dim = u.dim GROUP BY u.vec_id, c.cl)"
    )
    cte.append(
        "fco AS (SELECT vec_id, cl FROM (SELECT vec_id, cl, d2,"
        " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl) AS rn"
        " FROM dfc) WHERE rn = 1)"
    )
    cte.append(
        "ru AS (SELECT u.vec_id, u.dim, u.qv - c.m AS qv FROM u"
        " JOIN fco a ON a.vec_id = u.vec_id"
        f" JOIN cc_{it} c ON c.cl = a.cl AND c.dim = u.dim)"
    )
    cte.append(
        "seeds AS (SELECT vec_id,"
        " CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cl"
        f" FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k_sub}))"
    )
    for j in range(m):
        lo, hi = j * sub, (j + 1) * sub
        cte.append(
            f"ru{j} AS (SELECT vec_id, dim - {lo} AS dim, qv FROM ru"
            f" WHERE dim >= {lo} AND dim < {hi})"
        )
        cte.append(
            f"c{j}_0 AS (SELECT s.cl, r.dim, r.qv AS m"
            f" FROM seeds s JOIN ru{j} r ON r.vec_id = s.vec_id)"
        )
        for t in range(1, it + 1):
            cte.append(
                f"d{j}_{t} AS (SELECT r.vec_id, c.cl,"
                " CAST(sum((r.qv - c.m) * (r.qv - c.m)) AS BIGINT) AS d2"
                f" FROM ru{j} r JOIN c{j}_{t - 1} c ON c.dim = r.dim"
                " GROUP BY r.vec_id, c.cl)"
            )
            cte.append(
                f"a{j}_{t} AS (SELECT vec_id, cl, d2 FROM"
                " (SELECT vec_id, cl, d2,"
                " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl)"
                f" AS rn FROM d{j}_{t}) WHERE rn = 1)"
            )
            cte.append(
                f"c{j}_{t} AS (SELECT a.cl, r.dim,"
                " CAST(sum(r.qv) AS BIGINT) // count(*) AS m"
                f" FROM a{j}_{t} a JOIN ru{j} r ON r.vec_id = a.vec_id"
                " GROUP BY a.cl, r.dim)"
            )
        cte.append(
            f"df{j} AS (SELECT r.vec_id, c.cl,"
            " CAST(sum((r.qv - c.m) * (r.qv - c.m)) AS BIGINT) AS d2"
            f" FROM ru{j} r JOIN c{j}_{it} c ON c.dim = r.dim"
            " GROUP BY r.vec_id, c.cl)"
        )
        cte.append(
            f"f{j} AS (SELECT vec_id, cl FROM (SELECT vec_id, cl, d2,"
            " row_number() OVER (PARTITION BY vec_id ORDER BY d2, cl) AS rn"
            f" FROM df{j}) WHERE rn = 1)"
        )
    cte.append(f"qu AS (SELECT vec_id AS qid, dim, qv FROM u WHERE vec_id IN ({ids}))")
    cte.append(
        "dq AS (SELECT qu.qid, c.cl,"
        " CAST(sum((qu.qv - c.m) * (qu.qv - c.m)) AS BIGINT) AS d2"
        f" FROM qu JOIN cc_{it} c ON c.dim = qu.dim GROUP BY 1, 2)"
    )
    cte.append(
        "probe AS (SELECT qid, cl FROM (SELECT qid, cl,"
        " row_number() OVER (PARTITION BY qid ORDER BY d2, cl) AS rn"
        f" FROM dq) WHERE rn <= {nprobe})"
    )
    cte.append(
        "qr AS (SELECT p.qid, p.cl AS cell, c.dim, qu.qv - c.m AS rv"
        " FROM probe p JOIN qu ON qu.qid = p.qid"
        f" JOIN cc_{it} c ON c.cl = p.cl AND c.dim = qu.dim)"
    )
    for j in range(m):
        lo, hi = j * sub, (j + 1) * sub
        cte.append(
            f"lut{j} AS (SELECT x.qid, x.cell, k.cl,"
            " CAST(sum((x.rv - k.m) * (x.rv - k.m)) AS BIGINT) AS d"
            f" FROM (SELECT qid, cell, dim - {lo} AS dim, rv FROM qr"
            f" WHERE dim >= {lo} AND dim < {hi}) x"
            f" JOIN c{j}_{it} k ON k.dim = x.dim GROUP BY 1, 2, 3)"
        )
    f_joins = " ".join(f"JOIN f{j} ON f{j}.vec_id = a.vec_id" for j in range(m))
    lut_joins = ["JOIN lut0 l0 ON l0.cell = a.cl AND l0.cl = f0.cl"]
    for j in range(1, m):
        lut_joins.append(
            f"JOIN lut{j} l{j} ON l{j}.cell = a.cl AND l{j}.cl = f{j}.cl"
            " AND l" + str(j) + ".qid = l0.qid"
        )
    dsum = " + ".join(f"l{j}.d" for j in range(m))
    cte.append(
        f"dist AS (SELECT l0.qid AS query_id, a.vec_id,"
        f" CAST({dsum} AS BIGINT) AS adc_d2"
        f" FROM fco a {f_joins} {' '.join(lut_joins)})"
    )
    return (
        "WITH "
        + ",\n     ".join(cte)
        + "\nSELECT query_id, vec_id, adc_d2, CAST(rn AS BIGINT) AS rank FROM"
        " (SELECT query_id, vec_id, adc_d2,"
        " row_number() OVER (PARTITION BY query_id ORDER BY adc_d2, vec_id)"
        f" AS rn FROM dist) WHERE rn <= {topk}"
    )


def q_ivfpq_adc_topk(sf_dir: str) -> ray.data.Dataset:
    """IVF-PQ end-to-end (stages/ivfpq.py): coarse lattice k-means
    cells + residual product codes + per-cell query-residual ADC scan
    probing the 3 nearest cells — the canonical billion-scale ANN
    index shape, every step integer-exact so the WHOLE build + search
    hash-matches one chained-CTE twin."""
    from duplicate_finder_ray.stages.ivfpq import ivfpq_adc_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivfpq_adc_topk(
        emb, "vec_id", "embedding", dim=64, m=2, k_coarse=8, k_sub=8,
        query_ids=[0, 1, 2, 3], topk=10, nprobe=3, iterations=2,
    )


QUERIES["ivfpq_adc_topk"] = q_ivfpq_adc_topk
ORACLE_SQL["ivfpq_adc_topk"] = _ivfpq_sql(
    dim=64, m=2, k_coarse=8, k_sub=8, iterations=2,
    query_ids=[0, 1, 2, 3], topk=10, nprobe=3,
)

ORACLE_SQL["zorder_zone_maps"] = """
WITH b0 AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(n_chars AS BIGINT) AS x,
         CAST(doc_id AS BIGINT) % 1024 AS y,
         CAST(n_chars AS BIGINT) & 2147483647 AS xv,
         (CAST(doc_id AS BIGINT) % 1024) & 2147483647 AS yv
  FROM documents
),
b1 AS (SELECT doc_id, x, y,
              (xv | (xv << 16)) & 281470681808895 AS xv,
              (yv | (yv << 16)) & 281470681808895 AS yv FROM b0),
b2 AS (SELECT doc_id, x, y,
              (xv | (xv << 8)) & 71777214294589695 AS xv,
              (yv | (yv << 8)) & 71777214294589695 AS yv FROM b1),
b3 AS (SELECT doc_id, x, y,
              (xv | (xv << 4)) & 1085102592571150095 AS xv,
              (yv | (yv << 4)) & 1085102592571150095 AS yv FROM b2),
b4 AS (SELECT doc_id, x, y,
              (xv | (xv << 2)) & 3689348814741910323 AS xv,
              (yv | (yv << 2)) & 3689348814741910323 AS yv FROM b3),
b5 AS (SELECT doc_id, x, y,
              (xv | (xv << 1)) & 6148914691236517205 AS xv,
              (yv | (yv << 1)) & 6148914691236517205 AS yv FROM b4),
z AS (SELECT doc_id, x, y, xv | (yv << 1) AS zval FROM b5),
r AS (
  SELECT x, y,
         CAST(row_number() OVER (ORDER BY zval, doc_id) - 1 AS BIGINT) AS rnk
  FROM z
)
SELECT rnk // 64 AS zone, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(min(x) AS BIGINT) AS min_x, CAST(max(x) AS BIGINT) AS max_x,
       CAST(min(y) AS BIGINT) AS min_y, CAST(max(y) AS BIGINT) AS max_y
FROM r GROUP BY 1
"""

# -- winnowing fingerprints twin: byte-level polynomial k-gram hash -----
# weights B^(k-1-j) mod M generated from the SAME constants as
# stages/textstats.py:_kgram_hashes (k=8, window=4) so both engines'
# integer lattices are one definition. Every term is ≤ 255·2^31 and the
# 8-term sum < 2^42 — exact BIGINT on both sides.
_FP_WEIGHTS = [pow(1_000_003, 7 - j, (1 << 31) - 1) for j in range(8)]
_FP_GRAM_EXPR = " + ".join(
    f"('0x' || substr(hx, 2*(i+{j}) + 1, 2))::BIGINT * {w}"
    for j, w in enumerate(_FP_WEIGHTS)
)
ORACLE_SQL["doc_fingerprints"] = f"""
WITH b AS (
  SELECT doc_id, hex(encode(text)) AS hx,
         octet_length(encode(text)) AS n
  FROM documents WHERE text IS NOT NULL
),
pos AS (  -- 0-based k-gram start positions; len(h) = n - 7
  SELECT doc_id, hx, n, unnest(range(0, n - 7)) AS i FROM b WHERE n >= 8
),
g AS (
  SELECT doc_id, n, i, ({_FP_GRAM_EXPR}) % 2147483647 AS h FROM pos
),
small AS (  -- len(h) <= window: single global min
  SELECT DISTINCT doc_id, min(h) AS fp FROM g WHERE n - 7 <= 4 GROUP BY doc_id
),
big AS (    -- full sliding windows of 4 only (i <= len(h) - 4)
  SELECT DISTINCT doc_id, m AS fp FROM (
    SELECT doc_id, i, n, min(h) OVER (
      PARTITION BY doc_id ORDER BY i
      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS m
    FROM g WHERE n - 7 > 4
  ) WHERE i <= n - 11
)
SELECT doc_id, fp FROM small UNION ALL SELECT doc_id, fp FROM big
"""

# the t-digest path answers EXACTLY (same bits as the exact kernel)
# whenever no compaction merged points — guaranteed for groups of
# ≤ delta/pi values (stages/sketches.py:tdigest_quantile), which holds
# at every gate scale; at corpus scale it degrades gracefully to the
# tested rank-error bound while this oracle documents the exact regime
ORACLE_SQL["doclen_quantiles_sketch"] = ORACLE_SQL["doclen_quantiles"]

# -- greedy packing twin: next-fit is a linear recurrence, replayed ----
# exactly by a recursive CTE walking each partition's doc-id order; the
# partition hash is the engine's md5-prefix (SQL-replayable by design)
ORACLE_SQL["greedy_pack_documents"] = """
WITH RECURSIVE c AS (
  SELECT doc_id,
         (CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0
               ELSE array_length(regexp_split_to_array(
                      regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+'))
          END)::BIGINT AS n
  FROM documents
),
seq AS (
  SELECT doc_id, n,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT
              % 16 AS BIGINT) AS part,
         row_number() OVER (
           PARTITION BY ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT % 16
           ORDER BY doc_id) AS rn
  FROM c WHERE n > 0
),
pack AS (
  SELECT part, rn, doc_id, n, CAST(0 AS BIGINT) AS bin, n AS acc
  FROM seq WHERE rn = 1
  UNION ALL
  SELECT s.part, s.rn, s.doc_id, s.n,
         CASE WHEN p.acc + s.n > 512 THEN p.bin + 1 ELSE p.bin END,
         CASE WHEN p.acc + s.n > 512 THEN s.n ELSE p.acc + s.n END
  FROM pack p JOIN seq s ON s.part = p.part AND s.rn = p.rn + 1
),
fills AS (SELECT part, bin, sum(n) AS f FROM pack GROUP BY 1, 2)
SELECT p.doc_id, CAST(p.part * 4294967296 + p.bin AS BIGINT) AS pack_id,
       p.n AS n_tokens, CAST(fills.f AS BIGINT) AS pack_fill
FROM pack p JOIN fills USING (part, bin)
"""

# ---------------------------------------------------------------------------
# md5-family signature twins: the ENTIRE signature pipeline (rolling
# k-shingle mix, MinHash permutations, LSH band-key fold, SimHash bit
# votes) is uint64-wraparound arithmetic. DuckDB replays it exactly:
# token ids via md5_number_lower, and every u64 multiply as a HUGEINT
# limb product (x*C mod 2^64 = lo*Clo + ((hi*Clo + lo*Chi) mod 2^32)
# * 2^32 mod 2^64). The permutation/mix constants are generated from
# the engine's own minhash_params(16, seed=42) so there is exactly one
# definition. Prototyped bit-exact in functions/shingles.py terms.
# ---------------------------------------------------------------------------


def _build_md5_family_sql() -> dict[str, str]:
    from duplicate_finder_ray.functions.shingles import _MIX, minhash_params

    mix = int(_MIX)
    mlo, mhi = mix & 0xFFFFFFFF, mix >> 32
    u64 = 1 << 64

    def umul_mix(x: str) -> str:
        """SQL for (x * MIX) mod 2^64 via HUGEINT limbs."""
        return (
            f"CAST((CAST({x} % 4294967296 AS HUGEINT) * {mlo} + "
            f"((CAST({x} // 4294967296 AS HUGEINT) * {mlo} + "
            f"CAST({x} % 4294967296 AS HUGEINT) * {mhi}) % 4294967296) "
            f"* 4294967296) % {u64} AS UBIGINT)"
        )

    a, b = minhash_params(16, 42)
    perm_rows = ", ".join(
        f"({p}, {int(a[p]) & 0xFFFFFFFF}, {int(a[p]) >> 32}, {int(b[p])})"
        for p in range(16)
    )
    # (s * a + b) mod 2^64 with per-perm limb columns al/ah
    perm_hash = (
        f"CAST((CAST(CAST((CAST(s % 4294967296 AS HUGEINT) * al + "
        f"((CAST(s // 4294967296 AS HUGEINT) * al + "
        f"CAST(s % 4294967296 AS HUGEINT) * ah) % 4294967296) "
        f"* 4294967296) % {u64} AS UBIGINT) AS HUGEINT) + bb) % {u64} AS UBIGINT)"
    )
    start = 0x517CC1B727220A95
    band_case = (
        "CASE band "
        + " ".join(f"WHEN {i} THEN {(i * mix) % u64}::UBIGINT" for i in range(4))
        + " END"
    )
    # shared prefix: code table -> per-doc shingle-hash sets -> perms
    prefix = f"""WITH code_files AS ({CODE_FILES_SQL}),
tok AS (
  SELECT repo || ':' || path || '@' || "commit" AS file_id,
         regexp_extract_all(content, '[A-Za-z0-9_]+') AS w
  FROM code_files
),
idx AS (
  SELECT file_id, w, unnest(generate_series(1, len(w) - 4)) AS i
  FROM tok WHERE len(w) >= 5
),
t0 AS (
  SELECT file_id, i, md5_number_lower(w[i]) AS h,
         md5_number_lower(w[i+1]) AS i1, md5_number_lower(w[i+2]) AS i2,
         md5_number_lower(w[i+3]) AS i3, md5_number_lower(w[i+4]) AS i4
  FROM idx
),
s1 AS (SELECT file_id, i, xor({umul_mix('h')}, i1) AS h, i2, i3, i4 FROM t0),
s2 AS (SELECT file_id, i, xor({umul_mix('h')}, i2) AS h, i3, i4 FROM s1),
s3 AS (SELECT file_id, i, xor({umul_mix('h')}, i3) AS h, i4 FROM s2),
s4 AS (SELECT file_id, i, xor({umul_mix('h')}, i4) AS h FROM s3),
sh AS (SELECT DISTINCT file_id, h AS s FROM s4),
nsh AS (SELECT file_id, CAST(count(*) AS BIGINT) AS n_shingles FROM sh GROUP BY 1),
perms(p, al, ah, bb) AS (VALUES {perm_rows}),
sig AS (
  SELECT file_id, p, min({perm_hash}) AS minhash
  FROM sh CROSS JOIN perms GROUP BY 1, 2
),
bits AS (
  SELECT file_id, bit, sum(CAST((s >> bit) & 1 AS BIGINT)) AS ones,
         count(*) AS n
  FROM sh CROSS JOIN (SELECT unnest(range(0, 64)) AS bit) GROUP BY 1, 2
),
sim AS (
  SELECT file_id,
         CAST(sum(CASE WHEN ones * 2 >= n
                       THEN CAST(1::UBIGINT << bit AS HUGEINT) ELSE 0 END)
              % {u64} AS UBIGINT) AS simhash
  FROM bits GROUP BY 1
)"""

    signatures = f"""{prefix}
SELECT sig.file_id, CAST(sig.p AS BIGINT) AS perm, sig.minhash,
       sim.simhash, nsh.n_shingles
FROM sig JOIN sim USING (file_id) JOIN nsh USING (file_id)
"""

    lsh_pairs = f"""{prefix},
bs AS (SELECT file_id, p // 4 AS band, p % 4 AS j, minhash FROM sig),
k0 AS (SELECT file_id, band, {umul_mix(f'xor({start}::UBIGINT, minhash)')} AS k
       FROM bs WHERE j = 0),
k1 AS (SELECT k0.file_id, k0.band, {umul_mix('xor(k0.k, bs.minhash)')} AS k
       FROM k0 JOIN bs ON bs.file_id = k0.file_id AND bs.band = k0.band AND bs.j = 1),
k2 AS (SELECT k1.file_id, k1.band, {umul_mix('xor(k1.k, bs.minhash)')} AS k
       FROM k1 JOIN bs ON bs.file_id = k1.file_id AND bs.band = k1.band AND bs.j = 2),
k3 AS (SELECT k2.file_id, k2.band, {umul_mix('xor(k2.k, bs.minhash)')} AS k
       FROM k2 JOIN bs ON bs.file_id = k2.file_id AND bs.band = k2.band AND bs.j = 3),
bandkey AS (SELECT file_id, band, xor(k, {band_case}) AS key FROM k3),
buckets AS (SELECT band, key, count(*) AS bsize FROM bandkey GROUP BY 1, 2),
raw AS (
  SELECT least(x.file_id, y.file_id) AS a,
         greatest(x.file_id, y.file_id) AS b, x.band, bk.bsize
  FROM bandkey x
  JOIN bandkey y ON x.band = y.band AND x.key = y.key AND x.file_id < y.file_id
  JOIN buckets bk ON bk.band = x.band AND bk.key = x.key
)
SELECT a, b, CAST(count(*) AS BIGINT) AS n_bands,
       CAST(max(bsize) AS BIGINT) AS bucket_size
FROM raw GROUP BY 1, 2
"""

    simhash_pairs = f"""{prefix}
SELECT x.file_id AS a, y.file_id AS b,
       CAST(bit_count(xor(x.simhash, y.simhash)) AS BIGINT) AS hamming
FROM sim x JOIN sim y ON x.file_id < y.file_id
WHERE bit_count(xor(x.simhash, y.simhash)) <= 3
"""
    return {
        "minhash_signatures": signatures,
        "lsh_candidate_pairs": lsh_pairs,
        "simhash_pairs": simhash_pairs,
    }


ORACLE_SQL.update(_build_md5_family_sql())

# -- media feature twin: md5-counter lanes + the exact float ladder ----
ORACLE_SQL["media_features"] = """
WITH m AS (
  SELECT doc_id AS media_id,
         CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
              ELSE 'video' END AS media_type,
         text
  FROM documents
),
d AS (SELECT media_id, media_type, text, unnest(range(0, 16)) AS blk FROM m),
h AS (
  SELECT media_id, media_type, blk,
         md5_number_upper(text || 'feat:' || blk) AS up,
         md5_number_lower(text || 'feat:' || blk) AS lo
  FROM d
),
lanes AS (
  SELECT media_id, media_type, blk * 4     AS dim_idx, up % 4294967296  AS lane FROM h
  UNION ALL
  SELECT media_id, media_type, blk * 4 + 1, up // 4294967296 FROM h
  UNION ALL
  SELECT media_id, media_type, blk * 4 + 2, lo % 4294967296 FROM h
  UNION ALL
  SELECT media_id, media_type, blk * 4 + 3, lo // 4294967296 FROM h
)
SELECT media_id, media_type, CAST(dim_idx AS BIGINT) AS dim_idx,
       CAST(CAST(lane AS DOUBLE) / 4294967296 - 0.5 AS FLOAT) AS feature
FROM lanes
"""

# -- LCS span twin: a common substring of length L >= 16 is exactly a
# maximal diagonal run of L-15 matching 16-byte grams, so DuckDB finds
# the span length via gaps-and-islands over matching gram positions,
# then replays the kernel's tie-breaks (min a_start among max runs,
# then min b_start whose substring equals a's) with direct hex-substring
# comparison — byte-exact regardless of encoding.
ORACLE_SQL["near_dup_spans"] = (
    "WITH "
    + _NGRAM_CTES
    + """,
pairs AS (
  SELECT a, b FROM inter
  JOIN n na ON na.doc_key = inter.a
  JOIN n nb ON nb.doc_key = inter.b
  WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
),
cf AS (
  SELECT repo || ':' || path || '@' || "commit" AS file_id,
         hex(encode(content)) AS hx, octet_length(encode(content)) AS nbytes
  FROM code_files
),
g2 AS (
  SELECT file_id, i, substr(hx, 2*i + 1, 32) AS gram
  FROM (SELECT file_id, hx, unnest(range(0, nbytes - 15)) AS i
        FROM cf WHERE nbytes >= 16)
),
m AS (
  SELECT p.a, p.b, ga.i AS ia, gb.i AS ib
  FROM pairs p
  JOIN g2 ga ON ga.file_id = p.a
  JOIN g2 gb ON gb.file_id = p.b AND gb.gram = ga.gram
),
runrows AS (
  SELECT a, b, ia, ib, ia - ib AS diag,
         ia - row_number() OVER (PARTITION BY a, b, ia - ib ORDER BY ia) AS grp
  FROM m
),
runs AS (
  SELECT a, b, min(ia) AS i0, min(ib) AS j0, count(*) AS run
  FROM runrows GROUP BY a, b, diag, grp
),
best AS (SELECT a, b, max(run) AS maxrun FROM runs GROUP BY 1, 2),
ast AS (
  SELECT r.a, r.b, bst.maxrun, min(r.i0) AS a_start
  FROM runs r
  JOIN best bst ON bst.a = r.a AND bst.b = r.b AND r.run = bst.maxrun
  GROUP BY 1, 2, 3
),
spans AS (
  SELECT s.a, s.b, s.maxrun, s.a_start, min(r.j0) AS b_start
  FROM ast s
  JOIN runs r ON r.a = s.a AND r.b = s.b AND r.run = s.maxrun
  JOIN cf ca ON ca.file_id = s.a
  JOIN cf cb ON cb.file_id = s.b
  WHERE substr(cb.hx, 2 * r.j0 + 1, 2 * (s.maxrun + 15))
      = substr(ca.hx, 2 * s.a_start + 1, 2 * (s.maxrun + 15))
  GROUP BY 1, 2, 3, 4
)
SELECT p.a, p.b,
       CAST(coalesce(v.maxrun + 15, 0) AS BIGINT) AS span_len,
       CAST(coalesce(v.a_start, -1) AS BIGINT) AS a_start,
       CAST(coalesce(v.b_start, -1) AS BIGINT) AS b_start
FROM pairs p LEFT JOIN spans v ON v.a = p.a AND v.b = p.b
"""
)

# -- pHash twin: the fixed-point DCT basis is embedded verbatim, so ----
# DuckDB recomputes every coefficient as the same exact integer
# (separable row/col contractions), takes the same 63-coeff median and
# packs the same bits — no float summation-order hazard by construction


def _build_media_phash_sql() -> str:
    from duplicate_finder_ray.stages.multimodal import PhashStage

    basis = PhashStage().basis  # (32, 32) int64, scale 2^16
    bu_rows = ", ".join(
        f"({u}, {j}, {int(basis[u, j])})" for u in range(8) for j in range(32)
    )
    return f"""
WITH m AS (
  SELECT doc_id AS media_id,
         CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
              ELSE 'video' END AS media_type,
         hex(encode(text)) AS hx, octet_length(encode(text)) AS n
  FROM documents
),
bu(u, j, w) AS (VALUES {bu_rows}),
t AS (SELECT media_id, hx, n, unnest(range(0, 1024)) AS t FROM m),
px AS (
  SELECT media_id, t // 32 AS j, t % 32 AS k,
         CASE WHEN n = 0 THEN 0
              ELSE ('0x' || substr(hx, 2 * (t % n) + 1, 2))::BIGINT END AS v
  FROM t
),
rs AS (
  SELECT px.media_id, px.j, b.u AS v, sum(px.v * b.w) AS r
  FROM px JOIN bu b ON b.j = px.k GROUP BY 1, 2, 3
),
d AS (
  SELECT rs.media_id, b.u AS u, rs.v, sum(b.w * rs.r) AS dv
  FROM rs JOIN bu b ON b.j = rs.j GROUP BY 1, 2, 3
),
coef AS (SELECT media_id, u * 8 + v AS idx, dv FROM d WHERE u * 8 + v > 0),
med AS (SELECT media_id, median(dv) AS mv FROM coef GROUP BY 1),
ph AS (
  SELECT c.media_id,
         CAST(sum(CASE WHEN c.dv > m.mv
                       THEN CAST(1::UBIGINT << (c.idx - 1) AS HUGEINT)
                       ELSE 0 END) % 18446744073709551616 AS UBIGINT) AS phash
  FROM coef c JOIN med m USING (media_id) GROUP BY 1
)
SELECT m.media_id, m.media_type, ph.phash
FROM m JOIN ph USING (media_id)
"""


ORACLE_SQL["media_phash"] = _build_media_phash_sql()



def q_dup_ngram_stats(sf_dir: str) -> ray.data.Dataset:
    """Corpus-duplicated 13-gram exposure per document (C4/MassiveText
    membership-overlap signal) — HASH-MATCH oracle: md5 hash family, so
    the generated SQL recomputes every gram hash (13-step rolling mix
    as chained joins over md5_number_lower token ids) and counts the
    same distinct-doc memberships. Docs with < 13 tokens have no grams
    and drop out on both sides."""
    from duplicate_finder_ray.stages.textstats import dup_ngram_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dup_ngram_stats(docs, "text", n=13)


def _build_dup_ngram_sql(n: int = 13) -> str:
    from duplicate_finder_ray.functions.shingles import _MIX

    mix = int(_MIX)
    mlo, mhi = mix & 0xFFFFFFFF, mix >> 32
    u64 = 1 << 64

    def umul_mix(x: str) -> str:
        return (
            f"CAST((CAST({x} % 4294967296 AS HUGEINT) * {mlo} + "
            f"((CAST({x} // 4294967296 AS HUGEINT) * {mlo} + "
            f"CAST({x} % 4294967296 AS HUGEINT) * {mhi}) % 4294967296) "
            f"* 4294967296) % {u64} AS UBIGINT)"
        )

    steps = []
    prev = "s0"
    for j in range(1, n):
        cur = f"s{j}"
        steps.append(
            f"{cur} AS (SELECT s.doc_id, s.i, "
            f"xor({umul_mix('s.h')}, ids.id) AS h "
            f"FROM {prev} s JOIN ids ON ids.doc_id = s.doc_id "
            f"AND ids.pos = s.i + {j})"
        )
        prev = cur
    chain = ",\n".join(steps)
    return f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS w
  FROM documents
),
pos_tbl AS (
  SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS pos FROM tok
),
ids AS (
  SELECT doc_id, pos, md5_number_lower(w[pos]) AS id FROM pos_tbl
),
win AS (
  SELECT doc_id, unnest(range(1, len(w) - {n - 2})) AS i
  FROM tok WHERE len(w) >= {n}
),
s0 AS (
  SELECT win.doc_id, win.i, ids.id AS h
  FROM win JOIN ids ON ids.doc_id = win.doc_id AND ids.pos = win.i
),
{chain},
sh AS (SELECT DISTINCT doc_id, h FROM {prev}),
cnt AS (SELECT h, count(*) AS nd FROM sh GROUP BY 1)
SELECT sh.doc_id, CAST(count(*) AS BIGINT) AS n_13grams,
       CAST(sum(CASE WHEN cnt.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dup_13grams
FROM sh JOIN cnt ON cnt.h = sh.h GROUP BY 1
"""


QUERIES["dup_ngram_stats"] = q_dup_ngram_stats
ORACLE_SQL["dup_ngram_stats"] = _build_dup_ngram_sql(13)




def q_unigram_xent(sf_dir: str) -> ray.data.Dataset:
    """Per-doc cross-entropy under the corpus's add-1 unigram LM (the
    perplexity-filter proxy) — HASH-MATCH oracle: both engines evaluate
    ln(N+V) - sum(c*ln(n_t+1))/len_d over the same integer counts; the
    driver's 6-significant-digit float canon absorbs libm/summation-
    order ulp differences."""
    from duplicate_finder_ray.stages.textstats import unigram_xent

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return unigram_xent(docs, "text")


QUERIES["unigram_xent"] = q_unigram_xent
ORACLE_SQL["unigram_xent"] = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS t
  FROM documents
),
dt AS (SELECT doc_id, t, count(*) AS c FROM tok GROUP BY 1, 2),
tc AS (SELECT t, sum(c) AS n FROM dt GROUP BY 1),
g AS (SELECT sum(n) AS nn, count(*) AS v FROM tc)
SELECT dt.doc_id, CAST(sum(dt.c) AS BIGINT) AS n_tokens,
       ln(g.nn + g.v) - sum(dt.c * ln(tc.n + 1)) / sum(dt.c) AS xent
FROM dt JOIN tc USING (t) CROSS JOIN g
GROUP BY dt.doc_id, g.nn, g.v
"""




def q_duplicated_passages(sf_dir: str) -> ray.data.Dataset:
    """C4-style duplicated-passage spans: maximal 1-based token
    intervals covered by corpus-duplicated 13-grams — HASH-MATCH
    oracle: the generated SQL recomputes every window hash (md5
    family) and merges duplicated positions with the same
    gaps-and-islands rule."""
    from duplicate_finder_ray.stages.textstats import duplicated_passages

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return duplicated_passages(docs, "text", n=13)


def _build_dup_passages_sql(n: int = 13) -> str:
    from duplicate_finder_ray.functions.shingles import _MIX

    mix = int(_MIX)
    mlo, mhi = mix & 0xFFFFFFFF, mix >> 32
    u64 = 1 << 64

    def umul_mix(x: str) -> str:
        return (
            f"CAST((CAST({x} % 4294967296 AS HUGEINT) * {mlo} + "
            f"((CAST({x} // 4294967296 AS HUGEINT) * {mlo} + "
            f"CAST({x} % 4294967296 AS HUGEINT) * {mhi}) % 4294967296) "
            f"* 4294967296) % {u64} AS UBIGINT)"
        )

    steps = []
    prev = "s0"
    for j in range(1, n):
        cur = f"s{j}"
        steps.append(
            f"{cur} AS (SELECT s.doc_id, s.i, "
            f"xor({umul_mix('s.h')}, ids.id) AS h "
            f"FROM {prev} s JOIN ids ON ids.doc_id = s.doc_id "
            f"AND ids.pos = s.i + {j})"
        )
        prev = cur
    chain = ",\n".join(steps)
    return f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS w
  FROM documents
),
pos_tbl AS (
  SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS pos FROM tok
),
ids AS (
  SELECT doc_id, pos, md5_number_lower(w[pos]) AS id FROM pos_tbl
),
win AS (
  SELECT doc_id, unnest(range(1, len(w) - {n - 2})) AS i
  FROM tok WHERE len(w) >= {n}
),
s0 AS (
  SELECT win.doc_id, win.i, ids.id AS h
  FROM win JOIN ids ON ids.doc_id = win.doc_id AND ids.pos = win.i
),
{chain},
docs_per AS (
  SELECT h, count(DISTINCT doc_id) AS nd FROM {prev} GROUP BY 1
),
duppos AS (
  SELECT o.doc_id, o.i FROM {prev} o JOIN docs_per d ON d.h = o.h
  WHERE d.nd >= 2
),
isl AS (
  SELECT doc_id, i,
         CASE WHEN i - lag(i) OVER (PARTITION BY doc_id ORDER BY i)
                   <= {n - 1} THEN 0 ELSE 1 END AS brk
  FROM duppos
),
grp AS (
  SELECT doc_id, i,
         sum(brk) OVER (PARTITION BY doc_id ORDER BY i) AS g
  FROM isl
)
SELECT doc_id, CAST(min(i) AS BIGINT) AS start_tok,
       CAST(max(i) + {n - 1} AS BIGINT) AS end_tok,
       CAST(max(i) + {n - 1} - min(i) + 1 AS BIGINT) AS span_tokens
FROM grp GROUP BY doc_id, g
"""


QUERIES["duplicated_passages"] = q_duplicated_passages
ORACLE_SQL["duplicated_passages"] = _build_dup_passages_sql(13)




def q_leakage_free_split(sf_dir: str) -> ray.data.Dataset:
    """Leakage-free train/val/test split: WHOLE near-dup clusters move
    together (splitting by raw doc id leaks near-duplicates of training
    docs into eval — the classic contamination bug this operator
    prevents). Composition: near-dup clustering (auto-banding at
    τ=0.5, the hash-verified config) → singleton completion via one
    slim file-keyed exchange (labels ∪ identity, min-priority — NO
    broadcast of the corpus-sized label set) → md5 split keyed on the
    CLUSTER id (same cd/e6 cuts as dataset_split). HASH-MATCH oracle:
    recursive-CTE components + LEFT JOIN + the same md5 CASE."""
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
    from duplicate_finder_ray.stages.exchange import hash_exchange
    from duplicate_finder_ray.stages.relational import split_assign

    cfg = _near_dup_cfg()
    code = code_files_from_documents(sf_dir)
    res = NearDupPipeline(cfg).run_on(code)

    def as_labeled(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "file_id": batch["file_id"],
                "component": batch["component"],
                "prio": pa.array(np.zeros(len(batch), np.int64)),
            }
        )

    def as_identity(batch: pa.Table) -> pa.Table:
        fid = batch.column("file_id")
        return pa.table(
            {
                "file_id": fid,
                "component": fid,
                "prio": pa.array(np.ones(len(batch), np.int64)),
            }
        )

    from duplicate_finder_ray.stages.derive import add_identity

    both = res.labels.map_batches(as_labeled, batch_format="pyarrow").union(
        code.map_batches(add_identity, batch_format="pyarrow")
        .select_columns(["file_id"])
        .map_batches(as_identity, batch_format="pyarrow")
    )

    out_schema = pa.schema(
        [("file_id", pa.string()), ("component", pa.string())]
    )

    def pick_min_prio(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        tbl = tbl.sort_by([("file_id", "ascending"), ("prio", "ascending")])
        f = tbl.column("file_id")
        if isinstance(f, pa.ChunkedArray):
            f = f.combine_chunks()
        codes = pc.dictionary_encode(f).indices.to_numpy(zero_copy_only=False)
        first = np.r_[True, codes[1:] != codes[:-1]]
        return tbl.filter(pa.array(first)).select(["file_id", "component"])

    full = hash_exchange(
        both, "file_id", 16, pick_min_prio, out_schema.empty_table()
    )
    return split_assign(
        full, "component", [("train", "cd"), ("val", "e6")], "test"
    )


QUERIES["leakage_free_split"] = q_leakage_free_split
ORACLE_SQL["leakage_free_split"] = (
    "WITH RECURSIVE "
    + _NGRAM_CTES
    + """,
    e AS (
      SELECT a, b FROM inter
      JOIN n na ON na.doc_key = inter.a
      JOIN n nb ON nb.doc_key = inter.b
      WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= 0.5
    ),
    sym AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
    reach(src, dst) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.dst
    ),
    comp AS (
      SELECT src AS file_id, least(src, min(dst)) AS component
      FROM reach GROUP BY src
    ),
    allf AS (
      SELECT repo || ':' || path || '@' || "commit" AS file_id
      FROM code_files
    ),
    assigned AS (
      SELECT allf.file_id, coalesce(comp.component, allf.file_id) AS component
      FROM allf LEFT JOIN comp ON comp.file_id = allf.file_id
    )
    SELECT file_id, component,
           CASE WHEN substring(md5(component), 1, 2) < 'cd' THEN 'train'
                WHEN substring(md5(component), 1, 2) < 'e6' THEN 'val'
                ELSE 'test' END AS split
    FROM assigned
    """
)




def q_corpus_diversity(sf_dir: str) -> "pa.Table":
    """Distinct-n diversity report (n=1,2,3) — HASH-MATCH oracle: SQL
    recomputes each order's window hashes (md5 family) and its
    COUNT/COUNT DISTINCT; the ppm is an exact integer lattice."""
    from duplicate_finder_ray.stages.textstats import corpus_diversity

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return corpus_diversity(docs, "text")


def _build_diversity_sql() -> str:
    from duplicate_finder_ray.functions.shingles import _MIX

    mix = int(_MIX)
    mlo, mhi = mix & 0xFFFFFFFF, mix >> 32
    u64 = 1 << 64

    def umul_mix(x: str) -> str:
        return (
            f"CAST((CAST({x} % 4294967296 AS HUGEINT) * {mlo} + "
            f"((CAST({x} // 4294967296 AS HUGEINT) * {mlo} + "
            f"CAST({x} % 4294967296 AS HUGEINT) * {mhi}) % 4294967296) "
            f"* 4294967296) % {u64} AS UBIGINT)"
        )

    parts = []
    for n in (1, 2, 3):
        prev = f"d{n}_s0"
        chain = [
            f"{prev} AS (SELECT win.doc_id, win.i, ids.id AS h "
            f"FROM (SELECT doc_id, unnest(range(1, len(w) - {n - 2})) AS i "
            f"      FROM tok WHERE len(w) >= {n}) win "
            f"JOIN ids ON ids.doc_id = win.doc_id AND ids.pos = win.i)"
        ]
        for j in range(1, n):
            cur = f"d{n}_s{j}"
            chain.append(
                f"{cur} AS (SELECT s.doc_id, s.i, "
                f"xor({umul_mix('s.h')}, ids.id) AS h "
                f"FROM {prev} s JOIN ids ON ids.doc_id = s.doc_id "
                f"AND ids.pos = s.i + {j})"
            )
            prev = cur
        parts.append((n, ",\n".join(chain), prev))
    ctes = ",\n".join(c for _, c, _ in parts)
    selects = "\nUNION ALL\n".join(
        f"SELECT {n} AS n, CAST(count(*) AS BIGINT) AS total_ngrams, "
        f"CAST(count(DISTINCT h) AS BIGINT) AS distinct_ngrams, "
        f"CAST(count(DISTINCT h) * 1000000 // count(*) AS BIGINT) AS distinct_ppm "
        f"FROM {last}"
        for n, _, last in parts
    )
    return f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS w
  FROM documents
),
pos_tbl AS (
  SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS pos FROM tok
),
ids AS (
  SELECT doc_id, pos, md5_number_lower(w[pos]) AS id FROM pos_tbl
),
{ctes}
{selects}
"""


QUERIES["corpus_diversity"] = q_corpus_diversity
ORACLE_SQL["corpus_diversity"] = _build_diversity_sql()




def q_source_mix_sample(sf_dir: str) -> ray.data.Dataset:
    """Data-mixing rebalance: deterministic md5 downsample so every
    group contributes (up to rounding) the size of the SMALLEST group —
    the static equal-share mixing step of corpus assembly. Keyed on
    ``lang`` (the synthetic table's sources are uniform; lang carries
    the real ~3x skew, so the threshold branch is exercised). Keep rule
    is an exact integer lattice: keep doc iff md5_prefix_u64(doc_id) <
    (min_count << 64) // count(group), so both engines compare the same
    integers (no float rates). HASH-MATCH oracle recomputes counts and
    thresholds in SQL."""
    from duplicate_finder_ray.stages.relational import _md5_prefix_u64

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    sizes = grouped_aggregate(docs, "lang", {"n": ("count", None)})
    counts = {r["lang"]: r["n"] for r in sizes.take_all()}
    min_cnt = min(counts.values())
    thr = {
        s: (min_cnt << 64) // c for s, c in counts.items()
    }  # == 2^64 when c == min_cnt ⇒ keep all

    def keep(batch: pa.Table) -> pa.Table:
        h = _md5_prefix_u64(batch.column("doc_id"))
        src_col = batch.column("lang").to_numpy(zero_copy_only=False)
        # factorized threshold probe (python only over distinct sources)
        uniq, codes = np.unique(src_col, return_inverse=True)
        t = np.array([min(thr[s], (1 << 64) - 1) for s in uniq], dtype=np.uint64)
        full = np.array([thr[s] >= (1 << 64) for s in uniq], dtype=bool)
        mask = (h < t[codes]) | full[codes]
        return batch.filter(pa.array(mask))

    return docs.map_batches(keep, batch_format="pyarrow")


QUERIES["source_mix_sample"] = q_source_mix_sample
ORACLE_SQL["source_mix_sample"] = """
WITH c AS (SELECT lang, count(*) AS cnt FROM documents GROUP BY 1),
m AS (SELECT min(cnt) AS mn FROM c)
SELECT d.doc_id, d.lang
FROM documents d JOIN c USING (lang) CROSS JOIN m
WHERE ('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 16))::UBIGINT
      < (CAST(m.mn AS HUGEINT) * 18446744073709551616) // c.cnt
   OR c.cnt = m.mn
"""




def q_cosine_threshold_sweep(sf_dir: str) -> ray.data.Dataset:
    """Embedding near-dup threshold calibration: pair counts at cosine
    thresholds 0.30..0.80 (step 0.05) — the sweep an operator uses to
    pick τ before a dedup run (the Jaccard twin is
    jaccard_threshold_sweep). Counts compare on the integer ppm lattice
    of the ROUNDED score, so both engines bucket identically.
    HASH-MATCH oracle: thresholds VALUES × the pair CTE — valid because
    at gate scale the AUTO stage (stages/similarity.py:
    cosine_threshold_sweep) takes its EXACT brute-force branch; past
    ``brute_rows`` vectors it switches to the deterministic-sample
    estimate (scale probe: scripts/bench_cosine_sweep.py)."""
    from duplicate_finder_ray.stages import similarity

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    thresholds = np.arange(300_000, 800_001, 50_000, dtype=np.int64)
    return similarity.cosine_threshold_sweep(
        emb, thresholds, threshold_min=0.3
    )


QUERIES["cosine_threshold_sweep"] = q_cosine_threshold_sweep
ORACLE_SQL["cosine_threshold_sweep"] = """
WITH p AS (
  SELECT CAST(round(round(list_cosine_similarity(
             CAST(x.embedding AS DOUBLE[]),
             CAST(y.embedding AS DOUBLE[])), 6) * 1000000) AS BIGINT) AS ppm
  FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
  WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                               CAST(y.embedding AS DOUBLE[])) >= 0.3
),
t(threshold_ppm) AS (
  SELECT unnest(range(300000, 800001, 50000))
)
SELECT t.threshold_ppm,
       CAST(count(p.ppm) AS BIGINT) AS n_pairs
FROM t LEFT JOIN p ON p.ppm >= t.threshold_ppm
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Driver-snapshot ordering: the driver's CORRECTNESS snapshot checks a
# bounded PREFIX of this registry (~50 entries/round, in insertion
# order), so the registry is explicitly ordered least-proven-first:
# (1) queries added in the CURRENT round (prepend to _DRIVER_PRIORITY),
# (2) the queries that have NEVER received a driver CORRECTNESS row in
# any round (the r1-r4 snapshot union covers 97 of 201 names; the
# remaining 104 lead here so rounds 5-6 close the exposure gap), then
# (3) every query already hash-verified by a driver snapshot in rounds
# 1-4, parked at the back. The full 200-oracle gate still runs locally
# via scripts/check_oracle.py regardless of this ordering.
# ---------------------------------------------------------------------------

#: round-5 window: never-driver-snapshotted queries (r1-r4 union excluded)
_DRIVER_PRIORITY = [
    "ivfpq_adc_topk", "bm25_topk", "hybrid_search_rrf", "boolean_search",
    "cms_point_counts", "bloom_semi_lineitems", "rolling_active_users",
    "fuzzy_clusters", "dedup_aware_sample", "ab_welch_t",
    "doclen_psi_drift", "lang_source_chi2", "signature_shingle_counts",
    "normalized_dup_groups", "shuffle_join_revenue", "repetition_stats",
    "redact_props", "anti_join_lineitems", "events_running_totals",
    "top_tokens_df", "stratified_sample_docs", "decontaminate_docs",
    "events_lag_deltas", "distinctive_terms", "chunk_documents",
    "doc_quartiles", "events_rolling_window", "sample_n_per_lang",
    "pack_documents", "chunk_share_pairs", "full_join_custorders",
    "user_event_pivot", "docs_rollup", "curation_pipeline", "event_mode",
    "user_event_sequences", "user_first_last", "doclen_outliers",
    "lang_len_token_corr", "docs_cube", "weighted_sample_docs",
    "rank_docs_per_lang", "edit_distance_pairs", "near_dup_keepers",
    "label_centroids", "events_windowed_distinct", "value_histogram",
    "minmax_scale_docs", "top_bigrams", "funnel_signup_purchase",
    "near_dup_degree_hist", "containment_pairs", "centroid_assign",
    "paragraph_dedup", "pq_codes", "trending_tokens", "retention_cohorts",
    "user_revenue_pivot", "dedup_rate_by_lang", "novelty_scores",
    "session_funnel", "repo_overlap_pairs", "vendored_content",
    "dup_dir_groups", "boilerplate_lines", "fork_candidates",
    "dup_rate_by_size", "near_dup_cluster_hist", "repo_skew_report",
    "code_snapshot_diff", "code_table_fingerprint", "clone_groups_type2",
    "event_transitions", "fork_families", "dir_rollup", "user_peak_rate",
    "repo_size_gini", "integrity_audit", "session_cooccurrence",
    "dedup_summary", "repo_distinct_contents", "doclen_equidepth_hist",
    "profile_documents", "events_watermark", "curriculum_phases",
    "repo_pareto", "purchase_error_overlaps", "reassemble_docs",
    "compression_ratios", "encoding_audit", "pmi_bigrams",
    "dedup_retry_events", "near_dup_cluster_density", "line_stats",
    "dedup_keepers_by_depth", "events_hourly_dense",
    "jaccard_threshold_sweep", "lang_mismatch", "token_freq_spectrum",
    "events_seasonality", "events_anomalous_hours", "daily_new_users",
    "inactive_users", "events_hourly_autocorr",
]

#: already hash-verified by a driver snapshot in rounds 1-4 — safe to
#: park at the back of the registry
_SNAPSHOTTED_R1234 = [
    "dup_ngram_stats", "unigram_xent", "duplicated_passages",
    "leakage_free_split", "corpus_diversity", "source_mix_sample",
    "cosine_threshold_sweep", "minhash_signatures", "lsh_candidate_pairs",
    "simhash_pairs", "doc_fingerprints", "near_dup_spans",
    "doclen_quantiles_sketch", "greedy_pack_documents", "media_features",
    "media_phash", "q1_pricing_summary", "q2_min_cost_supplier",
    "q3_shipping_priority", "q4_order_priority", "q5_supplier_volume",
    "q6_forecast_revenue", "q7_nation_volume", "q8_market_share",
    "q9_nation_profit", "q10_returned_items", "q11_important_parts",
    "q12_priority_lines", "q13_order_distribution", "q14_promo_revenue",
    "q15_top_supplier", "q16_supplier_counts", "q17_small_qty_revenue",
    "q18_large_orders", "q19_bracket_revenue", "q20_volume_suppliers",
    "q21_waiting_suppliers", "q22_lapsed_balances", "code_global_rank",
    "snm_candidate_pairs", "skew_join_repo_bytes", "zorder_zone_maps",
    "epoch_shuffle", "near_dup_degrees", "near_dup_pagerank",
    "near_dup_triangles", "near_dup_kcore", "semdedup", "kmeans_clusters",
    "pq_adc_topk", "distinct_tokens_per_lang", "normalize_text",
    "quality_prune", "dataset_split", "code_files_derive",
    "incremental_dedup", "incremental_near_dup", "exact_dup_groups",
    "exact_dup_members", "exact_dup_members_verified", "dedup_keepers",
    "deletion_tally", "filter_globs", "filter_size_range",
    "size_prefilter", "group_sort_by_n", "group_sort_by_size",
    "token_counts", "near_dup_pairs", "near_dup_clusters",
    "ngram_jaccard_pairs", "ngram_jaccard_clusters", "ppjoin_pairs",
    "ann_topk", "ann_topk_ivf", "embedding_cosine_pairs",
    "embedding_lsh_pairs", "incremental_embedding_pairs", "events_hourly",
    "events_sessions", "media_meta", "media_frame_sample",
    "quality_scores", "language_id", "token_counts_bpe",
    "join_segment_revenue", "lineitem_pricing_summary",
    "asof_last_purchase", "range_join_price_buckets", "events_sliding",
    "topk_docs_per_lang", "set_intersect_repos", "set_except_repos",
    "sample_docs_md5", "doclen_quantiles", "top_tokens",
    "top_tokens_approx",
]

_mid = [
    k for k in QUERIES
    if k not in _DRIVER_PRIORITY and k not in _SNAPSHOTTED_R1234
]
QUERIES = {
    k: QUERIES[k]
    for k in [*_DRIVER_PRIORITY, *_mid, *_SNAPSHOTTED_R1234]
}
