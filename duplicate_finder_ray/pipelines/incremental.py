"""Incremental exact dedup: a NEW batch of files against an existing
corpus baseline.

Production shape for a continuously-ingested 100 TB corpus: the
baseline's digest table (file_id, repo, path, commit, size, sha256 —
what `DedupPipeline` / `ray_job.py` already persist) lives as Parquet;
only the small increment's content is read and hashed. No reference
counterpart (the reference rescans the whole tree each run,
duplicate_finder.py:116-174); the semantics extend the engine's
keep-first rule across runs: a file already present in the baseline
keeps ownership of its group, so every matching increment file is a
duplicate of it; groups formed only within the increment elect their
keeper by the usual (repo, path, commit) lexicographic rank.

Execution shape (the baseline is the BIG side, the increment the small
one — the asymmetry drives every choice):

1. increment → digest table via the same map_batches derivation the
   full pipeline uses (content dropped immediately after hashing);
2. one remote task (``util.gather_blocks``) builds the sorted distinct
   increment sha256 array; it stays a ref in the object store, never
   on the driver;
3. the baseline digest table STREAMS through a map_batches semi-join
   probe against that array (no shuffle, no materialization of the
   100 TB side);
4. the increment rows and the matched baseline rows, told apart by a
   ``from_increment`` flag, meet in ONE hash exchange on sha256 — the
   exact path's partitioning — and each partition runs
   :func:`members_kernel` with the exact path's sort-and-runs helpers.

Every step past the probe is partitioned, so neither side has to fit
one task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.stages.derive import add_identity, add_sha256, drop_content
from duplicate_finder_ray.stages.exact import _rank_in_runs, _run_starts, _sorted_order
from duplicate_finder_ray.stages.exchange import hash_exchange
from duplicate_finder_ray.stages.util import (
    block_refs,
    gather_blocks,
    in_sorted,
    map_blocks,
    sorted_distinct,
)

MEMBERS_SCHEMA = pa.schema(
    [
        ("file_id", pa.string()),
        ("size", pa.int64()),
        ("sha256", pa.string()),
        ("group_id", pa.string()),
        ("is_keeper", pa.bool_()),
        ("matched_baseline", pa.bool_()),
        ("baseline_keeper", pa.string()),  # '' when unmatched
    ]
)

#: the exchanged rows: increment digests and matched baseline digests
_ROW_SCHEMA = pa.schema(
    [
        ("file_id", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("size", pa.int64()),
        ("sha256", pa.string()),
        ("from_increment", pa.bool_()),
    ]
)


@dataclass
class IncrementalResult:
    #: one row per increment file (singletons included)
    members: ray.data.Dataset
    #: count of increment files matching an existing baseline group
    n_matched_baseline: int


def _digests(ds: ray.data.Dataset) -> ray.data.Dataset:
    return (
        ds.map_batches(add_identity, batch_format="pyarrow")
        .map_batches(add_sha256, batch_format="pyarrow")
        .map_batches(drop_content, batch_format="pyarrow")
    )


def _tagged(from_increment: bool):
    """Digest block → ``_ROW_SCHEMA`` rows carrying the side flag."""

    def tag(batch: pa.Table) -> pa.Table:
        flag = pa.array(np.full(len(batch), from_increment))
        rows = batch.select(_ROW_SCHEMA.names[:-1])
        return rows.append_column("from_increment", flag).cast(_ROW_SCHEMA)

    return tag


def _sorted_unique(ds: ray.data.Dataset, col: str, dtype) -> ray.ObjectRef:
    """The ref of the sorted distinct values of ``ds``'s ``col``: the
    probe array of a streaming semi-join, built in the cluster."""
    empty = (0, np.empty(0, dtype))
    return gather_blocks(
        ds, sorted_distinct, empty, columns=[col], num_returns=2
    )[1]


def _semi_join(ds: ray.data.Dataset, col: str, sorted_ref) -> ray.data.Dataset:
    """The rows of ``ds`` whose ``col`` is in the sorted array behind
    ``sorted_ref``: a streaming map, no shuffle."""

    def probe(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(in_sorted(ray.get(sorted_ref), vals)))

    return ds.map_batches(probe, batch_format="pyarrow")


def _n_matched(members: pa.Table) -> int:
    """Members that joined a baseline group."""
    return pc.sum(members["matched_baseline"]).as_py() or 0


def members_kernel(tbl: pa.Table) -> pa.Table:
    """One partition's increment members: ``tbl`` holds ``_ROW_SCHEMA``
    rows of every (size, sha256) group it touches; returns one
    MEMBERS_SCHEMA row per increment row.

    One stable sort on ``(size, sha256, from_increment, repo, path,
    commit)`` puts a group's baseline rows first. The first row of a
    ``(size, sha256)`` run therefore decides ``matched_baseline`` and,
    when it is a baseline row, is the ``baseline_keeper`` (the minimum
    tuple, as in :func:`stages.exact.members_kernel`). The rank within
    a ``(size, sha256, from_increment)`` run elects the increment-local
    keeper, which only counts for unmatched groups."""
    keys = ["size", "sha256", "from_increment", "repo", "path", "commit"]
    t = tbl.take(_sorted_order(tbl, keys))
    first = np.arange(len(t)) - _rank_in_runs(_run_starts(t["size"], t["sha256"]))
    from_inc = t["from_increment"].to_numpy()
    matched = ~from_inc[first]
    rank = _rank_in_runs(_run_starts(t["size"], t["sha256"], t["from_increment"]))
    keeper = pc.if_else(pa.array(matched), t["file_id"].take(pa.array(first)), "")
    out = pa.table(
        [
            t["file_id"],
            t["size"],
            t["sha256"],
            t["sha256"],
            pa.array(~matched & (rank == 0)),
            pa.array(matched),
            keeper,
        ],
        schema=MEMBERS_SCHEMA,
    )
    return out.filter(pa.array(from_inc))


def _touching(pairs: pa.Table, inc_fids: np.ndarray) -> pa.Table:
    """The candidate pairs with at least one endpoint in the sorted
    increment fids."""
    a, b = pairs["a"].to_numpy(), pairs["b"].to_numpy()
    return pairs.filter(pa.array(in_sorted(inc_fids, a) | in_sorted(inc_fids, b)))


NEARDUP_LABELS_SCHEMA = pa.schema(
    [("file_id", pa.string()), ("component", pa.string())]
)


def _increment_labels(ids: pa.Table, graph: pa.Table) -> tuple:
    """(label per increment file, count of increment files whose
    component holds a baseline file). ``ids``: the increment's
    ``file_id`` rows; ``graph``: the pair graph's labels.

    Left join of the increment ids to the graph labels, unlabeled ids
    naming themselves; every graph node outside the increment is a
    baseline file."""
    ids = pc.unique(ids["file_id"].cast(pa.string()))
    labels = pa.table({"file_id": ids}).join(graph, "file_id", join_type="left outer")
    labels = labels.set_column(
        1, "component", pc.coalesce(labels["component"], labels["file_id"])
    )
    base = graph.filter(pc.invert(pc.is_in(graph["file_id"], value_set=ids)))
    hit = pc.is_in(labels["component"], value_set=base["component"].combine_chunks())
    return labels.cast(NEARDUP_LABELS_SCHEMA), pc.sum(hit).as_py() or 0


@dataclass
class IncrementalNearDupResult:
    #: verified pairs touching the increment: (a, b, n_bands, jaccard,
    #: n_inter, n_union), string file_ids, a < b — inc×inc and
    #: inc×baseline, never baseline×baseline (those existed before this
    #: batch)
    pairs: ray.data.Dataset
    #: component per INCREMENT file (baseline partners pulled in via the
    #: pair graph; component id = lexicographically smallest member, so
    #: an increment file joining an existing cluster gets that cluster's
    #: baseline-rooted id). Pairs bridging two pre-existing baseline
    #: clusters are REPORTED in ``pairs`` but the baseline label table is
    #: not rewritten here — fold them in with a global
    #: ``cc.connected_components`` pass when compacting.
    labels: ray.data.Dataset
    #: increment files whose component in this batch's pair graph holds
    #: ≥1 baseline file (directly or through other increment files)
    n_matched_baseline: int


class IncrementalNearDup:
    """Near-dup detection for a NEW batch against a baseline SIGNATURE
    table (the `NearDupResult.signatures` a prior run persisted with
    ``emit_shingles=True`` — fid, bands, n_shingles, shingles; its
    ``bands`` must come from the same band count as this config, which
    the explode checks).

    Only the increment is shingled/hashed, by the full pipeline's
    signature stage. The baseline streams twice, both passes trivially
    parallel with no shuffle: once through the band-explode (a flatten
    of the stored band keys) + semi-join probe against the increment's
    band keys, once through the verify stage's endpoint filter (which
    shingle sets are needed). The increment's band rows and the matched
    baseline band rows then take the engine's own stages:
    ``candidate_pairs`` (keeping the pairs with an increment endpoint),
    ``verify_pairs_exact`` and ``connected_components``. One task then
    labels the increment's files from the pair graph's labels. At
    10^12-file scale partition the stored signature table by
    ``fid % S`` and by band range to prune both streams to touched
    partitions."""

    def __init__(self, cfg: PipelineConfig | None = None) -> None:
        self.cfg = cfg or PipelineConfig()

    def run(
        self,
        baseline_sigs: ray.data.Dataset,
        increment: ray.data.Dataset,
    ) -> IncrementalNearDupResult:
        from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
        from duplicate_finder_ray.stages import cc, neardup

        cfg = self.cfg
        inc_sigs = NearDupPipeline(cfg)._signatures(
            increment, emit_shingles=True
        ).materialize()
        inc_bands = neardup.explode_bands(inc_sigs, cfg).materialize()
        hot_ref = _sorted_unique(inc_bands, "band_hash", np.uint64)
        inc_fids_ref = _sorted_unique(inc_bands, "fid", np.uint64)
        matched_bands = _semi_join(
            neardup.explode_bands(baseline_sigs, cfg), "band_hash", hot_ref
        ).materialize()
        band_rows = [
            *block_refs(inc_bands, keep_one_empty=True),
            *block_refs(matched_bands),
        ]
        pairs = neardup.candidate_pairs(ray.data.from_arrow_refs(band_rows), cfg)
        candidates = map_blocks(
            pairs, _touching, neardup.CAND_SCHEMA.empty_table(), inc_fids_ref
        )
        verified = neardup.verify_pairs_exact(
            candidates, inc_sigs.union(baseline_sigs), cfg
        ).materialize()
        graph = cc.connected_components(verified, cfg)
        graph_ref = gather_blocks(
            graph,
            lambda t: t.cast(NEARDUP_LABELS_SCHEMA),
            NEARDUP_LABELS_SCHEMA.empty_table(),
            columns=NEARDUP_LABELS_SCHEMA.names,
        )
        labels_ref, n_ref = gather_blocks(
            inc_sigs,
            _increment_labels,
            (NEARDUP_LABELS_SCHEMA.empty_table(), 0),
            graph_ref,
            columns=["file_id"],
            num_returns=2,
        )
        return IncrementalNearDupResult(
            pairs=verified,
            labels=ray.data.from_arrow_refs([labels_ref]),
            n_matched_baseline=ray.get(n_ref),
        )


class IncrementalDedup:
    def __init__(self, cfg: PipelineConfig | None = None) -> None:
        self.cfg = cfg or PipelineConfig()

    def run(
        self,
        baseline_digests: ray.data.Dataset,
        increment: ray.data.Dataset,
    ) -> IncrementalResult:
        """baseline_digests: digest table (columns ⊇ file_id, repo,
        path, commit, size, sha256) from a prior run — streamed, never
        materialized. increment: raw code table (repo, path, commit[,
        lang], content)."""
        inc = _digests(increment).map_batches(_tagged(True), batch_format="pyarrow")
        inc = inc.materialize()
        sha_ref = _sorted_unique(inc, "sha256", object)
        matched = _semi_join(baseline_digests, "sha256", sha_ref).map_batches(
            _tagged(False), batch_format="pyarrow"
        )
        members = hash_exchange(
            inc.union(matched),
            "sha256",
            max(8, self.cfg.parallelism),
            lambda p, tbl: members_kernel(tbl),
            MEMBERS_SCHEMA.empty_table(),
        ).materialize()
        n_matched = ray.get(gather_blocks(members, _n_matched, 0))
        return IncrementalResult(members, n_matched)
