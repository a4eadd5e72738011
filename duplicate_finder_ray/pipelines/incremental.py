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
2. ONE remote task lexsorts the increment digests: per-(size, sha256)
   rank by (repo, path, commit) and the sorted sha256 probe array —
   increment-sized, never the baseline;
3. the baseline digest table STREAMS through a map_batches semi-join
   probe (np.searchsorted against the broadcast sha array — zero-copy,
   no shuffle, no materialization of the 100 TB side);
4. the (increment-sized) matched rows reduce in one remote task to the
   per-key baseline keeper = min (repo, path, commit);
5. a final map_batches over the increment digests annotates
   matched_baseline / baseline_keeper / is_keeper.

Partitioning assumption (documented per north_rule): the INCREMENT
fits one task's memory (~10^8 rows); for increment ≈ corpus, run the
full `DedupPipeline` instead — incremental mode exists for small
deltas, where it avoids re-hashing the baseline entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray
import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.stages.derive import add_identity, add_sha256, drop_content

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


_DIG_COLS = ["file_id", "repo", "path", "commit", "size", "sha256"]


@ray.remote
def _rank_increment(*blocks: pa.Table) -> tuple:
    """(ranked increment digest table, sorted unique sha256 array).

    Rank = position of (repo, path, commit) within the (size, sha256)
    group — 0 elects the increment-local keeper, matching the engine's
    tuple sort (NOT the concatenated file_id string, which mis-orders
    prefix paths)."""
    blocks = tuple(b for b in blocks if "sha256" in b.column_names and len(b))
    if not blocks:
        empty = pa.table(
            {
                c: pa.array([], pa.int64() if c in ("size", "rnk") else pa.string())
                for c in _DIG_COLS + ["rnk"]
            }
        )
        return empty, np.empty(0, dtype=object)
    tbl = pa.concat_tables([b.select(_DIG_COLS) for b in blocks])
    sha = tbl.column("sha256").to_numpy(zero_copy_only=False)
    size = tbl.column("size").to_numpy()
    repo = tbl.column("repo").to_numpy(zero_copy_only=False)
    path = tbl.column("path").to_numpy(zero_copy_only=False)
    commit = tbl.column("commit").to_numpy(zero_copy_only=False)
    order = np.lexsort((commit, path, repo, size, sha))
    tbl = tbl.take(pa.array(order))
    sha_s, size_s = sha[order], size[order]
    new_grp = np.r_[
        True, (sha_s[1:] != sha_s[:-1]) | (size_s[1:] != size_s[:-1])
    ]
    grp_start = np.maximum.accumulate(np.where(new_grp, np.arange(len(sha_s)), 0))
    rnk = np.arange(len(sha_s)) - grp_start
    tbl = tbl.append_column("rnk", pa.array(rnk.astype(np.int64)))
    return tbl, np.unique(sha)


@ray.remote
def _baseline_keepers(*blocks: pa.Table) -> dict:
    """Reduce matched baseline rows to {(size, sha256): keeper file_id},
    keeper = min (repo, path, commit) tuple."""
    blocks = tuple(b for b in blocks if "sha256" in b.column_names and len(b))
    out: dict = {}
    if not blocks:
        return out
    tbl = pa.concat_tables([b.select(_DIG_COLS) for b in blocks])
    sha = tbl.column("sha256").to_numpy(zero_copy_only=False)
    size = tbl.column("size").to_numpy()
    repo = tbl.column("repo").to_numpy(zero_copy_only=False)
    path = tbl.column("path").to_numpy(zero_copy_only=False)
    commit = tbl.column("commit").to_numpy(zero_copy_only=False)
    fid = tbl.column("file_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((commit, path, repo, size, sha))
    sha_s, size_s, fid_s = sha[order], size[order], fid[order]
    first = np.r_[
        True, (sha_s[1:] != sha_s[:-1]) | (size_s[1:] != size_s[:-1])
    ]
    for i in np.nonzero(first)[0]:
        out[(int(size_s[i]), sha_s[i])] = fid_s[i]
    return out


NEARDUP_LABELS_SCHEMA = pa.schema(
    [("file_id", pa.string()), ("component", pa.string())]
)


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
    #: increment files with ≥1 verified baseline partner
    n_matched_baseline: int


class IncrementalNearDup:
    """Near-dup detection for a NEW batch against a baseline SIGNATURE
    table (the `NearDupResult.signatures` a prior run persisted with
    ``emit_shingles=True`` — fid, bands, n_shingles, shingles; its
    ``bands`` must come from the same band count as this config, which
    the explode checks).

    Only the increment is shingled/hashed. The baseline streams twice,
    both passes trivially parallel with no shuffle: once through the
    band-explode (a flatten of the stored band keys) + broadcast-
    membership probe (which bands collide with the increment's), once
    through the verify stage's endpoint filter (which shingle sets are
    needed). At 10^12-file scale partition the stored signature table
    by ``fid % S`` and by band range to prune both streams to touched
    partitions."""

    def __init__(self, cfg: PipelineConfig | None = None) -> None:
        self.cfg = cfg or PipelineConfig()

    def run(
        self,
        baseline_sigs: ray.data.Dataset,
        increment: ray.data.Dataset,
    ) -> IncrementalNearDupResult:
        from duplicate_finder_ray.stages import cc, neardup
        from duplicate_finder_ray.stages.derive import add_identity

        cfg = self.cfg
        with_id = increment.map_batches(add_identity, batch_format="pyarrow")
        inc_sigs = neardup.signatures(
            with_id.select_columns(["file_id", "content"]),
            cfg,
            emit_shingles=True,
        ).materialize()
        inc_bands = neardup.explode_bands(inc_sigs, cfg).materialize()
        inc_refs = inc_bands.to_arrow_refs()

        @ray.remote(num_returns=2)
        def inc_band_index(*blocks: pa.Table) -> tuple:
            """(sorted unique inc band hashes, sorted inc fids)."""
            blocks = tuple(
                b for b in blocks if "band_hash" in b.column_names and len(b)
            )
            if not blocks:
                return (
                    np.empty(0, dtype=np.uint64),
                    np.empty(0, dtype=np.uint64),
                )
            tbl = pa.concat_tables(blocks)
            return (
                np.unique(tbl.column("band_hash").to_numpy().astype(np.uint64)),
                np.unique(tbl.column("fid").to_numpy().astype(np.uint64)),
            )

        bands_ref, inc_fids_ref = inc_band_index.remote(*inc_refs)

        def probe_bands(batch: pa.Table) -> pa.Table:
            hot = ray.get(bands_ref)
            col = batch.column("band_hash").to_numpy().astype(np.uint64)
            if len(hot) == 0 or len(col) == 0:
                return batch.slice(0, 0)
            pos = np.searchsorted(hot, col)
            pos[pos >= len(hot)] = 0
            return batch.filter(pa.array(hot[pos] == col))

        matched_bands = (
            neardup.explode_bands(baseline_sigs, cfg)
            .map_batches(probe_bands, batch_format="pyarrow")
            .materialize()
        )

        @ray.remote
        def inc_candidates(inc_fids: np.ndarray, *blocks: pa.Table) -> pa.Table:
            """Bucket inc + matched-baseline band rows together, emit
            capped pairs, DROP baseline×baseline pairs, dedupe across
            bands — one lexsort task (both inputs are increment-sized
            by construction)."""
            blocks = tuple(
                b for b in blocks if "band_hash" in b.column_names and len(b)
            )
            if not blocks:
                return neardup.CAND_SCHEMA.empty_table()
            tbl = pa.concat_tables([b.select(["band_hash", "fid"]) for b in blocks])
            a, b, sz = neardup.bucket_pairs_arrays(
                tbl.column("band_hash").to_numpy().astype(np.uint64),
                tbl.column("fid").to_numpy().astype(np.uint64),
                cfg.band_bucket_cap,
                cfg.band_pair_budget,
            )
            if len(a) == 0:
                return neardup.CAND_SCHEMA.empty_table()

            def is_inc(x: np.ndarray) -> np.ndarray:
                if len(inc_fids) == 0:
                    return np.zeros(len(x), dtype=bool)
                pos = np.searchsorted(inc_fids, x)
                pos[pos >= len(inc_fids)] = 0
                return inc_fids[pos] == x

            keep = is_inc(a) | is_inc(b)
            return neardup.dedupe_pair_arrays(a[keep], b[keep], sz[keep])

        cand_ref = inc_candidates.remote(
            inc_fids_ref, *(inc_refs + matched_bands.to_arrow_refs())
        )
        candidates = ray.data.from_arrow_refs([cand_ref])

        sig_union = inc_sigs.union(baseline_sigs)
        verified = neardup.verify_pairs_exact(
            candidates, sig_union, cfg
        ).materialize()

        labels_graph = cc.connected_components(verified, cfg).materialize()

        @ray.remote(num_returns=2)
        def finalize_labels(n_lab: int, *blocks: pa.Table) -> tuple:
            """Labels for every increment file: graph component when it
            appears in the pair graph, else its own file_id. Also count
            inc files whose component contains ≥1 baseline member."""
            lab = [
                b
                for b in blocks[:n_lab]
                if "file_id" in b.column_names and len(b)
            ]
            ids = [
                b
                for b in blocks[n_lab:]
                if "file_id" in b.column_names and len(b)
            ]
            lab_t = (
                pa.concat_tables([b.select(["file_id", "component"]) for b in lab])
                if lab
                else NEARDUP_LABELS_SCHEMA.empty_table()
            )
            inc_ids = (
                np.unique(
                    np.concatenate(
                        [
                            b.column("file_id").to_numpy(zero_copy_only=False)
                            for b in ids
                        ]
                    )
                )
                if ids
                else np.empty(0, dtype=object)
            )
            lf = lab_t.column("file_id").to_numpy(zero_copy_only=False)
            lc = lab_t.column("component").to_numpy(zero_copy_only=False)
            order = np.argsort(lf)
            lf, lc = lf[order], lc[order]

            def member_of(sorted_arr: np.ndarray, probe: np.ndarray) -> np.ndarray:
                if len(sorted_arr) == 0 or len(probe) == 0:
                    return np.zeros(len(probe), dtype=bool)
                pos = np.searchsorted(sorted_arr, probe)
                pos[pos >= len(sorted_arr)] = 0
                return sorted_arr[pos] == probe

            if len(lf):
                pos = np.searchsorted(lf, inc_ids)
                pos[pos >= len(lf)] = 0
                hit = lf[pos] == inc_ids
                comp = np.where(hit, lc[pos], inc_ids)
            else:
                comp = inc_ids.copy()
            out = pa.table(
                {
                    "file_id": pa.array(inc_ids, pa.string()),
                    "component": pa.array(comp, pa.string()),
                }
            )
            # every labeled node NOT in inc_ids is a baseline member;
            # an inc file matches iff its component is one of theirs
            node_is_inc = member_of(inc_ids, lf)
            base_components = np.unique(lc[~node_is_inc])
            n_matched = int(np.sum(member_of(base_components, comp)))
            return out, n_matched

        lab_refs = list(labels_graph.to_arrow_refs())
        id_refs = list(
            inc_sigs.select_columns(["file_id"]).materialize().to_arrow_refs()
        )
        out_ref, n_ref = finalize_labels.remote(
            len(lab_refs), *(lab_refs + id_refs)
        )
        labels = ray.data.from_arrow_refs([out_ref])
        return IncrementalNearDupResult(
            pairs=verified, labels=labels, n_matched_baseline=int(ray.get(n_ref))
        )


class IncrementalDedup:
    def __init__(self, cfg: PipelineConfig | None = None) -> None:
        self.cfg = cfg or PipelineConfig()

    def run(
        self,
        baseline_digests: ray.data.Dataset,
        increment: ray.data.Dataset,
    ) -> IncrementalResult:
        """baseline_digests: digest table (columns ⊇ _DIG_COLS) from a
        prior run — streamed, never materialized. increment: raw code
        table (repo, path, commit[, lang], content)."""
        inc_dig = _digests(increment).materialize()
        inc_refs = inc_dig.to_arrow_refs()
        if not inc_refs or inc_dig.count() == 0:
            return IncrementalResult(
                ray.data.from_arrow(MEMBERS_SCHEMA.empty_table()), 0
            )
        ranked_ref, sha_ref = _rank_increment.options(num_returns=2).remote(
            *inc_refs
        )

        def probe(batch: pa.Table) -> pa.Table:
            shas = ray.get(sha_ref)
            col = batch.column("sha256").to_numpy(zero_copy_only=False)
            if len(shas) == 0 or len(col) == 0:
                return batch.slice(0, 0)
            pos = np.searchsorted(shas, col)
            pos[pos >= len(shas)] = 0
            return batch.filter(pa.array(shas[pos] == col))

        matched = (
            baseline_digests.map_batches(probe, batch_format="pyarrow")
            .materialize()
        )
        keeper_ref = _baseline_keepers.remote(*matched.to_arrow_refs())

        def annotate(batch: pa.Table) -> pa.Table:
            keepers = ray.get(keeper_ref)
            size = batch.column("size").to_numpy()
            sha = batch.column("sha256").to_numpy(zero_copy_only=False)
            rnk = batch.column("rnk").to_numpy()
            # vectorized lookup: sorted composite keys + searchsorted
            if keepers:
                kk = np.array(
                    [f"{h}#{s}" for (s, h) in keepers.keys()], dtype=object
                )
                kv = np.array(list(keepers.values()), dtype=object)
                ko = np.argsort(kk)
                kk, kv = kk[ko], kv[ko]
                probe_keys = np.array(
                    [f"{h}#{int(s)}" for h, s in zip(sha, size)], dtype=object
                )
                pos = np.searchsorted(kk, probe_keys)
                pos[pos >= len(kk)] = 0
                hit = kk[pos] == probe_keys
                bk = np.where(hit, kv[pos], "")
            else:
                hit = np.zeros(len(batch), dtype=bool)
                bk = np.full(len(batch), "", dtype=object)
            is_keeper = np.where(hit, False, rnk == 0)
            return pa.table(
                {
                    "file_id": batch["file_id"],
                    "size": batch["size"],
                    "sha256": batch["sha256"],
                    "group_id": batch["sha256"],
                    "is_keeper": pa.array(is_keeper, pa.bool_()),
                    "matched_baseline": pa.array(hit, pa.bool_()),
                    "baseline_keeper": pa.array(bk, pa.string()),
                }
            )

        members = ray.data.from_arrow_refs([ranked_ref]).map_batches(
            annotate, batch_format="pyarrow"
        )
        members = members.materialize()
        n_matched = int(
            members.map_batches(
                lambda b: pa.table(
                    {
                        "n": pa.array(
                            [
                                int(
                                    pa.compute.sum(
                                        pa.compute.cast(
                                            b["matched_baseline"], pa.int64()
                                        )
                                    ).as_py()
                                    or 0
                                )
                            ],
                            pa.int64(),
                        )
                    }
                ),
                batch_format="pyarrow",
            ).sum("n")
            or 0
        )
        return IncrementalResult(members, n_matched)
