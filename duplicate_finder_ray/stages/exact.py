"""Exact duplicate detection: sha256 → one hash exchange → groups.

Reproduces the reference's pipeline semantics (SURVEY.md §1.2):

* duplicate ⇔ same size and same sha256 (reference
  duplicate_finder.py:166,176-239);
* groups are member-sorted lexicographically; the keeper is the
  lexicographic minimum (:246-250,309);
* singleton groups are not duplicates (:248-249) — the members reduce
  drops them, which is all the reference's size prefilter decides once
  the digest is already computed;
* optional byte-exact verification refines hash groups (:427-463) —
  implemented CORRECTLY here (distinct subgroup ids per refined
  partition), unlike the reference's re-merge flaw (SURVEY.md §2.4).

Scale notes (100 TB / 10^12 rows):

* The heavy ``content`` column is dropped before any shuffle (unless
  verifying); only ``(file_id, repo, path, commit, lang, size, sha256)``
  rows move.
* Members cost ONE exchange keyed on the digest — skew-free by
  construction (crypto-hash keys); group fan-in is bounded by real
  duplicate multiplicity. Each partition reduces with one Arrow stable
  sort plus numpy run-length passes (``members_kernel``), the same
  kernel with or without content verification — no pandas round trip.
  The groups table is a per-block projection of the keeper rows (one
  task per member block), never a second shuffle.
* ``candidate_sizes`` / ``apply_size_prefilter`` are the reference's
  hash-avoiding prefilter, used by ``prefilter_mode="two_pass"``: a
  broadcast semi-join probed with vectorized ``np.isin`` — raw rows
  never shuffle for it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.stages.exchange import grouped_aggregate, hash_exchange
from duplicate_finder_ray.stages.util import fetch_blocks, map_blocks

#: columns that flow into the shuffle (content intentionally absent)
MEMBER_COLS = ["file_id", "repo", "path", "commit", "lang", "size", "sha256"]

MEMBERS_SCHEMA = pa.schema(
    [
        ("file_id", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("size", pa.int64()),
        ("sha256", pa.string()),
        ("group_id", pa.string()),
        ("n_files", pa.int64()),
        ("rank", pa.int64()),
        ("is_keeper", pa.bool_()),
    ]
)

_EMPTY_MEMBERS = MEMBERS_SCHEMA.empty_table()


def candidate_sizes(ds: ray.data.Dataset) -> np.ndarray:
    """Distinct sizes observed on ≥2 rows — the prefilter key set.

    One size-keyed ``grouped_aggregate`` count (each block pre-counted
    in its split task, so the shuffle carries per-block partials, not
    raw rows). The result (sizes bearing duplicates) is small relative
    to the corpus and is collected to the driver for broadcast.
    """
    counts = grouped_aggregate(
        ds.select_columns(["size"]), "size", {"n": ("count", None)}
    )
    parts = fetch_blocks(counts)
    if not parts:
        return np.empty(0, np.int64)
    t = pa.concat_tables(parts)
    dup = t.filter(pc.greater(t["n"], 1))["size"]
    return np.sort(dup.to_numpy().astype(np.int64))


def apply_size_prefilter(ds: ray.data.Dataset, sizes: np.ndarray) -> ray.data.Dataset:
    """Keep only rows whose size appears ≥2 times (reference
    _remove_single_files_from_file_list, duplicate_finder.py:176-196).

    ``sizes`` (sorted) is broadcast with ``ray.put`` ONCE; every task
    probes the shared-memory copy via zero-copy ``ray.get`` + vectorized
    ``np.isin`` — a broadcast semi-join, not a shuffle.
    """
    sizes_ref = ray.put(sizes)

    def probe(batch: pa.Table) -> pa.Table:
        keep = np.isin(batch.column("size").to_numpy(), ray.get(sizes_ref))
        return batch.filter(pa.array(keep))

    return ds.map_batches(probe, batch_format="pyarrow")


def _run_starts(*cols: pa.Array | np.ndarray) -> np.ndarray:
    """True where a row's key tuple differs from the previous row's: the
    first row of each run of equal keys in a sorted table (row 0 always
    starts one)."""
    starts = np.zeros(len(cols[0]), dtype=bool)
    starts[:1] = True
    for col in cols:
        ne = pc.fill_null(pc.not_equal(col[1:], col[:-1]), True)
        starts[1:] |= ne.to_numpy(zero_copy_only=False)
    return starts


def _rank_in_runs(starts: np.ndarray) -> np.ndarray:
    """0, 1, 2, … restarting at every run start."""
    idx = np.arange(len(starts))
    return idx - np.maximum.accumulate(np.where(starts, idx, 0))


def _sorted_order(tbl: pa.Table, keys: list[str]) -> pa.Array:
    """Stable ascending sort on ``keys``, nulls last per key."""
    return pc.sort_indices(
        tbl, sort_keys=[(k, "ascending") for k in keys], null_placement="at_end"
    )


def members_kernel(tbl: pa.Table, verify_content: bool) -> pa.Table:
    """One partition's duplicate members: ``tbl`` holds every row of
    the (size, sha256) groups it touches (plus ``content`` iff
    verifying); returns MEMBERS_SCHEMA rows in sorted order.

    One stable sort on ``(size, sha256, repo, path, commit)`` — the
    TUPLE, not the joined file_id string: 'LICENSE' vs 'LICENSE.txt'
    must order the way the reference's raw-path sort does ('@' in
    file_id sorts after '.', flipping the keeper otherwise). Hash groups
    are runs of equal ``(sha256, size)``. When verifying, a stable
    numpy sort by content dictionary code within each hash group makes
    the byte-identical subgroups contiguous — codes, never string
    hashing, so contents that differ only after a NUL stay apart.
    ``n_files`` is the (sub)group's row count, ``rank`` its running
    count in tuple order; ``#k`` numbers a hash group's surviving
    subgroups by first appearance.
    """
    n = len(tbl)
    order = _sorted_order(tbl, ["size", "sha256", "repo", "path", "commit"])
    hash_starts = _run_starts(tbl["sha256"].take(order), tbl["size"].take(order))
    group = np.cumsum(hash_starts) - 1
    # (sub)groups are the runs that ``starts`` marks in ``perm`` order
    if verify_content:
        codes = pc.dictionary_encode(
            tbl["content"].combine_chunks(), null_encoding="encode"
        ).indices.take(order).to_numpy()
        perm = np.lexsort((codes, group))
        starts = _run_starts(group[perm], codes[perm])
    else:
        perm, starts = np.arange(n), hash_starts
    sub = np.empty(n, dtype=np.int64)
    sub[perm] = np.cumsum(starts) - 1
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = _rank_in_runs(starts)
    n_files = np.bincount(sub)[sub]
    keep = n_files >= 2
    if not keep.any():
        return _EMPTY_MEMBERS
    out = tbl.select(MEMBER_COLS).take(order.filter(pa.array(keep)))
    rank, sub, group = rank[keep], sub[keep], group[keep]
    gid = out["sha256"]
    if verify_content:
        # k = rank of the subgroup's first row among the surviving
        # subgroups' first rows of the same hash group
        is_first = rank == 0
        k_of_sub = np.zeros(sub.max() + 1, dtype=np.int64)
        k_of_sub[sub[is_first]] = _rank_in_runs(_run_starts(group[is_first]))
        k = k_of_sub[sub]
        suffixed = pc.binary_join_element_wise(
            gid, pc.cast(pa.array(k), pa.string()), "#"
        )
        gid = pc.if_else(pa.array(k == 0), gid, suffixed)
    return pa.Table.from_arrays(
        [*out.columns, gid, pa.array(n_files[keep]), pa.array(rank), pa.array(rank == 0)],
        names=MEMBERS_SCHEMA.names,
    ).cast(MEMBERS_SCHEMA)


def duplicate_members(ds: ray.data.Dataset, cfg: PipelineConfig) -> ray.data.Dataset:
    """Exploded duplicate-membership table (the scale-friendly form of the
    reference's ``list[list[str]]`` result).

    Input rows carry MEMBER_COLS (plus ``content`` iff
    ``cfg.verify_content``). Output: one row per member of each duplicate
    group with ``group_id, n_files, rank, is_keeper`` appended; members
    are ranked in lexicographic ``(repo, path, commit)`` order — the
    tuple, not the joined file_id string, so prefix paths (LICENSE vs
    LICENSE.txt) order exactly like the reference's raw-path
    ``sorted(group)`` — keeper is rank 0. With verify_content, hash groups
    are refined to byte-identical subgroups with distinct
    ``group_id = sha256 ["#" k]`` (fixes the reference's re-merge flaw,
    duplicate_finder.py:443-461): k numbers the surviving subgroups in
    order of first appearance in the tuple-sorted hash group.

    ONE barrier-free hash exchange on hash(sha256) % P
    (stages/exchange.py) — every (size, sha256) group lands in one
    partition — then ``members_kernel`` inside each partition: one
    Arrow stable sort and numpy run-length passes, for both verify
    modes; no pandas round trip. A naive groupby(size, sha).map_groups
    pays a Python call per GROUP, and Ray Data's sort-based groupby pays
    a sample barrier + full sort for an order nothing needs. Content
    moves only when verifying, and is dropped before emitting.
    """

    def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
        return members_kernel(tbl, cfg.verify_content)

    num_parts = max(8, cfg.parallelism)
    return hash_exchange(ds, "sha256", num_parts, reduce_fn, _EMPTY_MEMBERS)


GROUPS_SCHEMA = pa.schema(
    [("group_id", pa.string()), ("size", pa.int64()), ("n_files", pa.int64())]
)


def groups_from_members(members: ray.data.Dataset) -> ray.data.Dataset:
    """Collapse membership to one row per group ``(group_id, size,
    n_files)`` (reference result shape, duplicate_finder.py:241-255; the
    member lists stay exploded for scale). Every group — each verified
    ``#k`` subgroup included — has exactly one rank-0 row carrying its
    ``size`` and ``n_files``, so this is a keeper-row projection: one
    task per member block (``map_blocks``), launched at once, no
    shuffle and no Ray Data execution over the materialized members.
    Every output block is typed, so a zero-duplicate corpus keeps the
    groups schema."""
    return map_blocks(
        members,
        lambda t: t.filter(t["is_keeper"]).select(GROUPS_SCHEMA.names),
        GROUPS_SCHEMA.empty_table(),
    )


def keepers_only(members: ray.data.Dataset) -> ray.data.Dataset:
    """The deduplicated view: one surviving row per duplicate group — the
    non-destructive analogue of the reference's deletion
    (duplicate_finder.py:297-351). Deletion ≡ dropping non-keepers."""
    return members.map_batches(
        lambda t: t.filter(t["is_keeper"]), batch_format="pyarrow"
    )


def deletion_tally(members: ray.data.Dataset) -> dict:
    """Count + freed bytes over non-keepers (reference tallies at
    duplicate_finder.py:306-340): the dry-run / delete summary."""
    def tally(t: pa.Table) -> pa.Table:
        size = t["size"].filter(pc.invert(t["is_keeper"]))
        return pa.table(
            {"n_deleted": [len(size)], "bytes_freed": [pc.sum(size).as_py() or 0]}
        )

    empty = pa.table({"n_deleted": [0], "bytes_freed": [0]})
    parts = fetch_blocks(map_blocks(members, tally, empty))
    return {k: sum(pc.sum(p[k]).as_py() for p in parts) for k in empty.column_names}


def keepers_by_depth(
    members: ray.data.Dataset, num_partitions: int = 32
) -> ray.data.Dataset:
    """Alternative keeper POLICY: per duplicate group keep the
    SHALLOWEST path (fewest '/' separators), ties by (repo, path,
    commit) — the "keep the canonical copy, delete the vendored ones"
    rule real dedup runs want when duplicates differ only in nesting
    (src/lib.c vs third_party/foo/src/lib.c). The default pipeline
    keeper (lex-min tuple, reference rule) stays untouched; this is a
    re-selection over the members view.

    Scale shape: members rows are slim; ONE barrier-free hash exchange
    by hash(group_id) co-locates each group, then one stable Arrow sort
    on ``(group_id, depth, repo, path, commit)`` keeps the first row of
    each group_id run — no per-group Python."""
    out_schema = pa.schema(
        [
            ("file_id", pa.string()),
            ("repo", pa.string()),
            ("path", pa.string()),
            ("depth", pa.int64()),
            ("group_id", pa.string()),
        ]
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "file_id": b["file_id"],
                "repo": b["repo"],
                "path": b["path"],
                "commit": b["commit"],
                "depth": pc.cast(pc.count_substring(b["path"], "/"), pa.int64()),
                "group_id": b["group_id"],
            }
        )

    def kernel(p: int, tbl: pa.Table) -> pa.Table:
        order = _sorted_order(tbl, ["group_id", "depth", "repo", "path", "commit"])
        first = order.filter(pa.array(_run_starts(tbl["group_id"].take(order))))
        return tbl.select(out_schema.names).take(first).cast(out_schema)

    slim = members.select_columns(
        ["file_id", "repo", "path", "commit", "group_id"]
    ).map_batches(prep, batch_format="pyarrow")
    return hash_exchange(
        slim, "group_id", num_partitions, kernel, out_schema.empty_table()
    )
