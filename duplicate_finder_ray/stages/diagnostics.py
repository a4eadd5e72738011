"""Shuffle-planning diagnostics.

The north-star failure mode at corpus scale is key skew: one mega-repo
or hot shingle turning a hash partition into a straggler. The engine
handles skew *inside* its operators (LSH hot-bucket caps, IVF hot-cell
splitting, the repo-overlap pair cap); this module gives the USER the
observability half — measure how a candidate partitioning key actually
distributes before launching the expensive job, with a
cross-engine-replayable partitioner (md5 prefix, the same lattice as
``deterministic_sample``/``split_assign``) so the report is
oracle-checkable and identical on any engine."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.stages.exchange import grouped_aggregate, hash_exchange
from duplicate_finder_ray.stages.relational import _md5_prefix_u64
from duplicate_finder_ray.stages.repostats import _group_starts


def key_skew_report(
    ds: ray.data.Dataset,
    key_col: str,
    n_parts: int = 32,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Simulated-partitioning skew report: assign every row to
    ``partition_id = int(md5(key)[:8 hex], 16) % n_parts`` (replayable
    in any engine) and report, per partition: row count, distinct-key
    count, and the heaviest key with its row count (ties to the
    lexicographically-first key). A balanced key shows n_rows ≈
    total/n_parts everywhere; a mega-repo shows up as one partition's
    ``top_key_n`` ≈ its ``n_rows``.

    Shape: per-batch (pid, key, n) count partials — the combiner keeps
    the shuffle at (keys × blocks), never row count — then ONE
    pid-keyed exchange whose reduce merges partials and emits exactly
    one slim row per partition id. The md5-per-distinct-key loop runs
    over batch-deduped keys via the C-level memoryview kernel shared
    with ``deterministic_sample``."""
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")

    out_schema = pa.schema(
        [
            ("partition_id", pa.int64()),
            ("n_rows", pa.int64()),
            ("n_keys", pa.int64()),
            ("top_key", pa.string()),
            ("top_key_n", pa.int64()),
        ]
    )
    part_schema = pa.schema(
        [("pid", pa.int64()), ("key", pa.string()), ("n", pa.int64())]
    )
    N = np.int64(n_parts)

    def partials(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return part_schema.empty_table()
        keys = pc.cast(batch[key_col], pa.string())
        df = pd.DataFrame({"key": keys.to_numpy(zero_copy_only=False)})
        g = df.groupby("key", sort=False).size().reset_index(name="n")
        uniq = pa.array(g["key"].to_numpy(dtype=object), pa.string())
        pid = ((_md5_prefix_u64(uniq) >> np.uint64(32)).astype(np.int64)) % N
        return pa.table(
            {
                "pid": pa.array(pid, pa.int64()),
                "key": uniq,
                "n": pa.array(g["n"].to_numpy(), pa.int64()),
            }
        )

    slim = ds.select_columns([key_col]).map_batches(
        partials, batch_format="pyarrow"
    )

    def part_of(tbl: pa.Table, p: int) -> np.ndarray:
        return (tbl.column("pid").to_numpy() % p).astype(np.int64)

    def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        df = (
            tbl.to_pandas()
            .groupby(["pid", "key"], sort=False)["n"]
            .sum()
            .reset_index()
            .sort_values(["pid", "n", "key"], ascending=[True, False, True],
                         kind="mergesort")
        )
        pid = df["pid"].to_numpy().astype(np.int64)
        n = df["n"].to_numpy().astype(np.int64)
        starts = np.r_[True, pid[1:] != pid[:-1]]
        gidx = np.cumsum(starts) - 1
        n_groups = int(gidx[-1]) + 1
        first = np.nonzero(starts)[0]  # heaviest key row (sort order)
        return pa.table(
            {
                "partition_id": pa.array(pid[first], pa.int64()),
                "n_rows": pa.array(np.bincount(gidx, weights=n)
                                   .astype(np.int64), pa.int64()),
                "n_keys": pa.array(
                    np.bincount(gidx, minlength=n_groups).astype(np.int64),
                    pa.int64(),
                ),
                "top_key": pa.array(
                    df["key"].to_numpy(dtype=object)[first], pa.string()
                ),
                "top_key_n": pa.array(n[first], pa.int64()),
            }
        )

    return hash_exchange(
        slim, part_of, num_partitions, reduce_fn, out_schema.empty_table()
    )


def snapshot_diff(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_cols: list[str],
    value_col: str,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Snapshot diff for incremental-pipeline validation: compare two
    versions of a keyed table and count keys ``added`` (right only),
    ``removed`` (left only), ``changed`` (both, different value) and
    ``unchanged``. Output (status, n_keys). Keys must be UNIQUE per
    side — a duplicate raises loudly rather than guessing (set
    semantics on a multiset input would silently miscount).

    Shape: both sides project to slim (keys…, value, side) rows and
    cross ONE key-hash exchange; each partition classifies its keys
    with one vectorized sort + boundary pass and emits four count
    partials; a tiny grouped sum finishes."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if not key_cols:
        raise ValueError("key_cols must be non-empty")
    part_schema = pa.schema([("status", pa.string()), ("n", pa.int64())])

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {c: pc.cast(batch[c], pa.string()) for c in key_cols}
            cols["__v"] = pc.cast(batch[value_col], pa.string())
            cols["__side"] = pa.array(
                np.full(len(batch), side, dtype=np.int8), pa.int8()
            )
            return pa.table(cols)

        return fn

    slim = left.select_columns([*key_cols, value_col]).map_batches(
        tag(0), batch_format="pyarrow"
    ).union(
        right.select_columns([*key_cols, value_col]).map_batches(
            tag(1), batch_format="pyarrow"
        )
    )

    def joined_key(tbl: pa.Table) -> np.ndarray:
        parts = [tbl.column(c).to_numpy(zero_copy_only=False) for c in key_cols]
        if len(parts) == 1:
            return parts[0]
        out = parts[0].astype(object)
        for p in parts[1:]:
            out = out + "\x00" + p.astype(object)
        return out

    def classify(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return part_schema.empty_table()
        key = np.asarray(joined_key(tbl), dtype=object)
        side = tbl.column("__side").to_numpy()
        val = tbl.column("__v").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, key))
        key, side, val = key[order], side[order], val[order]
        starts = _group_starts(key)
        gidx = np.cumsum(starts) - 1
        n_groups = int(gidx[-1]) + 1
        n_left = np.bincount(gidx[side == 0], minlength=n_groups)
        n_right = np.bincount(gidx[side == 1], minlength=n_groups)
        if (n_left > 1).any() or (n_right > 1).any():
            raise ValueError(
                f"snapshot_diff: duplicate key within one side "
                f"(partition {p})"
            )
        start_pos = np.nonzero(starts)[0]
        both = (n_left == 1) & (n_right == 1)
        # in-group order is (side 0, side 1); equal-value check for 'both'
        same = np.zeros(n_groups, dtype=bool)
        b_idx = start_pos[both]
        same[both] = val[b_idx] == val[b_idx + 1]
        counts = {
            "added": int((n_left == 0).sum()),
            "removed": int((n_right == 0).sum()),
            "changed": int((both & ~same).sum()),
            "unchanged": int((both & same).sum()),
        }
        return pa.table(
            {
                "status": pa.array(list(counts), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    partials = hash_exchange(
        slim, key_cols, num_partitions, classify, part_schema.empty_table()
    )
    totals = grouped_aggregate(partials, "status", {"n_keys": ("sum", "n")})
    return totals.filter(expr="n_keys > 0")


def table_fingerprint(
    ds: ray.data.Dataset,
    cols: list[str],
    num_partitions: int = 4,
) -> ray.data.Dataset:
    """Order-insensitive content checksum for resumable-pipeline
    validation: fingerprint = Σ over rows of the first-60-bit md5 of
    the '\\x1f'-joined column values, mod 2⁶⁴ (uint64 wrap — exact and
    associative, so per-batch partials combine in any order at any
    scale). Output ONE row (n_rows, fingerprint). Two tables with equal
    fingerprints + counts are content-identical up to row order with
    md5-collision probability; replayable in SQL via
    sum(('0x' || substr(md5(...), 1, 15))::BIGINT) % 2⁶⁴."""
    if not cols:
        raise ValueError("cols must be non-empty")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    out_schema = pa.schema(
        [("n_rows", pa.int64()), ("fingerprint", pa.string())]
    )
    part_schema = pa.schema([("n", pa.int64()), ("f", pa.uint64())])
    MASK60 = np.uint64((1 << 60) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return part_schema.empty_table()
        joined = pc.binary_join_element_wise(
            *[pc.cast(batch[c], pa.string()) for c in cols], "\x1f"
        )
        h = (_md5_prefix_u64(joined) >> np.uint64(4)) & MASK60
        return pa.table(
            {
                "n": pa.array([len(batch)], pa.int64()),
                "f": pa.array(
                    [np.add.reduce(h, dtype=np.uint64)], pa.uint64()
                ),
            }
        )

    partials = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    )

    def part_of(tbl: pa.Table, p: int) -> np.ndarray:
        return np.zeros(len(tbl), dtype=np.int64)

    def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
        if p != 0 or len(tbl) == 0:
            return out_schema.empty_table()
        n = int(tbl.column("n").to_numpy().sum())
        f = np.add.reduce(tbl.column("f").to_numpy(), dtype=np.uint64)
        return pa.table(
            {
                "n_rows": pa.array([n], pa.int64()),
                "fingerprint": pa.array([format(int(f), "016x")], pa.string()),
            }
        )

    return hash_exchange(
        partials, part_of, num_partitions, reduce_fn, out_schema.empty_table()
    )
