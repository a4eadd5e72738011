"""Relational operators beyond the reference's surface.

The reference implements no joins, set ops, sampling, top-k or
quantiles (SURVEY.md §2.5) — but a training-data engine needs them, so
each is built here as a first-class Ray Data operator with the scale
shape stated up front:

* ``broadcast_hash_join`` — small dimension side is concatenated in ONE
  remote task and ``ray.put`` once; every probe task reads it zero-copy
  from the object store and gathers matches vectorized. No shuffle of
  the big side at all (ray_guide "broadcast the small side").
* ``asof_join`` — both sides are tagged, union'ed and shuffled ONCE by
  ``hash(key) % B`` buckets (NOT by raw key: a per-key map_groups pays
  a Python call per key; bucketing amortizes it to B calls and each
  bucket runs pandas' C ``merge_asof`` across all its keys at once).
  Skew bound = the hottest key's row count (same bound as
  sessionization; key cardinality ≫ cores keeps partitions balanced).
* ``range_join_buckets`` — the bucket table (sorted, non-overlapping
  ranges) is broadcast; assignment is a row-local ``searchsorted``, so
  an interval join costs exactly one map pass.
* ``topk_per_group`` — per-batch LOCAL top-k first (the combiner), so
  the shuffle carries ≤ k rows per group per block, never the corpus.
* ``intersect_keys`` / ``except_keys`` — distributed set ops as one
  key-grouped max over side flags, pre-aggregated per block.
* ``deterministic_sample`` — md5-keyed Bernoulli sample: reproducible
  across engines and runs (the same rows at any parallelism), unlike
  ``Dataset.random_sample``. md5 digests are computed from memoryviews
  over the Arrow string buffer and compared as uint64 prefix views —
  no per-row Python objects (the digest call itself is the irreducible
  work of a portable cryptographic sampler).
* ``grouped_quantiles`` — exact linear-interpolation quantiles per
  group via one group-keyed exchange; per-group numpy kernel.
* ``salted_distinct_count`` — explicit salted repartitioning: a hot
  key's value set fans out over ``n_salts`` reducers by
  ``md5(value) % n_salts`` (same value → same salt, so per-slice
  dedupe is globally exact) and a slim per-key sum folds the partials.
  Breaks the mega-repo / hot-shingle skew that a plain per-key
  exchange cannot.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.stages.exchange import (
    default_partitions,
    grouped_aggregate,
    hash_exchange,
)
from duplicate_finder_ray.stages.util import (
    gather_blocks,
    group_aggregate,
    group_codes,
    group_rows,
    ranked_head,
    sort_indices,
)


# --------------------------------------------------------------------------
# broadcast hash join
# --------------------------------------------------------------------------


def collect_small_side(ds: ray.data.Dataset, columns: list[str]):
    """Concatenate a SMALL dataset into one Arrow table inside a remote
    task and return the object ref — the driver never holds the rows;
    probe tasks ``ray.get`` the ref zero-copy. Expr-filtered upstreams
    can emit blocks that dodged the ``select_columns`` projection, so
    each block is projected again. Without rows the table is typed by
    ``ds``'s schema, its columns null-typed when that has none."""
    from duplicate_finder_ray.stages.join import _pa_type

    mat = ds.select_columns(columns).materialize()
    schema = mat.schema()
    types = dict(zip(schema.names, schema.types)) if schema is not None else {}
    if all(c in types for c in columns):
        empty = pa.schema([(c, _pa_type(types[c])) for c in columns]).empty_table()
    else:
        empty = pa.table({c: [] for c in columns})
    return gather_blocks(mat, pa.Table.combine_chunks, empty, columns=columns)


def broadcast_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    right_cols: list[str],
    how: str = "inner",
) -> ray.data.Dataset:
    """Equi-join where ``right`` is dimension-sized. Output columns:
    all left columns + ``right_cols``. ``how`` ∈ {"inner", "left"}."""
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how={how!r}")
    ref = collect_small_side(right, [right_key, *right_cols])

    def probe(batch: pa.Table) -> pa.Table:
        rt = ray.get(ref)
        lk = batch.column(left_key).to_numpy(zero_copy_only=False)
        rk = rt.column(right_key).to_numpy(zero_copy_only=False)
        m = pd.DataFrame({"k": lk, "i": np.arange(len(lk))}).merge(
            pd.DataFrame({"k": rk, "j": np.arange(len(rk))}),
            on="k",
            how="inner" if how == "inner" else "left",
        )
        lt = batch.take(pa.array(m["i"].to_numpy()))
        arrays = list(lt.columns)
        names = list(lt.column_names)
        if how == "inner":
            rsel = rt.take(pa.array(m["j"].to_numpy()))
            for c in right_cols:
                arrays.append(rsel.column(c))
                names.append(c)
        elif len(rt) == 0:
            # left join against an empty dimension table: every left row
            # survives with all-null right columns (rt.take on a 0-row
            # table would raise out-of-bounds)
            for c in right_cols:
                arrays.append(pa.nulls(len(m), rt.schema.field(c).type))
                names.append(c)
        else:
            j = m["j"].to_numpy()
            jj = np.where(pd.isna(j), 0, j).astype(np.int64)
            rsel = rt.take(pa.array(jj))
            mask = pa.array(pd.isna(j))
            for c in right_cols:
                col = rsel.column(c).combine_chunks()
                if isinstance(col, pa.ChunkedArray):
                    col = col.chunk(0) if col.num_chunks else pa.nulls(0, col.type)
                arrays.append(pc.if_else(mask, pa.nulls(len(jj), col.type), col))
                names.append(c)
        return pa.Table.from_arrays(arrays, names=names)

    return left.map_batches(probe, batch_format="pyarrow")


# --------------------------------------------------------------------------
# as-of join
# --------------------------------------------------------------------------


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    left_ts: str,
    right_ts: str,
    value_col: str,
    out_col: str,
    fill: int = -1,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """For every left row, the ``value_col`` of the right row with the
    same ``key`` and the greatest ``right_ts`` STRICTLY before
    ``left_ts`` (DuckDB ``ASOF LEFT JOIN ... ON l.key = r.key AND
    l.ts > r.ts`` semantics). Rows with no match get ``fill``
    (sentinel, not NULL — keeps the output a non-nullable int64 so
    distributed blocks never widen to float).

    Timestamps must be int64 (µs). Right side must be unique per
    (key, ts) — pre-aggregate ties upstream or the match is ambiguous.
    One shuffle keyed by ``hash(key) % num_buckets``; each bucket runs
    pandas' C ``merge_asof`` (sorted-merge across all the bucket's
    keys at once — no per-key Python).
    """
    if num_buckets is None:
        num_buckets = default_partitions()
    lschema = left.schema()
    ltypes = dict(zip(lschema.names, lschema.types))
    lcols = [c for c in lschema.names]
    out_fields = [(c, ltypes[c]) for c in lcols] + [(out_col, pa.int64())]
    out_schema = pa.schema(out_fields)

    def bucket_col(batch: pa.Table) -> pa.Array:
        k = batch.column(key).to_numpy(zero_copy_only=False)
        h = stable_hash_array(np.asarray(k, dtype=object))
        return pa.array((h % np.uint64(num_buckets)).astype(np.int32), pa.int32())

    def tag_left(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in lcols}
        cols["__v"] = pa.nulls(len(batch), pa.int64())
        cols["__rts"] = pa.nulls(len(batch), pa.int64())
        cols["__side"] = pa.array(np.zeros(len(batch), dtype=np.int8))
        cols["__bucket"] = bucket_col(batch)
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {}
        for c in lcols:
            if c == key:
                cols[c] = batch.column(key)
            elif c == left_ts:
                cols[c] = pa.nulls(n, ltypes[left_ts])
            else:
                cols[c] = pa.nulls(n, ltypes[c])
        cols["__v"] = pc.cast(batch.column(value_col), pa.int64())
        cols["__rts"] = pc.cast(batch.column(right_ts), pa.int64())
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        cols["__bucket"] = bucket_col(batch)
        return pa.table(cols)

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def per_bucket(part: pa.Table) -> pa.Table:
        if "__side" not in part.column_names:  # empty zero-column block
            return out_schema.empty_table()
        side = part.column("__side").to_numpy()
        lsel = np.nonzero(side == 0)[0]
        if len(lsel) == 0:
            return out_schema.empty_table()
        lt = part.take(pa.array(lsel))
        rsel = np.nonzero(side == 1)[0]
        lts = lt.column(left_ts).to_numpy()
        lkey = lt.column(key).to_numpy(zero_copy_only=False)
        n = len(lsel)
        if len(rsel) == 0:
            vals = np.full(n, fill, dtype=np.int64)
        else:
            ldf = pd.DataFrame(
                {"k": lkey, "ts": lts, "i": np.arange(n, dtype=np.int64)}
            ).sort_values("ts", kind="mergesort")
            rt = part.take(pa.array(rsel))
            rdf = pd.DataFrame(
                {
                    # null-free after the row take — stays int64 (the
                    # full nullable union column would convert to float)
                    "k": rt.column(key).to_numpy(zero_copy_only=False),
                    "ts": rt.column("__rts").to_numpy(
                        zero_copy_only=False
                    ).astype(np.int64),
                    "v": rt.column("__v").to_numpy(
                        zero_copy_only=False
                    ).astype(np.int64),
                }
            ).sort_values("ts", kind="mergesort")
            m = pd.merge_asof(
                ldf,
                rdf,
                on="ts",
                by="k",
                direction="backward",
                allow_exact_matches=False,
            )
            vals = np.full(n, fill, dtype=np.float64)
            vals[m["i"].to_numpy()] = m["v"].to_numpy()
            vals = np.where(np.isnan(vals), fill, vals).astype(np.int64)
        arrays = [lt.column(c) for c in lcols] + [pa.array(vals, pa.int64())]
        return pa.Table.from_arrays(arrays, schema=out_schema)

    # barrier-free co-location (stages/exchange.py) — bucket membership
    # is all the merge needs; per_bucket sorts its own rows
    def bucket_part(tbl: pa.Table, n: int) -> np.ndarray:
        return tbl.column("__bucket").to_numpy().astype(np.int64)

    def bucket_reduce(p: int, tbl: pa.Table) -> pa.Table:
        return per_bucket(tbl)

    return hash_exchange(
        both, bucket_part, num_buckets, bucket_reduce, out_schema.empty_table()
    )


# --------------------------------------------------------------------------
# range join
# --------------------------------------------------------------------------


def range_join_buckets(
    ds: ray.data.Dataset,
    value_col: str,
    bounds: list[tuple[int, int, int]],
) -> ray.data.Dataset:
    """Interval (range) join of each row's int ``value_col`` against a
    small table of ``(bucket_id, lo, hi)`` half-open ranges. Ranges must
    be sorted by ``lo`` and non-overlapping; rows outside every range
    are dropped (inner semantics). Adds a ``bucket_id:int64`` column.
    The bucket table is closure-captured (tiny); assignment is one
    row-local searchsorted — the interval join costs a map pass, not a
    shuffle."""
    ids = np.array([b[0] for b in bounds], dtype=np.int64)
    los = np.array([b[1] for b in bounds], dtype=np.int64)
    his = np.array([b[2] for b in bounds], dtype=np.int64)
    if not (np.all(np.diff(los) > 0) and np.all(los < his)):
        raise ValueError("bounds must be sorted by lo and well-formed")

    def assign(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy()
        idx = np.searchsorted(los, v, side="right") - 1
        ok = (idx >= 0) & (v < his[np.maximum(idx, 0)])
        kept = batch.filter(pa.array(ok))
        bid = ids[idx[ok]]
        return kept.append_column("bucket_id", pa.array(bid, pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


# --------------------------------------------------------------------------
# per-group top-k
# --------------------------------------------------------------------------


def topk_per_group(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    tie_col: str,
    k: int,
) -> ray.data.Dataset:
    """Top-k rows per group by (``order_col`` desc, ``tie_col`` asc),
    with a 1-based ``rank`` column. See :func:`topk_per_group_by` for
    the execution shape."""
    return topk_per_group_by(
        ds, group_col, [order_col, tie_col], [False, True], k
    )


def topk_per_group_by(
    ds: ray.data.Dataset,
    group_col: str,
    by: list[str],
    ascending: list[bool],
    k: int,
) -> ray.data.Dataset:
    """Top-k rows per group under an arbitrary multi-column ordering,
    with a 1-based ``rank`` column. Two phases: a per-batch LOCAL top-k
    (so the shuffle carries ≤ k rows per group per block), then the
    same selection once more in each reduce of one group-keyed
    ``hash_exchange`` — the standard combiner shape that keeps a
    10^10-row corpus's shuffle at k × groups × blocks."""
    if len(by) != len(ascending) or not by:
        raise ValueError("by and ascending must be equal-length, non-empty")

    def top(part: pa.Table, with_rank: bool = False) -> pa.Table:
        codes, _ = group_codes(part.column(group_col))
        order = sort_indices(part, by, ascending)
        order = order[np.argsort(codes[order], kind="stable")]
        g = codes[order]
        pos = np.arange(len(g))
        new = np.ones(len(g), dtype=bool)
        new[1:] = g[1:] != g[:-1]
        rank = pos - np.maximum.accumulate(np.where(new, pos, 0))
        out = part.take(order[rank < k])
        if with_rank:
            out = out.append_column("rank", pa.array(rank[rank < k] + 1))
        return out

    pruned = ds.map_batches(top, batch_format="pyarrow")
    return hash_exchange(pruned, group_col, None, lambda _, t: top(t, True), None)


def topk_global(
    ds: ray.data.Dataset,
    by: list[str],
    ascending: list[bool],
    k: int,
) -> ray.data.Dataset:
    """Global top-k under a multi-column ordering, with a 1-based
    ``rank``. Local per-batch top-k combiner (≤ k rows per block reach
    the reduce) then ONE tiny remote final selection — the ORDER BY /
    LIMIT k shape where only k × blocks rows ever move."""
    if len(by) != len(ascending) or not by:
        raise ValueError("by and ascending must be equal-length, non-empty")
    if k <= 0:
        raise ValueError("k must be positive")

    def local_topk(part: pa.Table) -> pa.Table:
        return part.take(sort_indices(part, by, ascending)[:k])

    pruned = ds.map_batches(local_topk, batch_format="pyarrow").materialize()
    if pruned.count() == 0:
        schema = ds.schema()
        fields = [
            pa.field(n, t if isinstance(t, pa.DataType) else pa.string())
            for n, t in zip(schema.names, schema.types)
        ]
        empty = pa.schema([*fields, pa.field("rank", pa.int64())]).empty_table()
        return ray.data.from_arrow(empty)
    top = gather_blocks(pruned, lambda t: ranked_head(t, by, ascending, k), None)
    return ray.data.from_arrow_refs([top])


# --------------------------------------------------------------------------
# distributed set ops
# --------------------------------------------------------------------------


def _set_op(
    a: ray.data.Dataset, b: ray.data.Dataset, key: str, keep_b: bool
) -> ray.data.Dataset:
    def flagged(side_a: bool):
        def fn(t: pa.Table) -> pa.Table:
            one = pa.array(np.ones(len(t), dtype=np.int64))
            zero = pa.array(np.zeros(len(t), dtype=np.int64))
            in_a, in_b = (one, zero) if side_a else (zero, one)
            return pa.table({key: t[key], "in_a": in_a, "in_b": in_b})

        return fn

    sides = a.select_columns([key]).map_batches(
        flagged(True), batch_format="pyarrow"
    ).union(
        b.select_columns([key]).map_batches(flagged(False), batch_format="pyarrow")
    )
    flags = grouped_aggregate(
        sides, key, {"a": ("max", "in_a"), "b": ("max", "in_b")}
    )
    if keep_b:
        cond = lambda t: pc.and_(pc.equal(t["a"], 1), pc.equal(t["b"], 1))  # noqa: E731
    else:
        cond = lambda t: pc.and_(pc.equal(t["a"], 1), pc.equal(t["b"], 0))  # noqa: E731

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(cond(batch)).select([key])

    return flags.map_batches(pick, batch_format="pyarrow")


def intersect_keys(
    a: ray.data.Dataset, b: ray.data.Dataset, key: str
) -> ray.data.Dataset:
    """Distinct ``key`` values present in BOTH datasets (SQL INTERSECT)."""
    return _set_op(a, b, key, keep_b=True)


def except_keys(
    a: ray.data.Dataset, b: ray.data.Dataset, key: str
) -> ray.data.Dataset:
    """Distinct ``key`` values in ``a`` and NOT in ``b`` (SQL EXCEPT)."""
    return _set_op(a, b, key, keep_b=False)


# --------------------------------------------------------------------------
# deterministic sampling
# --------------------------------------------------------------------------


def _md5_prefix_u64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Per row, the first 8 bytes of ``md5(str(value))`` as a big-endian
    uint64. Comparing the top ``4*n`` bits of this value against
    ``int(hex_prefix, 16)`` is EXACTLY the lexicographic
    ``hexdigest()[:n] < hex_prefix`` comparison (fixed-width lowercase
    hex orders like its nibbles), so callers keep full md5
    cross-engine replayability. The column is cast to its decimal/utf8
    string form ONCE in Arrow C; the remaining loop feeds md5 from
    memoryviews over the string buffer — no per-row str() or Python
    string objects (md5 itself is the irreducible per-row work; keys
    must be non-null). Round-2 VERDICT perf item: the previous
    to_pylist + str(v).encode() loop allocated two Python objects per
    row on full-corpus passes."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = np.empty(sum(len(c) for c in chunks), dtype=np.uint64)
    md5 = hashlib.md5
    pos = 0
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        if not (
            pa.types.is_string(chunk.type) or pa.types.is_large_string(chunk.type)
        ):
            chunk = pc.cast(chunk, pa.string())  # decimal form == str(v)
        width = 8 if pa.types.is_large_string(chunk.type) else 4
        dtype = np.int64 if width == 8 else np.int32
        bufs = chunk.buffers()
        offs = np.frombuffer(
            bufs[1], dtype=dtype, count=len(chunk) + 1, offset=chunk.offset * width
        )
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        for j in range(len(chunk)):
            out[pos] = int.from_bytes(
                md5(data[offs[j] : offs[j + 1]]).digest()[:8], "big"
            )
            pos += 1
    return out


def deterministic_sample(
    ds: ray.data.Dataset, key_col: str, hex_lt: str = "0d"
) -> ray.data.Dataset:
    """Keep rows whose ``md5(str(key))`` hex digest's first
    ``len(hex_lt)`` chars sort below ``hex_lt`` — a reproducible
    Bernoulli sample at rate int(hex_lt, 16) / 16**len(hex_lt),
    identical at any parallelism and expressible in any SQL engine with
    an md5() function (fixed-width lowercase hex compares numerically).
    The digest-prefix comparison runs vectorized over uint64 views of
    the digests (see ``_md5_prefix_u64``)."""
    n = len(hex_lt)
    if not (0 < n <= 16):
        raise ValueError("hex_lt must be 1..16 hex chars")
    thresh = np.uint64(int(hex_lt, 16))
    shift = np.uint64(64 - 4 * n)

    def keep(batch: pa.Table) -> pa.Table:
        h = _md5_prefix_u64(batch.column(key_col))
        return batch.filter(pa.array((h >> shift) < thresh))

    return ds.map_batches(keep, batch_format="pyarrow")


# --------------------------------------------------------------------------
# grouped quantiles
# --------------------------------------------------------------------------


def grouped_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    qs: list[tuple[str, float]],
) -> ray.data.Dataset:
    """Exact linear-interpolation quantiles per group, emitted as int
    centi-units (floor(q*100 + 0.5)) so the result is order-proof and
    dtype-stable across engines (matches DuckDB quantile_cont). One
    group-keyed exchange; per-group numpy kernel. For corpora where a
    single group exceeds worker memory, swap in a t-digest partial — exactness is the
    point here (it is the oracle for that sketch)."""
    names = [n for n, _ in qs]
    fracs = [f for _, f in qs]
    out_schema = pa.schema(
        [(group_col, pa.string())] + [(n, pa.int64()) for n in names]
    )

    def per_group(_: int, part: pa.Table) -> pa.Table:
        keys, rows = group_rows(part.column(group_col))
        v = part.column(value_col).to_numpy().astype(np.float64)
        res = np.array(
            [np.quantile(v[r], fracs, method="linear") for r in rows]
        ).reshape(len(rows), len(fracs))
        cols = {group_col: [str(k) for k in keys.to_pylist()]}
        for n, r in zip(names, res.T):
            cols[n] = np.floor(r * 100 + 0.5).astype(np.int64)
        return pa.Table.from_pydict(cols, schema=out_schema)

    slim = ds.select_columns([group_col, value_col])
    return hash_exchange(slim, group_col, None, per_group, None)


# --------------------------------------------------------------------------
# salted repartitioning (explicit skew breaking for hot keys)
# --------------------------------------------------------------------------


def _salted_pid(
    key_col: pa.ChunkedArray | pa.Array,
    value_col: pa.ChunkedArray | pa.Array,
    n_salts: int,
    n_parts: int,
) -> np.ndarray:
    """Partition id for (key, value) rows under salted repartitioning:
    ``(md5(key) * n_salts + md5(value) % n_salts) % n_parts``. One hot
    key fans out over exactly ``n_salts`` partitions (consecutive mod
    n_parts), while any fixed (key, value) pair always lands in the
    SAME partition — the invariant that keeps per-partition dedupe
    globally correct. md5-based so the assignment is replayable in any
    engine (same doctrine as ``deterministic_sample``)."""
    kh = _md5_prefix_u64(key_col)
    vh = _md5_prefix_u64(value_col)
    salt = vh % np.uint64(n_salts)
    return (
        (kh * np.uint64(n_salts) + salt) % np.uint64(n_parts)
    ).astype(np.int64)


def salted_distinct_count(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    n_salts: int = 8,
    parts_per_salt: int = 4,
    alias: str = "n_distinct",
) -> ray.data.Dataset:
    """Per-key distinct-value count with EXPLICIT salted repartitioning
    — the skew breaker for mega-keys (a mega-repo's blob set, a hot
    shingle's doc list) whose full value set must never co-locate on
    one reducer.

    A plain ``groupby(key).nunique`` ships every (key, value) row of a
    hot key to ONE task: O(hot key) memory, the classic skew OOM. Here
    the exchange partitions by ``(key, salt)`` where
    ``salt = md5(value) % n_salts``: the hot key's values spread over
    ``n_salts`` reducers, each dedupes its disjoint slice (same value
    → same salt → same partition, so slices partition the distinct
    set), and a final slim grouped sum adds the ≤ n_salts partials per
    key. Memory bound drops from O(hot key) to O(hot key / n_salts);
    the partials shuffle is key-cardinality-sized.

    Map-side, each block pre-dedupes its (key, value) pairs so the
    exchange carries block-distinct rows, not raw rows. Keys and
    values must be non-null (md5 kernel contract)."""
    if n_salts <= 0 or parts_per_salt <= 0:
        raise ValueError("n_salts and parts_per_salt must be positive")
    n_parts = n_salts * parts_per_salt

    from duplicate_finder_ray.stages.join import _pa_type

    key_type = None
    schema = ds.schema()
    if schema is not None:
        key_type = {
            c: _pa_type(t) for c, t in zip(schema.names, schema.types)
        }[key_col]

    def pre_dedupe(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame(
            {
                key_col: batch.column(key_col).to_numpy(zero_copy_only=False),
                value_col: batch.column(value_col).to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return pa.table(
            {
                key_col: pa.array(g[key_col], key_type),
                value_col: pa.array(g[value_col]),
            }
        )

    slim = ds.select_columns([key_col, value_col]).map_batches(
        pre_dedupe, batch_format="pyarrow"
    )

    empty = pa.schema(
        [(key_col, key_type or pa.string()), ("n", pa.int64())]
    ).empty_table()

    def part_of(tbl: pa.Table, n: int) -> np.ndarray:
        return _salted_pid(
            tbl.column(key_col), tbl.column(value_col), n_salts, n
        )

    def reduce_fn(_p: int, part: pa.Table) -> pa.Table:
        if len(part) == 0:
            return empty
        g = (
            part.to_pandas()
            .drop_duplicates()  # cross-block dupes within this slice
            .groupby(key_col, sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                key_col: pa.array(g[key_col], key_type),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    partials = hash_exchange(slim, part_of, n_parts, reduce_fn, empty)
    return grouped_aggregate(partials, key_col, {alias: ("sum", "n")})


# --------------------------------------------------------------------------
# partial-aggregate rollup helpers (TPC-H-style summaries)
# --------------------------------------------------------------------------


def cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """double → exact integer cents with half-up rounding — the same
    IEEE expression the oracle SQL uses (floor(x*100 + 0.5)), immune to
    Arrow/DuckDB round-half mode differences."""
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)), pa.int64())


def grouped_sum_rollup(
    ds: ray.data.Dataset,
    group_cols: list[str],
    cent_cols: dict[str, str],
) -> ray.data.Dataset:
    """Per ``group_cols`` group: row count + exact cent-sums of the given
    double columns, as one ``grouped_aggregate`` (each block pre-summed
    in its split task, so the shuffle carries partials, never raw
    rows)."""

    def to_cents(part: pa.Table) -> pa.Table:
        cols = {c: part.column(c) for c in group_cols}
        for src, out in cent_cols.items():
            cols[out] = cents(part.column(src))
        return pa.table(cols)

    in_cents = ds.select_columns(
        group_cols + list(cent_cols.keys())
    ).map_batches(to_cents, batch_format="pyarrow")
    aggs = {"n_rows": ("count", None)}
    return grouped_aggregate(
        in_cents, group_cols, {**aggs, **{c: ("sum", c) for c in cent_cols.values()}}
    )


def split_assign(
    ds: ray.data.Dataset,
    key_col: str,
    cuts: list[tuple[str, str]],
    default: str,
) -> ray.data.Dataset:
    """Deterministic dataset splitting (train/val/test): each row's
    md5(str(key)) hex prefix is compared against ascending ``cuts`` —
    (name, upper_bound_hex) half-open ranges, remainder → ``default``.
    Row-local, reproducible at any parallelism, and replayable in any
    engine with an md5() (fixed-width lowercase hex compares
    numerically). Assignment is a vectorized searchsorted over the
    uint64 digest-prefix view (see ``_md5_prefix_u64``) — no per-row
    Python between read and output."""
    n = max(len(hx) for _, hx in cuts)
    if any(len(hx) != n for _, hx in cuts) or sorted(
        hx for _, hx in cuts
    ) != [hx for _, hx in cuts]:
        raise ValueError("cuts must share one prefix length, ascending")
    if n > 16:
        raise ValueError("cut prefixes must be at most 16 hex chars")
    bounds = np.array([int(hx, 16) for _, hx in cuts], dtype=np.uint64)
    names = np.array([name for name, _ in cuts] + [default], dtype=object)
    shift = np.uint64(64 - 4 * n)

    def assign(batch: pa.Table) -> pa.Table:
        h = _md5_prefix_u64(batch.column(key_col)) >> shift
        # first cut whose bound exceeds the prefix; past-the-end → default
        idx = np.searchsorted(bounds, h, side="right")
        return batch.append_column("split", pa.array(names[idx], pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(
    ds: ray.data.Dataset,
    key_col: str,
    group_col: str,
    rates: dict[str, str],
    default_hex_lt: str = "00",
) -> ray.data.Dataset:
    """Per-group deterministic Bernoulli sample: each group gets its
    own md5-hex-prefix threshold (the data-mixing / rebalancing shape —
    e.g. keep 20%% of 'en' but 80%% of low-resource languages).
    Same replayability contract as ``deterministic_sample``: identical
    rows at any parallelism and in any engine with md5(). The rate
    table is a tiny plain dict compiled into each task (row-local
    lookup, no shuffle, no broadcast object needed)."""
    widths = {len(v) for v in [*rates.values(), default_hex_lt]}
    if len(widths) != 1:
        raise ValueError("all hex thresholds must share one width")
    n = widths.pop()
    if not (0 < n <= 16):
        raise ValueError("thresholds must be 1..16 hex chars")
    shift = np.uint64(64 - 4 * n)
    default_t = np.uint64(int(default_hex_lt, 16))

    def keep(batch: pa.Table) -> pa.Table:
        h = _md5_prefix_u64(batch.column(key_col)) >> shift
        g = batch.column(group_col).to_numpy(zero_copy_only=False)
        thresh = np.full(len(batch), default_t, dtype=np.uint64)
        for grp, hex_lt in rates.items():
            thresh[g == grp] = np.uint64(int(hex_lt, 16))
        return batch.filter(pa.array(h < thresh))

    return ds.map_batches(keep, batch_format="pyarrow")


def ntile_partitioned(
    ds: ray.data.Dataset,
    part_col: str,
    order_cols: list[str],
    n: int,
    out_col: str = "bucket",
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """``NTILE(n) OVER (PARTITION BY part_col ORDER BY order_cols)`` —
    each row tagged with its 1-based equal-frequency bucket inside its
    partition value (first ``cnt %% n`` buckets get the extra row,
    matching the SQL standard). The percentile-band router of curation
    pipelines ('drop the bottom quartile by quality per language').

    Execution: ONE barrier-free hash exchange on ``part_col`` (several
    partition VALUES may share a physical partition; the kernel handles
    each independently), then a vectorized sort + arithmetic bucket
    assignment — no per-value Python. Exact NTILE requires a total
    order per partition value, so one task sees all of a value's SLIM
    rows (select the columns you need first); for corpus-scale
    percentile routing at unbounded group sizes use the t-digest path
    (``grouped_quantiles_sketch``) instead."""
    from duplicate_finder_ray.stages.join import _pa_type

    if n <= 0:
        raise ValueError("n must be positive")
    names = list(ds.schema().names)
    types = {c: _pa_type(t) for c, t in zip(names, ds.schema().types)}
    missing = [c for c in (part_col, *order_cols) if c not in names]
    if missing:
        raise ValueError(f"missing columns: {missing}")
    out_schema = pa.schema(
        [(c, types[c]) for c in names] + [(out_col, pa.int64())]
    )

    def assign(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        # Arrow sort and dictionary codes, not pandas: pandas' string
        # hash table NUL-truncates, so its multi-key sort and groupby
        # would merge "x\0a" with "x\0b" (see stable_hash_array)
        tbl = tbl.select(names).sort_by(
            [(c, "ascending") for c in (part_col, *order_cols)]
        )
        g = pc.dictionary_encode(
            tbl.column(part_col).combine_chunks(), null_encoding="encode"
        ).indices.to_numpy()
        first = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        sizes = np.diff(np.append(first, len(g)))
        cnt = np.repeat(sizes, sizes)
        starts = np.repeat(first, sizes)
        i = np.arange(len(tbl), dtype=np.int64) - starts
        q, r = cnt // n, cnt % n
        big = r * (q + 1)  # rows covered by the (q+1)-sized buckets
        bucket = np.where(
            i < big, i // (q + 1), r + (i - big) // np.maximum(q, 1)
        ) + 1
        out = tbl.append_column(out_col, pa.array(bucket.astype(np.int64)))
        return out.cast(out_schema)

    return hash_exchange(
        ds, part_col, num_partitions, assign, out_schema.empty_table()
    )


def sample_n_per_group(
    ds: ray.data.Dataset,
    key_col: str,
    group_col: str,
    n: int,
) -> ray.data.Dataset:
    """Exact per-group BUDGET sampling: keep at most ``n`` rows per
    group, chosen by md5-hash order of the key (with the key itself as
    tie-break) — the 'cap every domain/language at N documents' shape.
    Unlike the Bernoulli samplers this guarantees the count; like them
    it is engine-replayable and stable: a kept row is evicted only when
    a lower-hash row enters its group. Scale shape = the top-k combiner
    (per-batch local prune, ≤ n rows per group per block cross the
    wire)."""
    if n <= 0:
        raise ValueError("n must be positive")

    def add_h(batch: pa.Table) -> pa.Table:
        h = _md5_prefix_u64(batch.column(key_col))
        return batch.append_column("__h", pa.array(h, pa.uint64()))

    ranked = topk_per_group_by(
        ds.map_batches(add_h, batch_format="pyarrow"),
        group_col,
        ["__h", key_col],
        [True, True],
        n,
    )
    return ranked.drop_columns(["__h"])


def pivot_counts(
    ds: ray.data.Dataset,
    key_col: str,
    pivot_col: str,
    categories: list[str],
) -> ray.data.Dataset:
    """Crosstab / PIVOT: one row per key, one int64 count column per
    category (conditional aggregation — the feature-matrix shape fed to
    downstream models and dashboards). Values outside ``categories``
    are ignored; pass the full category list for a complete pivot.

    Scale shape: vectorized equality masks per block, then ONE
    keys-sized ``grouped_aggregate`` (each block pre-summed in its
    split task) — the shuffle carries keys × categories ints, never
    the event stream."""
    if not categories:
        raise ValueError("categories must be non-empty")
    cols = [f"n_{c}" for c in categories]

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(pivot_col)
        t = pa.table(
            {
                key_col: batch.column(key_col),
                **{
                    name: pc.cast(pc.fill_null(pc.equal(v, c), False), pa.int64())
                    for c, name in zip(categories, cols)
                },
            }
        )
        return t

    return grouped_aggregate(
        ds.select_columns([key_col, pivot_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        key_col,
        {c: ("sum", c) for c in cols},
    )


def pivot_sums(
    ds: ray.data.Dataset,
    key_col: str,
    pivot_col: str,
    value_col: str,
    categories: list[str],
) -> ray.data.Dataset:
    """PIVOT with a SUM measure: one row per key, one exact-cent sum
    column per category (conditional aggregation over a double measure
    — the revenue-by-channel matrix). Same shape as
    :func:`pivot_counts`; values quantize half-up to cents so the
    oracle is rounding-proof."""
    if not categories:
        raise ValueError("categories must be non-empty")
    cols = [f"sum_{c}_cents" for c in categories]

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(pivot_col)
        c_val = cents(batch.column(value_col))
        t = pa.table(
            {
                key_col: batch.column(key_col),
                **{
                    name: pc.if_else(pc.fill_null(pc.equal(v, c), False), c_val, 0)
                    for c, name in zip(categories, cols)
                },
            }
        )
        return t

    return grouped_aggregate(
        ds.select_columns([key_col, pivot_col, value_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        key_col,
        {c: ("sum", c) for c in cols},
    )


def grouped_rollup(
    ds: ray.data.Dataset,
    group_cols: list[str],
    sum_col: str,
    all_label: str = "ALL",
) -> ray.data.Dataset:
    """SQL ``GROUP BY ROLLUP(...)``: aggregates (row count + integer
    sum) at EVERY prefix level of ``group_cols`` plus the grand total,
    rolled-up columns filled with ``all_label`` — the OLAP subtotal
    shape of mixture dashboards ('tokens per lang, per lang×band, and
    overall' in one result).

    One pass: each batch expands into every level at once (rolled-up
    columns set to ``all_label``), then ONE ``grouped_aggregate`` over
    the level-tagged composite key sums them — the input never
    shuffles. Group columns must be strings that never equal
    ``all_label``."""
    if not group_cols:
        raise ValueError("group_cols must be non-empty")
    sets = [group_cols[:lvl] for lvl in range(len(group_cols), -1, -1)]
    return _grouping_sets(ds, group_cols, sum_col, all_label, sets)


def _grouping_sets(
    ds: ray.data.Dataset,
    group_cols: list[str],
    sum_col: str,
    all_label: str,
    sets: list[list[str]],
) -> ray.data.Dataset:
    """Row count and integer sum of ``sum_col`` per group of every
    grouping set in ``sets``; a column outside a set reads
    ``all_label``. Each batch is summed per group as it is expanded, so
    no block ever holds the ``len(sets)`` copies of its rows."""

    def expand(batch: pa.Table) -> pa.Table:
        label = pa.array([all_label] * len(batch), pa.string())
        s = pa.array(batch.column(sum_col).to_numpy().astype(np.int64))
        t = pa.concat_tables(
            pa.table(
                {
                    **{
                        c: pc.cast(batch[c], pa.string()) if c in keys else label
                        for c in group_cols
                    },
                    "__s": s,
                }
            )
            for keys in sets
        )
        return group_aggregate(
            t, group_cols, [([], "count_all"), ("__s", "sum")], ["n_rows", "__s"]
        )

    return grouped_aggregate(
        ds.select_columns([*group_cols, sum_col]).map_batches(
            expand, batch_format="pyarrow"
        ),
        group_cols,
        {"n_rows": ("sum", "n_rows"), f"sum_{sum_col}": ("sum", "__s")},
    )


def grouped_cube(
    ds: ray.data.Dataset,
    group_cols: list[str],
    sum_col: str,
    all_label: str = "ALL",
) -> ray.data.Dataset:
    """SQL ``GROUP BY CUBE(...)``: aggregates at EVERY subset of
    ``group_cols`` (2^k levels — the full OLAP cross-tabulation,
    superset of :func:`grouped_rollup`'s prefix levels), rolled-up
    columns filled with ``all_label``.

    Same one-pass shape as the rollup over all 2^k subsets. k is
    expected tiny (2-3 dimension columns); the input never shuffles.
    Group columns must be strings never equal to ``all_label``."""
    if not group_cols:
        raise ValueError("group_cols must be non-empty")
    if len(group_cols) > 4:
        raise ValueError("cube over >4 columns explodes 2^k partials")
    sets = [
        [c for i, c in enumerate(group_cols) if mask >> i & 1]
        for mask in range(2 ** len(group_cols))
    ]
    return _grouping_sets(ds, group_cols, sum_col, all_label, sets)


def grouped_mode(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
) -> ray.data.Dataset:
    """Statistical MODE per key: the most frequent ``value_col`` for
    each ``key_col`` (ties broken by lexicographically smallest value —
    total, engine-portable order), with its count ``n``.

    Combiner shape: ONE (key, value) ``grouped_aggregate`` count
    (each block pre-counted in its split task), then the local-prune
    top-k selector picks the argmax — the raw stream never shuffles."""
    counts = grouped_aggregate(ds, [key_col, value_col], {"n": ("count", None)})
    top = topk_per_group_by(counts, key_col, ["n", value_col], [False, True], 1)
    return top.select_columns([key_col, value_col, "n"])


# --------------------------------------------------------------------------
# weighted deterministic sampling
# --------------------------------------------------------------------------


def weighted_sample(
    ds: ray.data.Dataset,
    key_col: str,
    wq_col: str,
    scale: int = 65536,
) -> ray.data.Dataset:
    """Per-row-weighted Bernoulli sample, deterministic and
    engine-replayable: keep a row iff the top 16 bits of
    ``md5(str(key))`` fall below its integer weight ``wq_col`` ∈
    [0, ``scale``] — i.e. P(keep) = wq/65536, quantized so BOTH engines
    compare integers (the SQL twin compares the 4-char hex prefix of
    md5() against printf('%04x', wq); fixed-width lowercase hex orders
    like its value). Compute wq upstream in exact integer arithmetic
    (e.g. ``LEAST(len, cap) * 65536 // cap``) so the weights agree
    bit-for-bit across engines. Importance sampling for curation:
    longer / higher-quality docs kept with proportionally higher odds.

    One vectorized filter pass; md5 prefixes via uint64 views
    (``_md5_prefix_u64``), no shuffle."""
    if scale != 65536:
        raise ValueError("scale is fixed at 65536 (md5 top-16-bit lattice)")

    def keep(batch: pa.Table) -> pa.Table:
        h = (_md5_prefix_u64(batch.column(key_col)) >> np.uint64(48)).astype(
            np.int64
        )
        wq = batch.column(wq_col).to_numpy().astype(np.int64)
        return batch.filter(pa.array(h < wq))

    return ds.map_batches(keep, batch_format="pyarrow")


# --------------------------------------------------------------------------
# rank / dense_rank windows
# --------------------------------------------------------------------------


def rank_dense_per_group(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    descending: bool = True,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """``RANK()`` and ``DENSE_RANK() OVER (PARTITION BY group ORDER BY
    order_col)`` — tie-aware competition ranking (unlike the top-k
    selector's row_number), the leaderboard/percentile-cut shape.
    ``order_col`` must be int64; output adds ``rnk`` and ``drnk``.

    Execution: ONE barrier-free hash exchange by ``hash(group) % P``,
    then a vectorized lexsort + change-point kernel per partition (no
    per-group Python call; skew bound = hottest group's rows, the same
    documented bound as sessionize/running_totals)."""
    base = ds.schema()
    names = list(base.names)
    empty = pa.schema(
        [(n, base.types[i]) for i, n in enumerate(names)]
        + [("rnk", pa.int64()), ("drnk", pa.int64())]
    ).empty_table()

    def rank_partition(p: int, tbl: pa.Table) -> pa.Table:
        n = len(tbl)
        if n == 0:
            return empty
        g = tbl.column(group_col).to_numpy(zero_copy_only=False)
        x = tbl.column(order_col).to_numpy().astype(np.int64)
        key = -x if descending else x
        # group, then order value; row order within ties is irrelevant
        # to RANK/DENSE_RANK (both are functions of the value alone)
        order = np.lexsort((key, g))
        g, x, key = g[order], x[order], key[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = g[1:] != g[:-1]
        new_val = new_group.copy()
        new_val[1:] |= key[1:] != key[:-1]
        idx = np.arange(n, dtype=np.int64)
        gstart = np.maximum.accumulate(np.where(new_group, idx, 0))
        vstart = np.maximum.accumulate(np.where(new_val, idx, 0))
        rnk = vstart - gstart + 1
        dense = np.cumsum(new_val)
        drnk = dense - dense[gstart] + 1
        out = tbl.take(pa.array(order))
        out = out.append_column("rnk", pa.array(rnk, pa.int64()))
        return out.append_column("drnk", pa.array(drnk, pa.int64()))

    return hash_exchange(ds, group_col, num_partitions, rank_partition, empty)

# --------------------------------------------------------------------------
# 2-D Pareto frontier (skyline)
# --------------------------------------------------------------------------


def _frontier_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D maximization skyline: row i survives iff
    no row has x>=x_i AND y>=y_i with one strict. Vectorized: sort
    (x desc, y desc), keep only each x-group's max-y rows, then require
    y STRICTLY above the running max of larger-x groups (equal y at
    larger x dominates). Ties on the full (x, y) pair all survive
    (mutual non-domination) — matching the NOT EXISTS SQL semantics."""
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    new_x = np.r_[True, xs[1:] != xs[:-1]]
    head_pos = np.maximum.accumulate(np.where(new_x, np.arange(n), 0))
    gmax = ys[head_pos]  # each x-group's max y (first row, y desc)
    gid = np.cumsum(new_x) - 1
    head_y = ys[new_x]
    prev_max = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(head_y)[:-1]]
    survive = (ys == gmax) & (ys > prev_max[gid])
    mask = np.zeros(n, dtype=bool)
    mask[order[survive]] = True
    return mask


def pareto_frontier(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
) -> ray.data.Dataset:
    """Skyline query — rows not dominated in (x, y) maximization (a
    dominates b iff a.x>=b.x, a.y>=b.y, one strict). The curation
    shape for 'best tradeoff' picks (largest AND densest repos, longest
    AND highest-quality docs) that no single ORDER BY can answer.

    Scale shape: each block reduces to its LOCAL frontier (vectorized
    lexsort + running-max kernel, no pairwise compare), and the global
    frontier — a subset of the union of local frontiers — is one small
    final task. Frontier sizes are data-dependent but tiny in practice
    (bounded by distinct x values); integer columns only (exact
    comparisons, exact SQL twin)."""
    schema = ds.schema()
    from duplicate_finder_ray.stages.join import _pa_type

    types = {c: _pa_type(t) for c, t in zip(schema.names, schema.types)}
    for c in (x_col, y_col):
        if c not in types:
            raise ValueError(f"missing column: {c}")
        if not pa.types.is_integer(types[c]):
            raise ValueError(f"pareto_frontier needs integer columns: {c}")

    def local(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        m = _frontier_mask(
            t.column(x_col).to_numpy(), t.column(y_col).to_numpy()
        )
        return t.filter(pa.array(m))

    names = list(schema.names)
    empty = pa.schema([(c, types[c]) for c in names]).empty_table()

    def merge(t: pa.Table) -> pa.Table:
        return local(t.combine_chunks())

    locals_ = ds.map_batches(local, batch_format="pyarrow")
    return ray.data.from_arrow_refs(
        [gather_blocks(locals_, merge, empty, columns=names)]
    )
