"""Hash exchange built on raw Ray tasks — the engine's shuffle
primitive for payload-bearing co-location.

The package has no ``Dataset.groupby``: every grouping runs here.
Ray Data's groupby is sort-based — it samples boundaries (a barrier),
physically sorts every block, range-exchanges the sorted runs, and Ray
2.49's aggregate then walks rows and groups in Python. For key-LOOKUP
co-location (hash buckets, shards) the sort order is wasted work, and
the sample/boundary barrier is CPU-count-independent serial wall:
replacing it on the exact-verify shard exchange measured 77 s → <2 s
at 2.4 M docs, and a 147 k-key lineitem sum measured 12.3 s → 0.17 s
(4 logical CPUs on one core). ``tests/test_one_shuffle.py`` keeps it
out.

Two waves, with no barrier before or between them:

- the SPLIT wave (``split_wave``): one task per source block cuts the
  block into ``n_parts`` sub-tables — one stable radix argsort of the
  partition ids, one ``take``, ``n_parts`` slices — so every payload
  byte is copied exactly once and crosses a (real cluster's) network
  exactly once. ``hash_exchange`` streams the source: each block goes
  to its split task as soon as Ray Data produces it
  (``iter_internal_ref_bundles``), and is freed once that task has cut
  it. The source runs once and is never resident whole; an already
  materialized source (another exchange's or a task wave's output)
  hands over the refs it holds without starting an execution;
- the REDUCE wave: one task per partition concatenates that
  partition's sub-tables and applies the caller's reduce. Ray
  schedules each reduce as its inputs appear.

``hash_exchange`` is the two waves together. ``grouped_aggregate`` is
the exchange with sum / count / min / max per key: each split task
aggregates its own block first (``premap``), so the exchange carries
at most one partial row per key per block, and each reduce merges the
partials — sums and counts add up, mins and maxes merge as
themselves. Its rows come in no particular order (a caller that reads
order sorts).

Call ``split_wave`` directly when a partition is consumed by something
other than a per-partition reduce into a Dataset — e.g. a per-shard
build task whose output object many later tasks read (the exact-verify
CSR shards, the cosine shard matrices), or a split launched early so it
overlaps other work.

Partitioning: callers name the key column(s) and ``partition_ids`` —
the one hashing kernel — maps each row to its partition. A hand-written
``(table, n) -> ids`` partitioner is still accepted, for the few
exchanges whose partition index itself means something (precomputed
bucket ids, range partitions, replayable or salted assignment, shard
arithmetic the reduce reads).

Scale shape: blocks × n_parts small objects (sub-tables); each reduce
task zero-copy reads its ``blocks`` inputs. A sub-table under Ray's
100 KiB inline limit returns to the driver's memory store rather than
the object store, so at small scale the store holds little more than
the blocks in flight. Keep ``n_parts`` a small multiple of cluster
parallelism (``default_partitions``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data.block import BlockAccessor

from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.stages import util

# hash of a null key in a numeric column (a null string key hashes as
# the object ``None`` does under stable_hash_array)
_NULL_HASH = np.uint64(0)
# multiplier folding per-column hashes into one (64-bit FNV prime)
_MIX = np.uint64(0x100000001B3)


def default_partitions() -> int:
    """The engine's default exchange width: two partitions per cluster
    CPU, at least 8; 16 when no session answers."""
    try:
        return max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except ray.exceptions.RayError:
        return 16


def _column_hash(col: pa.ChunkedArray) -> np.ndarray:
    """uint64 hash per cell of one key column, a function of the cell's
    value alone."""
    t = col.type
    if (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    ):
        return stable_hash_array(col.to_numpy(zero_copy_only=False))
    if pa.types.is_floating(t):
        vals = col.cast(pa.float64()).fill_null(0).to_numpy() + 0.0  # -0.0 → 0.0
        vals[np.isnan(vals)] = np.nan  # one NaN bit pattern
    elif pa.types.is_integer(t) or pa.types.is_boolean(t) or pa.types.is_temporal(t):
        if pa.types.is_temporal(t) and t.bit_width == 32:  # date32, time32
            col = col.cast(pa.int32())
        # one width for every integer type; nulls filled first so a
        # block with nulls is not turned into float64 by to_numpy
        vals = col.cast(pa.int64(), safe=False).fill_null(0).to_numpy()
    else:
        raise TypeError(f"cannot hash key column of type {t}")
    h = stable_hash_array(vals)
    if col.null_count:
        h[col.is_null().to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def partition_ids(tbl: pa.Table, keys: Sequence[str], n: int) -> np.ndarray:
    """Partition id in ``[0, n)`` for every row of ``tbl``: the hash of
    the ``keys`` columns' values, modulo ``n``.

    - One string or binary column gives exactly
      ``stable_hash_array(col.to_numpy(zero_copy_only=False)) % n``.
    - Numeric columns hash by value (every integer width as int64,
      floats as float64); several columns fold their hashes in order.
    - The id depends only on the row's key values — never on its block
      or its neighbours. A null key goes to one fixed partition, and a
      non-null value lands in the same partition whether or not its
      block holds nulls.
    """
    h = _column_hash(tbl.column(keys[0]))
    for k in keys[1:]:
        h = h * _MIX ^ _column_hash(tbl.column(k))
    return (h % np.uint64(n)).astype(np.int64)


def _split_table(
    block: pa.Table, pid: np.ndarray, n_parts: int
) -> list[pa.Table]:
    """The rows of ``block`` whose ``pid`` is ``p``, for each ``p`` in
    ``[0, n_parts)``, each in block order: one stable argsort of the ids
    (cast to the narrowest unsigned type, so numpy takes its radix
    path), one ``take``, then ``n_parts`` zero-copy slices. The ids must
    already lie in ``[0, n_parts)``."""
    order = np.argsort(
        pid.astype(np.min_scalar_type(n_parts - 1)), kind="stable"
    )
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    np.cumsum(np.bincount(pid, minlength=n_parts), out=bounds[1:])
    grouped = block.take(order)
    return [
        grouped.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def split_wave(
    refs: Iterable[ray.ObjectRef],
    part_of: str | Sequence[str] | Callable[[pa.Table, int], np.ndarray],
    n_parts: int,
    premap: Callable[[pa.Table], pa.Table] | None = None,
) -> list[list[ray.ObjectRef]]:
    """Launch one split task per block ref, as each ref is drawn from
    ``refs``; returns the sub-table refs as ``blocks × n_parts``
    (row ``i`` holds block ``i``'s ``n_parts`` sub-tables, in partition
    order). A block may be Arrow or pandas; sub-tables are Arrow.

    ``part_of``: the key column name(s), hashed by ``partition_ids``,
    or a callable ``part_of(table, n_parts)`` returning one int id in
    ``[0, n_parts)`` per row. Ids out of range or of the wrong count
    raise in the task instead of losing rows.

    ``premap``: optional per-block transform applied INSIDE the split
    task before partitioning — fuses a row-expanding or row-dropping
    map (e.g. LSH band explosion, an endpoint filter) into the exchange
    so its output never materializes as an intermediate dataset.
    Partitioning sees the premapped rows. A block that is (or premaps
    to) empty or zero-column yields ``n_parts`` empty sub-tables."""
    keys = None
    if isinstance(part_of, str):
        keys = [part_of]
    elif not callable(part_of):
        keys = list(part_of)

    @ray.remote
    def split(block):
        block = BlockAccessor.for_block(block).to_arrow()
        if premap is not None:
            block = premap(block)
        if len(block) == 0 or block.num_columns == 0:
            parts = [block.slice(0, 0)] * n_parts
        else:
            if keys is not None:
                pid = partition_ids(block, keys, n_parts)
            else:
                pid = np.asarray(part_of(block, n_parts)).astype(
                    np.int64, copy=False
                )
            if len(pid) != len(block):
                raise ValueError(
                    f"partitioner returned {len(pid)} ids for "
                    f"{len(block)} rows"
                )
            lo, hi = int(pid.min()), int(pid.max())
            if lo < 0 or hi >= n_parts:
                raise ValueError(
                    f"partitioner produced ids outside [0, {n_parts}): "
                    f"min={lo} max={hi}"
                )
            parts = _split_table(block, pid, n_parts)
        return parts[0] if n_parts == 1 else tuple(parts)

    outs = [split.options(num_returns=n_parts).remote(b) for b in refs]
    return [[r] if n_parts == 1 else list(r) for r in outs]


def hash_exchange(
    source: ray.data.Dataset,
    part_of: str | Sequence[str] | Callable[[pa.Table, int], np.ndarray],
    n_parts: int | None,
    reduce_fn: Callable[[int, pa.Table], pa.Table],
    empty: pa.Table | None,
    premap: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """Partition ``source`` by key and apply ``reduce_fn(part_idx,
    rows)`` to each partition's concatenated rows. Returns a Dataset of
    the reduce outputs (one block per partition, in partition order,
    unless ``empty`` is ``None``). ``source`` runs once,
    streamed into the split wave (an already materialized ``source``
    starts no Ray Data execution); a block whose metadata says 0 rows
    gets no split task. An error in any of its blocks raises here.

    ``empty`` is the output of an empty partition, and the whole output
    when ``source`` yields no rows. ``None`` runs ``reduce_fn`` on an
    empty partition's 0-row (premapped) rows instead, so the reduce
    types its own empty output. The result then keeps only the
    non-empty outputs (one typed 0-row block when every output is
    empty), so a later projection meets no unprojected 0-row block. A
    ``source`` without rows sends one of its 0-row blocks through both
    waves (with no block at all, its schema's empty table goes through
    ``premap`` and ``reduce_fn`` on the driver; without a schema the
    output has no columns).

    ``part_of``: the key column name, or a list of names — rows with
    equal key values meet in one partition, chosen by
    ``partition_ids``. Use this form whenever the reduce's output for a
    key group depends neither on the partition index nor on which other
    groups share the partition. Pass a callable ``part_of(table,
    n_parts)`` returning an int array in ``[0, n_parts)`` only when the
    partition index itself carries meaning (precomputed ids, range
    partitioning, a replayable assignment, shard arithmetic).

    ``n_parts``: the number of partitions; ``None`` means
    ``default_partitions()``.

    ``premap``: as in ``split_wave`` — e.g. the LSH band explosion runs
    here, so the expanded rows are born and partitioned in the same
    task, saving one full object-store write + read of the expanded
    table. An empty premap output must still carry the premapped
    schema."""
    if n_parts is None:
        n_parts = default_partitions()
    refs = util.block_refs(source, keep_one_empty=empty is None)
    split_refs = split_wave(refs, part_of, n_parts, premap)
    if not split_refs:
        schema = source.schema() if empty is None else None
        if schema is not None:  # no block: type the output here
            rows = schema.base_schema.empty_table()
            empty = reduce_fn(0, rows if premap is None else premap(rows))
        return ray.data.from_arrow(pa.table({}) if empty is None else empty)

    @ray.remote(num_returns=2)
    def reduce_part(p: int, *subs: pa.Table) -> tuple[pa.Table, int]:
        if empty is None:
            subs = [s for s in subs if s.num_columns]
            out = reduce_fn(p, pa.concat_tables(subs).combine_chunks())
            return out, len(out)
        subs = tuple(s for s in subs if len(s) and s.num_columns)
        if not subs:
            return empty, 0
        out = reduce_fn(p, pa.concat_tables(subs).combine_chunks())
        return (out, len(out)) if len(out) else (empty, 0)

    outs = [
        reduce_part.remote(p, *[row[p] for row in split_refs])
        for p in range(n_parts)
    ]
    out_refs = [t for t, _ in outs]
    if empty is None:
        # a later projection skips 0-row blocks, so an empty partition's
        # block would keep its unprojected schema beside projected ones
        rows = ray.get([n for _, n in outs])
        out_refs = [t for t, n in zip(out_refs, rows) if n] or out_refs[:1]
    return ray.data.from_arrow_refs(out_refs)


# how the reduce merges each function's per-block partials
_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def grouped_aggregate(
    ds: ray.data.Dataset,
    keys: str | Sequence[str],
    aggs: dict[str, tuple[str, str | None]],
) -> ray.data.Dataset:
    """One row per distinct ``keys`` tuple of ``ds``: the key columns,
    then one column per ``aggs`` entry ``name: (function, column)``.
    The functions are ``"sum"``, ``"min"``, ``"max"`` over ``column``
    and ``"count"`` (``column`` ``None``), which counts rows.

    - Each split task projects the keys and the inputs and aggregates
      its block (Arrow's hash aggregates, nulls skipped); the exchange
      is keyed on ``keys``; each reduce merges its partials: sums and
      counts add up, mins and maxes merge as themselves.
    - Keys compare as values: a null key is one group, and strings that
      differ only after an embedded NUL stay apart.
    - Rows come in no particular order.
    - A ``ds`` without rows gives a typed empty output.

    The partials are made in the split task, after ``ds``'s blocks are
    stored: a map that expands rows (tokens, edge endpoints, grouping
    sets) collapses its own batch with ``util.group_aggregate`` and
    passes its counts here as sums, so no expanded block is stored."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    names = list(aggs)
    first = [
        ([], "count_all") if f == "count" else (c, f) for f, c in aggs.values()
    ]
    merge = [(n, _MERGE[f]) for n, (f, _) in aggs.items()]
    cols = list(dict.fromkeys([*keys, *(c for _, c in aggs.values() if c)]))

    def partial(block: pa.Table) -> pa.Table:
        return util.group_aggregate(block.select(cols), keys, first, names)

    def combine(_: int, rows: pa.Table) -> pa.Table:
        return util.group_aggregate(rows, keys, merge, names)

    return hash_exchange(ds, keys, None, combine, None, premap=partial)
