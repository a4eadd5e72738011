"""Small shared stage helpers.

The table kernels sort and group one block in Arrow. Arrow compares
keys as values, so strings that differ only after an embedded NUL stay
apart; pandas' object-string hashing merges them.

After the read, a stage has one of two shapes, each behind one helper:

- ``map_blocks``, the stateless map: one plain Ray task per block.
- ``gather_blocks``, the fold: one task gets every block of a stage
  and reduces their rows to one result (a final top-k, a broadcast
  CSR, a sorted probe array).

Both take a Dataset's block refs from ``block_refs``, so a
materialized Dataset starts no Ray Data execution. Starting one costs
about 0.1 s whatever the data; a task wave over a few small blocks
costs a few tens of milliseconds."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset


def block_refs(
    ds: ray.data.Dataset, keep_one_empty: bool = False
) -> Iterator[ray.ObjectRef]:
    """The block refs of ``ds`` in order, without the blocks whose
    metadata says they hold 0 rows. A materialized ``ds`` hands over the
    refs it holds and starts no Ray Data execution; a lazy one is
    streamed, each ref yielded as its block is produced. With
    ``keep_one_empty``, one 0-row block that carries a schema comes last
    when no other block is left, so that schema can reach the tasks."""
    if isinstance(ds, MaterializedDataset):
        ds = ds.materialize()  # the same blocks, no execution
    spare = None
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:
                keep_one_empty = False
                yield ref
            elif spare is None and getattr(bundle.schema, "names", None):
                spare = ref
    if keep_one_empty and spare is not None:
        yield spare


@ray.remote
def _map_block(fn, empty: pa.Table, block, *shared) -> pa.Table:
    block = BlockAccessor.for_block(block).to_arrow()
    if len(block) == 0 or block.num_columns == 0:
        return empty
    out = fn(block, *shared)
    return out if len(out) and out.num_columns else empty


def map_blocks(
    ds: ray.data.Dataset,
    fn: Callable[..., pa.Table],
    empty: pa.Table,
    *shared: ray.ObjectRef,
) -> ray.data.Dataset:
    """``fn(block, *shared)`` over every block of ``ds`` as one Ray task
    per block; returns the Dataset of the outputs, in block order.

    - ``ds``'s block refs go straight to the tasks (``block_refs``: a
      materialized ``ds`` starts no Ray Data execution).
    - ``shared`` refs are task arguments: every task gets their values.
    - Every output is a typed Arrow table. A 0-row or zero-column block,
      or a 0-row output, gives ``empty``. Blocks whose metadata says 0
      rows launch no task; when no block is left, the result is
      ``empty`` alone.
    - An error raised by ``fn`` raises here."""
    refs = list(block_refs(ds))
    if not refs:
        return ray.data.from_arrow(empty)
    return ray.data.from_arrow_refs(
        [_map_block.remote(fn, empty, ref, *shared) for ref in refs]
    )


def fetch_blocks(ds: ray.data.Dataset) -> list[pa.Table]:
    """The blocks of ``ds`` that hold rows, in order, as Arrow tables on
    the caller: the read-back of a small result."""
    return [
        BlockAccessor.for_block(b).to_arrow() for b in ray.get(list(block_refs(ds)))
    ]


@ray.remote
def _gather_blocks(fn, empty, columns, n_shared: int, *args):
    shared, tables = args[:n_shared], []
    for block in args[n_shared:]:
        block = BlockAccessor.for_block(block).to_arrow()
        if len(block) and block.num_columns:
            tables.append(block if columns is None else block.select(columns))
    if not tables:
        return empty
    return fn(pa.concat_tables(tables), *shared)


def gather_blocks(
    src: ray.data.Dataset | Iterable[ray.ObjectRef],
    fn: Callable[..., Any],
    empty: Any,
    *shared: Any,
    columns: list[str] | None = None,
    num_returns: int = 1,
):
    """``fn(table, *shared)`` in one Ray task over all the blocks of
    ``src``; returns the task's ref (a list of ``num_returns`` refs when
    it is above 1), the result staying in the object store.

    - ``src`` is a Dataset (its ``block_refs``) or a list of block refs,
      e.g. the sub-tables of one partition of a ``split_wave``.
    - ``table`` is the blocks' rows in block order, each block projected
      to ``columns`` when given; 0-row and zero-column blocks are
      dropped.
    - When no row arrives the result is ``empty`` (a tuple of
      ``num_returns`` values when it is above 1) and ``fn`` is not
      called. A ``src`` with no block launches no task.
    - ``shared`` values are task arguments: refs arrive as their values.
    - An error raised by ``fn`` raises where the result is read."""
    refs = list(block_refs(src) if isinstance(src, ray.data.Dataset) else src)
    if not refs:
        return ray.put(empty) if num_returns == 1 else [ray.put(e) for e in empty]
    return _gather_blocks.options(num_returns=num_returns).remote(
        fn, empty, columns, len(shared), *shared, *refs
    )


def sorted_distinct(t: pa.Table) -> tuple[int, np.ndarray]:
    """The count and the ascending array of the distinct values in all
    the columns of ``t`` together. Strings land in an object array,
    which compares them as values, so ids that differ only after an
    embedded NUL stay apart (a fixed-width numpy string drops trailing
    NULs)."""
    vals = np.unique(np.concatenate([c.to_numpy() for c in t.columns]))
    return len(vals), vals


def rename_cols(ds: ray.data.Dataset, mapping: dict[str, str]) -> ray.data.Dataset:
    """Rename columns via an opaque map_batches.

    Ray 2.49's ``Dataset.rename_columns`` is a Project op the optimizer
    may reorder across a subsequent ``join``, which then fails with
    'No match or multiple matches for key field' (observed on
    rename → join chains). A UDF map_batches is a reordering barrier.
    """

    def rn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([mapping.get(n, n) for n in batch.column_names])

    return ds.map_batches(rn, batch_format="pyarrow")


def sort_indices(t: pa.Table, by: list[str], ascending: list[bool]) -> np.ndarray:
    """Row order of a stable sort of ``t`` on ``by``; nulls and NaN go
    last in every key, as in pandas ``sort_values``."""
    keys = [(c, "ascending" if a else "descending") for c, a in zip(by, ascending)]
    return pc.sort_indices(t, sort_keys=keys, null_placement="at_end").to_numpy()


def ranked_head(
    t: pa.Table, by: list[str], ascending: list[bool], k: int
) -> pa.Table:
    """The first ``k`` rows of ``t`` in ``sort_indices`` order, with a
    1-based int64 ``rank`` column appended."""
    top = t.take(sort_indices(t, by, ascending)[:k])
    return top.append_column(
        "rank", pa.array(np.arange(1, len(top) + 1, dtype=np.int64))
    )


def in_sorted(sorted_vals: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Membership mask of ``vals`` in the ascending array
    ``sorted_vals`` (uint64 keys or strings; object string arrays
    compare as values, so NUL-differing keys stay apart)."""
    if len(sorted_vals) == 0:
        return np.zeros(len(vals), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_vals, vals), len(sorted_vals) - 1)
    return sorted_vals[pos] == vals


def group_codes(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, pa.Array]:
    """Per-row group index into the distinct values of ``col`` (first
    seen first), and those values. Null is one group of its own."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col, null_encoding="encode")
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64), enc.dictionary


def group_aggregate(
    t: pa.Table,
    keys: list[str],
    aggs: list[tuple[str | list, str]],
    names: list[str] | None = None,
) -> pa.Table:
    """One row per distinct ``keys`` tuple of ``t`` (first seen first):
    the key columns, then one column per ``(column, function)`` pair of
    Arrow hash aggregates (``([], "count_all")`` counts rows), named
    ``names`` or else after its input column."""
    g = t.group_by(keys, use_threads=False).aggregate(aggs)
    vals = [c for n, c in zip(g.column_names, g.columns) if n not in keys]
    if names is None:
        names = [c for c, _ in aggs]
    return pa.table([*(g[k] for k in keys), *vals], names=[*keys, *names])


def group_rows(col: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, list[np.ndarray]]:
    """The distinct values of ``col`` (``group_codes`` order) and, for
    each, the ascending indices of its rows."""
    codes, keys = group_codes(col)
    counts = np.bincount(codes, minlength=len(keys))
    order = np.argsort(codes, kind="stable")
    return keys, [order[e - c : e] for c, e in zip(counts, np.cumsum(counts))]
