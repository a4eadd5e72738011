"""Storage layout & data skipping: Z-order clustering + zone maps.

The lakehouse write-side pair (Delta OPTIMIZE ZORDER / Iceberg
sort-order + every engine's min-max zone maps — all public designs):

- `zorder_rank` interleaves the bits of two integer columns into one
  Morton key and ranks rows by it, so rows close in BOTH dimensions
  land in the same file/row-group — the multi-column locality a
  single-column sort cannot give;
- `zone_maps` emits per-zone (fixed row-count blocks of the z-order)
  min/max/count for the clustered columns — exactly the statistics a
  scan consults to SKIP blocks for a 2-D predicate. Tight per-zone
  ranges on both columns at once are the observable proof the
  interleave worked.

Exactness: the bit interleave is the classic magic-mask spread
(public bit-twiddling), written with masks < 2^63 and inputs clamped
to 31 bits so every intermediate fits a SIGNED 64-bit integer — the
identical `(v | (v << s)) & mask` chain runs in DuckDB BIGINT
arithmetic, making the whole layout decision hash-checkable.

Scale shape: the Morton key is computed map-side (six shift-mask ops
per column, no Python loop); ordering rides `stages/rank.py:
global_rank` (sampled range boundaries → ONE range exchange); zone
stats are a per-batch combiner + one zones-cardinality grouped aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from duplicate_finder_ray.stages.exchange import grouped_aggregate

_M16 = np.uint64(0x0000FFFF0000FFFF)
_M8 = np.uint64(0x00FF00FF00FF00FF)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_M2 = np.uint64(0x3333333333333333)
_M1 = np.uint64(0x5555555555555555)


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """31-bit value -> its bits at even positions of a 62-bit word."""
    v = v.astype(np.uint64) & np.uint64(0x7FFFFFFF)
    v = (v | (v << np.uint64(16))) & _M16
    v = (v | (v << np.uint64(8))) & _M8
    v = (v | (v << np.uint64(4))) & _M4
    v = (v | (v << np.uint64(2))) & _M2
    v = (v | (v << np.uint64(1))) & _M1
    return v


def morton_key(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleaved 62-bit Morton key (x at even bits, y at odd) as
    int64 — inputs clamped to 31 bits, so the value is always
    non-negative in signed arithmetic (the SQL twin's BIGINT)."""
    z = _spread_bits(np.asarray(x)) | (_spread_bits(np.asarray(y)) << np.uint64(1))
    return z.astype(np.int64)


def zorder_rank(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    id_col: str,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Rows ranked by Morton(x, y) (ties -> id): the write order that
    co-locates both dimensions. Output (id, x, y, zval, rnk)."""
    from duplicate_finder_ray.stages.rank import global_rank

    def add_z(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.schema(
                [
                    (id_col, pa.int64()),
                    (x_col, pa.int64()),
                    (y_col, pa.int64()),
                    ("zval", pa.int64()),
                ]
            ).empty_table()
        x = batch.column(x_col).to_numpy().astype(np.int64)
        y = batch.column(y_col).to_numpy().astype(np.int64)
        return pa.table(
            {
                id_col: pa.compute.cast(batch[id_col], pa.int64()),
                x_col: pa.array(x, pa.int64()),
                y_col: pa.array(y, pa.int64()),
                "zval": pa.array(morton_key(x, y), pa.int64()),
            }
        )

    keyed = ds.select_columns([id_col, x_col, y_col]).map_batches(
        add_z, batch_format="pyarrow"
    )
    return global_rank(keyed, ["zval", id_col], num_partitions=num_partitions)


def zone_maps(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    id_col: str,
    zone_rows: int = 64,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-zone skipping statistics over the z-ordered layout: zone =
    rnk // zone_rows, output (zone, n_rows, min_x, max_x, min_y,
    max_y) — what a scan consults to prune blocks for a 2-D
    predicate."""
    if zone_rows <= 0:
        raise ValueError("zone_rows must be positive")
    ranked = zorder_rank(ds, x_col, y_col, id_col, num_partitions)

    def tag_zone(batch: pa.Table) -> pa.Table:
        rnk = batch.column("rnk").to_numpy().astype(np.int64)
        return batch.append_column(
            "zone", pa.array(rnk // np.int64(zone_rows), pa.int64())
        )

    return grouped_aggregate(
        ranked.map_batches(tag_zone, batch_format="pyarrow"),
        "zone",
        {
            "n_rows": ("count", None),
            "min_x": ("min", x_col),
            "max_x": ("max", x_col),
            "min_y": ("min", y_col),
            "max_y": ("max", y_col),
        },
    )
