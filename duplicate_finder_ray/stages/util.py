"""Small shared stage helpers."""

from __future__ import annotations

import pyarrow as pa

import ray.data


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
