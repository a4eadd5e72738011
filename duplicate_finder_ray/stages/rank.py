"""Global order primitives: exact distributed row_number and
sorted-neighborhood (SNM) candidate pairs.

Why these exist: a global total order is the one relational shape Ray
Data's `sort` gives you blocks of but no row numbers for, and the
sorted-neighborhood method — sort the corpus by a blocking key, emit
candidate pairs inside a sliding rank window — is the classic
record-linkage/dedup blocking strategy (complement to LSH: it catches
near-keys that hash blocking scatters). Reference scope: the reference
engine sorts final groups on the driver (`duplicate_finder.py` result
ordering); at corpus scale ordering itself must be distributed.

Scale shape, stated up front:

* ``global_rank`` — exact ``row_number() OVER (ORDER BY ...)``:
  per-block deterministic key samples → driver picks ≤ P-1 boundary
  tuples (tiny) → ONE range exchange partitions rows by lexicographic
  ``searchsorted`` against the boundaries (vectorized Arrow kernels,
  no byte-encoding of keys) → each partition sorts its slice with
  Arrow's C++ multi-key sort and emits local ranks → a P-row count
  pass folds to driver offsets → one map adds ``offset + local``.
  No task ever holds more than one range slice; the driver holds
  O(blocks × sample + P) scalars. Skewed keys degrade the range
  balance, never correctness (a fully-tied sample degenerates to one
  partition — the documented worst case).
* ``sorted_neighborhood_pairs`` — ranks are consecutive integers, so
  the window join needs no self-join: rows route to ``rank // W``
  chunks with the first ``w`` rows of each chunk duplicated into the
  previous one (payload = slim id+rank rows, crosses once), and each
  chunk pairs positionally (rank diff d == position diff d). Emission
  is O(n·w) pairs, O(W + w) rows per task.

Determinism contract: ``order_cols`` must be a TOTAL order (append a
unique id column last) — equal tuples would otherwise get
engine-dependent rank assignment and break cross-engine twins.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor

from duplicate_finder_ray.stages.exchange import hash_exchange
from duplicate_finder_ray.stages.join import _pa_type
from duplicate_finder_ray.stages.util import block_refs


def _lex_ge(cols: list, boundary: tuple):
    """Vectorized lexicographic ``row >= boundary`` over parallel
    columns — built back-to-front from Arrow C kernels, no per-row
    Python. ASCII/UTF-8 strings compare bytewise in both Arrow and
    DuckDB (binary collation), so twins agree."""
    res = pc.greater_equal(cols[-1], boundary[-1])
    for c, b in zip(reversed(cols[:-1]), reversed(boundary[:-1])):
        res = pc.or_(pc.greater(c, b), pc.and_(pc.equal(c, b), res))
    return res


def _sort_spec(order_cols: list[str]) -> list[tuple[str, str]]:
    return [(c, "ascending") for c in order_cols]


def global_rank(
    ds: ray.data.Dataset,
    order_cols: list[str],
    out_col: str = "rnk",
    num_partitions: int = 32,
    sample_per_block: int = 32,
) -> ray.data.Dataset:
    """Exact 0-based ``row_number() OVER (ORDER BY order_cols ASC)``
    appended as ``out_col`` (int64). Select your columns first — every
    input column rides the range exchange. ``order_cols`` must totally
    order the rows (include a unique id last); nulls are not supported
    in order columns (Arrow kernel contract)."""
    if not order_cols:
        raise ValueError("order_cols must be non-empty")
    if num_partitions <= 0 or sample_per_block <= 0:
        raise ValueError("num_partitions and sample_per_block must be positive")
    names = list(ds.schema().names)
    missing = [c for c in order_cols if c not in names]
    if missing:
        raise ValueError(f"missing order columns: {missing}")
    types = {c: _pa_type(t) for c, t in zip(names, ds.schema().types)}
    out_schema = pa.schema(
        [(c, types[c]) for c in names] + [(out_col, pa.int64())]
    )
    mid_schema = pa.schema(
        [(c, types[c]) for c in names]
        + [("__part", pa.int64()), ("__lrank", pa.int64())]
    )

    mat = ds.materialize()
    blocks = list(block_refs(mat))
    if not blocks:
        return ray.data.from_arrow(out_schema.empty_table())

    # ---- boundary sampling: evenly spaced key tuples per block ----
    @ray.remote
    def sample_keys(block) -> list[tuple]:
        block = BlockAccessor.for_block(block).to_arrow()
        if len(block) == 0 or block.num_columns == 0:
            return []
        k = min(sample_per_block, len(block))
        idx = np.linspace(0, len(block) - 1, k).astype(np.int64)
        sub = block.select(order_cols).take(pa.array(idx))
        cols = [sub.column(c).to_pylist() for c in order_cols]
        return list(zip(*cols))

    samples: list[tuple] = sorted(
        t for part in ray.get([sample_keys.remote(b) for b in blocks])
        for t in part
    )
    if not samples:
        return ray.data.from_arrow(out_schema.empty_table())
    cuts = []
    for i in range(1, num_partitions):
        cuts.append(samples[(i * len(samples)) // num_partitions])
    boundaries = sorted(set(cuts))
    n_parts = len(boundaries) + 1

    # ---- range exchange: partition by boundary searchsorted ----
    def part_of(tbl: pa.Table, n: int) -> np.ndarray:
        cols = [tbl.column(c) for c in order_cols]
        pid = np.zeros(len(tbl), dtype=np.int64)
        for b in boundaries:
            pid += np.asarray(_lex_ge(cols, b)).astype(np.int64)
        return pid

    def reduce_fn(p: int, part: pa.Table) -> pa.Table:
        srt = part.select(names).sort_by(_sort_spec(order_cols))
        n = len(srt)
        return srt.append_column(
            "__part", pa.array(np.full(n, p, dtype=np.int64))
        ).append_column("__lrank", pa.array(np.arange(n, dtype=np.int64)))

    ranked = hash_exchange(
        mat, part_of, n_parts, reduce_fn, mid_schema.empty_table()
    )

    # ---- tiny count pass → driver offsets (P ints) ----
    def count_partial(t: pa.Table) -> pa.Table:
        parts, counts = np.unique(
            t.column("__part").to_numpy(), return_counts=True
        )
        return pa.table(
            {"p": pa.array(parts, pa.int64()),
             "n": pa.array(counts, pa.int64())}
        )

    counts = np.zeros(n_parts, dtype=np.int64)
    for r in ranked.map_batches(
        count_partial, batch_format="pyarrow"
    ).take_all():
        counts[r["p"]] += r["n"]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    def add_rank(t: pa.Table) -> pa.Table:
        rnk = (
            offsets[t.column("__part").to_numpy()]
            + t.column("__lrank").to_numpy()
        )
        return t.drop_columns(["__part", "__lrank"]).append_column(
            out_col, pa.array(rnk, pa.int64())
        )

    return ranked.map_batches(add_rank, batch_format="pyarrow")


def sorted_neighborhood_pairs(
    ds: ray.data.Dataset,
    order_cols: list[str],
    id_col: str,
    window: int,
    chunk: int = 1024,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Sorted-neighborhood-method candidate pairs: rows sorted by
    ``order_cols`` (a TOTAL order — include ``id_col``), every pair
    within ``window`` rank positions emitted as
    ``(a, b, dist)`` with ``a`` the earlier row and ``dist`` the rank
    gap in [1, window]. The record-linkage blocking classic: cheap
    O(n·w) candidates along any sortable key, complementing hash/LSH
    blocking for near-key typos that scatter under hashing.

    Execution: ``global_rank`` then ONE chunk exchange — ranks are
    consecutive, so chunk ``rank // W`` plus a duplicated ``w``-row
    prefix from the next chunk contains every pair whose left end is
    home, and pairing is positional (no join, no search)."""
    if window <= 0:
        raise ValueError("window must be positive")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    W = max(chunk, window + 1)

    keep = list(dict.fromkeys([*order_cols, id_col]))
    ranked = global_rank(
        ds.select_columns(keep), order_cols, num_partitions=num_partitions
    ).select_columns([id_col, "rnk"])

    id_type = _pa_type(
        dict(zip(ds.schema().names, ds.schema().types))[id_col]
    )
    out_schema = pa.schema(
        [("a", id_type), ("b", id_type), ("dist", pa.int64())]
    )
    mid_schema = pa.schema(
        [(id_col, id_type), ("rnk", pa.int64()), ("__dest", pa.int64())]
    )

    n = ranked.count()
    if n < 2:
        return ray.data.from_arrow(out_schema.empty_table())
    n_chunks = math.ceil(n / W)

    def explode(t: pa.Table) -> pa.Table:
        rnk = t.column("rnk").to_numpy()
        home = rnk // W
        dup = (rnk % W < window) & (home > 0)
        base = t.append_column("__dest", pa.array(home, pa.int64()))
        if not dup.any():
            return base
        extra = t.filter(pa.array(dup))
        extra = extra.append_column(
            "__dest",
            pa.array(extra.column("rnk").to_numpy() // W - 1, pa.int64()),
        )
        return pa.concat_tables([base, extra]).combine_chunks()

    exploded = ranked.map_batches(explode, batch_format="pyarrow")

    def part_of(tbl: pa.Table, p: int) -> np.ndarray:
        return tbl.column("__dest").to_numpy()

    def pair_up(p: int, part: pa.Table) -> pa.Table:
        srt = part.sort_by([("rnk", "ascending")])
        ids = srt.column(id_col)
        rnk = srt.column("rnk").to_numpy()
        m = len(srt)
        # ranks are consecutive within [p*W, p*W + W + window) ∩ [0, n)
        home = rnk // W == p
        out = []
        for d in range(1, window + 1):
            if m <= d:
                break
            sel = np.flatnonzero(home[: m - d])
            if len(sel) == 0:
                continue
            out.append(
                pa.table(
                    {
                        "a": ids.take(pa.array(sel)),
                        "b": ids.take(pa.array(sel + d)),
                        "dist": pa.array(
                            np.full(len(sel), d, dtype=np.int64)
                        ),
                    }
                )
            )
        if not out:
            return out_schema.empty_table()
        return pa.concat_tables(out).combine_chunks().cast(out_schema)

    return hash_exchange(
        exploded, part_of, n_chunks, pair_up, out_schema.empty_table()
    )
