"""Equi-joins on the barrier-free hash exchange
(``stages/exchange.py``).

WHY NOT ``Dataset.join``: in Ray 2.49 the
hash-shuffle operators emit ZERO-COLUMN pandas blocks for empty
partitions; those blocks are invisible to map_batches (the UDF is never
called on them) and make any downstream ``Dataset.join`` fail with
'No match or multiple matches for key field reference'. Nor Ray Data's
sort-based ``groupby().map_groups``: its sample/boundary barrier is
serial wall that no CPU count removes. ``shuffle_hash_join`` tags both
sides, exchanges every row once by ``hash(key) % n_parts`` and merges
each partition with one pandas C merge; ``skew_join`` builds on it,
and ``interval_overlap_join`` runs one exchange keyed on grid cells.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.stages.exchange import grouped_aggregate, hash_exchange
from duplicate_finder_ray.functions.hashing import stable_hash_array


def _pa_type(t) -> pa.DataType:
    """Ray's Schema.types yields pyarrow types for Arrow blocks but numpy
    dtypes / Python classes for pandas blocks — normalize to pyarrow."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError, ValueError):
        return pa.string()


def shuffle_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    n_parts: int,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    how: str = "inner",
    hot_keys: frozenset | set | None = None,
    n_salts: int = 8,
) -> ray.data.Dataset:
    """Large × large equi-join on the barrier-free hash exchange.

    ``relational.broadcast_hash_join`` is the shape when one side fits
    in a single object (dimension tables). When BOTH sides are fact-scale this is
    the shape: tag the sides, exchange every row once by
    ``hash(key) % n_parts``, and run one vectorized pandas C merge per
    partition — no sort, no barrier, payload crosses the wire exactly
    once. Skew bound = hottest key's row count on each side; keep
    ``n_parts`` a small multiple of cluster parallelism.

    ``how``: 'inner', 'left' (unmatched left rows keep null right
    columns, including against an empty right side), 'semi' (left rows
    with ≥1 match, emitted once, left columns only), 'anti' (left rows
    with NO match, left columns only), or 'full' (both sides' unmatched
    rows survive; the key column is coalesced from whichever side has
    the row).

    ``hot_keys`` (skew salting): left rows whose key is hot spread over
    ``n_salts`` partitions (salt = row position % n_salts) and the
    matching right rows are REPLICATED once per salt, so a hot key's
    reduce-side bound drops from O(hot rows) to O(hot rows / n_salts)
    while each (left, right) match still meets in exactly one
    partition. Cold keys take the unsalted path unchanged. Right rows
    per hot key should be modest (each is copied ``n_salts`` times);
    'full' is rejected under salting (replicated right copies would
    multiply unmatched-right emission).
    """
    if how not in ("inner", "left", "semi", "anti", "full"):
        raise ValueError(f"unsupported how={how!r}")
    if hot_keys and how == "full":
        raise ValueError("hot-key salting does not support how='full'")
    if n_salts <= 0:
        raise ValueError("n_salts must be positive")
    n_salts = min(n_salts, n_parts)  # distinct-partition guarantee
    lschema = left.schema()
    rschema = right.schema()
    # a fully-empty side has no inferable schema (schema() is None):
    # its requested columns become null-typed, the join still returns
    # the right shape (empty for inner/semi, all-null right for left)
    if lschema is None and (left_cols is None or rschema is None):
        raise ValueError("left side has no schema; pass left_cols")
    ltypes = (
        {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
        if lschema is not None
        else {n: pa.null() for n in [left_key, *(left_cols or [])]}
    )
    rtypes = (
        {n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)}
        if rschema is not None
        else {n: pa.null() for n in [right_key, *(right_cols or [])]}
    )
    lcols = left_cols or list(ltypes)
    rcols = right_cols or list(rtypes)
    if left_key not in lcols:
        lcols = [left_key, *lcols]
    if right_key not in rcols:
        rcols = [right_key, *rcols]
    lpayload = [c for c in lcols if c != left_key]
    rpayload = (
        [c for c in rcols if c != right_key]
        if how in ("inner", "left", "full")
        else []
    )
    overlap = set(lcols) & set(rpayload)
    if overlap:
        raise ValueError(f"join column collision: {sorted(overlap)}")

    key_type = ltypes[left_key]  # right keys are cast to the left's type
    combined = pa.schema(
        [("__key", key_type), ("__side", pa.int8()), ("__salt", pa.int32())]
        + [(n, ltypes[n]) for n in lpayload]
        + [(n, rtypes[n]) for n in rpayload]
    )
    out_schema = pa.schema(
        [(left_key, key_type)]
        + [(n, ltypes[n]) for n in lpayload]
        + [(n, rtypes[n]) for n in rpayload]
    )
    if lschema is None:  # schemaless-empty left: empty result for every how
        return ray.data.from_arrow(out_schema.empty_table())

    hot_arr = (
        pa.array(sorted(hot_keys), type=key_type)
        if hot_keys
        else None
    )

    def tag(side: int, key: str, keep: list[str]):
        def project(tbl: pa.Table, salt: np.ndarray) -> pa.Table:
            arrays = [
                tbl.column(key).cast(key_type),
                pa.array(np.full(len(tbl), side, dtype=np.int8)),
                pa.array(salt, pa.int32()),
            ]
            for field in list(combined)[3:]:
                if field.name in keep:
                    arrays.append(tbl.column(field.name).cast(field.type))
                else:
                    arrays.append(pa.nulls(len(tbl), field.type))
            return pa.Table.from_arrays(arrays, schema=combined)

        def fn(batch: pa.Table) -> pa.Table:
            salt = np.zeros(len(batch), dtype=np.int32)
            if hot_arr is None or len(hot_arr) == 0:
                return project(batch, salt)
            hm = np.asarray(
                pc.is_in(batch.column(key).cast(key_type), value_set=hot_arr)
            )
            if side == 0:
                # hot left rows fan out by row position — any spread works,
                # the matching right copy exists in every salt partition
                salt[hm] = np.arange(len(batch), dtype=np.int32)[hm] % n_salts
                return project(batch, salt)
            out = [project(batch, salt)]
            if hm.any():
                hot_tbl = batch.filter(pa.array(hm))
                out += [
                    project(
                        hot_tbl,
                        np.full(len(hot_tbl), s, dtype=np.int32),
                    )
                    for s in range(1, n_salts)
                ]
            return (
                out[0]
                if len(out) == 1
                else pa.concat_tables(out).combine_chunks()
            )

        return fn

    tagged = left.map_batches(
        tag(0, left_key, lpayload), batch_format="pyarrow"
    ).union(right.map_batches(tag(1, right_key, rpayload), batch_format="pyarrow"))

    def part_of(tbl: pa.Table, n: int) -> np.ndarray:
        vals = tbl.column("__key").to_numpy(zero_copy_only=False)
        if vals.dtype == object:
            h = stable_hash_array(vals)
        else:
            h = pd.util.hash_array(np.ascontiguousarray(vals))
        # salt shifts hot rows across partitions; cold rows (salt 0)
        # keep the exact unsalted assignment. +salt (not hash(salt))
        # with n_salts <= n_parts guarantees a key's salt copies land
        # in n_salts DISTINCT partitions — two copies sharing a
        # partition would double-match its left rows
        salt = tbl.column("__salt").to_numpy().astype(np.uint64)
        return ((h + salt) % np.uint64(n)).astype(np.int64)

    def merge(_p: int, part: pa.Table) -> pa.Table:
        side = part.column("__side").to_numpy()
        lsel = np.nonzero(side == 0)[0]
        rsel = np.nonzero(side == 1)[0]
        if len(lsel) == 0 and not (how == "full" and len(rsel)):
            return out_schema.empty_table()
        keys = part.column("__key").to_numpy(zero_copy_only=False)
        lkeys = pd.DataFrame({"k": keys[lsel], "i": lsel})
        rkeys = pd.DataFrame({"k": keys[rsel], "j": rsel})
        if how == "full":
            m = lkeys.merge(rkeys, on="k", how="outer")
            if len(m) == 0:
                return out_schema.empty_table()
            ii = pa.array(m["i"].to_numpy(), pa.int64(), from_pandas=True)
            jj = pa.array(m["j"].to_numpy(), pa.int64(), from_pandas=True)
            lt = part.take(ii)  # null index → all-null row (pc.take)
            rt = part.take(jj)
            arrays = [pc.coalesce(lt.column("__key"), rt.column("__key"))]
            arrays += [lt.column(n) for n in lpayload]
            arrays += [rt.column(n) for n in rpayload]
            return pa.Table.from_arrays(arrays, schema=out_schema)
        if how in ("semi", "anti"):
            mask = lkeys["k"].isin(rkeys["k"].unique())
            hit = lkeys[mask if how == "semi" else ~mask]
            if len(hit) == 0:
                return out_schema.empty_table()
            lt = part.take(pa.array(hit["i"].to_numpy()))
            arrays = [lt.column("__key")]
            arrays += [lt.column(n) for n in lpayload]
            return pa.Table.from_arrays(arrays, schema=out_schema)
        m = lkeys.merge(rkeys, on="k", how="left" if how == "left" else "inner")
        if len(m) == 0:
            return out_schema.empty_table()
        lt = part.take(pa.array(m["i"].to_numpy()))
        j = m["j"].to_numpy()
        if how == "left":
            # null j indices gather as all-null right rows (pc.take
            # semantics) — the empty-right guard the broadcast join
            # needed (ADVICE round 2) falls out of the same path here
            jj = pa.array(j, pa.int64(), from_pandas=True)
        else:
            jj = pa.array(j.astype(np.int64))
        rt = part.take(jj)
        arrays = [lt.column("__key")]
        arrays += [lt.column(n) for n in lpayload]
        arrays += [rt.column(n) for n in rpayload]
        return pa.Table.from_arrays(arrays, schema=out_schema)

    return hash_exchange(
        tagged, part_of, n_parts, merge, out_schema.empty_table()
    )



def skew_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    n_parts: int,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    how: str = "inner",
    hot_threshold: int = 100_000,
    n_salts: int = 8,
    max_hot: int = 4096,
) -> ray.data.Dataset:
    """Skew-adaptive equi-join: measures the left side's per-key row
    counts first (the adaptive-execution move), then routes keys with
    >= ``hot_threshold`` rows through ``shuffle_hash_join``'s salted
    path (left fans over ``n_salts`` reducers, matching right rows
    replicated per salt) while cold keys take the plain hash exchange.
    A mega-key — one repo holding half the corpus, one user emitting
    half the events — no longer pins its entire row set on a single
    reducer.

    The count pass is one key-cardinality-slim ``grouped_aggregate``
    (pre-counted per block); the hot set is
    capped at ``max_hot`` keys by (count, key) order — beyond that the
    skew is better fixed upstream, and the cap keeps the broadcast hot
    array bounded. ``left`` is materialized once so the count pass and
    the exchange don't recompute its lineage."""
    if hot_threshold <= 0:
        raise ValueError("hot_threshold must be positive")
    if max_hot <= 0:
        raise ValueError("max_hot must be positive")

    mleft = left.materialize()
    lschema = mleft.schema()
    if lschema is None:
        raise ValueError("left side has no schema")

    counts = grouped_aggregate(mleft, left_key, {"n": ("count", None)})
    hot_rows = sorted(
        (
            (r["n"], r[left_key])
            for r in counts.take_all()
            if r["n"] >= hot_threshold
        ),
        reverse=True,
    )[:max_hot]
    hot = frozenset(k for _, k in hot_rows)
    return shuffle_hash_join(
        mleft,
        right,
        left_key,
        right_key,
        n_parts,
        left_cols=left_cols,
        right_cols=right_cols,
        how=how,
        hot_keys=hot,
        n_salts=n_salts,
    )

def interval_overlap_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    l_id: str,
    r_id: str,
    start_col: str = "s",
    end_col: str = "e",
    cell: int = 600_000_000,
    n_parts: int = 32,
) -> ray.data.Dataset:
    """Interval-overlap equi-free join: emit (l_id, r_id) for every
    pair of HALF-OPEN intervals [s, e) that overlap (l.s < r.e AND
    r.s < l.e) — the inequality-join shape (downtime × activity,
    promotion × session) no hash join can express.

    Scale shape: each interval explodes to the ``cell``-sized grid
    cells it touches (pick cell ≈ typical interval length; explosion
    factor = len/cell + 1), ONE hash exchange co-locates same-cell
    rows, and a pandas C merge on the cell id builds candidates.
    Each overlapping pair is OWNED by exactly one cell — the one
    containing max(l.s, r.s) — so no dedupe pass is needed. Reducer
    memory is bounded by cell occupancy, never by corpus size; both
    endpoints must be int64 (µs timestamps on the exact lattice)."""
    if cell <= 0:
        raise ValueError("cell must be positive")

    combined = pa.schema(
        [
            ("__cell", pa.int64()),
            ("__side", pa.int8()),
            ("id", pa.int64()),
            ("s", pa.int64()),
            ("e", pa.int64()),
        ]
    )
    out_schema = pa.schema([("l_id", pa.int64()), ("r_id", pa.int64())])

    def explode(side: int, id_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            s = batch.column(start_col).to_numpy()
            e = batch.column(end_col).to_numpy()
            ids = batch.column(id_col).to_numpy()
            if (e <= s).any():
                raise ValueError("intervals must satisfy s < e")
            c0 = s // cell
            c1 = (e - 1) // cell  # last cell touched (half-open end)
            n_cells = (c1 - c0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(s)), n_cells)
            offs = np.arange(int(n_cells.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(n_cells) - n_cells, n_cells
            )
            return pa.table(
                {
                    "__cell": pa.array(c0[idx] + offs, pa.int64()),
                    "__side": pa.array(
                        np.full(len(idx), side, dtype=np.int8)
                    ),
                    "id": pa.array(ids[idx], pa.int64()),
                    "s": pa.array(s[idx], pa.int64()),
                    "e": pa.array(e[idx], pa.int64()),
                }
            )

        return fn

    tagged = left.map_batches(
        explode(0, l_id), batch_format="pyarrow"
    ).union(right.map_batches(explode(1, r_id), batch_format="pyarrow"))

    def pair_cells(_p: int, part: pa.Table) -> pa.Table:
        side = part.column("__side").to_numpy()
        df = pd.DataFrame(
            {
                "cell": part.column("__cell").to_numpy(),
                "id": part.column("id").to_numpy(),
                "s": part.column("s").to_numpy(),
                "e": part.column("e").to_numpy(),
            }
        )
        lt, rt = df[side == 0], df[side == 1]
        if len(lt) == 0 or len(rt) == 0:
            return out_schema.empty_table()
        m = lt.merge(rt, on="cell", suffixes=("_l", "_r"))
        if len(m) == 0:
            return out_schema.empty_table()
        sl, el = m["s_l"].to_numpy(), m["e_l"].to_numpy()
        sr, er = m["s_r"].to_numpy(), m["e_r"].to_numpy()
        overlap = (sl < er) & (sr < el)
        owner = np.maximum(sl, sr) // cell == m["cell"].to_numpy()
        keep = overlap & owner
        return pa.table(
            {
                "l_id": pa.array(m["id_l"].to_numpy()[keep], pa.int64()),
                "r_id": pa.array(m["id_r"].to_numpy()[keep], pa.int64()),
            }
        )

    return hash_exchange(
        tagged, "__cell", n_parts, pair_cells, out_schema.empty_table()
    )
