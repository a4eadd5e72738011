"""Grouped moment statistics: z-score standardization and Pearson
correlation as combiner-shaped Ray Data operators.

A curation pipeline standardizes per-group ("is this document an
outlier for its language?") and correlates features ("does char length
track token count per language?") over corpora far too large for any
single task to hold a group. Both operators here reduce the corpus to
EXACT int64 moment sums inside ``map_batches`` (one ≤groups-sized row
set per block), merge the partials in ONE grouped aggregate, and finalize
with a fixed IEEE-754 double op sequence — so the DuckDB oracle, fed
the same integer sums through the same expression, reproduces every
output bit-for-bit (no tolerance window in the hash gate).

The reference engine has no statistics surface at all (its analytics
stop at duplicate-group counts, /root/reference/duplicate_finder/
duplicate_finder.py:206-263); these are part of the beyond-reference
training-data toolkit (SURVEY.md §2.5).

Scale shape: the shuffle carries groups × blocks partial rows (ints),
never the corpus; the z-score filter's second pass reads the per-group
stats from ONE broadcast object (``collect_small_side`` → ``ray.put``);
group cardinality is assumed ≪ corpus (languages, sources, shards).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from duplicate_finder_ray.stages.exchange import grouped_aggregate
from duplicate_finder_ray.stages.util import gather_blocks

#: half-up micro-unit rounding shared with the SQL twins:
#: CAST(floor(x * 1000000 + 0.5) AS BIGINT)
_MICRO = 1_000_000.0


def _micro_i64(x: np.ndarray) -> np.ndarray:
    return np.floor(x * _MICRO + 0.5).astype(np.int64)


def moment_partials(
    ds: ray.data.Dataset,
    group_col: str,
    x_col: str,
    y_col: str | None = None,
) -> ray.data.Dataset:
    """Per-group exact int64 moment sums: n, Σx, Σx² (and with
    ``y_col``: Σy, Σy², Σxy). Per-batch Arrow group_by collapses each
    block to ≤1 row per group; ONE ``grouped_aggregate`` sums them.
    Values must be integers (cast lengths/counts/cents upstream) so
    every sum is exact and engine-portable."""
    sums = ["sx", "sxx"] + (["sy", "syy", "sxy"] if y_col else [])

    def terms(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy().astype(np.int64)
        cols = {"sx": x, "sxx": x * x}
        if y_col is not None:
            y = batch.column(y_col).to_numpy().astype(np.int64)
            cols.update(sy=y, syy=y * y, sxy=x * y)
        return pa.table({group_col: batch.column(group_col), **cols})

    cols = [group_col, x_col] + ([y_col] if y_col else [])
    return grouped_aggregate(
        ds.select_columns(cols).map_batches(terms, batch_format="pyarrow"),
        group_col,
        {"n": ("count", None), **{c: ("sum", c) for c in sums}},
    )


def grouped_zscore_outliers(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    keep_cols: list[str],
    z_thresh: float = 2.0,
) -> ray.data.Dataset:
    """Rows whose ``value_col`` sits ≥ ``z_thresh`` sample standard
    deviations from their group's mean, annotated with ``z_micro``
    (half-up micro-units of the z-score) — the per-group outlier gate
    of length/quality pruning.

    Two passes: moment partials → tiny per-group (mean, sd) broadcast
    via ``ray.put`` → one vectorized filter pass. Finalization order is
    fixed and mirrored in SQL: m = sx/n; sd = sqrt((sxx - sx*m)/(n-1));
    z = (x - m)/sd — every op IEEE-correctly-rounded double, so the
    oracle matches exactly. Groups with n ≤ 1 or zero variance emit no
    rows (z is undefined there), identically on both engines."""
    from duplicate_finder_ray.stages.relational import collect_small_side

    stats = moment_partials(ds, group_col, value_col)
    stats_ref = collect_small_side(stats, [group_col, "n", "sx", "sxx"])

    def keep(batch: pa.Table) -> pa.Table:
        st: pa.Table = ray.get(stats_ref)
        n = st.column("n").to_numpy().astype(np.float64)
        sx = st.column("sx").to_numpy().astype(np.float64)
        sxx = st.column("sxx").to_numpy().astype(np.float64)
        m = sx / n
        with np.errstate(invalid="ignore"):
            var = (sxx - sx * m) / (n - 1.0)
            sd = np.sqrt(var)
        ok = (n > 1.0) & (var > 0.0)
        lut = pd.Series(
            np.arange(len(st)), index=st.column(group_col).to_pylist()
        )
        gi = lut.reindex(
            batch.column(group_col).to_numpy(zero_copy_only=False)
        ).to_numpy()
        valid = ~np.isnan(gi)
        gi = np.where(valid, gi, 0).astype(np.int64)
        x = batch.column(value_col).to_numpy().astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (x - m[gi]) / sd[gi]
        mask = valid & ok[gi] & (np.abs(z) >= z_thresh)
        out = batch.select(keep_cols).filter(pa.array(mask))
        return out.append_column(
            "z_micro", pa.array(_micro_i64(z[mask]), pa.int64())
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def grouped_corr(
    ds: ray.data.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
) -> ray.data.Dataset:
    """Per-group Pearson correlation of two integer columns, in exact
    half-up micro-units (``corr_micro``) plus the group row count — the
    feature-drift / redundancy check of curation dashboards.

    One corpus pass of int64 moment partials, one groups-sized
    aggregate, then a vectorized finisher over the tiny stats table.
    The sums are cast to double BEFORE the products (n·Σxy − Σx·Σy
    overflows int64 at corpus scale), mirrored exactly in the SQL twin.
    Zero-variance groups emit corr_micro = 0 under the convention
    r = 0 when undefined (documented; same CASE in SQL)."""
    stats = moment_partials(ds, group_col, x_col, y_col=y_col)

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.float64)
        sx = batch.column("sx").to_numpy().astype(np.float64)
        sy = batch.column("sy").to_numpy().astype(np.float64)
        sxx = batch.column("sxx").to_numpy().astype(np.float64)
        syy = batch.column("syy").to_numpy().astype(np.float64)
        sxy = batch.column("sxy").to_numpy().astype(np.float64)
        cov = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        denom = np.sqrt(vx * vy)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 0.0, cov / denom, 0.0)
        return pa.table(
            {
                group_col: batch.column(group_col),
                "n_rows": batch.column("n"),
                "corr_micro": pa.array(_micro_i64(r), pa.int64()),
            }
        )

    return stats.map_batches(finish, batch_format="pyarrow")


def grouped_vector_mean(
    ds: ray.data.Dataset,
    group_col: str,
    vec_col: str,
) -> ray.data.Dataset:
    """Per-group centroid of an embedding column (class centroids for
    clustering seeds, label prototypes, IVF init), one output row per
    (group, dimension) with the mean in exact micro-units.

    Each batch quantizes its (B, d) block onto the int64 micro-lattice
    (floor(x·10⁶ + 0.5) — float32→float64 is exact, so both engines
    quantize identically) and scatter-adds per group: the shuffle
    carries groups × d int rows per block, never the vectors. One
    group-keyed exchange sums the partials; the finisher divides with
    truncation-toward-zero to mirror SQL's integer ``//``."""

    from duplicate_finder_ray.stages.exchange import hash_exchange

    partial_schema = pa.schema(
        [
            (group_col, pa.int64()),
            ("s", pa.large_list(pa.int64())),
            ("n", pa.int64()),
        ]
    )
    out_schema = pa.schema(
        [
            (group_col, pa.int64()),
            ("dim", pa.int64()),
            ("n_vecs", pa.int64()),
            ("mean_micro", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        # DENSE partials: one row per group present in the batch, the
        # whole d-dim sum vector as a list cell. The previous
        # (group, dim)-row explosion emitted groups × d rows per batch
        # — zero compression once groups ≈ batch rows (measured 83 s at
        # 40 k vectors × 2048 groups); dense rows keep the exchange at
        # groups × blocks rows regardless of d.
        from duplicate_finder_ray.stages.similarity import _matrix

        if len(batch) == 0:
            return partial_schema.empty_table()
        m = _matrix(batch, vec_col)
        q = np.floor(m * _MICRO + 0.5).astype(np.int64)
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(g, return_inverse=True)
        sums = np.zeros((len(uniq), q.shape[1]), dtype=np.int64)
        np.add.at(sums, inv, q)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        k, d = sums.shape
        offs = pa.array(np.arange(k + 1, dtype=np.int64) * d)
        return pa.table(
            {
                group_col: pa.array(uniq, pa.int64()),
                "s": pa.LargeListArray.from_arrays(
                    offs, pa.array(sums.reshape(-1), pa.int64())
                ),
                "n": pa.array(counts, pa.int64()),
            }
        )

    partials = ds.select_columns([group_col, vec_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def reduce_means(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        g = tbl.column(group_col).to_numpy().astype(np.int64)
        n = tbl.column("n").to_numpy().astype(np.int64)
        lists = tbl.column("s")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        d = len(lists[0]) if len(lists) else 0
        mat = lists.flatten().to_numpy().reshape(len(g), d)
        order = np.argsort(g, kind="stable")
        g, n, mat = g[order], n[order], mat[order]
        starts = np.nonzero(np.r_[True, g[1:] != g[:-1]])[0]
        sums = np.add.reduceat(mat, starts, axis=0)
        counts = np.add.reduceat(n, starts)
        mean = np.where(
            sums >= 0,
            sums // counts[:, None],
            -((-sums) // counts[:, None]),  # SQL `//` truncates
        ).astype(np.int64)
        k = len(starts)
        return pa.table(
            {
                group_col: pa.array(np.repeat(g[starts], d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), k)),
                "n_vecs": pa.array(np.repeat(counts, d), pa.int64()),
                "mean_micro": pa.array(mean.reshape(-1), pa.int64()),
            }
        )

    return hash_exchange(
        partials, group_col, 16, reduce_means, out_schema.empty_table()
    )


def _trunc_div(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Integer division truncating toward zero — SQL's ``//`` on
    BIGINT (numpy's ``//`` floors, which differs on negatives)."""
    a = a.astype(np.int64)
    return np.where(a >= 0, a // b, -((-a) // b)).astype(np.int64)


def value_histogram(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    bin_width_micro: int,
) -> ray.data.Dataset:
    """Fixed-width histogram of a float measure per group — the data-
    profiling primitive (value distributions per event type / per
    source) that feeds range checks and drift monitors.

    Each value quantizes to half-up micro-units (exactly as the SQL
    twin: ``CAST(floor(v * 1e6 + 0.5) AS BIGINT)``) and bins by
    truncating division, so the whole operator is integer-exact and
    hash-gateable. ONE ``grouped_aggregate`` counts the (group, bin)
    rows, each block pre-counted in its split task. Empty bins emit no
    row (sparse histogram — at corpus scale a dense bin range per group
    is the wrong default)."""
    if bin_width_micro <= 0:
        raise ValueError("bin_width_micro must be positive")

    def binned(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy().astype(np.float64)
        b = _trunc_div(_micro_i64(v), bin_width_micro)
        return pa.table(
            {
                group_col: batch.column(group_col),
                "bin_lo_micro": pa.array(b * bin_width_micro, pa.int64()),
            }
        )

    return grouped_aggregate(
        ds.select_columns([group_col, value_col]).map_batches(
            binned, batch_format="pyarrow"
        ),
        [group_col, "bin_lo_micro"],
        {"n": ("count", None)},
    )


def minmax_scale(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    keep_cols: list[str],
) -> ray.data.Dataset:
    """Per-group min-max normalization of an integer feature onto the
    [0, 1e6] int lattice — the ML-prep scaling pass (quality scores,
    lengths) made engine-portable by staying in exact integer
    arithmetic: scaled = (x − min) · 10⁶ // (max − min), truncating
    division, degenerate groups (max == min) scale to 0.

    Two passes: per-batch min/max partials → ONE groups-sized
    aggregate broadcast via ``ray.put`` → one vectorized scaling pass.
    The corpus crosses no shuffle; only the tiny stats table does."""
    from duplicate_finder_ray.stages.relational import collect_small_side

    def as_int(batch: pa.Table) -> pa.Table:
        x = batch.column(value_col).to_numpy().astype(np.int64)
        return pa.table({group_col: batch.column(group_col), "x": x})

    stats = grouped_aggregate(
        ds.select_columns([group_col, value_col]).map_batches(
            as_int, batch_format="pyarrow"
        ),
        group_col,
        {"mn": ("min", "x"), "mx": ("max", "x")},
    )
    stats_ref = collect_small_side(stats, [group_col, "mn", "mx"])

    def scale(batch: pa.Table) -> pa.Table:
        st: pa.Table = ray.get(stats_ref)
        lut = pd.Series(
            np.arange(len(st)), index=st.column(group_col).to_pylist()
        )
        gi = lut.reindex(
            batch.column(group_col).to_numpy(zero_copy_only=False)
        ).to_numpy()
        gi = np.where(np.isnan(gi), 0, gi).astype(np.int64)
        mn = st.column("mn").to_numpy().astype(np.int64)[gi]
        mx = st.column("mx").to_numpy().astype(np.int64)[gi]
        x = batch.column(value_col).to_numpy().astype(np.int64)
        span = mx - mn
        scaled = np.where(
            span > 0, _trunc_div((x - mn) * 1_000_000, np.maximum(span, 1)), 0
        )
        return batch.select(keep_cols).append_column(
            "scaled_micro", pa.array(scaled.astype(np.int64), pa.int64())
        )

    return ds.map_batches(scale, batch_format="pyarrow")


def nearest_centroid_assign(
    ds: ray.data.Dataset,
    id_col: str,
    vec_col: str,
    centroids: ray.data.Dataset,
    group_col: str = "label",
    extra_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Assign every vector to its nearest per-group centroid (squared
    L2 on the int64 micro-lattice) → ``(id, group, d2)`` — the
    assignment half of k-means / a nearest-class-prototype classifier.

    ``centroids`` is :func:`grouped_vector_mean` output
    ``(group, dim, mean_micro)`` — groups × dims rows by definition, so
    ONE remote task pivots it into a (G, d) int64 matrix and the ref is
    read per actor-task, never re-shipped per batch. Each batch
    quantizes with the shared floor(x·10⁶ + 0.5) op and computes all
    G distances in one int64 einsum-free broadcast subtract — exact
    integers end-to-end, ties broken toward the smallest group id
    (argmin over group-ascending rows), so the SQL twin's
    ROW_NUMBER(ORDER BY d2, group) reproduces every row bit-for-bit.

    ``extra_cols`` appends pass-through input columns to the output —
    SemDeDup uses it to keep the embedding beside its assignment so the
    cluster co-partition exchange doesn't need an id join."""
    from duplicate_finder_ray.stages.similarity import _matrix

    def pivot(t: pa.Table) -> tuple:
        g = t.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        dim = t.column("dim").to_numpy(zero_copy_only=False).astype(np.int64)
        mm = t.column("mean_micro").to_numpy(zero_copy_only=False).astype(np.int64)
        groups = np.unique(g)  # ascending ⇒ argmin tie-break = smallest id
        d = int(dim.max()) + 1
        mat = np.zeros((len(groups), d), dtype=np.int64)
        mat[np.searchsorted(groups, g), dim] = mm
        return groups, mat

    cent_ref = gather_blocks(centroids, pivot, None)

    extras = list(extra_cols or [])

    def assign(batch: pa.Table) -> pa.Table:
        got = ray.get(cent_ref)
        base = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                group_col: pa.array([], pa.int64()),
                "d2": pa.array([], pa.int64()),
            }
        )
        if got is None or len(batch) == 0:
            out = base
            for c in extras:
                out = out.append_column(c, batch.column(c).slice(0, 0))
            return out
        groups, cent = got
        q = np.floor(_matrix(batch, vec_col) * _MICRO + 0.5).astype(np.int64)
        # d2 = |q|² − 2·q·cᵀ + |c|², all int64 — the same exact
        # integers as the broadcast-diff form but with (B, G) working
        # memory instead of (B, G, d): at G=2048 clusters × d=768 the
        # diff tensor would be gigabytes per batch. Values bounded by
        # dims · |q|max² ≪ 2⁶³ for unit-scale embeddings.
        qq = np.einsum("bd,bd->b", q, q)
        cc = np.einsum("gd,gd->g", cent, cent)
        d2 = qq[:, None] - 2 * np.einsum("bd,gd->bg", q, cent) + cc[None, :]
        best = np.argmin(d2, axis=1)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        out = pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                group_col: pa.array(groups[best], pa.int64()),
                "d2": pa.array(d2[np.arange(len(best)), best], pa.int64()),
            }
        )
        for c in extras:
            out = out.append_column(c, batch.column(c))
        return out

    need = [id_col, vec_col] + [c for c in extras if c != vec_col]
    return ds.select_columns(need).map_batches(
        assign, batch_format="pyarrow", batch_size=2048
    )


def welch_t(
    ds: ray.data.Dataset,
    group_col: str,
    x_col: str,
    group_a,
    group_b,
) -> ray.data.Dataset:
    """Welch's unequal-variance t statistic between two groups — the
    A/B-test readout (does treatment change the mean?):

        t = (mx − my) / sqrt(vx/nx + vy/ny),
        v = (Σx² − (Σx)²/n) / (n − 1)       (sample variance)

    computed from the EXACT int64 moment partials (x must already be
    an integer lattice — cents, chars, counts), so the only doubles
    are the final 12-op expression evaluated in ONE fixed order and
    half-up micro-quantized; the SQL twin states the same tree.
    Output one row: (group_a, group_b, n_a, n_b, t_micro); a group
    with n < 2 (variance undefined) emits t_micro = 0 by convention,
    same CASE in SQL.

    Scale shape: all heavy lifting is moment_partials' (≤ 2 partial
    rows per block, one tiny 2-row grouped sum); the groups-sized stats
    table is collected and the expression evaluated once."""
    rows = moment_partials(ds, group_col, x_col).take_all()
    stats = {r[group_col]: r for r in rows}
    out_schema = pa.schema(
        [
            ("group_a", pa.string()),
            ("group_b", pa.string()),
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
            ("t_micro", pa.int64()),
        ]
    )
    if group_a not in stats or group_b not in stats:
        return ray.data.from_arrow(out_schema.empty_table())
    ra, rb = stats[group_a], stats[group_b]
    na, nb = int(ra["n"]), int(rb["n"])
    if na < 2 or nb < 2:
        t_micro = 0
    else:
        naf, nbf = float(na), float(nb)
        mx = float(ra["sx"]) / naf
        my = float(rb["sx"]) / nbf
        vx = (float(ra["sxx"]) - (float(ra["sx"]) * float(ra["sx"])) / naf) / (
            naf - 1.0
        )
        vy = (float(rb["sxx"]) - (float(rb["sx"]) * float(rb["sx"])) / nbf) / (
            nbf - 1.0
        )
        denom = np.sqrt(vx / naf + vy / nbf)
        t = 0.0 if denom == 0.0 else (mx - my) / denom
        t_micro = int(np.floor(t * 1_000_000.0 + 0.5))
    row = [[str(group_a)], [str(group_b)], [na], [nb], [t_micro]]
    return ray.data.from_arrow(pa.Table.from_arrays(row, schema=out_schema))


def psi_drift(
    ds: ray.data.Dataset,
    slice_col: str,
    value_col: str,
    slice_a,
    slice_b,
    bucket_width: int,
) -> ray.data.Dataset:
    """Population Stability Index between two slices' value
    distributions — the ML-ops drift gate (PSI < 0.1 stable, > 0.25
    action):

        PSI = Σ_buckets (p_i − q_i) · ln(p_i / q_i)

    over fixed-width integer buckets (bucket = value // width), with
    the standard 1e-6 clamp for empty buckets. Each bucket's term is
    evaluated in ONE fixed double order and quantized to NANO units
    (×1e9) BEFORE the sum, so the total is an order-free integer sum —
    distributed reduction and the SQL SUM cannot drift. Output one
    row: (n_a, n_b, n_buckets, psi_nano).

    Scale shape: per-batch (slice, bucket) count partials (buckets
    compress by construction), one grouped count, one finisher task
    over the buckets-cardinality table."""
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")

    def bucketed(batch: pa.Table) -> pa.Table:
        s = batch.column(slice_col).to_numpy(zero_copy_only=False).astype(object)
        keep = (s == slice_a) | (s == slice_b)
        v = batch.column(value_col).to_numpy().astype(np.int64)[keep]
        return pa.table(
            {
                "slice": pa.array(s[keep].astype(str), pa.string()),
                "bucket": pa.array(v // np.int64(bucket_width), pa.int64()),
            }
        )

    counts = grouped_aggregate(  # buckets-cardinality tiny
        ds.select_columns([slice_col, value_col]).map_batches(
            bucketed, batch_format="pyarrow"
        ),
        ["slice", "bucket"],
        {"n": ("count", None)},
    )
    out_schema = pa.schema(
        [
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
            ("n_buckets", pa.int64()),
            ("psi_nano", pa.int64()),
        ]
    )

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        piv = df.pivot_table(
            index="bucket", columns="slice", values="n", aggfunc="sum", fill_value=0
        )
        ca = piv[str(slice_a)].to_numpy(np.int64) if str(slice_a) in piv else None
        cb = piv[str(slice_b)].to_numpy(np.int64) if str(slice_b) in piv else None
        if ca is None or cb is None:
            return out_schema.empty_table()
        n_a, n_b = int(ca.sum()), int(cb.sum())
        # fixed double order per bucket, nano-quantized BEFORE the sum
        p = ca.astype(np.float64) / float(n_a)
        q = cb.astype(np.float64) / float(n_b)
        p2 = np.where(p > 0.0, p, 1e-6)
        q2 = np.where(q > 0.0, q, 1e-6)
        term = (p2 - q2) * np.log(p2 / q2)
        nano = np.floor(term * 1_000_000_000.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "n_a": pa.array([n_a], pa.int64()),
                "n_b": pa.array([n_b], pa.int64()),
                "n_buckets": pa.array([len(piv)], pa.int64()),
                "psi_nano": pa.array([int(nano.sum())], pa.int64()),
            }
        )

    return ray.data.from_arrow_refs(
        [gather_blocks(counts, finish, out_schema.empty_table())]
    )


def chi2_contingency(
    ds: ray.data.Dataset,
    row_col: str,
    col_col: str,
) -> ray.data.Dataset:
    """Pearson chi-squared independence test over the row_col × col_col
    contingency table — "does the label distribution depend on the
    slice?" (lang × source balance audits, split-leakage checks):

        chi2 = Σ_cells (o − e)² / e,   e = row_total · col_total / N,

    summed over the FULL cross product (zero-observed cells contribute
    e). Counts are exact integers; each cell's term is one fixed-order
    double expression nano-quantized BEFORE the sum, so the total is
    an order-free integer sum in both engines (the PSI discipline).
    Output one row: (n, n_rows, n_cols, dof, chi2_nano).

    Scale shape: per-batch (row, col) count partials (category pairs
    compress by construction), one grouped count, one finisher task
    over the categories-cardinality table."""
    def labels(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                k: pa.array(
                    batch.column(c).to_numpy(zero_copy_only=False).astype(str),
                    pa.string(),
                )
                for k, c in (("r", row_col), ("c", col_col))
            }
        )

    counts = grouped_aggregate(  # categories-cardinality tiny
        ds.select_columns([row_col, col_col]).map_batches(
            labels, batch_format="pyarrow"
        ),
        ["r", "c"],
        {"n": ("count", None)},
    )
    out_schema = pa.schema(
        [
            ("n", pa.int64()),
            ("n_rows", pa.int64()),
            ("n_cols", pa.int64()),
            ("dof", pa.int64()),
            ("chi2_nano", pa.int64()),
        ]
    )

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        piv = df.pivot_table(
            index="r", columns="c", values="n", aggfunc="sum", fill_value=0
        )
        obs = piv.to_numpy(np.int64)
        n = int(obs.sum())
        if n == 0:
            return out_schema.empty_table()
        rows = obs.sum(axis=1)  # int64
        cols = obs.sum(axis=0)
        # fixed order per cell: e = (rowf * colf) / nf;
        # term = ((of - e) * (of - e)) / e, nano-quantized
        e = (rows.astype(np.float64)[:, None] * cols.astype(np.float64)[None, :]) / float(n)
        of = obs.astype(np.float64)
        term = ((of - e) * (of - e)) / e
        nano = np.floor(term * 1_000_000_000.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "n_rows": pa.array([obs.shape[0]], pa.int64()),
                "n_cols": pa.array([obs.shape[1]], pa.int64()),
                "dof": pa.array(
                    [(obs.shape[0] - 1) * (obs.shape[1] - 1)], pa.int64()
                ),
                "chi2_nano": pa.array([int(nano.sum())], pa.int64()),
            }
        )

    return ray.data.from_arrow_refs(
        [gather_blocks(counts, finish, out_schema.empty_table())]
    )
