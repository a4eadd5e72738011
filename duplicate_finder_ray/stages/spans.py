"""Longest-common-substring spans for near-duplicate pairs (SURVEY.md
§7.1 M6).

For every verified near-dup pair, find the longest byte span the two
files share (length + start offsets) — flags the duplicated code region
inside near-duplicate files. No reference counterpart (the reference is
whole-file exact-only); two public-algorithm kernels with identical
output: (1) binary search over the span length with polynomial rolling
hashes (Rabin–Karp family), exact because every hash match is confirmed
by a real substring compare (collisions fall through to the next
candidate), O((n+m)·log min(n,m)) per pair vs O(n·m) DP; (2) a
suffix-array pass (vectorized prefix doubling + binary-lifting LCP over
a⊕SEP⊕b) where the LCS is the max adjacent LCP between suffixes from
different sides — exact with no collision fallback.

Execution shape: the pair endpoints' contents are broadcast ONCE
(CSR-style: sorted ids + offsets + one flat utf-8 buffer — zero-copy
out of the object store per task), and a stateless ``map_batches`` over
the PAIR table computes spans. Both the endpoint collection and the CSR
assembly run in REMOTE TASKS over materialized block refs — the driver
reads back only a count, never content (same shape as
``neardup._csr_ref``). Partitioning assumption: the endpoint set fits
the object store (it is bounded by the verified-pair endpoints, a
small fraction of the corpus; at larger scale shard the CSR by
``fid % S`` and score each pair block's rows per (a-shard, b-shard)
group, as ``verify_pairs_exact`` does above ``broadcast_verify_limit``
endpoints)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from duplicate_finder_ray.stages.util import gather_blocks, in_sorted, sorted_distinct

_POW_BASE = np.uint64(1_000_003)

SPANS_SCHEMA = pa.schema(
    [
        ("a", pa.string()),
        ("b", pa.string()),
        ("span_len", pa.int64()),
        ("a_start", pa.int64()),
        ("b_start", pa.int64()),
    ]
)


#: B is odd ⇒ invertible mod 2^64; the inverse makes the prefix-hash
#: recurrence fully vectorizable (no sequential Horner loop).
_POW_BASE_INV = np.uint64(pow(int(_POW_BASE), -1, 1 << 64))


def _prefix_hashes(data: np.ndarray) -> np.ndarray:
    """h[i] = polynomial hash of data[:i] mod 2^64 (uint64 wraparound):
    ``h[i] = Σ_{j<i} data[j]·B^(i-1-j)``.

    Vectorized via the modular inverse: with w[j] = data[j]·B⁻ʲ and
    c = cumsum(w), h[i] = c[i-1]·B^(i-1) — three C-speed passes.
    """
    n = len(data)
    out = np.empty(n + 1, dtype=np.uint64)
    out[0] = 0
    if n == 0:
        return out
    with np.errstate(over="ignore"):
        pows = np.empty(n, dtype=np.uint64)
        pows[0] = 1
        if n > 1:
            pows[1:] = _POW_BASE
            np.multiply.accumulate(pows, out=pows)
        inv_pows = np.empty(n, dtype=np.uint64)
        inv_pows[0] = 1
        if n > 1:
            inv_pows[1:] = _POW_BASE_INV
            np.multiply.accumulate(inv_pows, out=inv_pows)
        w = data.astype(np.uint64) * inv_pows
        c = np.add.accumulate(w)
        out[1:] = c * pows
    return out


def _window_hashes(pref: np.ndarray, length: int, pow_l: np.uint64) -> np.ndarray:
    """Hashes of every window of ``length`` from prefix hashes."""
    with np.errstate(over="ignore"):
        return pref[length:] - pref[:-length] * pow_l


def longest_common_span(a: bytes, b: bytes, min_len: int = 1) -> tuple[int, int, int]:
    """(span_len, a_start, b_start) of the longest common substring of
    ``a`` and ``b`` (ties: smallest a_start). Exact — hash matches are
    confirmed byte-for-byte. Returns (0, -1, -1) if nothing ≥ min_len."""
    if not a or not b or min_len > min(len(a), len(b)):
        return 0, -1, -1
    da = np.frombuffer(a, dtype=np.uint8)
    db = np.frombuffer(b, dtype=np.uint8)
    pa_ = _prefix_hashes(da)
    pb_ = _prefix_hashes(db)

    def probe(length: int) -> tuple[int, int] | None:
        with np.errstate(over="ignore"):
            pow_l = _POW_BASE ** np.uint64(length)
        ha = _window_hashes(pa_, length, pow_l)
        hb = _window_hashes(pb_, length, pow_l)
        common, ia, ib = np.intersect1d(ha, hb, return_indices=True)
        if len(common) == 0:
            return None
        # confirm (collision guard): check each candidate until one is real
        order = np.argsort(ia)
        for o in order:
            i, j = int(ia[o]), int(ib[o])
            if a[i : i + length] == b[j : j + length]:
                return i, j
        # all were collisions — treat as no match at this length
        return None

    lo, hi = min_len, min(len(a), len(b))
    best: tuple[int, int, int] | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        hit = probe(mid)
        if hit is not None:
            best = (mid, hit[0], hit[1])
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        return 0, -1, -1
    return best


def _suffix_array_with_lcp(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix array + adjacent-LCP of int array ``s`` (values ≥ 0), whose
    LAST element must be a unique maximal sentinel (so no suffix is a
    prefix of another and padded-rank equality ⇒ real window equality).

    Fully vectorized prefix doubling (numpy lexsort), O(n log n) memory
    for the per-level rank snapshots; LCP of adjacent suffix-array
    entries by binary lifting over those snapshots — no per-character
    Python loop (Kasai's algorithm is inherently sequential)."""
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.argsort(s, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    sv = s[order]
    rank[order] = np.cumsum(np.r_[0, (sv[1:] != sv[:-1]).astype(np.int64)])
    levels = [rank.copy()]  # levels[i]: rank of the 2^i-char window at each pos
    k = 1
    while k < n and rank[order[-1]] != n - 1:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[:-k] = rank[k:]
        order = np.lexsort((key2, rank))
        r0, r1 = rank[order], key2[order]
        changed = np.r_[
            0, ((r0[1:] != r0[:-1]) | (r1[1:] != r1[:-1])).astype(np.int64)
        ]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(changed)
        levels.append(rank.copy())
        k <<= 1

    sa = order
    lcp = np.zeros(max(n - 1, 0), dtype=np.int64)
    if n > 1:
        x = sa[:-1].copy()
        y = sa[1:].copy()
        for lev in range(len(levels) - 1, -1, -1):
            length = 1 << lev
            ok = (x + length < n) & (y + length < n)
            xi = np.where(ok, x, 0)
            yi = np.where(ok, y, 0)
            eq = ok & (levels[lev][xi] == levels[lev][yi])
            lcp[eq] += length
            x[eq] += length
            y[eq] += length
    return sa, lcp


def longest_common_span_sa(
    a: bytes, b: bytes, min_len: int = 1
) -> tuple[int, int, int]:
    """Suffix-array variant of :func:`longest_common_span` — identical
    output contract (the north-star's "suffix-array substring pass").

    Builds one suffix array over ``a ⊕ SEP ⊕ b`` (SEP=256 can match
    nothing, so no common prefix crosses the boundary); the LCS length
    is the max adjacent-LCP between a mixed (one-from-each-side) suffix
    pair — exact, no hash-collision fallback. Start offsets are then
    recovered with one verified rolling-hash probe at that exact length
    so tie-breaking (smallest a_start) is bit-identical to the
    rolling-hash kernel."""
    if not a or not b or min_len > min(len(a), len(b)):
        return 0, -1, -1
    la = len(a)
    s = np.empty(la + len(b) + 2, dtype=np.int32)
    s[:la] = np.frombuffer(a, dtype=np.uint8)
    s[la] = 256
    s[la + 1 : -1] = np.frombuffer(b, dtype=np.uint8)
    s[-1] = 257  # unique terminator: every suffix distinct
    sa, lcp = _suffix_array_with_lcp(s)
    from_a = sa < la
    from_b = (sa > la) & (sa < len(s) - 1)
    mixed = (from_a[:-1] & from_b[1:]) | (from_b[:-1] & from_a[1:])
    if not mixed.any():
        return 0, -1, -1
    best = int(lcp[mixed].max())
    if best < min_len:
        return 0, -1, -1
    da = np.frombuffer(a, dtype=np.uint8)
    db = np.frombuffer(b, dtype=np.uint8)
    pref_a = _prefix_hashes(da)
    pref_b = _prefix_hashes(db)
    with np.errstate(over="ignore"):
        pow_l = _POW_BASE ** np.uint64(best)
    ha = _window_hashes(pref_a, best, pow_l)
    hb = _window_hashes(pref_b, best, pow_l)
    common, ia, ib = np.intersect1d(ha, hb, return_indices=True)
    for o in np.argsort(ia):
        i, j = int(ia[o]), int(ib[o])
        if a[i : i + best] == b[j : j + best]:
            return best, i, j
    raise AssertionError("suffix array found an LCS the probe could not locate")


_SPAN_KERNELS = {
    "rolling_hash": longest_common_span,
    "suffix_array": longest_common_span_sa,
}


def common_spans(
    pairs: ray.data.Dataset,
    code_with_id: ray.data.Dataset,
    min_span: int = 16,
    algorithm: str = "rolling_hash",
) -> ray.data.Dataset:
    """Annotate every (a, b) pair with its longest common byte span.

    pairs: Dataset with string cols (a, b) — e.g. NearDupResult.pairs.
    code_with_id: Dataset bearing (file_id, content).
    algorithm: "rolling_hash" (default: binary search over span length
        with verified hash probes — ~8× faster per pair at typical
        source-file sizes) or "suffix_array" (one suffix array over
        a⊕SEP⊕b, LCS = max adjacent mixed-pair LCP — exact with no
        hash-collision fallback path). Both kernels produce identical
        rows (cross-validated in tests/test_spans.py).
    """
    if algorithm not in _SPAN_KERNELS:
        raise ValueError(
            f"unknown span algorithm {algorithm!r}; "
            f"choose from {sorted(_SPAN_KERNELS)}"
        )
    kernel = _SPAN_KERNELS[algorithm]
    pairs = pairs.select_columns(["a", "b"]).materialize()
    count_ref, endpoints_ref = gather_blocks(
        pairs,
        sorted_distinct,
        (0, np.empty(0, dtype=object)),
        columns=["a", "b"],
        num_returns=2,
    )
    if int(ray.get(count_ref)) == 0:
        return ray.data.from_arrow(SPANS_SCHEMA.empty_table())

    def probe_rows(batch: pa.Table) -> pa.Table:
        ep = ray.get(endpoints_ref)
        ids = batch.column("file_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(in_sorted(ep, ids)))

    content = (
        code_with_id.select_columns(["file_id", "content"])
        .map_batches(probe_rows, batch_format="pyarrow")
        .materialize()
    )

    _EMPTY_CSR = (
        np.empty(0, dtype=object),
        np.empty(0, dtype=np.int64),
        pa.array([], pa.large_binary()),
    )

    def build_content_csr(tbl: pa.Table) -> tuple:
        """(sorted file_ids, sort permutation → row index, content as an
        ARROW large_binary column in row order). The string column's
        data buffer IS utf-8, so span tasks slice it zero-copy; no
        payload sort and no numpy copy of the content bytes (both cost
        seconds of single-thread wall that every span task would block
        behind)."""
        ids = tbl.column("file_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable").astype(np.int64)
        col = tbl.column("content").cast(pa.large_binary())
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):  # cast may re-chunk
            col = col.chunk(0) if col.num_chunks else pa.array([], pa.large_binary())
        return ids[order], order, col

    ref = gather_blocks(content, build_content_csr, _EMPTY_CSR)

    def span_batch(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return SPANS_SCHEMA.empty_table()
        ids_g, order_g, col_g = ray.get(ref)
        if len(col_g):
            offs = np.frombuffer(
                col_g.buffers()[1], dtype=np.int64, count=len(col_g) + 1,
                offset=col_g.offset * 8,
            )
            flat_g = np.frombuffer(col_g.buffers()[2], dtype=np.uint8)
        else:
            offs = np.zeros(1, dtype=np.int64)
            flat_g = np.empty(0, dtype=np.uint8)

        def blob(key: str) -> bytes:
            i = int(np.searchsorted(ids_g, key))
            if i >= len(ids_g) or ids_g[i] != key:
                return b""
            r = order_g[i]
            return flat_g[offs[r] : offs[r + 1]].tobytes()

        aa = batch.column("a").to_pylist()
        bb = batch.column("b").to_pylist()
        span_len = np.empty(len(aa), dtype=np.int64)
        a_start = np.empty(len(aa), dtype=np.int64)
        b_start = np.empty(len(aa), dtype=np.int64)
        for i, (ka, kb) in enumerate(zip(aa, bb)):
            sl, sa, sb = kernel(blob(ka), blob(kb), min_len=min_span)
            span_len[i], a_start[i], b_start[i] = sl, sa, sb
        return pa.table(
            {
                "a": batch["a"],
                "b": batch["b"],
                "span_len": pa.array(span_len),
                "a_start": pa.array(a_start),
                "b_start": pa.array(b_start),
            }
        )

    return pairs.map_batches(span_batch, batch_format="pyarrow")
