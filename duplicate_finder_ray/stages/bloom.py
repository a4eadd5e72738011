"""Bloom-filter build + membership prefilter for large × large
semi-joins.

Training-data-pipeline extension (the reference has no joins at all —
SURVEY.md §2.5). At 100 TB the dominant cost of "keep the rows whose
key appears in that other table" is the shuffle: a plain semi-join
exchanges EVERY probe-side row. A Bloom filter inverts that — the key
side is summarized into a fixed-size bit array (1 MiB covers ~10^6
keys at <1% false-positive rate; size is a parameter), broadcast once
via ``ray.put``, and the probe side is filtered MAP-SIDE so only
matches-plus-false-positives ever reach the exact exchange. The final
``shuffle_hash_join(how='semi')`` pass removes the false positives, so
the composed operator is exact (hash-match oracle: ``WHERE key IN
(SELECT ...)``) while the wire cost scales with the match count, not
the corpus.

Hashing: k bit positions per key via Kirsch-Mitzenmacher double
hashing (pos_i = h1 + i*h2 mod m): h1 is the vectorized fixed-key
siphash ``stable_hash_array``, h2 its splitmix64 remix — no per-row
Python on either the build or the probe pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data.block import BlockAccessor

from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.stages.util import block_refs

def _splitmix64(h: np.ndarray) -> np.ndarray:
    """Stateless 64-bit finalizer (splitmix64, public domain): derives
    the second Bloom hash from the first. ``hash_array``'s hash_key
    seed only affects string arrays, so two seeded calls would return
    IDENTICAL hashes for integer keys — mixing is seed-independent."""
    with np.errstate(over="ignore"):
        h = h + np.uint64(0x9E3779B97F4A7C15)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(31))


def _hash_pair(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if vals.dtype != object:
        vals = np.ascontiguousarray(vals)
    h1 = stable_hash_array(vals)
    # force h2 odd so the k probe positions never collapse onto one bit
    return h1, _splitmix64(h1) | np.uint64(1)


def _set_bits(words: np.ndarray, vals: np.ndarray, n_bits: int, k: int) -> None:
    h1, h2 = _hash_pair(vals)
    m = np.uint64(n_bits)
    for i in range(k):
        pos = (h1 + np.uint64(i) * h2) % m
        np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))


def bloom_contains(
    words: np.ndarray, vals: np.ndarray, n_bits: int, k: int
) -> np.ndarray:
    """Vectorized membership test: bool array, True for every inserted
    key (no false negatives) and ~fpr of the rest."""
    h1, h2 = _hash_pair(vals)
    m = np.uint64(n_bits)
    ok = np.ones(len(vals), dtype=bool)
    for i in range(k):
        pos = (h1 + np.uint64(i) * h2) % m
        bit = (words[(pos >> np.uint64(6)).astype(np.int64)]
               >> (pos & np.uint64(63))) & np.uint64(1)
        ok &= bit.astype(bool)
    return ok


def build_bloom(
    keys: ray.data.Dataset,
    key: str,
    n_bits: int = 1 << 23,
    k: int = 4,
):
    """Distributed build: one remote task per key-side block sets bits
    into its own bitmap; one merge task ORs them. Returns an ObjectRef
    to the packed uint64 word array — the driver never holds a bitmap,
    probe tasks read it zero-copy from the object store."""
    if n_bits % 64:
        raise ValueError("n_bits must be a multiple of 64")
    n_words = n_bits // 64
    refs = list(block_refs(keys.select_columns([key])))

    @ray.remote
    def block_bits(tbl) -> np.ndarray:
        tbl = BlockAccessor.for_block(tbl).to_arrow()
        words = np.zeros(n_words, dtype=np.uint64)
        if len(tbl):
            vals = tbl.column(key).to_numpy(zero_copy_only=False)
            _set_bits(words, vals, n_bits, k)
        return words

    @ray.remote
    def or_merge(*parts: np.ndarray) -> np.ndarray:
        out = np.zeros(n_words, dtype=np.uint64)
        for p in parts:
            np.bitwise_or(out, p, out=out)
        return out

    if not refs:
        return ray.put(np.zeros(n_words, dtype=np.uint64))
    return or_merge.remote(*[block_bits.remote(r) for r in refs])


def bloom_semi_join(
    big: ray.data.Dataset,
    keys: ray.data.Dataset,
    big_key: str,
    keys_key: str,
    n_parts: int,
    n_bits: int = 1 << 23,
    k: int = 4,
    big_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """EXACT semi-join ``big ⋉ keys`` with a Bloom prefilter: big-side
    rows are dropped map-side before the exchange; the exchange-based
    exact pass removes the Bloom's false positives. Output = big's
    columns, each matching row once."""
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    words_ref = build_bloom(keys, keys_key, n_bits=n_bits, k=k)

    def prefilter(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        words = ray.get(words_ref)  # zero-copy local object-store read
        vals = batch.column(big_key).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bloom_contains(words, vals, n_bits, k)))

    survivors = big.map_batches(prefilter, batch_format="pyarrow")
    return shuffle_hash_join(
        survivors,
        keys,
        big_key,
        keys_key,
        n_parts,
        left_cols=big_cols,
        right_cols=[keys_key],
        how="semi",
    )
