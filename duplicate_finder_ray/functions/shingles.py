"""Shingling, MinHash, SimHash — deterministic, vectorized primitives.

The reference has no near-dup support; these implement the MinHash
shingle signatures and SimHash fingerprints mandated by BASELINE.json's
north_rule, built only on public algorithms (Broder 1997 MinHash;
Charikar 2002 SimHash; Leskovec/Rajaraman/Ullman MMDS ch.3 LSH banding).

Design for the hot path:

* the Arrow tokenizer maps every byte outside ``[0-9A-Za-z_]`` to a
  space through a 256-entry table and splits on whitespace;
* token→uint64 ids come from an 8-byte blake2b digest. The batch
  kernels look tokens up in a per-instance Arrow memo of known tokens
  (one ``pc.index_in`` per batch, no per-token Python strings); only
  the misses' distinct values are digested, from slices of the Arrow
  data buffer. The memo is filled once, up to ``_MEMO_MAX`` entries. A
  ``Shingler`` is cached per worker process, so the memo amortises
  across batches and jobs;
* k-token shingle hashes are a vectorized rolling mix over the token-id
  array (uint64 wraparound multiply-xor), deduped per doc after a
  radix sort on a narrow doc index;
* MinHash signatures use the classic universal-hash family
  ``min((a_i * s + b_i) mod 2^64)`` evaluated over (perms × shingles)
  tiles, reduced per document with ``np.minimum.reduceat``;
* LSH band keys mix each signature row-block into one uint64, vectorized
  across the whole batch at once.

Everything is seeded; identical (text, config, seed) ⇒ identical
signatures on every worker — required for the recall≥0.99 comparison at
identical shingle/signature config.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MIX = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio odd constant
_U64 = np.uint64
_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

#: entries in a ``Shingler``'s Arrow token memo. ``pc.index_in``
#: rebuilds its value-set hash table on every call (0.036 s per
#: 170 k-token batch at 100 k entries, 0.73 s at 3 M), so the memo is
#: filled once up to this size and then frozen: a high-cardinality
#: stream pays a bounded lookup plus digests for its misses, never a
#: lookup that grows with the stream.
_MEMO_MAX = 1 << 17


def token_id(token: str) -> int:
    """Stable 64-bit id of a token (blake2b 8-byte digest)."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little"
    )


def token_id_md5(token: str) -> int:
    """SQL-parity 64-bit token id: the LAST 8 bytes of md5,
    little-endian — exactly DuckDB's ``md5_number_lower(token)``. The
    "md5" hash family exists so the driver oracle can replay the whole
    signature pipeline (rolling shingle mix, MinHash permutations, LSH
    band keys, SimHash votes — all uint64-wraparound arithmetic, which
    SQL emulates with HUGEINT limb products) bit-for-bit; blake2b stays
    the production default."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[8:], "little")


def _value_offsets(arr: pa.Array) -> np.ndarray:
    """The ``len(arr) + 1`` value offsets of a string or large_string
    array into its data buffer, from the array's slice offset on."""
    off_type = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    return np.frombuffer(
        arr.buffers()[1], dtype=off_type, count=arr.offset + len(arr) + 1
    )[arr.offset :]


def _digest_ids(values: pa.Array, token_hash: str) -> np.ndarray:
    """:func:`token_id` (or :func:`token_id_md5`) of every value of an
    Arrow string array, digesting slices of its data buffer — no Python
    string and no int per value."""
    if len(values) == 0:
        return np.empty(0, dtype=np.uint64)
    bounds = _value_offsets(values).tolist()
    data = values.buffers()[2]
    view = memoryview(data if data is not None else b"")
    if token_hash == "blake2b":
        blake2b = hashlib.blake2b
        digests = [
            blake2b(view[i:j], digest_size=8).digest()
            for i, j in zip(bounds, bounds[1:])
        ]
    else:
        md5 = hashlib.md5
        digests = [md5(view[i:j]).digest()[8:] for i, j in zip(bounds, bounds[1:])]
    return np.frombuffer(b"".join(digests), dtype="<u8")


#: byte map of the Arrow tokenizer: token bytes ``[0-9A-Za-z_]`` map to
#: themselves, every other byte (UTF-8 lead and continuation bytes
#: included) to an ASCII space
_TOKEN_LUT = np.full(256, ord(" "), dtype=np.uint8)
for _c in b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_":
    _TOKEN_LUT[_c] = _c


def _separators_to_spaces(arr: pa.Array) -> pa.Array:
    """``arr`` (string or large_string, no nulls) with every byte
    outside ``[0-9A-Za-z_]`` replaced by a space, so that
    ``pc.ascii_split_whitespace`` yields the ``[^0-9A-Za-z_]+`` split.
    Only the bytes the (possibly sliced) array spans are mapped."""
    offsets = _value_offsets(arr)
    lo, hi = int(offsets[0]), int(offsets[-1])
    mapped = (
        _TOKEN_LUT[
            np.frombuffer(arr.buffers()[2], dtype=np.uint8, count=hi - lo, offset=lo)
        ]
        if hi > lo
        else np.empty(0, dtype=np.uint8)
    )
    return pa.Array.from_buffers(
        arr.type, len(arr), [None, pa.py_buffer(offsets - lo), pa.py_buffer(mapped)]
    )


class Shingler:
    """Tokenize + k-shingle hash with a memoised token vocabulary.

    mode: "token" (``\\w+`` word tokens), "line" (non-blank lines), or
    "char" (k applies to characters, hashed in sliding windows).

    token_hash: "blake2b" (default) or "md5" — the SQL-replayable
    family (:func:`token_id_md5`). The md5 family also pins token-mode
    tokenization to the ASCII class ``[A-Za-z0-9_]+`` (DuckDB
    ``regexp_extract_all`` parity); everything downstream of the token
    ids is identical code.
    """

    _ASCII_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")

    def __init__(
        self, k: int = 5, mode: str = "token", token_hash: str = "blake2b"
    ) -> None:
        if mode not in ("token", "line", "char"):
            raise ValueError(f"invalid shingle mode: {mode}")
        if token_hash not in ("blake2b", "md5"):
            raise ValueError(f"invalid token_hash: {token_hash}")
        self.k = k
        self.mode = mode
        self.token_hash = token_hash
        self._hash_one = token_id if token_hash == "blake2b" else token_id_md5
        #: memo of the per-doc reference path (:meth:`shingle_hashes`)
        self._vocab: dict[str, int] = {}
        #: memo of the batch kernels: known tokens and their ids, filled
        #: once up to ``_MEMO_MAX`` entries (see :meth:`_ids_arrow`)
        self._memo_tokens = pa.array([], pa.large_string())
        self._memo_ids = np.empty(0, dtype=np.uint64)

    def _ids(self, units: list[str]) -> np.ndarray:
        vocab = self._vocab
        hash_one = self._hash_one
        out = np.empty(len(units), dtype=np.uint64)
        for i, u in enumerate(units):
            h = vocab.get(u)
            if h is None:
                h = hash_one(u)
                vocab[u] = h
            out[i] = h
        return out

    def units(self, text: str) -> list[str]:
        if self.mode == "token":
            if self.token_hash == "md5":
                return self._ASCII_TOKEN_RE.findall(text)
            return _TOKEN_RE.findall(text)
        if self.mode == "line":
            return [ln for ln in text.splitlines() if ln.strip()]
        return list(text)

    def shingle_hashes(self, text: str) -> np.ndarray:
        """Deduped uint64 hashes of all k-shingles of ``text``.

        Rolling combine: ``h = ((h * MIX) ^ id_j)`` over each window of k
        token ids, evaluated as k vectorized passes over the id array.
        Documents with fewer than k tokens yield an empty array (they can
        only match via exact dedup).
        """
        ids = self._ids(self.units(text))
        n = len(ids)
        k = self.k
        if n < k:
            return np.empty(0, dtype=np.uint64)
        with np.errstate(over="ignore"):
            h = ids[: n - k + 1].copy()
            for j in range(1, k):
                h = (h * _MIX) ^ ids[j : n - k + j + 1]
        return np.unique(h)

    def shingle_set(self, text: str) -> set[int]:
        return set(self.shingle_hashes(text).tolist())

    def shingle_hashes_batch(
        self, texts: list[str | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-doc deduped k-shingle hashes for a whole batch in flat
        CSR form: ``(flat uint64 hashes, int64 offsets[n_docs+1])``,
        where doc i's (ascending-sorted) set is ``flat[off[i]:off[i+1]]``.

        Bit-identical to calling :meth:`shingle_hashes` per doc
        (property-tested), but the rolling hash, the cross-doc window
        mask and the per-doc dedupe are all whole-batch numpy passes —
        the per-doc Python loop only tokenizes.
        """
        return self._csr_from_ids(*self._token_ids_list(texts))

    def shingle_hashes_batch_column(
        self, col: pa.Array | pa.ChunkedArray, ascii_only: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        r"""Arrow-native twin of :meth:`shingle_hashes_batch` taking the
        string column directly. For ALL-ASCII token-mode batches the
        tokenize is a byte-table map plus a whitespace split in Arrow C
        and the token ids come from the Arrow memo — no per-doc Python
        regex, no Python string per token. Non-ASCII batches fall back
        to the Python tokenizer, whose ``\w`` is Unicode-aware
        (bit-identity over arbitrary unicode is property-tested).

        ``ascii_only=True`` selects SQL-parity tokenization instead:
        tokens are maximal ``[A-Za-z0-9_]+`` runs for EVERY row —
        non-ASCII bytes act as separators — exactly DuckDB's
        ``regexp_extract_all(text, '[A-Za-z0-9_]+')`` (RE2 over UTF-8,
        where no non-ASCII codepoint is in the class). Used by
        oracle-gated stages (decontamination) whose shingle sets must be
        provably identical to SQL's."""
        return self._csr_from_ids(*self._token_ids_column(col, ascii_only))

    def shingle_positions_batch_column(
        self, col: pa.Array | pa.ChunkedArray, ascii_only: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positional twin of :meth:`shingle_hashes_batch_column` —
        NO per-doc dedupe; returns (flat uint64 hashes, flat int64
        0-based window positions within each doc, offsets[n_docs+1]).
        Needed by span-level consumers (duplicated-passage extraction)
        where WHERE a gram sits matters, not just membership."""
        ids, counts = self._token_ids_column(col, ascii_only)
        wh, wd, valid = self._windows(ids, counts)
        n_docs = len(counts)
        if len(wh) == 0:
            return (
                wh,
                np.empty(0, dtype=np.int64),
                np.zeros(n_docs + 1, dtype=np.int64),
            )
        doc_off = np.zeros(n_docs, dtype=np.int64)
        np.cumsum(counts[:-1], out=doc_off[1:])
        wpos = np.nonzero(valid)[0] - doc_off[wd]
        offsets = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(wd, minlength=n_docs), out=offsets[1:])
        return wh, wpos, offsets

    def _token_ids_column(
        self, col: pa.Array | pa.ChunkedArray, ascii_only: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """(flat token-id stream, per-doc token counts) — tokenize +
        digest, the front half of every column kernel."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        is_text = pa.types.is_string(col.type) or pa.types.is_large_string(
            col.type
        )
        n_docs = len(col)
        if self.mode == "token" and is_text and n_docs:
            arr = pc.fill_null(col, "")
            # ASCII gate: bytes == codepoints for every row ⇒ splitting
            # on every byte outside [0-9A-Za-z_] equals python re's
            # unicode \w+ findall; the md5 family IS the SQL-parity
            # (ascii_only) config
            if (
                ascii_only
                or self.token_hash == "md5"
                or pc.all(
                    pc.equal(pc.binary_length(arr), pc.utf8_length(arr))
                ).as_py()
            ):
                split = pc.ascii_split_whitespace(_separators_to_spaces(arr))
                flat = pc.list_flatten(split)
                parent = pc.list_parent_indices(split).to_numpy(
                    zero_copy_only=False
                )
                keep = pc.not_equal(flat, "")
                parent = parent[keep.to_numpy(zero_copy_only=False)]
                counts = np.bincount(parent, minlength=n_docs).astype(np.int64)
                return self._ids_arrow(flat.filter(keep)), counts
        return self._token_ids_list(col.to_pylist())

    def _token_ids_list(
        self, texts: list[str | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Python-tokenizer twin of :meth:`_token_ids_column` (line
        and char modes, non-ASCII token batches, plain lists)."""
        units_per_doc = [self.units(t if t is not None else "") for t in texts]
        counts = np.fromiter(
            (len(u) for u in units_per_doc), dtype=np.int64, count=len(texts)
        )
        flat = pa.array(
            [u for doc in units_per_doc for u in doc], pa.large_string()
        )
        return self._ids_arrow(flat), counts

    def _ids_arrow(self, tokens: pa.Array) -> np.ndarray:
        """uint64 id per token of an Arrow string array. Memo hits are
        one ``pc.index_in`` against the known tokens; only the misses
        are dictionary-encoded, and only their distinct values are
        digested, straight from the dictionary's data buffer. New
        distinct tokens enter the memo until it holds ``_MEMO_MAX``
        entries."""
        out = np.empty(len(tokens), dtype=np.uint64)
        if len(tokens) == 0:
            return out
        if len(self._memo_ids):
            pos = pc.fill_null(
                pc.index_in(tokens, value_set=self._memo_tokens), -1
            ).to_numpy()
            hit = pos >= 0
            out[hit] = self._memo_ids[pos[hit]]
            if hit.all():
                return out
            miss = ~hit
            tokens = tokens.filter(pa.array(miss))
        else:
            miss = slice(None)
        enc = pc.dictionary_encode(tokens)
        uid = _digest_ids(enc.dictionary, self.token_hash)
        out[miss] = uid[enc.indices.to_numpy()]
        room = _MEMO_MAX - len(self._memo_ids)
        if room > 0:
            self._memo_tokens = pa.concat_arrays(
                [
                    self._memo_tokens,
                    enc.dictionary[:room].cast(pa.large_string()),
                ]
            )
            self._memo_ids = np.concatenate([self._memo_ids, uid[:room]])
        return out

    def _windows(
        self, ids: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rolling k-window hashes over a flat token-id stream, keeping
        the windows that lie inside one doc: (hashes, doc of each kept
        window, mask of kept windows over all window starts)."""
        n = len(ids)
        k = self.k
        if n < k:
            return (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
        with np.errstate(over="ignore"):
            h = ids[: n - k + 1].copy()
            for j in range(1, k):
                h = (h * _MIX) ^ ids[j : n - k + j + 1]
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        start_doc = doc_of[: n - k + 1]
        valid = doc_of[k - 1 :] == start_doc
        return h[valid], start_doc[valid], valid

    def _csr_from_ids(
        self, ids: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rolling k-window hash + per-doc dedupe over a flattened
        token-id stream, shared by every batch kernel."""
        n_docs = len(counts)
        wh, wd, _ = self._windows(ids, counts)
        offsets = np.zeros(n_docs + 1, dtype=np.int64)
        if len(wh) == 0:
            return wh, offsets
        # (doc, hash) order without a two-key lexsort: sort by hash, then
        # a stable sort by the doc index in its narrowest unsigned dtype,
        # which numpy sorts by radix
        order = np.argsort(wh)
        narrow = wd.astype(np.min_scalar_type(n_docs))
        order = order[np.argsort(narrow[order], kind="stable")]
        wh, wd = wh[order], wd[order]
        first = np.empty(len(wh), dtype=bool)
        first[0] = True
        np.logical_or(wd[1:] != wd[:-1], wh[1:] != wh[:-1], out=first[1:])
        wh, wd = wh[first], wd[first]
        np.cumsum(np.bincount(wd, minlength=n_docs), out=offsets[1:])
        return wh, offsets


def minhash_params(num_perms: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (a, b) coefficient vectors for the permutation family; a is
    forced odd so multiplication is a bijection mod 2^64."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**63, size=num_perms, dtype=np.uint64) * _U64(2) + _U64(1)
    b = rng.integers(0, 2**63, size=num_perms, dtype=np.uint64)
    return a, b


def minhash_signature(
    shingles: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """MinHash signature (uint64[K]) of one shingle-hash set. Empty sets
    get the all-max sentinel signature (matches nothing)."""
    if len(shingles) == 0:
        return np.full(len(a), _U64_MAX, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashed = shingles[:, None] * a[None, :] + b[None, :]
    return hashed.min(axis=0)


#: row-block length for the CSR batch kernels, whose buffers are
#: REUSED: fresh large allocations can pay first-touch page faults at
#: single-digit MB/s (measured: a one-shot 20 MB broadcast temp cost
#: ~3 s the first time, 10 ms once its pages existed) — so the kernels
#: write into persistent workspaces handed down by the caller.
_ROW_BLOCK = 8192


def _workspace(work: dict | None, key: str, shape: tuple, dtype) -> np.ndarray:
    """Fetch/create a persistent scratch buffer (grown, never shrunk)."""
    if work is None:
        return np.empty(shape, dtype=dtype)
    buf = work.get(key)
    if buf is None or any(bs < ss for bs, ss in zip(buf.shape, shape)):
        buf = np.empty(shape, dtype=dtype)
        work[key] = buf
    return buf


def batch_minhash(
    flat: np.ndarray,
    offsets: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    work: dict | None = None,
) -> np.ndarray:
    """MinHash signatures for a CSR batch of shingle sets (see
    ``Shingler.shingle_hashes_batch``) — (n_docs, K) uint64, identical
    to :func:`minhash_signature` per doc (empty set → all-max sentinel).

    Perms-major evaluation: each ``K × _ROW_BLOCK`` tile of
    ``a * s + b`` is computed in place in a persistent workspace
    (``work`` — pass the same dict across batches) and reduced along
    its rows with one ``np.minimum.reduceat``; a doc that spans tiles
    is min-merged into its column of the (K, n_docs) result."""
    n_docs = len(offsets) - 1
    num_perms = len(a)
    out = np.full((num_perms, n_docs), _U64_MAX, dtype=np.uint64)
    n = len(flat)
    if n == 0:
        return np.ascontiguousarray(out.T)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(doc_of[1:], doc_of[:-1], out=first[1:])
    tile = _workspace(work, "minhash_tile", (num_perms, _ROW_BLOCK), np.uint64)
    col_a, col_b = a[:, None], b[:, None]
    with np.errstate(over="ignore"):
        for r0 in range(0, n, _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, n)
            t = tile[:num_perms, : r1 - r0]
            np.multiply(col_a, flat[None, r0:r1], out=t)
            np.add(t, col_b, out=t)
            starts = np.flatnonzero(first[r0:r1])
            spans = not first[r0]  # the tile opens inside the last doc
            if spans:
                starts = np.r_[0, starts]
            rows = doc_of[r0 + starts]
            mins = np.minimum.reduceat(t, starts, axis=1)
            if spans:
                np.minimum(mins[:, 0], out[:, rows[0]], out=mins[:, 0])
            out[:, rows] = mins
    return np.ascontiguousarray(out.T)


def batch_simhash(
    flat: np.ndarray, offsets: np.ndarray, work: dict | None = None
) -> np.ndarray:
    """SimHash fingerprints for a CSR batch of shingle sets — uint64
    per doc, bit-identical to :func:`simhash64` (majority per bit, ties
    set the bit; empty set → 0). Blocked per-bit vote sums
    (``np.add.reduceat`` over int32 bit tiles — uint8 would wrap at 256
    shingles) accumulated into a per-doc vote matrix."""
    n_docs = len(offsets) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    n = len(flat)
    seg_len = np.diff(offsets)
    if n == 0:
        return out
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), seg_len)
    votes = np.zeros((n_docs, 64), dtype=np.int64)
    bits32 = _workspace(work, "simhash_bits32", (_ROW_BLOCK, 64), np.int32)
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        m = r1 - r0
        # unpackbits has no out=; its ≤512 KB result is same-sized every
        # block, so the allocator recycles it (no fresh-page cost)
        np.copyto(
            bits32[:m],
            np.unpackbits(flat[r0:r1].view(np.uint8).reshape(m, 8), axis=1),
        )
        docs = doc_of[r0:r1]
        bstarts = np.nonzero(np.r_[True, docs[1:] != docs[:-1]])[0]
        rows = docs[bstarts]
        votes[rows] += np.add.reduceat(bits32[:m], bstarts, axis=0)
    nonempty = np.nonzero(seg_len > 0)[0]
    fp_bits = (votes[nonempty] * 2 >= seg_len[nonempty, None]).astype(np.uint8)
    out[nonempty] = np.packbits(fp_bits, axis=1).view(np.uint64).ravel()
    return out


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Fraction of agreeing signature positions — the MinHash estimator.
    Two empty-set sentinel signatures agree everywhere; call sites
    exclude empty docs (they are handled by exact dedup)."""
    return float(np.mean(sig_a == sig_b))


def exact_jaccard(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Exact Jaccard of two deduped shingle-hash arrays (oracle path)."""
    if len(set_a) == 0 and len(set_b) == 0:
        return 1.0
    if len(set_a) == 0 or len(set_b) == 0:
        return 0.0
    inter = len(np.intersect1d(set_a, set_b, assume_unique=True))
    return inter / (len(set_a) + len(set_b) - inter)


def simhash64(shingles: np.ndarray) -> int:
    """64-bit SimHash of a shingle-hash set: majority vote per bit
    (Charikar 2002). Empty input → 0."""
    if len(shingles) == 0:
        return 0
    bits = np.unpackbits(shingles.view(np.uint8).reshape(len(shingles), 8), axis=1)
    votes = bits.sum(axis=0)
    fp_bits = (votes * 2 >= len(shingles)).astype(np.uint8)
    return int.from_bytes(np.packbits(fp_bits).tobytes(), "little")


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 fingerprint arrays."""
    x = np.bitwise_xor(a, b)
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def band_keys(signatures: np.ndarray, num_bands: int) -> np.ndarray:
    """LSH band keys for a batch of signatures.

    signatures: (n_docs, K) uint64; returns (n_docs, num_bands) uint64
    where each entry mixes that band's r=K/num_bands rows into one key.
    Vectorized across the whole batch.
    """
    n, k = signatures.shape
    r = k // num_bands
    blocks = signatures[:, : num_bands * r].reshape(n, num_bands, r)
    with np.errstate(over="ignore"):
        h = np.full((n, num_bands), _U64(0x51_7C_C1_B7_27_22_0A_95), dtype=np.uint64)
        for j in range(r):
            h = (h ^ blocks[:, :, j]) * _MIX
        # fold band index in so identical row-blocks in different bands
        # don't collide into one bucket
        h = h ^ (np.arange(num_bands, dtype=np.uint64)[None, :] * _MIX)
    return h


def simhash_band_keys(fingerprints: np.ndarray, num_blocks: int = 4) -> np.ndarray:
    """Split 64-bit SimHash fingerprints into ``num_blocks`` bit-blocks
    (candidates for Hamming distance ≤ num_blocks-1 share ≥1 block —
    pigeonhole). Returns (n, num_blocks) uint64 block values."""
    width = 64 // num_blocks
    mask = _U64((1 << width) - 1)
    shifts = (np.arange(num_blocks) * width).astype(np.uint64)
    return (fingerprints[:, None] >> shifts[None, :]) & mask
