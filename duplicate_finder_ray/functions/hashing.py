"""Content hashing and identity derivation over Arrow batches.

The reference streams SHA-256 over 64 KiB file blocks
(/root/reference/duplicate_finder/utils.py:10-16). Here content is already
in memory as Arrow string/binary cells, so each row hashes in one shot —
bit-identical digests for identical bytes, which is the per-row invariant
BASELINE.json requires (content-sha256 equality input vs output).

All functions take/return Arrow structures and avoid Python-object
conversion where pyarrow allows; the per-row ``hashlib`` call itself is a
C-implemented digest over a zero-copy memoryview of the Arrow buffer, and
the hex column is built from numpy buffers, not per-row strings.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


#: ASCII codes of the 16 lowercase hex digits, indexed by nibble
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def sha256_hex_array(column: pa.ChunkedArray | pa.Array) -> pa.Array:
    """SHA-256 hex digest for every cell of a string/binary column.

    Nulls hash to null. Each row's raw bytes are a ``memoryview`` slice
    of the Arrow value buffer (``hashlib.sha256`` accepts buffer objects,
    so no per-row ``bytes`` copy); the 32-byte ``digest()`` values are
    joined once, hex-encoded through a 16-entry nibble table, and the
    result is assembled from buffers at a fixed 64-byte stride — no
    per-row Python ``str``.
    """
    chunks = column.chunks if isinstance(column, pa.ChunkedArray) else [column]
    digests: list[bytes] = []
    valid_parts: list[np.ndarray] = []
    null_digest = bytes(32)
    sha = hashlib.sha256
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        wide = pa.types.is_large_string(chunk.type) or pa.types.is_large_binary(chunk.type)
        width = 8 if wide else 4
        off = np.frombuffer(
            chunk.buffers()[1],
            dtype=np.int64 if wide else np.int32,
            count=len(chunk) + 1,
            offset=chunk.offset * width,
        ).tolist()
        data = chunk.buffers()[2]
        view = memoryview(data) if data is not None else memoryview(b"")
        valid = chunk.is_valid().to_numpy(zero_copy_only=False)
        digests += [
            sha(view[a:b]).digest() if v else null_digest
            for a, b, v in zip(off, off[1:], valid.tolist())
        ]
        valid_parts.append(valid)
    n = len(digests)
    raw = np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(n, 32)
    hexed = np.empty((n, 64), dtype=np.uint8)
    hexed[:, 0::2] = _HEX_DIGITS[raw >> 4]
    hexed[:, 1::2] = _HEX_DIGITS[raw & 0x0F]
    offsets = np.arange(0, 64 * (n + 1), 64, dtype=np.int32)
    valid = np.concatenate(valid_parts) if valid_parts else np.ones(0, dtype=bool)
    null_count = int(n - valid.sum())
    validity = (
        pa.py_buffer(np.packbits(valid, bitorder="little")) if null_count else None
    )
    return pa.Array.from_buffers(
        pa.string(),
        n,
        [validity, pa.py_buffer(offsets), pa.py_buffer(hexed)],
        null_count=null_count,
    )


def utf8_byte_length(column: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Byte length of string/binary cells — the analogue of the reference's
    ``p.stat().st_size`` (duplicate_finder.py:144) for table input.
    ``pc.binary_length`` counts bytes (not codepoints) for string types.
    """
    return pc.cast(pc.binary_length(column), pa.int64())


def file_id_array(batch: pa.Table) -> pa.Array | pa.ChunkedArray:
    """Stable row identity ``repo + ":" + path + "@" + commit``.

    This is the engine's analogue of the reference's resolved absolute path
    string (duplicate_finder.py:125,136); lexicographic order over it
    defines the keep-first rule (reference duplicate_finder.py:246-250,309).
    """
    return pc.binary_join_element_wise(
        pc.binary_join_element_wise(batch["repo"], batch["path"], ":"),
        batch["commit"],
        "@",
    )


def stable_hash_array(vals, hash_key: str | None = None):
    """Value-stable 64-bit siphash of an array (uint64 per element).

    ALWAYS use this for object/string arrays, never bare
    ``pd.util.hash_array``: its default ``categorize=True`` routes
    object arrays through ``factorize``, whose string hash table
    compares C strings — NUL-TRUNCATED — so (a) two keys that differ
    only after an embedded NUL (this engine's exchange-separator
    convention) collapse into ONE category, and (b) a value's hash
    depends on which other values share its block (it inherits the
    category representative's hash), silently breaking cross-block
    co-location. ``categorize=False`` hashes each value's full buffer,
    independent of array composition. (Diagnosed in round 3: at sf0.1
    the dup-dir exchange split 399 directories across partitions and
    emitted 44 false duplicate-directory groups.)
    """
    import pandas as pd

    if hash_key is None:
        return pd.util.hash_array(vals, categorize=False)
    return pd.util.hash_array(vals, hash_key=hash_key, categorize=False)
