"""Identity/size/hash derivation stages (stateless map_batches).

Replaces the reference's driver-side scan loop + per-file thread futures
(/root/reference/duplicate_finder/duplicate_finder.py:116-174,198-239)
with vectorized zero-copy Arrow batch transforms. Each function is a
plain callable → Ray schedules it as elastic stateless tasks.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from duplicate_finder_ray.functions.hashing import (
    file_id_array,
    sha256_hex_array,
    utf8_byte_length,
)


def drop_poison_rows(batch: pa.Table) -> pa.Table:
    """Skip-don't-crash parity: the reference drops a file whose hash
    read fails, with a printed warning (duplicate_finder.py:235-237).
    The table analogue of an unreadable file is a NULL ``content`` cell;
    such rows cannot be sized, hashed or compared, so they are dropped
    here — with a warning carrying the count, never silently."""
    mask = batch["content"].is_valid()
    if isinstance(mask, pa.ChunkedArray):
        mask = mask.combine_chunks()
    n_bad = len(batch) - pc.sum(mask).as_py()
    if n_bad:
        print(f"Warning: skipping {n_bad} row(s) with NULL content")
        return batch.filter(mask)
    return batch


def add_identity(batch: pa.Table) -> pa.Table:
    """Append ``file_id`` and ``size`` (content byte length).

    ``file_id = repo + ":" + path + "@" + commit`` is the engine's sort/
    keeper key (reference keeps ``sorted(group)[0]``,
    duplicate_finder.py:246-250,309).

    ``lang`` is optional on input: when absent it is derived from the
    path extension (same convention as the filesystem source,
    sources/filesystem.py), so the library surface accepts the minimal
    ``(repo, path, commit, content)`` schema.

    Rows with NULL content are dropped first (``drop_poison_rows`` —
    reference skip-don't-crash semantics).
    """
    batch = drop_poison_rows(batch)
    if "lang" not in batch.column_names:
        ext = pc.extract_regex(batch["path"], r"\.(?P<ext>[^./\\]+)$")
        lang = pc.coalesce(pc.struct_field(ext, "ext"), pa.scalar("none"))
        batch = batch.append_column("lang", pc.cast(lang, pa.string()))
    batch = batch.append_column("file_id", file_id_array(batch))
    return batch.append_column("size", utf8_byte_length(batch["content"]))


def add_sha256(batch: pa.Table) -> pa.Table:
    """Append the ``sha256`` hex column (the reference's content digest,
    utils.py:10-16). This is the per-row invariant vs the input: identical
    bytes ⇒ identical digest."""
    return batch.append_column("sha256", sha256_hex_array(batch["content"]))


def drop_content(batch: pa.Table) -> pa.Table:
    """Project the heavy ``content`` column away as soon as a stage no
    longer needs it — blocks entering the shuffle carry only identities,
    sizes and digests (SURVEY.md §7.3 'very wide rows')."""
    if "content" in batch.column_names:
        return batch.drop_columns(["content"])
    return batch
