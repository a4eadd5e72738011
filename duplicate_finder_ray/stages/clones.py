"""Type-2 code-clone detection: identifier/literal-normalized dedup.

Type-2 clones are code fragments identical up to identifier names,
literal values and whitespace/layout (the classic clone taxonomy used
by CCFinder, Kamiya et al., IEEE TSE 2002, and Roy & Cordy's clone
survey).  The engine reduces whole-file Type-2 clone detection to
EXACT dedup over a normalized content fingerprint — the same
group-by-digest shape as the reference's hash stage
(/root/reference/duplicate_finder/duplicate_finder.py:198-255), one
abstraction level up:

  1. every ASCII identifier  ``[A-Za-z_][A-Za-z0-9_]*`` -> ``ID``
  2. every remaining digit run ``[0-9]+``               -> ``N``
  3. every whitespace run    ``\\s+``                    -> removed

All three are RE2 replacements.  pyarrow.compute and DuckDB both embed
RE2, so the SQL twin applies byte-identical rewrites and
``sha256(normalized)`` matches bit-for-bit — which is what lets the
driver hash-gate a clone detector.  Non-ASCII identifiers pass through
unchanged (documented limitation; both engines agree on it).

Scale shape: normalization + sha256 run map-side inside
``map_batches`` and the content column is DROPPED there — only slim
``(clone_id, repo, file_id)`` rows cross ONE clone-keyed hash
exchange; each partition emits its group rows with one Arrow hash
aggregate.  No task ever holds more than its partition's slim rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.functions.hashing import sha256_hex_array
from duplicate_finder_ray.stages.exchange import hash_exchange
from duplicate_finder_ray.stages.util import group_aggregate

_SLIM_SCHEMA = pa.schema(
    [
        ("clone_id", pa.string()),
        ("repo", pa.string()),
        ("file_id", pa.string()),
    ]
)

_GROUP_SCHEMA = pa.schema(
    [
        ("clone_id", pa.string()),
        ("n_files", pa.int64()),
        ("n_repos", pa.int64()),
        ("rep_file", pa.string()),
    ]
)


def normalize_type2(content: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Apply the three Type-2 rewrites (identifier -> ID, digits -> N,
    whitespace stripped) as vectorized RE2 kernels."""
    norm = pc.replace_substring_regex(
        content, pattern="[A-Za-z_][A-Za-z0-9_]*", replacement="ID"
    )
    norm = pc.replace_substring_regex(norm, pattern="[0-9]+", replacement="N")
    return pc.replace_substring_regex(norm, pattern=r"\s+", replacement="")


def clone_groups_type2(
    code: ray.data.Dataset,
    num_partitions: int = 16,
    min_group: int = 2,
) -> ray.data.Dataset:
    """Whole-file Type-2 clone groups over a code table that already
    carries ``file_id`` (see ``stages.derive.add_identity``).

    Returns ``(clone_id, n_files, n_repos, rep_file)`` for every
    normalized fingerprint shared by ≥ ``min_group`` files, where
    ``rep_file`` is the smallest member ``file_id`` in string order
    (``min(file_id)``, as the SQL twin computes it). That is NOT exact
    dedup's (repo, path, commit) tuple rule: the two differ for prefix
    paths such as ``LICENSE`` vs ``LICENSE.txt``."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")

    def fingerprint(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _SLIM_SCHEMA.empty_table()
        digest = sha256_hex_array(normalize_type2(batch.column("content")))
        return pa.table(
            {
                "clone_id": digest,
                "repo": batch.column("repo"),
                "file_id": batch.column("file_id"),
            }
        )

    slim = code.map_batches(fingerprint, batch_format="pyarrow")

    def group_rows(p: int, tbl: pa.Table) -> pa.Table:
        agg = group_aggregate(
            tbl,
            ["clone_id"],
            [("file_id", "count"), ("repo", "count_distinct"), ("file_id", "min")],
        ).rename_columns(_GROUP_SCHEMA.names)
        return agg.filter(pc.greater_equal(agg["n_files"], min_group)).cast(
            _GROUP_SCHEMA
        )

    return hash_exchange(
        slim, "clone_id", num_partitions, group_rows, _GROUP_SCHEMA.empty_table()
    )
