"""Count-Min Sketch point-frequency estimates — the mergeable-sketch
family member for "how often does THIS token occur" point queries,
next to HyperLogLog (distinct counts, stages/textstats.py:hll_partial),
SpaceSaving (top-k heavy hitters, approx_top_tokens), the t-digest
(quantiles, stages/sketches.py) and the Bloom filter (membership,
stages/bloom.py).

Sketch (Cormode & Muthukrishnan, J. Algorithms 2005 — public): a
depth × width int64 counter matrix; each occurrence of a token
increments one counter per row (row-keyed hash of the token); the
point estimate is the MIN over rows. Estimates never undercount;
overcount is bounded by e·N/width with probability 1 − e^(−depth)
per query (N = total token occurrences). The matrix is linear in the
input, so per-block partials merge by ELEMENTWISE ADD — the perfect
distributed combiner: every block contributes one fixed-size
(depth·width int64, ~128 KB at 4×4096) row regardless of block size,
and the reduce is an associative vector sum.

Scale shape: tokenize + count + hash inside ``map_batches`` (one
fixed-size partial row per block — corpus token positions never
leave the task); partials fold in a TREE of remote tasks (fan-in
``_FANIN`` per level, O(log blocks) depth) so no single task ever
sums more than _FANIN sketches; point queries run on the driver
against the final ~128 KB matrix. Row hashes are fixed-key siphash
(``stable_hash_array``) — deterministic across processes and nodes, so
partials built anywhere merge coherently and reruns reproduce the
sketch bit-for-bit.

The exactness caveat mirrors repo_overlap's cap note: a hash-match
oracle against exact counts assumes a NON-BINDING width (vocabulary
small enough that some row of the sketch has no collision on every
queried token); the collision regime is gated separately in
tests/test_cms.py (est >= true always; mean overcount within the
e·N/width bound on a vocab ≫ width corpus).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor

from duplicate_finder_ray.stages.textstats import TOKEN_SPLIT_REGEX
from duplicate_finder_ray.stages.util import block_refs
from duplicate_finder_ray.functions.hashing import stable_hash_array

_FANIN = 8


def _row_keys(depth: int) -> list[str]:
    """16-byte fixed siphash keys, one per sketch row — deterministic
    everywhere, distinct per row."""
    return [f"cms-row-{r:02d}-pad".ljust(16, "x")[:16] for r in range(depth)]


def cms_hash(tokens: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) column indices for each token under the fixed row
    keys."""
    out = np.empty((depth, len(tokens)), dtype=np.int64)
    for r, key in enumerate(_row_keys(depth)):
        h = stable_hash_array(tokens, hash_key=key)
        out[r] = (h % np.uint64(width)).astype(np.int64)
    return out


def cms_from_counts(
    tokens: np.ndarray, counts: np.ndarray, depth: int, width: int
) -> np.ndarray:
    """Build a depth×width sketch from (distinct token, count) pairs."""
    sk = np.zeros((depth, width), dtype=np.int64)
    if len(tokens):
        idx = cms_hash(tokens, depth, width)
        for r in range(depth):
            np.add.at(sk[r], idx[r], counts)
    return sk


def cms_query(sketch: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Point estimates (int64, >= true count) for each token."""
    depth, width = sketch.shape
    if len(tokens) == 0:
        return np.empty(0, dtype=np.int64)
    idx = cms_hash(np.asarray(tokens, dtype=object), depth, width)
    per_row = np.stack([sketch[r][idx[r]] for r in range(depth)])
    return per_row.min(axis=0)


def cms_build(
    ds: ray.data.Dataset, text_col: str, depth: int = 4, width: int = 4096
) -> np.ndarray:
    """Distributed sketch build: per-block fixed-size partials, tree
    reduce, final depth×width matrix to the driver (~depth·width·8
    bytes — never the vocabulary, never the corpus)."""
    if depth <= 0 or width <= 0:
        raise ValueError("depth and width must be positive")

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        vals, counts = np.unique(
            toks.to_numpy(zero_copy_only=False), return_counts=True
        )
        sk = cms_from_counts(vals, counts.astype(np.int64), depth, width)
        return pa.table({"sketch": pa.array([sk.reshape(-1)], pa.list_(pa.int64()))})

    partials = ds.map_batches(partial, batch_format="pyarrow")

    @ray.remote
    def fold(*blocks) -> pa.Table:
        acc = np.zeros(depth * width, dtype=np.int64)
        for b in blocks:
            b = BlockAccessor.for_block(b).to_arrow()
            if len(b) == 0 or "sketch" not in b.column_names:
                continue
            col = b.column("sketch").combine_chunks()
            flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
            acc += flat.reshape(-1, depth * width).sum(axis=0)
        return pa.table({"sketch": pa.array([acc], pa.list_(pa.int64()))})

    refs = list(block_refs(partials))
    if not refs:
        return np.zeros((depth, width), dtype=np.int64)
    # tree reduce: no task ever touches more than _FANIN inputs. Always
    # fold at least once — with a single input block the fold also
    # normalizes an empty passthrough block to the sketch schema.
    while True:
        refs = [
            fold.remote(*refs[i : i + _FANIN]) for i in range(0, len(refs), _FANIN)
        ]
        if len(refs) == 1:
            break
    final = ray.get(refs[0])
    return (
        final.column("sketch")
        .combine_chunks()
        .flatten()
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
        .reshape(depth, width)
    )


def cms_point_counts(
    ds: ray.data.Dataset,
    text_col: str,
    query_tokens: list[str],
    depth: int = 4,
    width: int = 4096,
) -> ray.data.Dataset:
    """Estimated occurrence counts for ``query_tokens``:
    (token, est_n), est_n >= true count, equality whenever width is
    non-binding for the queried tokens."""
    sketch = cms_build(ds, text_col, depth=depth, width=width)
    toks = np.asarray(query_tokens, dtype=object)
    est = cms_query(sketch, toks)
    return ray.data.from_arrow(
        pa.table(
            {
                "token": pa.array(list(query_tokens), pa.string()),
                "est_n": pa.array(est, pa.int64()),
            }
        )
    )
