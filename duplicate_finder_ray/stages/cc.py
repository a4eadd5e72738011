"""Distributed connected components via iterated partition-local
contraction (north_rule's "distributed union-find ... driven by
groupby-aggregate shuffles").

Algorithm — iterated double-bucket local contraction (the hash-to-min
family of Rastogi et al. 2013 "Finding Connected Components in
MapReduce", with the per-reducer merge strengthened to a full
union-find; load-balancing concerns per Kiveris et al. 2014):

    edges ← input pair edges (a, b)
    repeat:
        send every edge to BOTH endpoints' buckets
        (bucket = siphash(node) % B)                   [ONE shuffle]
        per bucket: min-label union-find over received edges,
        union-by-lexicographic-min; emit star edges
        (node → bucket-local root) for every node seen
    until the edge multiset is unchanged (checksum fixpoint)
    dedupe (node, root) rows                           [one shuffle]

Because a node's complete incident edge set co-locates in its own
bucket every round, min labels propagate transitively within every
bucket per round — chains contract in O(log diameter) rounds, not
O(diameter). At the fixpoint no (x→y, y→z) chain can exist (bucket(y)
would merge it), so every component is a single star rooted at its
lexicographically-smallest node — consistent with the engine-wide
keep-first rule — and the edge set IS the label table.

Each round is exactly one hash exchange over ≤ 2·|V| star edges plus
one cheap checksum aggregate (map + driver sum of one scalar). No
joins anywhere. The driver only orchestrates rounds and reads one
scalar per round; edges stay distributed throughout.

Skew bound (north_rule "break skew on mega-repos"): once a component
has contracted toward its root, the root's bucket receives that
component's full star — per-round peak bucket load is O(max component
size) rows, NOT O(|E|). The per-bucket kernel is entirely vectorized
(Arrow node coding + min-label pointer jumping), so a 10^7-member boilerplate
component is a ~160 MB in-bucket sort, seconds of one core (stress
test: tests/test_neardup.py mega-component hub). Components at 10^9+
members need root splitting (two-level roots or Kiveris et al.'s
alternating large-star/small-star) — out of scope here and flagged as
the documented partitioning assumption.

One union-find kernel: ``min_labels(ea, eb, n)`` labels node indices;
``_star_edges`` codes a string edge table for it (Arrow dictionary
encode, then rank by Arrow's string sort, so the smallest index is the
smallest file_id). Graphs of at most ``cc_local_threshold`` edges run
it once in one remote task that takes the pair blocks' refs and
projects ``(a, b)`` itself, so that path starts no Ray Data execution;
above that, every contraction bucket runs it; ``stages/semdedup.py``
runs it once per embedding cluster.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.stages.util import group_aggregate

_LABELS_SCHEMA = pa.schema([("file_id", pa.string()), ("component", pa.string())])


def min_labels(ea: np.ndarray, eb: np.ndarray, n: int) -> np.ndarray:
    """Component label per node ``0..n-1`` of the edge list ``(ea[i],
    eb[i])``: the smallest node index in the node's component.

    Min-label propagation with pointer jumping — every pass is a C
    pass (``np.minimum.at`` both ways, then ``label[label]``), O(log n)
    passes on a chain. The one union-find kernel of the engine: CC's
    one-task path, each bucket of its iterated contraction and every
    SemDeDup cluster run it."""
    label = np.arange(n, dtype=np.int64)
    while True:
        new = label.copy()
        np.minimum.at(new, ea, label[eb])
        np.minimum.at(new, eb, label[ea])
        new = new[new]  # pointer jumping
        if np.array_equal(new, label):
            return label
        label = new


def _star_edges(tbl: pa.Table) -> tuple[pa.Array, pa.Array]:
    """``(node, root)`` for every distinct node of the string edge table
    ``tbl`` (a, b): ``root`` is the lexicographically smallest node of
    the node's component within ``tbl``.

    Nodes are coded by Arrow's hash table and ranked by Arrow's string
    sort, so node index order IS byte order and ``min_labels``'s
    smallest index is the smallest node. Arrow compares whole values:
    ids that differ only after an embedded NUL stay distinct nodes."""
    a = tbl.column("a").combine_chunks()
    enc = pc.dictionary_encode(pa.concat_arrays([a, tbl.column("b").combine_chunks()]))
    order = pc.array_sort_indices(enc.dictionary)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order.to_numpy()] = np.arange(len(order), dtype=np.int64)
    coded = rank[enc.indices.to_numpy(zero_copy_only=False)]
    nodes = enc.dictionary.take(order)
    label = min_labels(coded[: len(a)], coded[len(a) :], len(nodes))
    return nodes, nodes.take(pa.array(label))


def _hash_buckets(vals: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic bucket id per string — vectorized fixed-key siphash
    (stable_hash_array), never builtin hash() (per-process salt) and
    never a per-row crc32 loop (this runs on every shuffle-bound row)."""
    h = stable_hash_array(np.asarray(vals, dtype=object))
    return (h % np.uint64(num_buckets)).astype(np.int32)


def _contract_round(
    edges: ray.data.Dataset, num_buckets: int
) -> ray.data.Dataset:
    """One contraction round: every edge lands in BOTH endpoints'
    buckets (so each node's whole neighborhood is visible to one
    union-find), then per-bucket contraction. ONE shuffle."""

    def add_buckets(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        ba = _hash_buckets(a, num_buckets)
        bb = _hash_buckets(b, num_buckets)
        # second copy only where the buckets differ (self-bucket edges
        # would otherwise double inside one reducer — harmless for the
        # DSU but wasted shuffle bytes)
        diff = ba != bb
        out_a = np.concatenate([a, a[diff]])
        out_b = np.concatenate([b, b[diff]])
        out_bucket = np.concatenate([ba, bb[diff]])
        return pa.table(
            {
                "a": pa.array(out_a, pa.string()),
                "b": pa.array(out_b, pa.string()),
                "__bucket": pa.array(out_bucket, pa.int32()),
            }
        )

    from duplicate_finder_ray.stages.exchange import hash_exchange

    doubled = edges.map_batches(add_buckets, batch_format="pyarrow")

    def bucket_part(tbl: pa.Table, n: int) -> np.ndarray:
        return tbl.column("__bucket").to_numpy().astype(np.int64)

    def contract_reduce(p: int, tbl: pa.Table) -> pa.Table:
        nodes, roots = _star_edges(tbl)
        return pa.table({"a": nodes, "b": roots})

    # barrier-free hash exchange (stages/exchange.py): the per-round
    # co-location needs bucket membership, not sort order — Ray Data's
    # sort-based groupby would pay a sample barrier + full sort of the
    # edge table EVERY round
    return hash_exchange(
        doubled,
        bucket_part,
        num_buckets,
        contract_reduce,
        pa.schema([("a", pa.string()), ("b", pa.string())]).empty_table(),
    )


def _edge_checksum(edges: ray.data.Dataset) -> int:
    """Order/partition-insensitive multiset checksum (wrapping uint64
    sum of a per-edge hash; the driver reads one scalar). Stable
    checksum across rounds ⇒ fixpoint. Fully vectorized: two siphash
    passes + a mix, no per-edge Python."""

    def fold(batch: pa.Table) -> pa.Table:
        ha = stable_hash_array(batch.column("a").to_numpy(zero_copy_only=False))
        hb = stable_hash_array(batch.column("b").to_numpy(zero_copy_only=False))
        # asymmetric mix so (a,b) != (b,a); uint64 arithmetic wraps
        combo = ha * np.uint64(0x9E3779B97F4A7C15) ^ hb
        acc = int(np.sum(combo, dtype=np.uint64))
        return pa.table({"s": pa.array([acc], pa.uint64())})

    parts = edges.map_batches(fold, batch_format="pyarrow").take_all()
    return sum(r["s"] for r in parts) % 2**64


@ray.remote
def _block_rows(t: pa.Table) -> int:
    return len(t)


def connected_components(
    pairs: ray.data.Dataset,
    cfg: PipelineConfig,
    round_metrics: list[dict] | None = None,
) -> ray.data.Dataset:
    """Label every node in the pair graph with its component id (the
    lexicographically smallest file_id in the component).

    pairs: Dataset with string columns (a, b). Returns (file_id,
    component). Nodes not touched by any pair are singletons by
    definition and never enter the computation.

    ``round_metrics``: optional list the iterative path APPENDS one dict
    per contraction round — {round, num_buckets, max_bucket_rows,
    total_star_rows}. ``max_bucket_rows`` is the documented
    O(max-component) per-bucket bound made OBSERVABLE: each bucket
    emits one star edge per node it saw, so a bucket's output row count
    tracks the largest component contracting into it. A 10^9-member
    component shows up as a runaway max_bucket_rows rounds before it
    OOMs a worker (round-2 VERDICT item 9); pipelines persist these
    rows into the checkpoint lineage."""
    from duplicate_finder_ray.stages.neardup import effective_parallelism

    pairs = pairs.materialize()
    n_edges = pairs.count()
    if n_edges == 0:
        return ray.data.from_arrow(_LABELS_SCHEMA.empty_table())

    if n_edges <= cfg.cc_local_threshold:
        # small-graph fast path: ONE remote task takes the pair blocks'
        # refs, projects (a, b) and runs the one min-label kernel over
        # every edge — no shuffle barriers and no Ray Data execution.
        # The iterative bucketed contraction below is the >threshold
        # scale shape.
        @ray.remote
        def local_cc(*blocks: pa.Table) -> pa.Table:
            blocks = tuple(
                b.select(["a", "b"])
                for b in blocks
                if "a" in b.column_names and len(b)
            )
            if not blocks:
                return _LABELS_SCHEMA.empty_table()
            nodes, roots = _star_edges(pa.concat_tables(blocks))
            return pa.table({"file_id": nodes, "component": roots})

        return ray.data.from_arrow_refs([local_cc.remote(*pairs.to_arrow_refs())])
    else:
        edges = pairs.select_columns(["a", "b"]).materialize()
        # shuffle width: enough buckets to spread real data, few enough
        # that per-round task overhead stays small on small graphs
        num_buckets = max(4, min(effective_parallelism(cfg) * 2, n_edges // 2_000))

        prev = None
        for rnd in range(cfg.cc_max_rounds):
            edges = _contract_round(edges, num_buckets).materialize()
            if round_metrics is not None:
                # one output block per bucket (hash_exchange invariant):
                # per-block row counts ARE the per-bucket star sizes.
                # len(pa.Table) is metadata; blocks are plasma-mapped,
                # not copied.
                sizes = ray.get(
                    [_block_rows.remote(r) for r in edges.to_arrow_refs()]
                )
                round_metrics.append(
                    {
                        "round": rnd,
                        "num_buckets": num_buckets,
                        "max_bucket_rows": max(sizes, default=0),
                        "total_star_rows": sum(sizes),
                    }
                )
            cur = _edge_checksum(edges)
            if cur == prev:
                break
            prev = cur

    # a node's star edge is emitted by up to two buckets (its own and
    # its root's) — identical rows at the fixpoint; keep the first per
    # node, rename
    from duplicate_finder_ray.stages.exchange import hash_exchange

    def dedupe_reduce(p: int, tbl: pa.Table) -> pa.Table:
        first = group_aggregate(tbl, ["a"], [("b", "first")])
        return first.rename_columns(_LABELS_SCHEMA.names)

    return hash_exchange(
        edges, "a", num_buckets, dedupe_reduce,
        _LABELS_SCHEMA.empty_table(),
    )


def clusters_table(labels: ray.data.Dataset) -> ray.data.Dataset:
    """(component, n_members) summary of near-dup clusters."""
    from ray.data.aggregate import Count

    return labels.groupby("component").aggregate(Count(alias_name="n_members"))
