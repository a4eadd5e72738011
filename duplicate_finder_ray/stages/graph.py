"""Graph analytics over duplicate-pair graphs.

The near-dup pipelines emit edge sets (``a``, ``b`` unordered unique
pairs); downstream curation wants graph-shaped summaries of them:
degree distributions (how hub-y is the dup graph?) and triangle counts
(how clique-like are the dup neighborhoods? — cliques mean transitive
duplicate groups, paths mean chained drift). The reference engine has
no graph ops; these extend the family the distributed
connected-components stage (stages/cc.py) started.

Scale shapes
------------
* ``pair_degrees`` / ``degree_histogram``: one vocabulary-sized
  grouped count, pre-counted per block. The shuffle carries
  (node, partial-count) rows — never the edge list twice.
* ``triangle_count``: the classic two-round oriented-wedge join
  (public MapReduce formulation: Suri & Vassilvitskii, "Counting
  triangles and the curse of the last reducer", WWW 2011). Edges are
  oriented from the (degree, id)-smaller endpoint to the larger, which
  bounds every node's out-degree by O(sqrt(m)); wedges (pairs of
  out-neighbors) are emitted per source partition and hash-joined
  against the edge set. Four barrier-free hash exchanges, each moving
  the edge/wedge payload exactly once; no task ever holds the whole
  graph. Node identity rides blake2b-64 of the id string (same
  collision posture as the shingle/pair pipeline, stages/neardup.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from duplicate_finder_ray.stages.exchange import (
    default_partitions,
    grouped_aggregate,
    hash_exchange,
)
from duplicate_finder_ray.stages.neardup import bucket_pairs_arrays
from duplicate_finder_ray.stages.util import group_aggregate

_H_SEED = b"graph-node"


def pair_degrees(
    pairs: ray.data.Dataset, a_col: str = "a", b_col: str = "b"
) -> ray.data.Dataset:
    """Per-node degree over an unordered unique edge set → (node,
    degree). Exact on the original string ids (no hashing): one
    node-keyed grouped count over both endpoint columns, each batch
    counted per node where its endpoints are listed."""

    def endpoints(t: pa.Table) -> pa.Table:
        t = pa.table({"node": pa.chunked_array(t[a_col].chunks + t[b_col].chunks)})
        return group_aggregate(t, ["node"], [([], "count_all")], ["degree"])

    return grouped_aggregate(
        pairs.select_columns([a_col, b_col]).map_batches(
            endpoints, batch_format="pyarrow"
        ),
        "node",
        {"degree": ("sum", "degree")},
    )


def degree_histogram(
    pairs: ray.data.Dataset, a_col: str = "a", b_col: str = "b"
) -> ray.data.Dataset:
    """Degree distribution of the pair graph → (degree, n_nodes): a
    grouped count over :func:`pair_degrees` output — the final shuffle
    is (distinct degrees × blocks) rows."""
    degrees = pair_degrees(pairs, a_col, b_col)
    return grouped_aggregate(degrees, "degree", {"n_nodes": ("count", None)})


def cluster_density(
    pairs: ray.data.Dataset,
    labels: ray.data.Dataset,
    a_col: str = "a",
    node_col: str = "file_id",
    comp_col: str = "component",
    n_parts: int = 32,
) -> ray.data.Dataset:
    """Per-cluster edge density audit → (component, n_nodes, n_edges,
    density_ppm) where density_ppm = 2·n_edges·10⁶ // (n·(n−1)) on the
    exact integer lattice. Density 10⁶ = clique (every member verifies
    against every other — safe to keep one representative); low density
    = chain/hub-shaped cluster where transitive merging may have pulled
    in non-duplicates (the classic CC-over-LSH failure mode), worth a
    verify pass before deletion.

    Scale shape: every edge lands in exactly one component (endpoints
    share it by construction), so ONE slim shuffle hash join on the a
    endpoint attaches component ids to edges; node and edge counts are
    component-keyed grouped counts; the final
    count-join is component-cardinality-sized. No driver
    materialization; no whole-graph task."""
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    nodes = grouped_aggregate(labels, comp_col, {"n_nodes": ("count", None)})
    tagged = shuffle_hash_join(
        pairs.select_columns([a_col]),
        labels.select_columns([node_col, comp_col]),
        a_col,
        node_col,
        n_parts,
        right_cols=[comp_col],
        how="inner",
    )
    edges = grouped_aggregate(tagged, comp_col, {"n_edges": ("count", None)})
    joined = shuffle_hash_join(
        nodes, edges, comp_col, comp_col, n_parts, how="inner"
    )

    def density(t: pa.Table) -> pa.Table:
        n = t.column("n_nodes").to_numpy(zero_copy_only=False).astype(np.int64)
        e = t.column("n_edges").to_numpy(zero_copy_only=False).astype(np.int64)
        ppm = e * np.int64(2_000_000) // np.maximum(n * (n - 1), 1)
        return pa.table(
            {
                comp_col: t.column(comp_col),
                "n_nodes": pa.array(n),
                "n_edges": pa.array(e),
                "density_ppm": pa.array(ppm),
            }
        )

    return joined.map_batches(density, batch_format="pyarrow")


def _hash_nodes(col: pa.ChunkedArray) -> np.ndarray:
    """blake2b-64 of each id string → uint64 (vectorized via pandas
    apply-free path: encode once, digest in a tight C-call loop)."""
    import hashlib

    vals = col.to_pylist()
    out = np.empty(len(vals), dtype=np.uint64)
    for i, v in enumerate(vals):
        out[i] = int.from_bytes(
            hashlib.blake2b(
                v.encode(), digest_size=8, key=_H_SEED
            ).digest(),
            "little",
        )
    return out


_EDGE_U = pa.schema([("u", pa.uint64()), ("v", pa.uint64())]).empty_table()
_EDGE_D = pa.schema(
    [("u", pa.uint64()), ("v", pa.uint64()), ("du", pa.int64()), ("dv", pa.int64())]
).empty_table()
_DEG_U = pa.schema([("node", pa.uint64()), ("deg", pa.int64())]).empty_table()
_CNT = pa.schema([("n", pa.int64())]).empty_table()


def triangle_count(
    pairs: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    num_partitions: int | None = None,
) -> pa.Table:
    """Exact global triangle count of the unordered unique edge set →
    one-row table ``{n_triangles}``.

    Rounds (all on the barrier-free hash exchange):
      1. hash endpoints to uint64; degree per node (count partials +
         one exchange keyed on node);
      2. exchange edges + degrees by ``hash(u)`` → attach ``deg(u)``;
      3. same by ``hash(v)`` → attach ``deg(v)``; orient each edge
         from the (deg, id)-smaller endpoint;
      4. exchange oriented edges by source → emit wedges (canonical
         unordered out-neighbor pairs, triu kernel reused from the LSH
         bucket pair emitter);
      5. exchange wedges ∪ edges by the unordered pair key → per
         partition, count wedges present in the edge set (pandas hash
         join); sum the tiny per-partition counts.
    Each triangle {x, y, z} is counted exactly once — only its
    (deg, id)-minimal vertex emits the wedge that closes it.
    """
    n_parts = num_partitions or default_partitions()

    def to_hashed(t: pa.Table) -> pa.Table:
        if a_col not in t.column_names:  # empty-filter 0-column block
            return _EDGE_U
        return pa.table(
            {
                "u": pa.array(_hash_nodes(t.column(a_col).combine_chunks()), pa.uint64()),
                "v": pa.array(_hash_nodes(t.column(b_col).combine_chunks()), pa.uint64()),
            }
        )

    edges = pairs.select_columns([a_col, b_col]).map_batches(
        to_hashed, batch_format="pyarrow"
    )

    # -- round 1: degrees keyed on the hashed node id ------------------
    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                t.column("u").to_numpy(zero_copy_only=False),
                t.column("v").to_numpy(zero_copy_only=False),
            ]
        )
        nodes, counts = np.unique(both, return_counts=True)
        return pa.table(
            {
                "node": pa.array(nodes, pa.uint64()),
                "deg": pa.array(counts.astype(np.int64)),
            }
        )

    deg_parts = edges.map_batches(deg_partial, batch_format="pyarrow")

    def deg_reduce(p: int, t: pa.Table) -> pa.Table:
        nodes = t.column("node").to_numpy(zero_copy_only=False)
        degs = t.column("deg").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(nodes, return_inverse=True)
        total = np.bincount(inv, weights=degs).astype(np.int64)
        return pa.table(
            {"node": pa.array(uniq, pa.uint64()), "deg": pa.array(total)}
        )

    degrees = hash_exchange(deg_parts, "node", n_parts, deg_reduce, _DEG_U)

    # -- rounds 2+3: attach deg(u), deg(v) via co-located merges -------
    def _attach(edge_ds: ray.data.Dataset, key: str, out: str, empty: pa.Table):
        tagged_deg = degrees.map_batches(
            lambda t: t.append_column(
                "__kind", pa.array(np.zeros(len(t), dtype=np.int8))
            ),
            batch_format="pyarrow",
        )
        tagged_edge = edge_ds.map_batches(
            lambda t: t.append_column(
                "__kind", pa.array(np.ones(len(t), dtype=np.int8))
            ),
            batch_format="pyarrow",
        )

        def reduce(p: int, t: pa.Table) -> pa.Table:
            kind = t.column("__kind").to_numpy(zero_copy_only=False)
            dmask = kind == 0
            dt = t.filter(pa.array(dmask))
            # filter first: the padded union makes every column
            # nullable, and to_numpy on a null-bearing uint64 column
            # degrades to float64 (silent precision loss on 64-bit
            # hash ids)
            dn = dt.column("node").to_numpy(zero_copy_only=False)
            dd = dt.column("deg").to_numpy(zero_copy_only=False)
            et = t.filter(pa.array(~dmask))
            if len(et) == 0:
                return empty
            keys = et.column(key).to_numpy(zero_copy_only=False)
            order = np.argsort(dn)
            pos = np.searchsorted(dn, keys, sorter=order)
            deg = dd[order[pos]]
            cols = {
                n: et.column(n)
                for n in et.column_names
                if n not in ("__kind", "node", "deg")
            }
            cols[out] = pa.array(deg.astype(np.int64))
            return pa.table(cols)

        # union needs identical schemas: pad each side with nulls for
        # the other's columns
        all_names: list[str] = []
        schemas = {}
        for ds_ in (tagged_deg, tagged_edge):
            sch = ds_.schema()
            for i, n in enumerate(sch.names):
                if n not in schemas:
                    all_names.append(n)
                    schemas[n] = sch.types[i]

        def pad(t: pa.Table) -> pa.Table:
            cols = {}
            for n in all_names:
                if n in t.column_names:
                    cols[n] = t.column(n)
                else:
                    cols[n] = pa.nulls(len(t), schemas[n])
            return pa.table(cols)

        both = tagged_deg.map_batches(pad, batch_format="pyarrow").union(
            tagged_edge.map_batches(pad, batch_format="pyarrow")
        )

        def part_padded(t: pa.Table, n: int) -> np.ndarray:
            kind = t.column("__kind").to_numpy(zero_copy_only=False)
            # fill_null keeps the arrays uint64 (nulls would force a
            # float64 conversion and corrupt high hash bits)
            node = (
                pc.fill_null(t.column("node"), 0)
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
            ek = (
                pc.fill_null(t.column(key), 0)
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
            keyv = np.where(kind == 0, node, ek)
            return (keyv % np.uint64(n)).astype(np.int64)

        return hash_exchange(both, part_padded, n_parts, reduce, empty)

    e_du = _attach(
        edges,
        "u",
        "du",
        pa.schema(
            [("u", pa.uint64()), ("v", pa.uint64()), ("du", pa.int64())]
        ).empty_table(),
    )
    e_dudv = _attach(e_du, "v", "dv", _EDGE_D)

    # -- orient: src = (deg, id)-smaller endpoint ----------------------
    def orient(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        du = t.column("du").to_numpy(zero_copy_only=False)
        dv = t.column("dv").to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        return pa.table(
            {"u": pa.array(src, pa.uint64()), "v": pa.array(dst, pa.uint64())}
        )

    oriented = e_dudv.map_batches(orient, batch_format="pyarrow")
    oriented = oriented.materialize()

    # -- round 4: wedges per source partition --------------------------
    def wedge_reduce(p: int, t: pa.Table) -> pa.Table:
        src = t.column("u").to_numpy(zero_copy_only=False)
        dst = t.column("v").to_numpy(zero_copy_only=False)
        wa, wb, _ = bucket_pairs_arrays(src, dst, cap=np.iinfo(np.int64).max)
        return pa.table(
            {"u": pa.array(wa, pa.uint64()), "v": pa.array(wb, pa.uint64())}
        )

    wedges = hash_exchange(oriented, "u", n_parts, wedge_reduce, _EDGE_U)

    # -- round 5: wedge ∩ edge membership on the unordered pair key ----
    def tag(kind: int):
        def fn(t: pa.Table) -> pa.Table:
            # canonicalize to (min, max) so wedge keys and edge keys
            # agree regardless of orientation
            u = t.column("u").to_numpy(zero_copy_only=False)
            v = t.column("v").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "u": pa.array(np.minimum(u, v), pa.uint64()),
                    "v": pa.array(np.maximum(u, v), pa.uint64()),
                    "__kind": pa.array(
                        np.full(len(t), kind, dtype=np.int8)
                    ),
                }
            )

        return fn

    both = wedges.map_batches(tag(0), batch_format="pyarrow").union(
        oriented.map_batches(tag(1), batch_format="pyarrow")
    )

    def match_reduce(p: int, t: pa.Table) -> pa.Table:
        kind = t.column("__kind").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "u": t.column("u").to_numpy(zero_copy_only=False),
                "v": t.column("v").to_numpy(zero_copy_only=False),
            }
        )
        w = df[kind == 0]
        e = df[kind == 1].drop_duplicates()
        if len(w) == 0 or len(e) == 0:
            n = 0
        else:
            n = len(w.merge(e, on=["u", "v"], how="inner"))
        return pa.table({"n": pa.array([n], pa.int64())})

    counts = hash_exchange(both, ["u", "v"], n_parts, match_reduce, _CNT)
    total = int(
        sum(r["n"] for r in counts.take_all())
    )  # ≤ n_parts rows — driver-safe
    return pa.table({"n_triangles": pa.array([total], pa.int64())})


def pagerank(
    pairs: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    iterations: int = 3,
    damping_num: int = 17,
    damping_den: int = 20,
    scale: int = 10**12,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Fixed-iteration PageRank over the undirected pair graph →
    (node, rank) with rank on an exact int64 micro-lattice.

    Centrality inside dup neighborhoods (which file is the "canonical"
    hub its near-duplicates orbit?) — a keeper-selection signal beyond
    lex-min. Every arithmetic step is integer (r//deg per edge,
    (num*c)//den damping, scale//N teleport), so partial sums commute
    and the result is bit-identical across partitionings AND
    reproducible by a SQL twin with the same `//` ops — float PageRank
    would hash-drift under reduction reorder. Per iteration: one
    shuffle-hash-join (rank → edge sources), per-edge contributions
    summed per node in each batch, one node-keyed grouped sum, one
    join back onto degrees.
    Rank rows are slim (node, r, d); the edge set crosses the exchange
    once per iteration. Damping = damping_num/damping_den (default
    17/20 = 0.85)."""
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    n_parts = num_partitions or default_partitions()
    degrees = pair_degrees(pairs, a_col, b_col).materialize()
    n_nodes = degrees.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.schema([("node", pa.string()), ("rank", pa.int64())]).empty_table()
        )

    def both_dirs(t: pa.Table) -> pa.Table:
        if a_col not in t.column_names:  # empty-filter 0-column block
            return pa.schema(
                [("u", pa.string()), ("v", pa.string())]
            ).empty_table()
        a = t.column(a_col)
        b = t.column(b_col)
        return pa.table(
            {
                "u": pa.chunked_array(a.chunks + b.chunks),
                "v": pa.chunked_array(b.chunks + a.chunks),
            }
        )

    edges = (
        pairs.select_columns([a_col, b_col])
        .map_batches(both_dirs, batch_format="pyarrow")
        .materialize()
    )

    r0 = scale // n_nodes
    teleport = (scale - (scale * damping_num) // damping_den) // n_nodes

    def init_rank(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("node"),
                "r": pa.array(np.full(len(t), r0, dtype=np.int64)),
                "d": t.column("degree"),
            }
        )

    rank = degrees.map_batches(init_rank, batch_format="pyarrow")

    for _ in range(iterations):
        joined = shuffle_hash_join(
            edges, rank, "u", "node", n_parts, right_cols=["r", "d"]
        )

        def contrib(t: pa.Table) -> pa.Table:
            r = t.column("r").to_numpy(zero_copy_only=False)
            d = t.column("d").to_numpy(zero_copy_only=False)
            t = pa.table({"node": t.column("v"), "c": pa.array(r // d, pa.int64())})
            return group_aggregate(t, ["node"], [("c", "sum")])

        c = grouped_aggregate(
            joined.map_batches(contrib, batch_format="pyarrow"),
            "node",
            {"c": ("sum", "c")},
        )
        back = shuffle_hash_join(
            degrees, c, "node", "node", n_parts, right_cols=["c"], how="left"
        )

        def next_rank(t: pa.Table) -> pa.Table:
            cv = pc.fill_null(t.column("c"), 0).to_numpy(zero_copy_only=False)
            new_r = teleport + (damping_num * cv.astype(np.int64)) // damping_den
            return pa.table(
                {
                    "node": t.column("node"),
                    "r": pa.array(new_r, pa.int64()),
                    "d": t.column("degree"),
                }
            )

        rank = back.map_batches(next_rank, batch_format="pyarrow")

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"), "rank": t.column("r")})

    return rank.map_batches(finalize, batch_format="pyarrow")

def kcore_peel(
    pairs: ray.data.Dataset,
    k: int,
    rounds: int,
    a_col: str = "a",
    b_col: str = "b",
    n_parts: int | None = None,
) -> ray.data.Dataset:
    """Bounded-round k-core peel over an unordered unique edge set —
    the dup-graph densification audit (a node in the 3-core sits in a
    tight clique-ish duplicate neighborhood; degree alone can't tell a
    hub from a core). Each round: exact degrees (count partials → slim
    groupby), keep nodes with degree >= ``k``, semi-join the edge list
    against the keepers on BOTH endpoints — two slim shuffle
    semi-joins, no node-set broadcast, no driver materialization.
    Returns the surviving (node, degree) table after ``rounds`` peels.

    A FIXED round count (not a fixpoint loop) keeps the op
    deterministic and its SQL twin exact; each extra round costs three
    slim exchanges. Convergence: if a round removes nothing the
    remaining rounds are no-ops, so rounds only needs to reach the
    peel depth."""
    from duplicate_finder_ray.stages.join import shuffle_hash_join

    if k <= 0:
        raise ValueError("k must be positive")
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    n_parts = n_parts or default_partitions()
    edges = pairs.select_columns([a_col, b_col])
    for _ in range(rounds):
        keep = (
            pair_degrees(edges, a_col, b_col)
            .filter(expr=f"degree >= {k}")
            .select_columns(["node"])
        )
        edges = shuffle_hash_join(
            edges, keep, a_col, "node", n_parts,
            left_cols=[a_col, b_col], how="semi",
        )
        edges = shuffle_hash_join(
            edges, keep, b_col, "node", n_parts,
            left_cols=[a_col, b_col], how="semi",
        )
    return pair_degrees(edges, a_col, b_col)
