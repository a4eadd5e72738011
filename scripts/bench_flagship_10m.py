"""10M-document FLAGSHIP near-dup probe with planted truth (round-4
VERDICT item 5): the full LSH → exact-verify → connected-components
pipeline (NearDupPipeline.run_on, the same code path as the flagship
queries and the scaling bench) at 10 M docs, with recall/precision
ASSERTED against a planted pair set — the largest prior certification
of the whole chain was 2.4 M docs without planted truth (CC and
global_rank were separately certified at 10 M).

Corpus (distributed + deterministic, triplet scheme extended from
scripts/bench_ppjoin.py): for key k over a k-namespaced vocabulary,
docs 3k and 3k+1 carry the same 30-token sequence except token 15
(shingle_k = 5 ⇒ 26 shingles/doc, 5 differing ⇒ Jaccard = 21/31 ≈
0.677 — comfortably inside τ = 0.5 and outside τ = 0.8), doc 3k+2 a
disjoint sequence. Vocabularies are disjoint across k, so the TRUE
pair set at τ = 0.5 is exactly {(3k, 3k+1)}: n/3 pairs, and the true
component set is n/3 two-member components.

At 10 M docs the planted 3.33 M verified edges make two CC buckets of
at most 2 M edges each, so the probe also exercises the multi-bucket
CC contraction rounds inside the flagship, not the one-bucket round.

Usage: python scripts/bench_flagship_10m.py [n_docs] — default
9,999,999. Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray
import ray.data

N_TOKENS = 30
EDIT_POS = 15


def make_docs(n_docs: int) -> ray.data.Dataset:
    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy().astype(np.int64)
        k = pd.Series(ids // 3).astype(str)
        ns = np.where(ids % 3 == 2, "x", "w")
        stem = pd.Series(ns).str.cat(k)  # "w17" / "x17"
        parts = []
        for j in range(N_TOKENS):
            if j == EDIT_POS:
                # members 3k+1 get an edited token here; 3k keep base
                tok = stem.str.cat(
                    np.where(ids % 3 == 1, f"_e{j}", f"_{j}")
                )
            else:
                tok = stem.str.cat([f"_{j}"] * len(stem))
            parts.append(tok)
        content = parts[0]
        for p in parts[1:]:
            content = content.str.cat(p.radd(" "))
        return pa.table(
            {
                "repo": pa.array(
                    "org/r" + pd.Series(ids % 997).astype(str), pa.string()
                ),
                "path": pa.array(
                    "f" + pd.Series(ids).astype(str) + ".py", pa.string()
                ),
                "commit": pa.array(["c" * 40] * len(ids), pa.string()),
                "lang": pa.array(["python"] * len(ids), pa.string()),
                "content": pa.array(content, pa.string()),
            }
        )

    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    return (
        ray.data.range(n_docs, override_num_blocks=max(16, num_cpus * 4))
        .map_batches(gen, batch_format="pyarrow")
    )


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 9_999_999
    if n_docs % 3:
        raise SystemExit("n_docs must be a multiple of 3 (planted triplets)")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from duplicate_finder_ray.config import PipelineConfig
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

    docs = make_docs(n_docs).materialize()  # exclude synthesis from timing

    cfg = PipelineConfig(jaccard_threshold=0.5, parallelism=num_cpus)
    t0 = time.perf_counter()
    res = NearDupPipeline(cfg).run_on(docs)
    labels = res.labels.materialize()
    wall = time.perf_counter() - t0

    n_pairs = res.pairs.count()
    expect_pairs = n_docs // 3

    # recall/precision from VECTORIZED membership checks (10M-scale:
    # never collect doc strings; parse ids out of the pair table
    # per-batch with Arrow kernels)
    import pyarrow.compute as pc

    def _doc_ids(col) -> np.ndarray:
        ex = pc.extract_regex(col, r"f(?P<d>\d+)\.py@")
        return (
            pc.struct_field(ex, "d")
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )

    def pair_stats(batch: pa.Table) -> pa.Table:
        fa = _doc_ids(batch.column("a"))
        fb = _doc_ids(batch.column("b"))
        lo = np.minimum(fa, fb)
        hi = np.maximum(fa, fb)
        planted = (lo % 3 == 0) & (hi == lo + 1)
        return pa.table(
            {
                "n": pa.array([len(fa)], pa.int64()),
                "n_planted": pa.array([int(planted.sum())], pa.int64()),
            }
        )

    stats = (
        res.pairs.map_batches(pair_stats, batch_format="pyarrow").to_pandas()
    )
    n_found = int(stats["n"].sum())
    n_hits = int(stats["n_planted"].sum())
    recall = n_hits / expect_pairs
    precision = n_hits / max(1, n_found)

    # component structure: every found pair is an isolated 2-member
    # component (the expected ~5e-4 LSH banding miss rate at J=0.677 —
    # (1 - 0.677^4)^32 per pair — means found can trail planted by a
    # few hundred at 10M; recall asserts the floor)
    comp_sizes = (
        labels.groupby("component").count().to_pandas()["count()"].to_numpy()
    )
    assert recall >= 0.99, recall
    assert precision == 1.0, precision
    assert len(comp_sizes) == n_found, (len(comp_sizes), n_found)
    assert (comp_sizes == 2).all()

    print(
        json.dumps(
            {
                "probe": "flagship_neardup_10m",
                "n_docs": n_docs,
                "tau": 0.5,
                "wall_sec": round(wall, 2),
                "docs_per_sec": round(n_docs / wall, 1),
                "n_pairs_found": n_found,
                "planted_pairs": expect_pairs,
                "recall": round(recall, 6),
                "precision": round(precision, 6),
                "n_components": int(len(comp_sizes)),
                "num_cpus": num_cpus,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
