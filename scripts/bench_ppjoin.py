"""Scale probe for the PPJoin-style exact similarity join
(stages/ppjoin.py): >= 1 M synthetic docs with PLANTED exact-duplicate
pairs, asserted pair counts — not eyeballed.

The points being evidenced at scale:

- prefix rows are slim (token, fid, n) triples, ~(1 - tau) of the
  corpus shingle volume, through ONE token-keyed hash exchange;
- pair expansion is the vectorized within-bucket predecessor trick;
- cross-token dedupe rides a hash(a, b)-keyed exchange (hub-safe);
- exact verification reuses the sharded-CSR verify (payload crosses
  the exchange once).

Corpus: doc triplets generated DISTRIBUTED and deterministically.
For key k, docs 3k and 3k+1 carry the same 20-token sequence over a
k-namespaced vocabulary (wK_0 .. wK_19 — a Jaccard-1.0 pair), doc
3k+2 a disjoint one (xK_*). Vocabularies are disjoint across k, so
the TRUE >= tau pair set is exactly {(3k, 3k+1)}: n/3 pairs, all
jaccard == 1.0, asserted.

Note: the probe runs the shipped end-to-end ppjoin_pairs, which rides
the shared signature pass; minhash_perms is set to 16 because PPJoin
never reads the LSH band keys (it needs only the shingle sets) and
the default 128-permutation MinHash behind them would bill LSH's cost
to this operator.

Usage: python scripts/bench_ppjoin.py [n_docs] — prints one JSON line.
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

N_TOKENS = 20


def make_docs(n_docs: int) -> ray.data.Dataset:
    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy().astype(np.int64)
        k = pd.Series(ids // 3).astype(str)
        ns = np.where(ids % 3 == 2, "x", "w")
        stem = pd.Series(ns).str.cat(k)  # "w17" / "x17"
        content = stem + "_0"
        for j in range(1, N_TOKENS):
            content = content.str.cat(stem.radd(" ").str.cat([f"_{j}"] * len(stem)))
        id_str = pd.Series(ids).astype(str)
        return pa.table(
            {
                "file_id": pa.array(
                    "r" + pd.Series(ids % 97).astype(str) + ":f" + id_str + "@c",
                    pa.string(),
                ),
                "content": pa.array(content, pa.string()),
            }
        )

    base = ray.data.range(n_docs).map_batches(
        lambda b: pa.table({"id": b.column("id")}), batch_format="pyarrow"
    )
    return base.map_batches(gen, batch_format="pyarrow")


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 999_999
    if n_docs % 3:
        raise SystemExit("n_docs must be a multiple of 3 (planted triplets)")

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from duplicate_finder_ray.config import PipelineConfig
    from duplicate_finder_ray.stages.ppjoin import ppjoin_pairs

    docs = make_docs(n_docs).materialize()  # exclude synthesis from timing
    cfg = PipelineConfig(
        jaccard_threshold=0.5, minhash_perms=16, lsh_bands=16
    )
    t0 = time.perf_counter()
    pairs = ppjoin_pairs(docs, cfg).materialize()
    wall = time.perf_counter() - t0

    df = pairs.to_pandas()
    expect = n_docs // 3
    assert len(df) == expect, (len(df), expect)
    assert (df["jaccard"] == 1.0).all()
    # every pair must be a (3k, 3k+1) twin: same repo-suffix key kf
    fa = df["a"].str.extract(r":f(\d+)@")[0].astype(np.int64)
    fb = df["b"].str.extract(r":f(\d+)@")[0].astype(np.int64)
    assert ((np.minimum(fa, fb) % 3 == 0) & (np.abs(fa - fb) == 1)).all()

    print(
        json.dumps(
            {
                "probe": "ppjoin_pairs",
                "n_docs": n_docs,
                "tau": 0.5,
                "wall_sec": round(wall, 2),
                "docs_per_sec": round(n_docs / wall, 1),
                "n_pairs": int(len(df)),
                "all_planted_pairs_exact": True,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
