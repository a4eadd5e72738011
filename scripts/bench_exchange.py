"""Layer bench for the hash exchange: a lazy source streamed into the
split wave against the same source materialized first.

Input: the perfbench ``exact_bulk`` corpus (100 000 small files, seed
1, built or reused under ``.perfbench_cache/``). Each run derives the
digest table the way ``DedupPipeline.run_on`` does (identity and size,
filters, sha256, content dropped) and exchanges it on ``sha256`` with
``hash_exchange``. The reduce counts rows and distinct digests per
partition, so its output adds nothing to the object store.

- ``lazy``: the derived Dataset goes to ``hash_exchange`` as it is;
  each block reaches its split task as Ray Data produces it.
- ``materialized``: ``materialize()`` first, then the same call. The
  whole digest table lands in the object store before any split task
  starts.

Per width P (16 and 64) and mode it prints the median of three runs of
the wall time (derive + exchange, until the last reduce returns) and of
the peak object-store MB in use, sampled every 20 ms. Runs alternate
the modes, first side flipped each round. The per-partition counts of
every run must be identical, or the script exits non-zero.

Usage: python scripts/bench_exchange.py [--num-cpus 4] [--seed 1]
— prints one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "perfbench"))
# Ray's worker processes import the engine through the environment
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(REPO), os.environ.get("PYTHONPATH")) if p
)

import pyarrow as pa
import pyarrow.compute as pc

import ray

import corpus as perf_corpus
import harness
from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.sources.code_table import read_code_table
from duplicate_finder_ray.stages.derive import add_sha256, drop_content
from duplicate_finder_ray.stages.exchange import hash_exchange
from jobs import COLUMNS

WIDTHS = (16, 64)
REPS = 3
MODES = ("lazy", "materialized")
_COUNTS = pa.schema(
    [("part", pa.int64()), ("rows", pa.int64()), ("digests", pa.int64())]
)


def derive(path: Path, cfg: PipelineConfig) -> ray.data.Dataset:
    ds = DedupPipeline(cfg).prepare(read_code_table(str(path), columns=COLUMNS))
    ds = ds.map_batches(
        add_sha256, batch_format="pyarrow", batch_size=cfg.derive_batch_size
    )
    return ds.map_batches(drop_content, batch_format="pyarrow")


def count_reduce(p: int, tbl: pa.Table) -> pa.Table:
    digests = len(pc.unique(tbl.column("sha256")))
    return pa.table({"part": [p], "rows": [len(tbl)], "digests": [digests]},
                    schema=_COUNTS)


def run_once(path: Path, cfg: PipelineConfig, mode: str, n_parts: int,
             sampler: harness.StoreSampler) -> tuple[float, float, list]:
    gc.collect()
    sampler.settle()
    sampler.reset()
    t0 = time.perf_counter()
    src = derive(path, cfg)
    if mode == "materialized":
        src = src.materialize()
    out = hash_exchange(src, "sha256", n_parts, count_reduce,
                        _COUNTS.empty_table())
    rows = sorted(out.take_all(), key=lambda r: r["part"])
    wall = time.perf_counter() - t0
    time.sleep(2 * harness.SAMPLE_S)  # one more sample after the last reduce
    counts = [(r["part"], r["rows"], r["digests"]) for r in rows]
    return wall, sampler.peak_mb(), counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--num-cpus", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    cache = REPO / ".perfbench_cache"
    path = perf_corpus.build("exact_bulk", args.seed, cache) / "corpus"
    harness.init_session(args.num_cpus, cache / "ray")
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    cfg = PipelineConfig(parallelism=args.num_cpus)
    sampler = harness.StoreSampler()
    try:
        for mode in MODES:  # warm the worker pool and the page cache
            run_once(path, cfg, mode, WIDTHS[0], sampler)
        result: dict = {"workload": "exact_bulk", "seed": args.seed,
                        "num_cpus": args.num_cpus}
        first = None
        for n_parts in WIDTHS:
            runs: dict = {m: {"wall_s": [], "peak_store_mb": []} for m in MODES}
            width_counts = None
            for rep in range(REPS):
                for mode in MODES if rep % 2 == 0 else MODES[::-1]:
                    wall, peak, counts = run_once(path, cfg, mode, n_parts, sampler)
                    runs[mode]["wall_s"].append(wall)
                    runs[mode]["peak_store_mb"].append(peak)
                    if width_counts is None:
                        width_counts = counts
                    elif counts != width_counts:
                        print(f"bench_exchange: P = {n_parts} {mode} counts "
                              f"differ: {counts} vs {width_counts}",
                              file=sys.stderr)
                        return 1
            totals = (sum(c[1] for c in width_counts),
                      sum(c[2] for c in width_counts))
            if first is None:
                first = totals
            elif totals != first:
                print(f"bench_exchange: P = {n_parts} totals {totals} differ "
                      f"from {first}", file=sys.stderr)
                return 1
            result[f"p{n_parts}"] = {
                m: {k: round(statistics.median(v), 3) for k, v in r.items()}
                for m, r in runs.items()
            }
        result["rows"], result["digests"] = first
        print(json.dumps(result))
        return 0
    finally:
        sampler.close()
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
