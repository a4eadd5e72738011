"""Measure the CC flat term both ways (round-4 VERDICT item 2): time
connected_components on the scaling bench's verified pair set with the
single-task fast path vs the iterated bucketed contraction, at a given
CPU width, several reps each (this box's wall clock is 3-50x noisy —
medians only). Decides whether lowering cc_local_threshold converts
the ~4.4 s width-independent CC term into one that scales.

Usage: python scripts/profile_cc_paths.py [ncpus] [rows] [reps]
Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NCPU = int(sys.argv[1]) if len(sys.argv) > 1 else 32
ROWS = int(sys.argv[2]) if len(sys.argv) > 2 else 2_400_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 3

os.environ["RAY_GRAFT_CPUS"] = str(NCPU)
os.environ["GRAFT_BENCH_ROWS"] = str(ROWS)

import ray

ray.init(
    address="local", num_cpus=NCPU, include_dashboard=False,
    logging_level="ERROR",
)
import ray.data
from ray.data import DataContext

ctx = DataContext.get_current()
ctx.enable_progress_bars = False
ctx.read_op_min_num_blocks = max(8, 2 * NCPU)

import bench

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
from duplicate_finder_ray.stages import cc as cc_mod

corpus = bench.corpus_path()

verified = NearDupPipeline(PipelineConfig()).run_on(
    ray.data.read_parquet(corpus)
).pairs
n_edges = verified.count()

results = {}
for name, threshold in (("local", 10**12), ("iterative", 0)):
    c = PipelineConfig(cc_local_threshold=threshold)
    times, n_labels = [], None
    for _ in range(REPS):
        t0 = time.perf_counter()
        labels = cc_mod.connected_components(verified, c).materialize()
        times.append(round(time.perf_counter() - t0, 3))
        n = labels.count()
        assert n_labels is None or n == n_labels
        n_labels = n
    results[name] = {
        "times": times,
        "median": round(statistics.median(times), 3),
        "n_labels": n_labels,
    }

assert results["local"]["n_labels"] == results["iterative"]["n_labels"]
print(json.dumps({"ncpus": NCPU, "rows": ROWS, "n_edges": n_edges, **results}))
ray.shutdown()
