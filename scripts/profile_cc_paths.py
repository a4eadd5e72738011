"""Time connected_components on the bench's verified pair set at its
derived width (one bucket per 2 M edges) and at a forced multi-bucket
width (one edge per bucket, so the width is 2 x the effective
parallelism), several reps each (this box's wall clock is 3-50x noisy —
medians only). Prints the rounds, the Ray Data executions and the label
count of each, and asserts the label counts are equal.

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
from ray.data._internal.execution.streaming_executor import StreamingExecutor

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

started: list = []
_execute = StreamingExecutor.execute


def _counting(self, *args, **kwargs):
    started.append(1)
    return _execute(self, *args, **kwargs)


StreamingExecutor.execute = _counting

results = {}
for name, edges_per_bucket in (("derived", cc_mod._EDGES_PER_BUCKET), ("forced", 1)):
    cc_mod._EDGES_PER_BUCKET = edges_per_bucket
    times, n_labels, rounds = [], None, []
    started.clear()
    for _ in range(REPS):
        rounds = []
        t0 = time.perf_counter()
        labels = cc_mod.connected_components(
            verified, PipelineConfig(), round_metrics=rounds
        ).materialize()
        times.append(round(time.perf_counter() - t0, 3))
        n = labels.count()
        assert n_labels is None or n == n_labels
        n_labels = n
    results[name] = {
        "times": times,
        "median": round(statistics.median(times), 3),
        "num_buckets": rounds[0]["num_buckets"],
        "rounds": len(rounds),
        "executions_per_rep": len(started) / REPS,
        "n_labels": n_labels,
    }

assert results["derived"]["n_labels"] == results["forced"]["n_labels"]
print(json.dumps({"ncpus": NCPU, "rows": ROWS, "n_edges": n_edges, **results}))
ray.shutdown()
