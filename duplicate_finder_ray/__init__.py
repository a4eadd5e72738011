"""duplicate_finder_ray — Ray-Data-native duplicate detection engine.

A from-scratch, Ray-Data-idiomatic reimplementation of the capabilities of
vetalguru/duplicate-finder (reference at /root/reference), generalized from
filesystem walking to Parquet tables of source-code repositories
(``repo, path, commit, lang, content``), plus the near-duplicate /
training-data-pipeline extensions mandated by BASELINE.json:
MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine near-dup,
distributed connected components, ANN search, text analysis, and
checkpoint/lineage support.

Execution substrate is ``ray.data.Dataset``: zero-copy Arrow
``map_batches`` for per-row derivations, hash-exchange shuffles for the
wide steps, actor pools for stateful stages. Nothing here calls
``ray.init``/``ray.shutdown`` — sessions are owned by the caller
(bench.py, CLI, test fixture, or the graft driver).
"""

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.pipelines.incremental import (
    IncrementalDedup,
    IncrementalNearDup,
)

__all__ = [
    "PipelineConfig",
    "DedupPipeline",
    "IncrementalDedup",
    "IncrementalNearDup",
]

__version__ = "0.2.0"
