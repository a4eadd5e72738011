"""Benchmark decontamination — flag training documents that share any
k-token-gram with an evaluation/benchmark set.

Training-data-pipeline extension (the reference engine has nothing
comparable — SURVEY.md §2.5). The standard contamination check in
public LLM dataset cards (GPT-3 appendix C, PaLM §9, Llama 2 A.6, and
the open reproductions around The Pile) is n-gram overlap: a training
document is contaminated when one of its k-token-grams also occurs in
a benchmark document. The two sides are wildly asymmetric — eval sets
are thousands of documents, the corpus is billions — so the scale
shape is a broadcast semi-join, never a shuffle:

1. distill the benchmark to a sorted array of distinct uint64 shingle
   hashes (one remote task per block + one merge task, mirroring
   ``stages/bloom.py::build_bloom`` — the driver never holds it);
2. ``ray.put`` happens implicitly via the task return; every training
   batch probes the shared-memory copy with ``np.searchsorted``
   (zero-copy ``ray.get`` per actor, O(log |bench|) per shingle).

Wire cost: zero training-side shuffle; the only exchange is the
benchmark's own distinct-hash merge. At 100 TB the training side
streams through the actor pool once, content never leaves the map
task.

Tokenization uses the Shingler's SQL-parity ASCII mode (maximal
``[A-Za-z0-9_]+`` runs, identical to DuckDB ``regexp_extract_all``
over arbitrary UTF-8 — functions/shingles.py) so the DuckDB oracle can
gate exact equality; shingle identity is the Shingler's rolling k-gram
mix (collision odds ~2^-64 per pair, the standard fingerprint trade,
and tokens cannot contain the SQL join separator so the string-side
construction is injective too).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data.block import BlockAccessor

from duplicate_finder_ray.functions.shingles import Shingler
from duplicate_finder_ray.stages.util import block_refs


def benchmark_shingle_hashes(
    bench: ray.data.Dataset, text_col: str, k: int
):
    """Distill the (small) benchmark side to ONE sorted distinct uint64
    shingle-hash array in the object store. Returns an ``ObjectRef``;
    the driver never materializes the array."""

    refs = list(block_refs(bench.select_columns([text_col])))

    @ray.remote
    def block_hashes(tbl) -> np.ndarray:
        tbl = BlockAccessor.for_block(tbl).to_arrow()
        # empty blocks can surface with an empty schema (repo gotcha:
        # a fully-filtered Dataset yields 0-column blocks)
        if len(tbl) == 0 or text_col not in tbl.column_names:
            return np.empty(0, dtype=np.uint64)
        sh = Shingler(k=k)
        flat, _ = sh.shingle_hashes_batch_column(
            tbl.column(text_col), ascii_only=True
        )
        return np.unique(flat)

    @ray.remote
    def merge(*parts: np.ndarray) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return np.unique(np.concatenate(parts))

    if not refs:
        return ray.put(np.empty(0, dtype=np.uint64))
    return merge.remote(*[block_hashes.remote(r) for r in refs])


class ContaminationProbe:
    """Actor-pool stage: (id, text) → (id, n_shingles, n_hits,
    contaminated). Benchmark array fetched zero-copy ONCE per actor;
    Shingler vocab memoises across batches."""

    def __init__(
        self, bench_ref, id_col: str, text_col: str, k: int, threshold: int
    ) -> None:
        self.bench = ray.get(bench_ref)
        self.id_col = id_col
        self.text_col = text_col
        self.shingler = Shingler(k=k)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_docs = len(batch)
        flat, off = self.shingler.shingle_hashes_batch_column(
            batch.column(self.text_col), ascii_only=True
        )
        n_shingles = np.diff(off)
        bench = self.bench
        if len(bench) and len(flat):
            pos = np.searchsorted(bench, flat)
            pos_c = np.minimum(pos, len(bench) - 1)
            hit = bench[pos_c] == flat
            doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_shingles)
            n_hits = np.bincount(doc_of[hit], minlength=n_docs).astype(np.int64)
        else:
            n_hits = np.zeros(n_docs, dtype=np.int64)
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "n_shingles": pa.array(n_shingles, pa.int64()),
                "n_hits": pa.array(n_hits, pa.int64()),
                "contaminated": pa.array(n_hits >= self.threshold),
            }
        )


def decontaminate(
    train: ray.data.Dataset,
    bench: ray.data.Dataset,
    id_col: str,
    text_col: str,
    k: int = 5,
    threshold: int = 1,
    concurrency: int | tuple[int, int] = (2, 8),
) -> ray.data.Dataset:
    """Annotate every training row with its benchmark k-gram overlap:
    ``n_shingles`` (distinct k-token-grams), ``n_hits`` (of those, how
    many occur anywhere in ``bench``), ``contaminated``
    (``n_hits >= threshold``). Rows with fewer than k tokens have zero
    shingles and are never contaminated. Filter or route downstream —
    the flag column composes with ``quality_prune``/``dataset_split``.
    """
    bench_ref = benchmark_shingle_hashes(bench, text_col, k)
    return train.select_columns([id_col, text_col]).map_batches(
        ContaminationProbe,
        fn_constructor_args=(bench_ref, id_col, text_col, k, threshold),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )
