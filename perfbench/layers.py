"""The traced run: each layer timed from outside, through its public
functions, in the order and with the arguments the pipelines'
``run_on`` uses, with an explicit ``materialize()`` at each layer
boundary so the work lands in that layer's span.

Layers (one module each): derive (``sources`` + ``stages/derive`` +
filters, up to the materialized digest table), exact
(``stages/exact``), exchange (``stages/exchange.hash_exchange``),
shingles (``functions/shingles`` kernels), neardup
(``stages/neardup``) and cc (``stages/cc``).
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pyarrow as pa

import ray
import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.functions.shingles import (
    Shingler,
    batch_minhash,
    batch_simhash,
    minhash_params,
)
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.sources.code_table import read_code_table
from duplicate_finder_ray.stages import cc, exact, neardup
from duplicate_finder_ray.stages.derive import add_identity, add_sha256, drop_content
from duplicate_finder_ray.stages.exchange import hash_exchange

from jobs import COLUMNS

#: docs in the in-process kernel sample, and kernel repetitions
KERNEL_DOCS = 4096
KERNEL_REPS = 3


class Tracer:
    """In-memory spans (id, name, start, end, parent, workload, run id);
    spans of one run share the run id. Nested ``span()`` calls record
    their parent."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "workload": self.workload,
            "run_id": self.run_id,
            "start": time.perf_counter(),
        }
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(rec)

    def seconds(self, name: str) -> float:
        rec = next(s for s in self.spans if s["name"] == name)
        return rec["end"] - rec["start"]

    def self_seconds(self) -> dict[str, float]:
        """Span duration minus the time its (sequential) children cover."""
        child: dict = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return {s["name"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
                for s in self.spans}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"spans": sorted(self.spans, key=lambda s: s["start"]),
             "self_s": self.self_seconds()}, indent=1))


def _check_config(cfg: PipelineConfig) -> None:
    """The layer sequences below mirror ``run_on`` for these settings."""
    if (cfg.prefilter_mode, cfg.verify_content, cfg.verify_mode) != (
            "fused", False, "exact") or cfg.sort_by_group_size or cfg.sort_by_file_size:
        raise ValueError("traced layers assume the engine's default config")


def traced_exact(tr: Tracer, corpus: Path, cfg: PipelineConfig, m: dict) -> tuple:
    """``DedupPipeline.run`` (fused prefilter) layer by layer; returns
    (digest table, counts)."""
    pipe = DedupPipeline(cfg)
    with tr.span("derive"):
        ds = pipe.prepare(read_code_table(str(corpus), columns=COLUMNS))
        ds = ds.map_batches(add_sha256, batch_format="pyarrow",
                            batch_size=cfg.derive_batch_size)
        ds = ds.map_batches(drop_content, batch_format="pyarrow")
        digest = ds.materialize()
    m["derive.s"] = tr.seconds("derive")
    m["derive.rows"] = digest.count()
    m["derive.bytes_out"] = digest.size_bytes()
    with tr.span("exact"):
        with tr.span("exact.candidate_sizes"):
            sizes = exact.candidate_sizes(digest)
        if len(sizes) == 0:
            raise ValueError("workload has no duplicate sizes")
        with tr.span("exact.prefilter"):
            kept = exact.apply_size_prefilter(digest, sizes).materialize()
        with tr.span("exact.members"):
            members = exact.duplicate_members(kept, cfg).materialize()
        n_members = members.count()
        with tr.span("exact.groups"):
            n_groups = exact.groups_from_members(members).count()
    m["exact.candidate_sizes.s"] = tr.seconds("exact.candidate_sizes")
    m["exact.prefilter.s"] = tr.seconds("exact.prefilter")
    m["exact.prefilter.keep_ratio"] = kept.count() / max(1, m["derive.rows"])
    m["exact.members.s"] = tr.seconds("exact.members")
    m["exact.members.rows"] = n_members
    return digest, {"members": n_members, "groups": n_groups}


def traced_neardup(tr: Tracer, ds: ray.data.Dataset, cfg: PipelineConfig,
                   m: dict) -> dict:
    """``NearDupPipeline.run_on`` layer by layer; returns counts."""
    with tr.span("neardup"):
        with tr.span("neardup.signatures"):
            with_id = ds.map_batches(add_identity, batch_format="pyarrow")
            sigs = neardup.signatures(
                with_id.select_columns(["file_id", "content"]),
                cfg,
                emit_shingles=(cfg.verify_mode == "exact"),
            ).materialize()
        with tr.span("neardup.candidates"):
            prestarted = None
            if (cfg.verify_prestart_shards
                    and sigs.count() > cfg.broadcast_verify_limit):
                prestarted = neardup.prestart_verify_split(sigs, cfg)
            band_rows = neardup.explode_bands(sigs, cfg)
            candidates = neardup.candidate_pairs(
                band_rows, cfg, sigs_source=sigs
            ).materialize()
        with tr.span("neardup.verify"):
            verified = neardup.verify_pairs_exact(
                candidates, sigs, cfg, prestarted=prestarted
            ).materialize()
    with tr.span("cc"):
        labels = cc.connected_components(verified, cfg, round_metrics=[]).materialize()
    n_cand = candidates.count()
    n_verified = verified.count()
    m["neardup.signatures.s"] = tr.seconds("neardup.signatures")
    m["neardup.signatures.bytes_out"] = sigs.size_bytes()
    m["neardup.candidates.s"] = tr.seconds("neardup.candidates")
    m["neardup.candidates.pairs"] = n_cand
    m["neardup.candidates.max_bucket_size"] = (
        int(candidates.max("bucket_size")) if n_cand else 0
    )
    m["neardup.verify.s"] = tr.seconds("neardup.verify")
    m["neardup.verify.pairs"] = n_verified
    m["neardup.verify.keep_ratio"] = n_verified / max(1, n_cand)
    m["cc.s"] = tr.seconds("cc")
    m["cc.edges"] = n_verified
    comps = labels.select_columns(["component"]).to_pandas()["component"]
    m["cc.components"] = int(comps.nunique())
    return {"signatures": sigs.count(), "verified": n_verified,
            "labels": len(comps)}


@ray.remote
def _part_stats(tbl: pa.Table) -> tuple[int, int]:
    return tbl.num_rows, tbl.nbytes


def traced_exchange(tr: Tracer, digest: ray.data.Dataset, cfg: PipelineConfig,
                    m: dict) -> None:
    """``hash_exchange`` over the digest table with the exact-members
    partitioner (siphash(sha256) % P) and an identity reduce, at the
    members stage's own P (``max(8, parallelism)``) and at P = 64."""
    empty = digest.schema().base_schema.empty_table()

    def part_of(tbl: pa.Table, n: int) -> np.ndarray:
        h = stable_hash_array(tbl.column("sha256").to_numpy(zero_copy_only=False))
        return (h % np.uint64(n)).astype(np.int64)

    def identity(p: int, tbl: pa.Table) -> pa.Table:
        return tbl

    with tr.span("exchange"):
        out = hash_exchange(digest, part_of, max(8, cfg.parallelism), identity, empty)
        out = out.materialize()
    stats = ray.get([_part_stats.remote(r) for r in out.to_arrow_refs()])
    rows = [r for r, _ in stats]
    m["exchange.s"] = tr.seconds("exchange")
    m["exchange.bytes"] = sum(b for _, b in stats)
    m["exchange.part_skew"] = max(rows) / max(1.0, statistics.median(rows))
    with tr.span("exchange.p64"):
        hash_exchange(digest, part_of, 64, identity, empty).materialize()
    m["exchange.p64.s"] = tr.seconds("exchange.p64")


def kernel_rates(tr: Tracer, sample: pa.Table, cfg: PipelineConfig, m: dict) -> None:
    """In-process docs/s of the three ``SignatureStage`` kernels over
    ``sample``, in the stage's batch size; median of ``KERNEL_REPS``
    passes, each with a fresh (cold-vocabulary) shingler as a new actor
    has."""
    a, b = minhash_params(cfg.minhash_perms, cfg.minhash_seed)
    col = sample.column("content").combine_chunks()
    rates: dict = {"shingle": [], "minhash": [], "simhash": []}
    with tr.span("shingles"):
        for _ in range(KERNEL_REPS):
            shingler = Shingler(k=cfg.shingle_k, mode=cfg.shingle_mode,
                                token_hash=cfg.token_hash)
            work: dict = {}
            spent = dict.fromkeys(rates, 0.0)
            for lo in range(0, len(col), cfg.derive_batch_size):
                batch = col.slice(lo, cfg.derive_batch_size)
                t0 = time.perf_counter()
                flat, offsets = shingler.shingle_hashes_batch_column(batch)
                t1 = time.perf_counter()
                batch_minhash(flat, offsets, a, b, work=work)
                t2 = time.perf_counter()
                batch_simhash(flat, offsets, work=work)
                t3 = time.perf_counter()
                spent["shingle"] += t1 - t0
                spent["minhash"] += t2 - t1
                spent["simhash"] += t3 - t2
            for k, s in spent.items():
                rates[k].append(len(col) / s)
    for k, r in rates.items():
        m[f"shingles.{k}.docs_per_s"] = statistics.median(r)


def read_sample(corpus: Path, rows: int = KERNEL_DOCS) -> pa.Table:
    """The first ``rows`` rows of the corpus, in shard order."""
    import pyarrow.parquet as pq

    tables, n = [], 0
    for f in sorted(corpus.glob("*.parquet")):
        t = pq.read_table(f, columns=COLUMNS)
        tables.append(t)
        n += len(t)
        if n >= rows:
            break
    return pa.concat_tables(tables).slice(0, rows)


def traced_run(tr: Tracer, corpus: Path, cfg: PipelineConfig, exact_dedup: bool,
               near_dup: bool) -> tuple[dict, dict, float]:
    """Trace the workload's job layer by layer, then the layers the job
    does not run: the exact layers over the whole table, the near-dup
    layers over the kernel sample. Returns (metrics, job counts, traced
    job wall)."""
    _check_config(cfg)
    m: dict = {}
    counts: dict = {}
    with tr.span("job"):
        if exact_dedup:
            digest, c = traced_exact(tr, corpus, cfg, m)
            counts.update(c)
        if near_dup:
            ds = read_code_table(str(corpus), columns=COLUMNS)
            counts.update(traced_neardup(tr, ds, cfg, m))
    job_s = tr.seconds("job")
    sample = read_sample(corpus)
    with tr.span("companion"):
        if not exact_dedup:
            digest, _ = traced_exact(tr, corpus, cfg, m)
        if not near_dup:
            traced_neardup(tr, ray.data.from_arrow(sample), cfg, m)
    traced_exchange(tr, digest, cfg, m)
    kernel_rates(tr, sample, cfg, m)
    return m, counts, job_s
