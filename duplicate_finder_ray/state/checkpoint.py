"""Stage checkpointing, resume, and per-partition lineage (SURVEY.md
§7.1 M7; north_rule: "Every partition emits lineage records and
per-stage metrics to checkpointed Parquet so runs resume mid-shuffle").

Design:

* Every materialized stage boundary writes partitioned Parquet under
  ``<root>/stage__<name>-<config_hash>/`` (one file per block — the
  partition granularity), then a ``_SUCCESS`` manifest recording the
  config hash, row count, and per-partition lineage (file, rows,
  bytes). A stage directory without ``_SUCCESS`` is garbage from a
  crashed run and is ignored/overwritten.
* Resume = ``has(stage)`` → ``load(stage)``: a rerun with the same
  config skips every completed stage and recomputes only what is
  missing — i.e. a job killed mid-shuffle restarts from the last
  completed shuffle boundary, not from zero (the reference has no
  checkpointing at all: duplicate_finder.py reruns from scratch).
* The config hash keys the directory, so changing any pipeline knob
  invalidates all checkpoints automatically; stale stages from other
  configs are never silently reused. The hash also folds in the
  signature table's format tag, so a table written under an older
  layout is recomputed rather than loaded.
* Lineage rows double as per-stage metrics (rows/bytes per partition,
  wall-clock per stage) and are queryable as a Dataset via
  ``lineage_table()``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, is_dataclass
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from duplicate_finder_ray.sources.code_table import read_code_table
from duplicate_finder_ray.stages import neardup

_MANIFEST = "_SUCCESS"


def config_hash(cfg: Any) -> str:
    """Deterministic 16-hex hash of a config (dataclass or mapping)."""
    if is_dataclass(cfg) and not isinstance(cfg, type):
        payload = asdict(cfg)
    elif isinstance(cfg, dict):
        payload = cfg
    else:
        payload = vars(cfg)
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class CheckpointManager:
    """Checkpointed stage boundaries under one root directory."""

    def __init__(self, root: str, cfg: Any) -> None:
        self.root = root
        # what a stage's files mean depends on the config AND on the
        # engine's table layouts
        self.cfg_hash = config_hash(
            {
                "config": config_hash(cfg),
                "signature_format": neardup.SIGNATURE_FORMAT,
            }
        )
        os.makedirs(root, exist_ok=True)

    # -- paths --------------------------------------------------------

    def stage_dir(self, stage: str) -> str:
        # no "key=value" naming: read_parquet would hive-infer it as a column
        return os.path.join(self.root, f"stage__{stage}-{self.cfg_hash}")

    def _manifest_path(self, stage: str) -> str:
        return os.path.join(self.stage_dir(stage), _MANIFEST)

    # -- protocol -----------------------------------------------------

    def has(self, stage: str) -> bool:
        """True iff the stage completed under THIS config hash."""
        path = self._manifest_path(stage)
        if not os.path.exists(path):
            return False
        try:
            with open(path) as f:
                manifest = json.load(f)
            return manifest.get("config_hash") == self.cfg_hash
        except (json.JSONDecodeError, OSError):
            return False

    def save(
        self, stage: str, ds: ray.data.Dataset, extra: Any = None
    ) -> ray.data.Dataset:
        """Write the stage output as partitioned Parquet + manifest with
        per-partition lineage; return a Dataset reading it back (so
        downstream stages consume the checkpoint, not the upstream
        lineage — a later failure never recomputes this stage).

        Writes go to a staging dir that is atomically renamed over the
        final path, so re-saving over a COMPLETED checkpoint replaces it
        instead of accreting shards beside the old ones, and a crash
        mid-write can never leave a half-written dir with _SUCCESS."""
        out = self.stage_dir(stage)
        staging = out + ".staging"
        if os.path.isdir(staging):
            shutil.rmtree(staging)
        t0 = time.perf_counter()
        ds.write_parquet(staging)
        wall_s = time.perf_counter() - t0
        # an EMPTY Dataset writes no files and no directory at all;
        # persist a schema-bearing empty shard so the checkpoint still
        # commits and load() returns a typed 0-row Dataset
        os.makedirs(staging, exist_ok=True)
        if not any(not f.startswith("_") for f in os.listdir(staging)):
            try:
                schema = pa.schema(
                    list(zip(ds.schema().names, ds.schema().types))
                )
            except Exception:
                schema = pa.schema([])
            pq.write_table(
                schema.empty_table(), os.path.join(staging, "part-empty.parquet")
            )

        partitions = []
        total_rows = 0
        for fname in sorted(os.listdir(staging)):
            if fname.startswith("_"):
                continue
            fpath = os.path.join(staging, fname)
            meta = pq.read_metadata(fpath)
            partitions.append(
                {
                    "file": fname,
                    "rows": meta.num_rows,
                    "bytes": os.path.getsize(fpath),
                }
            )
            total_rows += meta.num_rows
        manifest = {
            "stage": stage,
            "config_hash": self.cfg_hash,
            "rows": total_rows,
            "num_partitions": len(partitions),
            "wall_s": round(wall_s, 3),
            "partitions": partitions,
        }
        if extra is not None:
            # stage-specific lineage (e.g. per-round CC bucket loads) —
            # a callable is evaluated AFTER the stage ran, so metrics
            # filled during Dataset construction are complete
            manifest.update(extra() if callable(extra) else extra)
        with open(os.path.join(staging, _MANIFEST), "w") as f:
            json.dump(manifest, f)
        if os.path.isdir(out):
            shutil.rmtree(out)  # replace, never accrete
        os.replace(staging, out)  # atomic commit of data + manifest
        return self.load(stage)

    def load(self, stage: str) -> ray.data.Dataset:
        out = self.stage_dir(stage)
        with open(self._manifest_path(stage)) as f:
            rows = json.load(f)["rows"]
        if rows == 0:
            # read_parquet yields no blocks for 0-row files, so its
            # materialized Dataset would lose the schema
            shard = next(n for n in sorted(os.listdir(out)) if not n.startswith("_"))
            schema = pq.read_schema(os.path.join(out, shard))
            return ray.data.from_arrow(schema.empty_table())
        return read_code_table(out)

    def run_stage(
        self, stage: str, make: Any, resume: bool = True, extra: Any = None
    ) -> ray.data.Dataset:
        """``make()`` builds the stage Dataset lazily; skipped entirely
        when a completed checkpoint exists and ``resume``."""
        if resume and self.has(stage):
            return self.load(stage)
        return self.save(stage, make(), extra=extra)

    # -- lineage / metrics -------------------------------------------

    def manifests(self) -> list[dict]:
        out = []
        for d in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, d, _MANIFEST)
            if os.path.exists(path):
                with open(path) as f:
                    out.append(json.load(f))
        return out

    def lineage_table(self) -> pa.Table:
        """One row per (stage, partition): the per-partition lineage of
        every completed stage under this root."""
        rows = []
        for m in self.manifests():
            for p in m["partitions"]:
                rows.append(
                    {
                        "stage": m["stage"],
                        "config_hash": m["config_hash"],
                        "file": p["file"],
                        "rows": p["rows"],
                        "bytes": p["bytes"],
                        "stage_wall_s": m["wall_s"],
                    }
                )
        schema = pa.schema(
            [
                ("stage", pa.string()),
                ("config_hash", pa.string()),
                ("file", pa.string()),
                ("rows", pa.int64()),
                ("bytes", pa.int64()),
                ("stage_wall_s", pa.float64()),
            ]
        )
        if not rows:
            return schema.empty_table()
        return pa.Table.from_pylist(rows, schema=schema)


def sha_xor_invariant(ds: ray.data.Dataset, sha_col: str = "sha256") -> int:
    """Order-independent 64-bit XOR over the first 16 hex chars of a
    sha256 column — the cheap input-vs-output content invariant
    (north_rule: "each output row preserves the content-sha256
    invariant"). XOR of per-row values is insensitive to partitioning
    and ordering, so it composes across blocks with a trivial sum-free
    aggregate."""
    import numpy as np

    def fold(batch: pa.Table) -> pa.Table:
        vals = batch.column(sha_col).to_pylist()
        acc = np.uint64(0)
        for v in vals:
            acc ^= np.uint64(int(v[:16], 16))
        return pa.table({"xor": pa.array([int(acc)], pa.uint64())})

    parts = ds.map_batches(fold, batch_format="pyarrow").to_pandas()
    acc = 0
    for v in parts["xor"]:
        acc ^= int(v)
    return acc
