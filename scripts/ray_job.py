"""Cluster job entry point — the north_rule's ``ray job submit`` surface.

Submit against a running cluster (the job driver inherits RAY_ADDRESS
from the Ray job runtime and connects to it):

    ray job submit --working-dir . -- \
        python scripts/ray_job.py s3://bucket/code_table/ \
            --output s3://bucket/dedup_out/ \
            --near-dup --checkpoint-dir s3://bucket/ckpt/run1/

Standalone (no cluster) it starts a local session. Outputs are
partitioned Parquet directories (one file per block — a failed run
resumed with the same ``--checkpoint-dir`` skips every completed
stage), plus one JSON summary line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("input_path", help="Parquet code table (repo,path,commit,lang,content)")
    p.add_argument("--output", required=True, help="output directory (Parquet)")
    p.add_argument("--near-dup", action="store_true",
                   help="also run MinHash/LSH near-dup clustering")
    p.add_argument("--jaccard-threshold", type=float, default=0.8)
    p.add_argument("--checkpoint-dir", default=None,
                   help="per-stage Parquet checkpoints; same dir + same "
                        "config on a re-run resumes after the last "
                        "completed stage")
    args = p.parse_args(argv)

    import ray
    import ray.data

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster;
        # standalone falls back to a local session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from duplicate_finder_ray.config import PipelineConfig
    from duplicate_finder_ray.pipelines.dedup import DedupPipeline

    t0 = time.perf_counter()
    cfg = PipelineConfig(jaccard_threshold=args.jaccard_threshold)

    summary: dict = {"input": args.input_path, "output": args.output}

    def write(ds, name: str) -> int:
        """write_parquet + guarantee the directory exists with a typed
        (possibly 0-row) shard — an EMPTY Dataset writes no files at
        all, which would break downstream consumers of the layout."""
        out = os.path.join(args.output, name)
        ds.write_parquet(out)
        os.makedirs(out, exist_ok=True)
        if not any(not f.startswith("_") for f in os.listdir(out)):
            import pyarrow as pa
            import pyarrow.parquet as pq

            schema = pa.schema(list(zip(ds.schema().names, ds.schema().types)))
            pq.write_table(
                schema.empty_table(), os.path.join(out, "part-empty.parquet")
            )
        return ds.count()

    res = DedupPipeline(cfg).run(args.input_path)
    summary["exact_members"] = write(res.members, "exact_members")
    summary["exact_groups"] = write(res.groups, "exact_groups")

    if args.near_dup:
        from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
        from duplicate_finder_ray.sources.code_table import read_code_table

        code = read_code_table(args.input_path)
        nd = NearDupPipeline(cfg)
        if args.checkpoint_dir:
            nres = nd.run_checkpointed(code, args.checkpoint_dir)
        else:
            nres = nd.run_on(code)
        summary["near_dup_pairs"] = write(nres.pairs, "near_dup_pairs")
        summary["near_dup_members"] = write(nres.labels, "near_dup_labels")

    summary["wall_s"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
