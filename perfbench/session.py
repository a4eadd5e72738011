"""One benchmark run inside a fresh process (started by ``run.py``).

Sets up the Ray session ``SETUPS`` times (the last one is kept), runs
the workload's job in a closed loop with one client for ``--seconds``,
checks every job's outputs, and prints human-readable metric lines and
then one JSON result line on stdout. With ``--trace 1`` it then runs
the traced pass (``layers.py``) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import pandas as pd
import ray

import harness
import jobs
import layers
from corpus import WORKLOADS

#: wall-clock time at which this process finished its imports
_IMPORTED_AT = time.time()
#: set-ups per run; setup_s is their median
SETUPS = 3
#: a job that takes longer than this is a hang
JOB_TIMEOUT_S = 60.0


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _hard_exit(result: dict, code: int) -> None:
    """Report and leave without ray.shutdown(): a hung job still holds
    the session, and ``run.py`` kills the process group."""
    print(json.dumps(result), flush=True)
    sys.stderr.flush()
    os._exit(code)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--corpus", type=Path, required=True)
    ap.add_argument("--warm", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--num-cpus", type=int, required=True)
    ap.add_argument("--temp-dir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    import_s = _IMPORTED_AT - args.spawned_at
    declared = json.loads((Path(__file__).resolve().parents[1]
                           / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}

    spec = WORKLOADS[args.workload]
    cfg = jobs.config(args.num_cpus)
    corpus = args.corpus / "corpus"
    meta = json.loads((args.corpus / "meta.json").read_text())
    n_rows = meta["rows"]
    attempted = failed = 0

    # -- set-up: fresh session + the job on the 1 k-row warm corpus ----
    setups = []
    for i in range(SETUPS):
        if i:
            ray.shutdown()
        t0 = time.perf_counter()
        harness.init_session(args.num_cpus, args.temp_dir)
        warm = harness.watched(
            lambda: jobs.run_job(args.warm / "corpus", cfg, spec.exact, spec.neardup),
            JOB_TIMEOUT_S,
        )
        if not warm.ok:
            _fail(f"warm job failed (timed out: {warm.timed_out}): {warm.error!r}")
            _hard_exit({"correct": False, "attempted": 1, "failed": 1,
                        "metrics": {}}, 1)
        setups.append(time.perf_counter() - t0)
        del warm
    setup_s = import_s + statistics.median(setups)

    # -- measured closed loop -------------------------------------------
    truth_exact = pd.read_parquet(args.corpus / "truth_exact.parquet")
    truth_pairs = pd.read_parquet(args.corpus / "truth_pairs.parquet")
    sampler = harness.StoreSampler()
    walls, peaks, recalls, precisions = [], [], [], []
    counts = None
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        sampler.settle()
        sampler.reset()
        attempted += 1
        res = harness.watched(
            lambda: jobs.run_job(corpus, cfg, spec.exact, spec.neardup), JOB_TIMEOUT_S
        )
        if res.timed_out:
            failed += 1
            _fail(f"job {attempted} timed out after {res.seconds:.1f} s")
            _hard_exit({"correct": False, "attempted": attempted,
                        "failed": failed, "metrics": {}}, 1)
        if res.error is not None:
            failed += 1
            _fail(f"job {attempted} raised: "
                  + "".join(traceback.format_exception(res.error)))
        else:
            peaks.append(sampler.peak_mb())
            walls.append(res.seconds)
            chk = jobs.Check()
            out = res.value
            if spec.exact:
                jobs.check_exact(out, truth_exact, chk)
            if spec.neardup:
                jobs.check_neardup(out, truth_pairs, chk)
            if counts is None:
                counts = out.counts
            elif out.counts != counts:
                chk.errors.append(f"counts {out.counts} differ from first job {counts}")
            recalls.append(chk.recall)
            precisions.append(chk.precision)
            if chk.errors:
                failed += 1
                _fail(f"job {attempted} output check failed: " + "; ".join(chk.errors))
            del out
        del res
        # closed loop: start the next job while at least half of it
        # should fit in the window, so the last one overruns it by at
        # most about half a job
        if time.perf_counter() + statistics.median(walls or [0.0]) / 2 > deadline:
            break
    sampler.close()
    if not walls:
        _hard_exit({"correct": False, "attempted": attempted, "failed": failed,
                    "metrics": {}}, 1)

    wall = statistics.median(walls)
    e2e = {
        "files_per_s": n_rows / wall,
        "setup_s": setup_s,
        "peak_store_mb": statistics.median(peaks),
        "recall": min(recalls),
        "precision": min(precisions),
    }
    print(f"# {args.workload}: {n_rows} rows; job walls (s) "
          f"{[round(w, 3) for w in walls]}; set-ups (s) "
          f"{[round(s, 3) for s in setups]} + imports {import_s:.3f} s")
    for name, v in e2e.items():
        print(f"{args.workload} {name} {v:.6g} {units.get(name, '?')}")
    print(f"{args.workload} fail_rate {failed / attempted:.6g} ratio")
    correct = failed == 0
    metrics = e2e

    if args.trace:
        gc.collect()
        tr = layers.Tracer(args.workload, f"{args.workload}-{os.getpid()}")
        traced = harness.watched(
            lambda: layers.traced_run(tr, corpus, cfg, spec.exact, spec.neardup),
            3 * JOB_TIMEOUT_S,
        )
        tr.write(args.spans)
        if not traced.ok:
            _fail(f"traced run failed (timed out: {traced.timed_out}): "
                  + ("".join(traceback.format_exception(traced.error))
                     if traced.error else ""))
            _hard_exit({"correct": False, "attempted": attempted + 1,
                        "failed": failed + 1, "metrics": {}}, 1)
        m, traced_counts, job_s = traced.value
        attempted += 1
        if traced_counts != counts:
            failed += 1
            correct = False
            _fail(f"traced counts {traced_counts} differ from untraced {counts}")
        if spec.neardup and m["neardup.candidates.max_bucket_size"] > meta["max_family"]:
            failed += 1
            correct = False
            _fail("an LSH bucket outgrew the largest planted family: "
                  f"{m['neardup.candidates.max_bucket_size']} > {meta['max_family']}")
        m["trace.overhead_s"] = job_s - wall
        metrics = m
        for name, v in sorted(m.items()):
            print(f"{args.workload} {name} {v:.6g} {units.get(name, '?')}")
        for name, s in sorted(tr.self_seconds().items()):
            print(f"# self {name} {s:.3f} s")

    kind = "per_layer" if args.trace else "end_to_end"
    if set(metrics) != {d["name"] for d in declared[kind]}:
        _fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {kind}")
        correct = False
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                    for k, v in sorted(metrics.items())},
    }), flush=True)
    ray.shutdown()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
