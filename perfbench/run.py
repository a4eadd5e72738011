"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload code_mix --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds (or reuses) the seeded corpus and
its truth under ``.perfbench_cache/``, then runs ``session.py`` in a
fresh process and process group with the repository on
``PYTHONPATH`` (so Ray's worker processes can import the engine). The
whole run is under a watchdog: a session that outlives it is killed
with its process group and reported with the tail of its stderr.
Prints the session's metric lines; the last stdout line is the JSON
result. Exits non-zero when any job failed or any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
#: the warm-up corpus every set-up runs (same for all workloads)
WARM_SEED, WARM_ROWS = 0, 1000
#: the whole run, corpus build included, ends within this
RUN_TIMEOUT_S = 170.0


def _stderr_tail(path: Path, lines: int = 40) -> str:
    return "".join(path.read_text(errors="replace").splitlines(True)[-lines:])


def _reap_group(pgid: int, timeout_s: float = 10.0) -> None:
    """Kill whatever is left of the session's process group and wait
    until every member is gone."""
    deadline = time.monotonic() + timeout_s
    sig = signal.SIGTERM
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.2)
        sig = signal.SIGKILL


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--num-cpus", type=int, default=4,
                    help="logical CPUs of the Ray session")
    args = ap.parse_args()

    if not (ROOT / "duplicate_finder_ray" / "__init__.py").is_file():
        print(f"perfbench: no duplicate_finder_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    cache = ROOT / ".perfbench_cache"
    data = corpus.build(args.workload, args.seed, cache)
    warm = corpus.build("code_mix", WARM_SEED, cache, rows=WARM_ROWS)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    logs = cache / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    err_path = logs / f"{tag}.stderr"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--corpus", str(data), "--warm", str(warm),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--num-cpus", str(args.num_cpus), "--temp-dir", str(cache / "ray"),
        "--spans", str(cache / "traces" / f"{tag}.json"),
        "--spawned-at", repr(time.time()),
    ]
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, RUN_TIMEOUT_S - (time.monotonic() - t_start))
            )
        except subprocess.TimeoutExpired:
            _reap_group(proc.pid)
            out, _ = proc.communicate()
            print(out, end="")
            print(f"perfbench: session hung past {RUN_TIMEOUT_S:.0f} s; "
                  f"stderr tail:\n{_stderr_tail(err_path)}", file=sys.stderr)
            return 1
        finally:
            _reap_group(proc.pid)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(out, end="")
        print(f"perfbench: session exited {proc.returncode} without a result; "
              f"stderr tail:\n{_stderr_tail(err_path)}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    if not ok:
        print(f"perfbench: run failed; stderr tail:\n{_stderr_tail(err_path)}",
              file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
