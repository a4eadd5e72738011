"""Tests of the benchmark's own parts (no Ray session needed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pandas as pd
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import harness  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    a = corpus.generate(workload, 7, rows=400)
    b = corpus.generate(workload, 7, rows=400)
    c = corpus.generate(workload, 8, rows=400)
    pd.testing.assert_frame_equal(a, b)
    assert not a["content"].equals(c["content"])
    assert len(a) >= 400
    assert not corpus.file_ids(a).duplicated().any()


def _table(rows):
    return pd.DataFrame(rows, columns=["repo", "path", "commit", "content", "family"])


def test_exact_truth_on_hand_checked_corpus():
    df = _table([
        ("r1", "a.py", "c", "x = 1\n", -1),
        ("r0", "b.py", "c", "x = 1\n", -1),   # same bytes as a.py: keeper
        ("r0", "c.py", "c", "x = 2\n", -1),   # same size, other bytes
        ("r2", "e1", "c", "", -1),
        ("r2", "e0", "c", "", -1),            # empty files group too
        ("r3", "u.py", "c", "unique\n", -1),
    ])
    t = corpus.exact_truth(df)
    assert sorted(t["file_id"]) == ["r0:b.py@c", "r1:a.py@c", "r2:e0@c", "r2:e1@c"]
    assert t["group_key"].nunique() == 2
    assert sorted(t.loc[t["is_keeper"], "file_id"]) == ["r0:b.py@c", "r2:e0@c"]


def test_pair_truth_on_hand_checked_corpus():
    base = [f"t{i}" for i in range(25)]            # 21 distinct 5-shingles
    last = base[:-1] + ["zz"]                       # 20 shared, union 22
    middle = base[:12] + ["zz"] + base[13:]         # 16 shared, union 26
    doc = " ".join
    df = _table([
        ("r", "base", "c", doc(base), 0),
        ("r", "copy", "c", doc(base), 0),
        ("r", "last", "c", doc(last), 0),
        ("r", "middle", "c", doc(middle), 0),
        ("r", "short", "c", "t0 t1 t2", 0),        # no shingles: never a pair
        ("r", "other", "c", doc(base), -1),        # not planted: not in truth
    ])
    p = corpus.pair_truth(df)
    got = {(a.split(":")[1][:-2], b.split(":")[1][:-2]): j
           for a, b, j in p.itertuples(index=False)}
    assert got == {
        ("base", "copy"): 1.0,
        ("base", "last"): 20 / 22,
        ("copy", "last"): 20 / 22,
    }
    assert corpus.shingles("a b c d e f") == {
        ("a", "b", "c", "d", "e"), ("b", "c", "d", "e", "f")
    }


def test_build_caches_corpus_and_truth(tmp_path):
    out = corpus.build("code_mix", 3, tmp_path, rows=300)
    assert len(list((out / "corpus").glob("*.parquet"))) == corpus.N_SHARDS
    assert corpus.build("code_mix", 3, tmp_path, rows=300) == out
    n = sum(len(pd.read_parquet(f)) for f in (out / "corpus").glob("*.parquet"))
    assert n == len(corpus.generate("code_mix", 3, rows=300))


def test_watchdog_turns_a_hang_into_a_failed_run():
    t0 = time.perf_counter()
    out = harness.watched(lambda: time.sleep(30), timeout_s=0.2)
    assert out.timed_out and not out.ok
    assert time.perf_counter() - t0 < 5


def test_watchdog_reports_errors_and_values():
    def boom():
        raise RuntimeError("boom")

    err = harness.watched(boom, timeout_s=5)
    assert not err.ok and isinstance(err.error, RuntimeError)
    assert harness.watched(lambda: 42, timeout_s=5).value == 42


def test_run_fails_without_the_engine(tmp_path):
    """Outside a checkout of the repository the benchmark exits non-zero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "code_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
