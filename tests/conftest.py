"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import pandas as pd
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus() -> pd.DataFrame:
    """Deterministic tiny code_files table covering FIXTURES.md §1 row
    classes 1-7 (exact dups, uniques, same-size-diff-content, empties,
    glob/size filter targets, multi-block content)."""
    rows = []

    def add(repo, path, commit, lang, content):
        rows.append(
            {"repo": repo, "path": path, "commit": commit, "lang": lang, "content": content}
        )

    # class 1: exact-dup clusters (k=2 and k=3)
    add("orgA/r1", "src/a.py", "c" * 40, "python", "def f():\n    return 1\n")
    add("orgB/r2", "lib/b.py", "d" * 40, "python", "def f():\n    return 1\n")
    add("orgC/r3", "x/one.c", "e" * 40, "c", "int main() { return 0; }\n")
    add("orgC/r3", "x/two.c", "e" * 40, "c", "int main() { return 0; }\n")
    add("orgD/r4", "y/three.c", "f" * 40, "c", "int main() { return 0; }\n")
    # class 2: uniques with unique lengths
    add("orgE/r5", "u/u1.py", "1" * 40, "python", "unique content one\n")
    add("orgE/r5", "u/u2.py", "2" * 40, "python", "unique content two two\n")
    # class 3: same size, different content (must survive prefilter, no group)
    add("orgF/r6", "s/p.txt", "3" * 40, "text", "abcd")
    add("orgF/r6", "s/q.txt", "4" * 40, "text", "abce")
    # class 4: empty files (one group of 3)
    add("orgG/r7", "e/e1", "5" * 40, "text", "")
    add("orgG/r7", "e/e2", "6" * 40, "text", "")
    add("orgH/r8", "e/e3", "7" * 40, "text", "")
    # class 5: duplicate planted in .log and temp/ (glob-filter targets)
    add("orgI/r9", "logs/dup.log", "8" * 40, "text", "planted duplicate\n")
    add("orgI/r9", "temp/dup.txt", "9" * 40, "text", "planted duplicate\n")
    # class 6: tiny + huge duplicate pairs (size-bound targets)
    add("orgJ/rA", "t/t1", "a1" * 20, "text", "xy")
    add("orgJ/rA", "t/t2", "a2" * 20, "text", "xy")
    big = "B" * 4096
    add("orgK/rB", "h/h1", "b1" * 20, "text", big)
    add("orgK/rB", "h/h2", "b2" * 20, "text", big)
    # class 7: multi-block content (3×64KiB + 123 bytes)
    mb = ("Z" * (64 * 1024 * 3 + 123))
    add("orgL/rC", "m/m1", "c1" * 20, "text", mb)
    add("orgL/rC", "m/m2", "c2" * 20, "text", mb)
    return pd.DataFrame(rows)


@pytest.fixture(scope="session")
def tiny_ds(ray_session, tiny_corpus):
    return ray_session.data.from_pandas(tiny_corpus)


@pytest.fixture
def executions(monkeypatch):
    """A list that gains one entry per Ray Data streaming execution the
    driver starts while the test runs (Ray 2.49's
    ``StreamingExecutor.execute``): the names of its physical
    operators, source first, one name per fused operator."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    started: list = []
    real = StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        ops, op = [], dag
        while op is not None:
            ops.append(op.name)
            op = op.input_dependencies[0] if op.input_dependencies else None
        started.append(ops[::-1])
        return real(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return started
