"""The number of Ray Data executions a pipeline starts.

Only the streaming read is a Ray Data execution; every later stage runs
as Ray tasks over the materialized blocks' refs. Starting an execution
costs about 0.1 s whatever the data, so a stage that slips back to a
Dataset map over small materialized tables shows up here as one more
execution. The counter patches ``StreamingExecutor.execute`` (Ray
2.49.2 is pinned)."""

import numpy as np
import pyarrow as pa
import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
from duplicate_finder_ray.sources.code_table import read_code_table, synthetic_code_corpus
from duplicate_finder_ray.stages import exact
from duplicate_finder_ray.stages.exchange import grouped_aggregate, hash_exchange

COLUMNS = ["repo", "path", "commit", "lang", "content"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("code_table")
    synthetic_code_corpus(300, seed=11).to_parquet(path / "part-0.parquet")
    return str(path)


def _dedup_counts(corpus_dir: str) -> tuple[int, int]:
    res = DedupPipeline(PipelineConfig()).run(corpus_dir)
    return res.members.count(), res.groups.count()


class TestExecutions:
    def test_dedup_run_is_one_execution(self, ray_session, corpus_dir, executions):
        n_members, n_groups = _dedup_counts(corpus_dir)
        assert n_members > n_groups > 0
        assert len(executions) == 1

    def test_guard_catches_a_planted_dataset_map(
        self, ray_session, corpus_dir, executions, monkeypatch
    ):
        # the groups projection as a Dataset map again: one more
        # execution, same counts
        want = _dedup_counts(corpus_dir)
        executions.clear()

        def planted(ds, fn, empty, *shared):
            return ds.map_batches(fn, batch_format="pyarrow")

        monkeypatch.setattr(exact, "map_blocks", planted)
        assert _dedup_counts(corpus_dir) == want
        assert len(executions) == 2

    def test_neardup_run_is_the_signature_pass(
        self, ray_session, corpus_dir, executions
    ):
        res = NearDupPipeline(PipelineConfig()).run_on(
            read_code_table(corpus_dir, columns=COLUMNS)
        )
        assert res.pairs.count() > 0
        assert res.labels.count() > 0
        assert res.signatures.count() == 300
        assert len(executions) == 1

    def test_chained_exchange_lists_refs_without_an_execution(
        self, ray_session, executions
    ):
        # an exchange's output is materialized: a second exchange (or a
        # grouped aggregate) over it takes its block refs as they are
        ds = ray_session.data.from_arrow(
            pa.table({"k": pa.array(np.arange(100) % 7, pa.int64())})
        )
        empty = pa.schema([("k", pa.int64())]).empty_table()
        first = hash_exchange(ds, "k", 4, lambda p, t: t, empty)
        executions.clear()
        second = hash_exchange(first, "k", 4, lambda p, t: t, empty)
        counts = grouped_aggregate(second, "k", {"n": ("count", None)})
        assert len(executions) == 0
        assert sorted(r["n"] for r in counts.take_all()) == [14] * 5 + [15] * 2

    def test_empty_lazy_source_runs_once(self, ray_session, executions):
        # a source whose blocks are all empty still types the grouped
        # output from one of its blocks, not from a second schema run
        ds = ray_session.data.from_arrow(
            pa.table({"k": pa.array([1, 2], pa.int64())})
        ).filter(expr="k > 5")
        out = grouped_aggregate(ds, "k", {"n": ("count", None)})
        assert len(executions) == 1
        assert out.count() == 0
        assert out.schema().base_schema == pa.schema(
            [("k", pa.int64()), ("n", pa.int64())]
        )
