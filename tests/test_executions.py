"""The number of Ray Data executions a pipeline starts.

Only the streaming read is a Ray Data execution; every later stage runs
as Ray tasks over the materialized blocks' refs. Starting an execution
costs about 0.1 s whatever the data, so a stage that slips back to a
Dataset map over small materialized tables shows up here as one more
execution. The counter patches ``StreamingExecutor.execute`` (Ray
2.49.2 is pinned)."""

import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
from duplicate_finder_ray.sources.code_table import read_code_table, synthetic_code_corpus
from duplicate_finder_ray.stages import exact

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
