"""The number of Ray Data executions a pipeline starts, and the
operators of the one that reads.

Only the streaming read is a Ray Data execution; every later stage runs
as Ray tasks over the materialized blocks' refs. Starting an execution
costs about 0.1 s whatever the data, so a stage that slips back to a
Dataset map over small materialized tables shows up here as one more
execution. The counter patches ``StreamingExecutor.execute`` (Ray
2.49.2 is pinned).

A read of at least 2 × CPUs files is one task per file, and the
near-dup signature pass fuses into it, so ``content`` never reaches the
object store; the exact pipeline keeps Ray's read sizing and its own
derive operator."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
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


@pytest.fixture(scope="module")
def sharded_dir(ray_session, tmp_path_factory):
    """The corpus as 2 × CPUs files: Ray's read-parallelism floor."""
    path = tmp_path_factory.mktemp("sharded_code_table")
    table = pa.Table.from_pandas(synthetic_code_corpus(300, seed=11), preserve_index=False)
    n_files = 2 * int(ray_session.cluster_resources()["CPU"])
    step = -(-len(table) // n_files)
    rows = []
    for i in range(n_files):
        part = table.slice(i * step, step)
        pq.write_table(part, path / f"part-{i:02d}.parquet")
        rows.append(len(part))
    return str(path), rows


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


class TestReadShape:
    SIGNATURE_PASS = (
        "ReadParquet->MapBatches(add_identity)->Project->MapBatches(_signature_slices)"
    )

    def test_read_is_one_block_per_file(self, ray_session, sharded_dir, monkeypatch):
        # with 1 KiB blocks as Ray's lower size target, its own sizing
        # would split each of these files into many blocks
        ctx = ray_session.data.DataContext.get_current()
        monkeypatch.setattr(ctx, "target_min_block_size", 1024)
        path, file_rows = sharded_dir
        blocks = read_code_table(path, columns=COLUMNS).materialize()
        rows = [m.num_rows for b in blocks.iter_internal_ref_bundles() for m in b.metadata]
        assert sorted(rows) == sorted(file_rows)

    def test_single_file_keeps_ray_sizing(self, ray_session, corpus_dir):
        ours = read_code_table(corpus_dir, columns=COLUMNS).materialize()
        ray_default = ray_session.data.read_parquet(corpus_dir, columns=COLUMNS)
        assert ours.num_blocks() == ray_default.materialize().num_blocks() > 1

    def test_signature_pass_fuses_into_the_read(
        self, ray_session, sharded_dir, executions
    ):
        res = NearDupPipeline(PipelineConfig()).run_on(
            read_code_table(sharded_dir[0], columns=COLUMNS)
        )
        assert res.signatures.count() == 300
        assert res.pairs.count() > 0
        assert executions == [["Input", self.SIGNATURE_PASS]]

    def test_dedup_run_keeps_read_and_derive_apart(
        self, ray_session, sharded_dir, executions
    ):
        n_members, n_groups = _dedup_counts(sharded_dir[0])
        assert n_members > n_groups > 0
        assert len(executions) == 1
        source, read, derive = executions[0]
        assert (source, read) == ("Input", "ReadParquet")
        assert derive.startswith("MapBatches(add_identity)->")
