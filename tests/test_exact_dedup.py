"""E2E exact-dedup pipeline tests over the tiny fixture corpus, mirroring
the reference's pipeline tests (/root/reference/tests/test_duplicate_finder.py)
plus a brute-force oracle comparison."""

import hashlib
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline, render_text_report
from duplicate_finder_ray.stages import exact

#: the ten deterministic sf tables at their smallest scale (TESTDATA.md)
SF_SMALL = Path(__file__).resolve().parents[2] / "testdata" / "sf0.001"
SF_TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def brute_force_groups(df: pd.DataFrame) -> dict[str, list[str]]:
    """O(n²)-spirit oracle: group file_ids by exact content; only groups
    of ≥2 count (reference semantics §1.2)."""
    fid = df["repo"] + ":" + df["path"] + "@" + df["commit"]
    by_content: dict[str, list[str]] = {}
    for f, c in zip(fid, df["content"]):
        by_content.setdefault(c, []).append(f)
    return {
        hashlib.sha256(c.encode()).hexdigest(): sorted(v)
        for c, v in by_content.items()
        if len(v) > 1
    }


def assert_groups_aggregate_members(res) -> None:
    """The groups table is exactly the per-group_id aggregate of the
    members table: max size and member count."""
    members = res.members.to_pandas()
    groups = res.groups.to_pandas()
    assert list(res.groups.schema().names) == ["group_id", "size", "n_files"]
    if len(members) == 0:
        assert len(groups) == 0
        return
    want = (
        members.groupby("group_id")
        .agg(size=("size", "max"), n_files=("file_id", "count"))
        .reset_index()
    )
    got = groups.sort_values("group_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.fixture()
def run(ray_session, tiny_ds):
    def _run(**cfg_kwargs):
        return DedupPipeline(PipelineConfig(**cfg_kwargs)).run_on(tiny_ds)

    return _run


class TestExactGroups:
    def test_matches_brute_force_oracle(self, run, tiny_corpus):
        members = run().members.to_pandas()
        got = {
            gid: sorted(sub["file_id"])
            for gid, sub in members.groupby("group_id")
        }
        assert got == brute_force_groups(tiny_corpus)

    def test_identical_pair_found(self, run):
        # mirrors reference test: two files with identical content form
        # one group (test_duplicate_finder.py:53-65)
        members = run().members.to_pandas()
        sha = hashlib.sha256(b"def f():\n    return 1\n").hexdigest()
        grp = members[members["group_id"] == sha]
        assert len(grp) == 2

    def test_no_false_groups(self, run, tiny_corpus):
        # distinct contents → no group (reference :68-76); same-size
        # different-content rows survive prefilter but form no group
        members = run().members.to_pandas()
        assert "abcd" not in set(tiny_corpus["content"][members.index.intersection([])])
        shas = {
            hashlib.sha256(c.encode()).hexdigest()
            for c in ("abcd", "abce", "unique content one\n")
        }
        assert not (set(members["group_id"]) & shas)

    def test_empty_files_group(self, run):
        members = run().members.to_pandas()
        sha_empty = hashlib.sha256(b"").hexdigest()
        assert len(members[members["group_id"] == sha_empty]) == 3

    def test_keeper_is_lexicographic_min(self, run):
        members = run().members.to_pandas()
        for _, sub in members.groupby("group_id"):
            keeper = sub.loc[sub["is_keeper"], "file_id"].iloc[0]
            assert keeper == min(sub["file_id"])
            assert sub["is_keeper"].sum() == 1

    def test_keeper_prefix_path_matches_raw_sort(self, ray_session):
        """Rank is the (repo, path, commit) TUPLE, not the joined file_id
        string: with LICENSE vs LICENSE.txt the '@' terminator in file_id
        sorts after '.', which would flip the keeper vs the reference's
        raw-path sorted(group)."""
        df = pd.DataFrame(
            [
                {"repo": "o/r", "path": "LICENSE.txt", "commit": "a" * 40,
                 "lang": "text", "content": "mit\n"},
                {"repo": "o/r", "path": "LICENSE", "commit": "a" * 40,
                 "lang": "text", "content": "mit\n"},
            ]
        )
        res = DedupPipeline(PipelineConfig()).run_on(
            ray_session.data.from_pandas(df)
        )
        members = res.members.to_pandas()
        keeper = members.loc[members["is_keeper"], "path"].iloc[0]
        # reference sorts raw paths: 'LICENSE' < 'LICENSE.txt'
        assert keeper == "LICENSE"

    def test_prefilter_modes_agree(self, run):
        base = run(prefilter_mode="fused").members.to_pandas()
        other = run(prefilter_mode="two_pass").members.to_pandas()
        a = base.sort_values("file_id").reset_index(drop=True)
        b = other.sort_values("file_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_off_prefilter_mode_rejected(self):
        with pytest.raises(ValueError, match="prefilter_mode"):
            PipelineConfig(prefilter_mode="off")

    def test_default_run_skips_size_prefilter(self, run, monkeypatch):
        """sha256 is computed before any prefilter could run and the
        members reduce drops singletons, so the default path never
        collects candidate sizes."""

        def boom(ds):
            raise AssertionError("default run called candidate_sizes")

        monkeypatch.setattr(exact, "candidate_sizes", boom)
        assert run().members.count() > 0

    def test_candidate_sizes_sums_few_blocks_on_driver(
        self, ray_session, monkeypatch
    ):
        """A lazy input of a few blocks sums its per-batch partials on
        the driver: no sort-based groupby runs, and the sizes equal a
        pandas count."""
        sizes = [5, 7, 7, 9, 5, 11, 0, 0, 3, 7, 12]
        ds = ray_session.data.from_pandas(
            [pd.DataFrame({"size": sizes[i::3]}) for i in range(3)]
        ).map_batches(lambda b: b, batch_format="pyarrow")
        assert type(ds) is ray_session.data.Dataset  # lazy, not materialized

        def no_groupby(*args, **kwargs):
            raise AssertionError("candidate_sizes ran a groupby")

        monkeypatch.setattr(ray_session.data.Dataset, "groupby", no_groupby)
        counts = pd.Series(sizes).value_counts()
        want = sorted(counts[counts > 1].index)
        assert exact.candidate_sizes(ds).tolist() == want

    def test_exclude_pattern_removes_file(self, run):
        # reference :79-87 / test_cli_args.py:53-59: excluding one side of
        # the planted pair dissolves its group
        members = run(exclude_patterns=["*temp*"]).members.to_pandas()
        sha = hashlib.sha256(b"planted duplicate\n").hexdigest()
        assert sha not in set(members["group_id"])
        assert not members["file_id"].str.contains("temp/").any()

    def test_include_only_logs(self, run):
        members = run(include_patterns=["*.log"]).members.to_pandas()
        assert len(members) == 0  # the .log dup's twin is filtered out

    def test_size_bounds(self, run):
        members = run(min_file_size_str="3", max_file_size_str="1KiB").members.to_pandas()
        # tiny pair ("xy", 2 B) and huge pair (4096 B) and multiblock must vanish
        sha_tiny = hashlib.sha256(b"xy").hexdigest()
        sha_huge = hashlib.sha256(b"B" * 4096).hexdigest()
        ids = set(members["group_id"])
        assert sha_tiny not in ids and sha_huge not in ids
        # empty-file group also vanishes (0 < min); planted pair stays
        assert hashlib.sha256(b"").hexdigest() not in ids
        assert hashlib.sha256(b"planted duplicate\n").hexdigest() in ids

    def test_zero_min_size_disables_bound(self, run):
        # truthiness semantics: min_size=0 keeps empty files (reference
        # duplicate_finder.py:143-148)
        members = run(min_file_size_str="0").members.to_pandas()
        assert hashlib.sha256(b"").hexdigest() in set(members["group_id"])

    def test_verify_content_same_as_hash_on_clean_input(self, run):
        plain = run().members.to_pandas().sort_values("file_id").reset_index(drop=True)
        verified = (
            run(verify_content=True)
            .members.to_pandas()
            .sort_values("file_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(plain, verified)

    def test_groups_table(self, run):
        assert_groups_aggregate_members(run())

    @pytest.mark.parametrize(
        "option", ["sort_by_group_size", "sort_by_file_size", "verify_content"]
    )
    def test_groups_equal_member_aggregate(self, run, option):
        assert_groups_aggregate_members(run(**{option: True}))

    def test_deletion_tally(self, run, tiny_corpus):
        res = run()
        tally = res.tally()
        oracle = brute_force_groups(tiny_corpus)
        n_expected = sum(len(v) - 1 for v in oracle.values())
        assert tally["n_deleted"] == n_expected
        # freed bytes = sum of non-keeper sizes
        members = res.members.to_pandas()
        assert tally["bytes_freed"] == int(
            members.loc[~members["is_keeper"], "size"].sum()
        )

    def test_keepers_view(self, run):
        res = run()
        keepers = res.keepers().to_pandas()
        groups = res.groups.to_pandas()
        assert len(keepers) == len(groups)
        assert keepers["is_keeper"].all()


class TestEmptyInputs:
    def test_no_duplicates_keeps_schema(self, ray_session):
        """A members reduce that emits no rows must not erase the
        output schema (found by probing: empty groupby loses schema)."""
        df = pd.DataFrame(
            {
                "repo": ["a/b", "c/d"],
                "path": ["x.py", "y.py"],
                "commit": ["1" * 40, "2" * 40],
                "lang": ["python", "python"],
                "content": ["aaa", "bbbb"],
            }
        )
        res = DedupPipeline(PipelineConfig()).run_on(ray_session.data.from_pandas(df))
        schema = res.members.schema()
        assert "group_id" in schema.names and "is_keeper" in schema.names
        assert res.members.count() == 0
        assert res.tally() == {"n_deleted": 0, "bytes_freed": 0}

    def test_zero_row_corpus(self, ray_session):
        df = pd.DataFrame(
            {c: pd.Series([], dtype=str) for c in ("repo", "path", "commit", "content")}
        )
        res = DedupPipeline(PipelineConfig()).run_on(ray_session.data.from_pandas(df))
        assert res.members.count() == 0
        assert_groups_aggregate_members(res)


class TestReadCodeTable:
    @pytest.mark.parametrize("columns", [None, ["repo", "content"]])
    def test_blocks_carry_no_schema_metadata(self, ray_session, tmp_path, columns):
        """A pandas-written table's metadata blob makes block schemas
        unhashable (Ray's schema unification then warns on every
        concat); the read drops it and keeps the data."""
        from duplicate_finder_ray.sources.code_table import read_code_table

        df = pd.DataFrame(
            {
                "repo": [f"o/r{i % 3}" for i in range(40)],
                "path": [f"f{i}.py" for i in range(40)],
                "commit": ["c" * 40] * 40,
                "lang": ["python"] * 40,
                "content": [f"x = {i % 7}\n" for i in range(40)],
            }
        )
        for part in range(4):
            df.iloc[part * 10 : part * 10 + 10].to_parquet(
                tmp_path / f"part-{part}.parquet"
            )
        ds = read_code_table(str(tmp_path), columns=columns)
        blocks = [ray_session.get(r) for r in ds.materialize().to_arrow_refs()]
        assert blocks and all(b.schema.metadata is None for b in blocks)
        cols = columns or list(df.columns)
        assert ds.schema().names == cols
        got = pd.concat([b.to_pandas() for b in blocks]).sort_values(cols)
        want = df[cols].sort_values(cols)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True)
        )

    @pytest.mark.skipif(not SF_SMALL.is_dir(), reason="sf0.001 tables not present")
    @pytest.mark.parametrize("table", SF_TABLES)
    def test_sf_tables_read_whole_and_metadata_free(self, ray_session, table):
        import pyarrow.parquet as pq

        from duplicate_finder_ray.sources.code_table import read_code_table

        path = str(SF_SMALL / f"{table}.parquet")
        ds = read_code_table(path)
        blocks = [ray_session.get(r) for r in ds.materialize().to_arrow_refs()]
        assert blocks and all(b.schema.metadata is None for b in blocks)
        got = pa.concat_tables(blocks)
        want = pq.read_table(path)
        assert got.schema.equals(want.schema.remove_metadata())
        assert sorted(map(str, got.to_pylist())) == sorted(
            map(str, want.to_pylist())
        )


class TestVerifyContentSubgroups:
    def test_forged_collision_splits_into_subgroups(self, ray_session):
        """Rows sharing (size, sha256) but not content — a forged hash
        collision — split into byte-identical subgroups: ``sha`` then
        ``sha#1`` in order of first appearance among the (repo, path,
        commit)-sorted rows; a singleton content drops out; ranks and
        keepers restart per subgroup. Contents that differ only after an
        embedded NUL stay apart."""
        import pyarrow as pa

        sha, size = "f" * 64, 3
        rows = [  # (path, content): contents differ only after a NUL
            ("a.py", "x\0b"),
            ("b.py", "x\0a"),
            ("c.py", "x\0c"),  # singleton content: not a duplicate
            ("d.py", "x\0b"),
            ("e.py", "x\0a"),
            ("f.py", "x\0b"),
        ]
        tbl = pa.table(
            {
                "file_id": [f"r:{p}@c" for p, _ in rows],
                "repo": ["r"] * len(rows),
                "path": [p for p, _ in rows],
                "commit": ["c"] * len(rows),
                "lang": ["py"] * len(rows),
                "size": pa.array([size] * len(rows), pa.int64()),
                "sha256": [sha] * len(rows),
                "content": [c for _, c in rows],
            }
        )
        # shuffle the input so the kernel's own sort decides the order
        ds = ray_session.data.from_arrow(tbl.take([5, 2, 0, 4, 1, 3]))
        members = exact.duplicate_members(
            ds, PipelineConfig(verify_content=True)
        ).to_pandas()
        got = sorted(
            zip(
                members["path"],
                members["group_id"],
                members["n_files"],
                members["rank"],
                members["is_keeper"],
            )
        )
        assert got == [
            ("a.py", sha, 3, 0, True),
            ("b.py", f"{sha}#1", 2, 0, True),
            ("d.py", sha, 3, 1, False),
            ("e.py", f"{sha}#1", 2, 1, False),
            ("f.py", sha, 3, 2, False),
        ]
        assert "content" not in members.columns


def pandas_members_kernel(tbl, verify_content: bool):
    """The members reduce as a pandas kernel (mergesort + groupby
    transforms): the reference the Arrow kernel must reproduce."""
    import pyarrow as pa
    import pyarrow.compute as pc

    keys = ["size", "sha256"]
    group_keys = [*keys, "content_id"] if verify_content else keys
    if verify_content:
        codes = pc.dictionary_encode(tbl["content"].combine_chunks()).indices
        tbl = tbl.drop_columns(["content"]).append_column("content_id", codes)
    part = tbl.to_pandas().sort_values(
        [*keys, "repo", "path", "commit"], kind="mergesort"
    )
    grp = part.groupby(group_keys, sort=False)
    part = part.assign(
        n_files=grp["file_id"].transform("size").astype("int64"),
        rank=grp.cumcount().astype("int64"),
    )
    part = part[part["n_files"] >= 2]
    if len(part) == 0:
        return exact.MEMBERS_SCHEMA.empty_table()
    gid = part["sha256"]
    if verify_content:
        n_started = (part["rank"] == 0).groupby(
            [part[c] for c in keys], sort=False
        ).cumsum()
        k = (n_started - 1).groupby(
            [part[c] for c in group_keys], sort=False
        ).transform("first")
        gid = gid.where(k == 0, gid + "#" + k.astype(str))
    part = part.assign(group_id=gid, is_keeper=part["rank"] == 0)
    return pa.Table.from_pandas(
        part[exact.MEMBERS_SCHEMA.names],
        schema=exact.MEMBERS_SCHEMA,
        preserve_index=False,
    )


def random_partition(rng, n_rows: int):
    """A seeded exchange partition: few distinct (sha, size) keys, one
    sha carried by two sizes, NUL-bearing and empty contents, non-ASCII
    repos, LICENSE next to LICENSE.txt, empty commits."""
    import pyarrow as pa

    shas = ["a" * 64, "b" * 64, "c" * 64]
    keys = [(shas[0], 3), (shas[0], 7), (shas[1], 3), (shas[2], 0)]
    repos = ["r", "ré", "日本", "r2"]
    paths = ["LICENSE", "LICENSE.txt", "a/b.py", "b.py", "Ä.md"]
    commits = ["", "c0", "c1"]
    contents = ["", "x\0a", "x\0b", "x", "ü"]
    rows = []
    for _ in range(n_rows):
        sha, size = keys[rng.integers(len(keys))]
        repo = repos[rng.integers(len(repos))]
        path = paths[rng.integers(len(paths))]
        commit = commits[rng.integers(len(commits))]
        rows.append(
            (f"{repo}:{path}@{commit}", repo, path, commit, "txt", size, sha,
             contents[rng.integers(len(contents))])
        )
    names = ["file_id", "repo", "path", "commit", "lang", "size", "sha256",
             "content"]
    cols = list(zip(*rows)) if rows else [[] for _ in names]
    return pa.table(
        {
            name: pa.array(col, pa.int64() if name == "size" else pa.string())
            for name, col in zip(names, cols)
        }
    )


class TestMembersKernel:
    @pytest.mark.parametrize("verify_content", [False, True])
    def test_matches_pandas_kernel(self, verify_content):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(300):
            tbl = random_partition(rng, int(rng.integers(0, 61)))
            if not verify_content:
                tbl = tbl.drop_columns(["content"])
            want = pandas_members_kernel(tbl, verify_content)
            got = exact.members_kernel(tbl, verify_content)
            assert got.equals(want), (got.to_pandas(), want.to_pandas())


class TestMinimalSchema:
    def test_lang_column_optional(self, ray_session):
        """The library surface accepts the minimal (repo, path, commit,
        content) schema: lang is derived from the path extension (same
        convention as the filesystem source) when absent."""
        df = pd.DataFrame(
            {
                "repo": ["r"] * 4,
                "path": ["x.py", "y.py", "LICENSE", "LICENSE.txt"],
                "commit": [""] * 4,
                "content": ["dup", "dup", "mit\n", "mit\n"],
            }
        )
        res = DedupPipeline(PipelineConfig()).run_on(ray_session.data.from_pandas(df))
        members = res.members.to_pandas().set_index("path")
        assert len(members) == 4
        assert members.loc["x.py", "lang"] == "py"
        assert members.loc["LICENSE", "lang"] == "none"
        assert res.tally()["n_deleted"] == 2

    def test_groups_schema_survives_empty(self, ray_session):
        """groups (not just members) keeps its typed schema when the
        corpus has zero duplicates — Ray's groupby-aggregate over an
        empty stream otherwise yields a schema-less Dataset."""
        df = pd.DataFrame(
            {
                "repo": ["r", "r"],
                "path": ["a.py", "b.py"],
                "commit": ["", ""],
                "content": ["one", "twotwo"],
            }
        )
        res = DedupPipeline(PipelineConfig()).run_on(ray_session.data.from_pandas(df))
        schema = res.groups.schema()
        assert schema.names == ["group_id", "size", "n_files"]
        assert res.groups.count() == 0
        assert_groups_aggregate_members(res)


class TestSorts:
    def test_sort_by_group_size(self, run):
        members = run(sort_by_group_size=True).members.to_pandas()
        n = members.drop_duplicates("group_id")["n_files"].tolist()
        assert n == sorted(n, reverse=True)

    def test_sort_by_file_size(self, run):
        members = run(sort_by_file_size=True).members.to_pandas()
        s = members.drop_duplicates("group_id")["size"].tolist()
        assert s == sorted(s, reverse=True)


class TestReport:
    def test_render_matches_reference_shape(self, run):
        members = run().members.to_pandas()
        text = render_text_report(members)
        assert "file(s)" in text and "Group 1/" in text
        # one header line per group
        n_groups = members["group_id"].nunique()
        assert text.count("Group ") == n_groups

    def test_empty_report(self):
        empty = pd.DataFrame(
            {"group_id": [], "rank": [], "size": [], "file_id": []}
        )
        assert render_text_report(empty) == "No duplicate files found.\n"


class TestPoisonRows:
    def test_null_content_skipped_with_warning(self, ray_session):
        """Reference skip-don't-crash parity (duplicate_finder.py:235-237):
        a NULL content cell (the table analogue of an unreadable file)
        drops that row, never the pipeline."""
        import pandas as pd

        from duplicate_finder_ray import DedupPipeline, PipelineConfig

        df = pd.DataFrame(
            {
                "repo": ["r"] * 4,
                "path": ["a.py", "b.py", "c.py", "d.py"],
                "commit": ["c"] * 4,
                "lang": ["py"] * 4,
                "content": ["x" * 10, "x" * 10, None, "y"],
            }
        )
        res = DedupPipeline(PipelineConfig()).run_on(
            ray_session.data.from_pandas(df)
        )
        got = sorted((r["path"], r["is_keeper"]) for r in res.members.take_all())
        assert got == [("a.py", True), ("b.py", False)]


class TestKeepersByDepth:
    def _members(self, rows):
        """rows: (file_id, repo, path, commit, group_id)"""
        import pyarrow as pa

        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "file_id": pa.array([r[0] for r in rows]),
                    "repo": pa.array([r[1] for r in rows]),
                    "path": pa.array([r[2] for r in rows]),
                    "commit": pa.array([r[3] for r in rows]),
                    "group_id": pa.array([r[4] for r in rows]),
                }
            )
        ).repartition(2)

    def test_shallowest_wins_ties_lex(self, ray_session):
        from duplicate_finder_ray.stages.exact import keepers_by_depth

        rows = [
            # group g1: vendored copy is deeper -> canonical src wins
            ("f1", "r1", "third_party/foo/src/lib.c", "c1", "g1"),
            ("f2", "r1", "src/lib.c", "c1", "g1"),
            # group g2: equal depth -> (repo, path, commit) lex tie-break
            ("f3", "rB", "a/x.py", "c1", "g2"),
            ("f4", "rA", "z/x.py", "c1", "g2"),
            ("f5", "rA", "z/x.py", "c0", "g2"),
        ]
        out = {
            r["group_id"]: r
            for r in keepers_by_depth(self._members(rows), 4).take_all()
        }
        assert out["g1"]["file_id"] == "f2" and out["g1"]["depth"] == 1
        assert out["g2"]["file_id"] == "f5"  # rA < rB, then commit c0 < c1
        assert len(out) == 2

    def test_partition_invariant(self, ray_session):
        import numpy as np

        from duplicate_finder_ray.stages.exact import keepers_by_depth

        rng = np.random.default_rng(3)
        rows = []
        for i in range(300):
            g = f"g{int(rng.integers(0, 40))}"
            depth = int(rng.integers(0, 4))
            path = "/".join(["d"] * depth + [f"f{i}.py"])
            rows.append((f"f{i}", f"r{int(rng.integers(0, 5))}", path, "c", g))
        a = sorted(
            (r["group_id"], r["file_id"])
            for r in keepers_by_depth(self._members(rows), 2).take_all()
        )
        b = sorted(
            (r["group_id"], r["file_id"])
            for r in keepers_by_depth(self._members(rows), 16).take_all()
        )
        assert a == b
        # python oracle: min by (depth, repo, path, commit) per group
        want = {}
        for fid, repo, path, commit, g in rows:
            key = (path.count("/"), repo, path, commit)
            if g not in want or key < want[g][0]:
                want[g] = (key, fid)
        assert a == sorted((g, fid) for g, (_, fid) in want.items())


def pandas_in_exchange_reduces(source: str) -> list[str]:
    """Names of ``hash_exchange`` reduce functions in ``source`` that
    reach ``to_pandas``/``from_pandas``, directly or through a function
    of the same module they call by name."""
    import ast

    tree = ast.parse(source)
    defs = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }

    def reaches_pandas(name: str, seen: set[str]) -> bool:
        if name in seen or name not in defs:
            return False
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and node.attr in (
                "to_pandas",
                "from_pandas",
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and reaches_pandas(node.func.id, seen)
            ):
                return True
        return False

    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash_exchange"
        ):
            continue
        reduce = [kw.value for kw in node.keywords if kw.arg == "reduce_fn"]
        reduce = reduce or node.args[3:4]
        if reduce and isinstance(reduce[0], ast.Name):
            if reaches_pandas(reduce[0].id, set()):
                found.append(reduce[0].id)
    return found


class TestExchangeReducesStayArrow:
    def test_exact_reduces_never_convert_to_pandas(self):
        from pathlib import Path

        source = Path(exact.__file__).read_text()
        assert "hash_exchange(" in source
        assert pandas_in_exchange_reduces(source) == [], (
            "an exchange reduce in stages/exact.py converts to pandas; "
            "sort with pc.sort_indices and take runs instead"
        )

    def test_guard_sees_a_pandas_reduce(self):
        old = (
            "def helper(t):\n"
            "    return t.to_pandas()\n"
            "def kernel(p, tbl):\n"
            "    return helper(tbl)\n"
            "hash_exchange(ds, 'k', 8, kernel, empty)\n"
            "hash_exchange(ds, 'k', 8, reduce_fn=kernel, empty=empty)\n"
        )
        assert pandas_in_exchange_reduces(old) == ["kernel", "kernel"]
