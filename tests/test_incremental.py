"""Incremental dedup: new batch vs existing baseline digest table."""

from __future__ import annotations

import pandas as pd
import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.incremental import (
    IncrementalDedup,
    _digests,
)


@pytest.fixture()
def baseline_digests(ray_session):
    df = pd.DataFrame(
        {
            "repo": ["rA", "rA", "rB"],
            "path": ["x.py", "y.py", "z.py"],
            "commit": ["c"] * 3,
            "content": [b"alpha", b"beta", b"alpha"],
        }
    )
    return _digests(ray_session.data.from_pandas(df))


def run_inc(ray_session, baseline, rows):
    inc = ray_session.data.from_pandas(pd.DataFrame(rows))
    res = IncrementalDedup(PipelineConfig()).run(baseline, inc)
    return res, res.members.to_pandas().set_index("file_id")


def test_matches_and_new_groups(ray_session, baseline_digests):
    res, m = run_inc(
        ray_session,
        baseline_digests,
        {
            "repo": ["rC"] * 4,
            "path": ["p.py", "q.py", "r.py", "s.py"],
            "commit": ["c"] * 4,
            "content": [b"alpha", b"gamma", b"gamma", b"delta"],
        },
    )
    assert res.n_matched_baseline == 1
    p = m.loc["rC:p.py@c"]
    # duplicate of the baseline: never a keeper; keeper is the
    # lexicographically-smallest baseline copy (rA:x.py < rB:z.py)
    assert p.matched_baseline and not p.is_keeper
    assert p.baseline_keeper == "rA:x.py@c"
    # increment-only group: tuple-lexicographic keeper
    assert m.loc["rC:q.py@c"].is_keeper and not m.loc["rC:r.py@c"].is_keeper
    assert m.loc["rC:q.py@c"].baseline_keeper == ""
    # singleton keeps itself
    assert m.loc["rC:s.py@c"].is_keeper and not m.loc["rC:s.py@c"].matched_baseline


def test_empty_increment(ray_session, baseline_digests):
    import pyarrow as pa

    inc = ray_session.data.from_arrow(
        pa.table(
            {
                "repo": pa.array([], pa.string()),
                "path": pa.array([], pa.string()),
                "commit": pa.array([], pa.string()),
                "content": pa.array([], pa.binary()),
            }
        )
    )
    res = IncrementalDedup(PipelineConfig()).run(baseline_digests, inc)
    assert res.members.count() == 0
    assert res.n_matched_baseline == 0
    assert set(res.members.schema().names) >= {"file_id", "is_keeper"}


def test_same_sha_requires_same_size_is_impossible_but_handled(
    ray_session, baseline_digests
):
    # size participates in the group key alongside sha256 (mirrors the
    # full pipeline's size-then-hash grouping); equal content always
    # yields equal (size, sha) so matching is by content in practice
    res, m = run_inc(
        ray_session,
        baseline_digests,
        {
            "repo": ["rZ"],
            "path": ["only.py"],
            "commit": ["c"],
            "content": [b"beta"],
        },
    )
    assert res.n_matched_baseline == 1
    assert m.loc["rZ:only.py@c"].baseline_keeper == "rA:y.py@c"


def test_full_rescan_equivalence(ray_session):
    """Incremental(baseline, inc) must agree with a full DedupPipeline
    over baseline ∪ increment: same groups, same eventual keepers."""
    from duplicate_finder_ray.pipelines.dedup import DedupPipeline

    base_rows = pd.DataFrame(
        {
            "repo": ["r1"] * 3,
            "path": [f"b{i}.py" for i in range(3)],
            "commit": ["c"] * 3,
            "content": [b"one", b"two", b"one"],
        }
    )
    inc_rows = pd.DataFrame(
        {
            "repo": ["r2"] * 3,
            "path": [f"i{i}.py" for i in range(3)],
            "commit": ["c"] * 3,
            "content": [b"one", b"three", b"three"],
        }
    )
    baseline = _digests(ray_session.data.from_pandas(base_rows))
    res = IncrementalDedup(PipelineConfig()).run(
        baseline, ray_session.data.from_pandas(inc_rows)
    )
    m = res.members.to_pandas().set_index("file_id")

    full = DedupPipeline(PipelineConfig()).run_on(
        ray_session.data.from_pandas(pd.concat([base_rows, inc_rows]))
    )
    fm = full.members.to_pandas().set_index("file_id")
    # r2:i0 (content "one") joins the baseline group whose keeper is
    # r1:b0 — exactly what the full rescan elects
    assert not m.loc["r2:i0.py@c"].is_keeper
    assert m.loc["r2:i0.py@c"].baseline_keeper == "r1:b0.py@c"
    assert fm.loc["r1:b0.py@c"].is_keeper
    assert not fm.loc["r2:i0.py@c"].is_keeper
    # increment-only dup group ("three"): same keeper under both paths
    assert m.loc["r2:i1.py@c"].is_keeper
    assert fm.loc["r2:i1.py@c"].is_keeper
    assert not fm.loc["r2:i2.py@c"].is_keeper


def test_baseline_ownership_beats_tuple_order(ray_session):
    """An increment file whose (repo, path, commit) sorts before every
    baseline copy still joins the baseline group: it is no keeper, and
    the baseline's own minimum stays the group's keeper."""
    base = pd.DataFrame(
        {
            "repo": ["r7", "r5"],
            "path": ["a.py", "b.py"],
            "commit": ["c", "c"],
            "content": [b"shared", b"shared"],
        }
    )
    res, m = run_inc(
        ray_session,
        _digests(ray_session.data.from_pandas(base)),
        {"repo": ["r0"], "path": ["a.py"], "commit": ["c"], "content": [b"shared"]},
    )
    row = m.loc["r0:a.py@c"]
    assert row.matched_baseline and not row.is_keeper
    assert row.baseline_keeper == "r5:b.py@c"
    assert res.n_matched_baseline == 1


def _file_rows(rng, repo: str, n: int, pool: list[bytes]) -> pd.DataFrame:
    """``n`` files over two repos; each repo holds ``LICENSE`` and
    ``LICENSE.txt`` side by side, whose (repo, path, commit) order is
    the reverse of their file_id order ('.' < '@')."""
    ext = ["", "", ".txt", ".txt"]
    return pd.DataFrame(
        {
            "repo": [f"{repo}{i % 2}" for i in range(n)],
            "path": [f"p{i // 4}/LICENSE{ext[i % 4]}" for i in range(n)],
            "commit": ["c"] * n,
            "content": [pool[j] for j in rng.integers(0, len(pool), n)],
        }
    )


def _incremental_truth(base: pd.DataFrame, inc: pd.DataFrame) -> pd.DataFrame:
    """Row-by-row statement of the incremental rule: a (size, sha256)
    group with a baseline copy is owned by the baseline's minimum
    (repo, path, commit) tuple; any other group keeps its increment
    minimum."""
    import hashlib

    def digest(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            file_id=df["repo"] + ":" + df["path"] + "@" + df["commit"],
            size=[len(c) for c in df["content"]],
            sha256=[hashlib.sha256(c).hexdigest() for c in df["content"]],
            tup=list(zip(df["repo"], df["path"], df["commit"])),
        )

    base, inc = digest(base), digest(inc)
    rows = []
    for r in inc.itertuples():

        def same(d: pd.DataFrame) -> pd.DataFrame:
            return d[(d["size"] == r.size) & (d["sha256"] == r.sha256)]

        owners = same(base)
        matched = len(owners) > 0
        rows.append(
            {
                "file_id": r.file_id,
                "size": r.size,
                "sha256": r.sha256,
                "group_id": r.sha256,
                "is_keeper": not matched and r.tup == min(same(inc)["tup"]),
                "matched_baseline": matched,
                "baseline_keeper": (
                    owners.loc[owners["tup"].idxmin(), "file_id"] if matched else ""
                ),
            }
        )
    return pd.DataFrame(rows).sort_values("file_id").reset_index(drop=True)


def test_seeded_parity_with_truth(ray_session):
    """Every column and the matched count against the row-by-row rule:
    multi-copy baseline groups, equal sizes with different digests,
    increment-only groups and singletons, prefix paths whose tuple
    order differs from their file_id order, several partitions."""
    import numpy as np

    rng = np.random.default_rng(7)
    # equal-size contents that differ, plus distinct sizes
    pool = [b"aaaa", b"aaab", b"abab", b"xyz", b"", b"longer content"]
    inc_pool = pool[:3] + [b"fresh1", b"fresh2", b"only once"]
    base = _file_rows(rng, "b", 30, pool)
    inc = _file_rows(rng, "i", 24, inc_pool)
    base.loc[[0, 2], "content"] = inc.loc[0, "content"] = pool[0]
    inc.loc[len(inc)] = ["i9", "solo.py", "c", b"unique to the increment"]
    res = IncrementalDedup(PipelineConfig(parallelism=3)).run(
        _digests(ray_session.data.from_pandas(base).repartition(3)),
        ray_session.data.from_pandas(inc).repartition(4),
    )
    got = res.members.to_pandas().sort_values("file_id").reset_index(drop=True)
    want = _incremental_truth(base, inc)
    assert want["matched_baseline"].any() and not want["matched_baseline"].all()
    # the tuple rule, not the file_id minimum "b0:p0/LICENSE.txt@c"
    assert got.set_index("file_id").loc["i0:p0/LICENSE@c", "baseline_keeper"] == (
        "b0:p0/LICENSE@c"
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert res.n_matched_baseline == int(want["matched_baseline"].sum())


class TestIncrementalNearDup:
    @staticmethod
    def _mk(ray_session, cfg, base_rows):
        from duplicate_finder_ray.stages import neardup
        from duplicate_finder_ray.stages.derive import add_identity

        wid = ray_session.data.from_pandas(base_rows).map_batches(
            add_identity, batch_format="pyarrow"
        )
        return neardup.signatures(
            wid.select_columns(["file_id", "content"]), cfg, emit_shingles=True
        ).materialize()

    @staticmethod
    def _docs():
        import numpy as np

        words = [f"w{i}" for i in range(60)]

        def doc(seed, n=120):
            r = np.random.default_rng(seed)
            return " ".join(r.choice(words, size=n).tolist())

        base_docs = [doc(i) for i in range(6)]
        near = base_docs[2].split()
        near[0], near[5] = "CHANGED", "ALSO"
        inc_docs = [" ".join(near), doc(100), doc(101)]
        t = inc_docs[1].split()
        t[3] = "X"
        inc_docs[2] = " ".join(t)
        return base_docs, inc_docs

    def test_joins_baseline_cluster_and_forms_new(self, ray_session):
        from duplicate_finder_ray.pipelines.incremental import IncrementalNearDup

        base_docs, inc_docs = self._docs()
        base = pd.DataFrame(
            {"repo": ["b"] * 6, "path": [f"f{i}.py" for i in range(6)],
             "commit": ["c"] * 6, "content": base_docs}
        )
        inc = pd.DataFrame(
            {"repo": ["i"] * 3, "path": [f"g{i}.py" for i in range(3)],
             "commit": ["c"] * 3, "content": inc_docs}
        )
        cfg = PipelineConfig(jaccard_threshold=0.5)
        res = IncrementalNearDup(cfg).run(
            self._mk(ray_session, cfg, base), ray_session.data.from_pandas(inc)
        )
        p = res.pairs.to_pandas()
        lab = res.labels.to_pandas().set_index("file_id")
        assert res.n_matched_baseline == 1
        assert lab.loc["i:g0.py@c"].component == "b:f2.py@c"
        assert (
            lab.loc["i:g1.py@c"].component
            == lab.loc["i:g2.py@c"].component
            == "i:g1.py@c"
        )
        # baseline×baseline pairs are never re-reported
        assert not (
            p.a.str.startswith("b:") & p.b.str.startswith("b:")
        ).any()

    def test_matches_full_rescan_on_increment_pairs(self, ray_session):
        """Pairs touching the increment must equal the full pipeline's
        increment-touching pairs over baseline ∪ increment (identical
        shingle/signature config ⇒ identical band collisions)."""
        from duplicate_finder_ray.pipelines.incremental import IncrementalNearDup
        from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

        base_docs, inc_docs = self._docs()
        base = pd.DataFrame(
            {"repo": ["b"] * 6, "path": [f"f{i}.py" for i in range(6)],
             "commit": ["c"] * 6, "content": base_docs}
        )
        inc = pd.DataFrame(
            {"repo": ["i"] * 3, "path": [f"g{i}.py" for i in range(3)],
             "commit": ["c"] * 3, "content": inc_docs}
        )
        cfg = PipelineConfig(jaccard_threshold=0.5)
        res = IncrementalNearDup(cfg).run(
            self._mk(ray_session, cfg, base), ray_session.data.from_pandas(inc)
        )
        got = {
            (r.a, r.b, round(r.jaccard, 9))
            for r in res.pairs.to_pandas().itertuples()
        }
        full = NearDupPipeline(cfg).run_on(
            ray_session.data.from_pandas(pd.concat([base, inc]))
        )
        want = {
            (r.a, r.b, round(r.jaccard, 9))
            for r in full.pairs.to_pandas().itertuples()
            if r.a.startswith("i:") or r.b.startswith("i:")
        }
        assert got == want

    def test_empty_increment_near_dup(self, ray_session):
        import pyarrow as pa

        from duplicate_finder_ray.pipelines.incremental import IncrementalNearDup

        base = pd.DataFrame(
            {"repo": ["b"], "path": ["f.py"], "commit": ["c"],
             "content": ["some content words here beyond the shingle size ok"]}
        )
        cfg = PipelineConfig(jaccard_threshold=0.5)
        inc = ray_session.data.from_arrow(
            pa.table(
                {"repo": pa.array([], pa.string()),
                 "path": pa.array([], pa.string()),
                 "commit": pa.array([], pa.string()),
                 "content": pa.array([], pa.string())}
            )
        )
        res = IncrementalNearDup(cfg).run(self._mk(ray_session, cfg, base), inc)
        assert res.pairs.count() == 0
        assert res.labels.count() == 0
        assert res.n_matched_baseline == 0

    def test_chain_counts_component_members(self, ray_session):
        """inc2 matches only inc1 and inc1 matches the baseline file:
        both increment files share the baseline-rooted component, so
        both count as matched."""
        from duplicate_finder_ray.pipelines.incremental import IncrementalNearDup

        words = [f"t{i}" for i in range(200)]
        base_doc = list(words)
        inc1 = list(base_doc)
        for i in range(0, 100, 10):
            inc1[i] = f"x{i}"
        inc2 = list(inc1)
        for i in range(100, 200, 10):
            inc2[i] = f"y{i}"
        base = pd.DataFrame(
            {"repo": ["b"], "path": ["f.py"], "commit": ["c"],
             "content": [" ".join(base_doc)]}
        )
        inc = pd.DataFrame(
            {"repo": ["i", "i"], "path": ["g1.py", "g2.py"], "commit": ["c"] * 2,
             "content": [" ".join(inc1), " ".join(inc2)]}
        )
        cfg = PipelineConfig(jaccard_threshold=0.5)
        res = IncrementalNearDup(cfg).run(
            self._mk(ray_session, cfg, base), ray_session.data.from_pandas(inc)
        )
        pairs = {(r.a, r.b) for r in res.pairs.to_pandas().itertuples()}
        assert pairs == {("b:f.py@c", "i:g1.py@c"), ("i:g1.py@c", "i:g2.py@c")}
        lab = res.labels.to_pandas().set_index("file_id")["component"]
        assert dict(lab) == {"i:g1.py@c": "b:f.py@c", "i:g2.py@c": "b:f.py@c"}
        assert res.n_matched_baseline == 2
