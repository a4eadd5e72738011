"""Type-2 clone detection (stages/clones.py) vs a Python re oracle."""

from __future__ import annotations

import hashlib
import re

import pandas as pd
import pytest

from duplicate_finder_ray.stages.clones import clone_groups_type2


def _code_df() -> pd.DataFrame:
    """Files engineered so Type-2 normalization merges renamed twins
    but exact sha256 would not: foo/bar differ only in identifier
    names, literals and layout; `loop` has different STRUCTURE; the
    two `same` files are byte-identical (exact dups are a subset of
    Type-2 clones); `solo` matches nothing."""
    rows = [
        ("r1", "a/foo.py", "c1", "py", "def foo(x):\n    return x + 1\n"),
        ("r2", "b/bar.py", "c2", "py", "def  bar( yy ) :\nreturn yy+42"),
        ("r1", "a/loop.py", "c3", "py", "for i in xs:\n    print(i)\n"),
        ("r2", "b/same.py", "c4", "py", "SAME = 1\n"),
        ("r3", "c/same.py", "c5", "py", "SAME = 1\n"),
        ("r3", "c/solo.py", "c6", "py", "class Q:\n    pass\n"),
    ]
    df = pd.DataFrame(
        rows, columns=["repo", "path", "commit", "lang", "content"]
    )
    df["file_id"] = df["repo"] + ":" + df["path"] + "@" + df["commit"]
    return df


def _oracle(df: pd.DataFrame, min_group: int = 2) -> pd.DataFrame:
    def norm(s: str) -> str:
        s = re.sub(r"[A-Za-z_][A-Za-z0-9_]*", "ID", s)
        s = re.sub(r"[0-9]+", "N", s)
        return re.sub(r"\s+", "", s)

    d = df.assign(
        clone_id=[
            hashlib.sha256(norm(c).encode()).hexdigest() for c in df["content"]
        ]
    )
    agg = d.groupby("clone_id").agg(
        n_files=("file_id", "size"),
        n_repos=("repo", "nunique"),
        rep_file=("file_id", "min"),
    )
    return (
        agg[agg["n_files"] >= min_group]
        .reset_index()
        .sort_values("clone_id")
        .reset_index(drop=True)
    )


@pytest.fixture()
def code_ds(ray_session):
    return ray_session.data.from_pandas(_code_df()).repartition(3)


def test_clone_groups_match_oracle(code_ds):
    got = (
        clone_groups_type2(code_ds, num_partitions=4)
        .to_pandas()
        .sort_values("clone_id")
        .reset_index(drop=True)
    )
    want = _oracle(_code_df())
    pd.testing.assert_frame_equal(
        got[["clone_id", "n_files", "n_repos", "rep_file"]], want
    )
    # foo/bar merged (renamed twins), the exact-dup pair merged, and
    # nothing else: exactly two clone groups
    assert len(got) == 2
    assert set(got["n_files"]) == {2}


def test_renamed_twins_share_fingerprint_structure_does_not(code_ds):
    got = clone_groups_type2(code_ds, num_partitions=2).to_pandas()
    members = set(got["rep_file"])
    # representatives are lexicographic minima of their groups
    assert "r1:a/foo.py@c1" in members  # foo < bar's r2 id
    assert "r2:b/same.py@c4" in members
    # loop.py / solo.py never appear in any group
    assert not any("loop" in m or "solo" in m for m in members)


def test_min_group_filter(code_ds):
    got = clone_groups_type2(code_ds, num_partitions=2, min_group=3)
    assert got.count() == 0


def test_bad_partitions_rejected(code_ds):
    with pytest.raises(ValueError):
        clone_groups_type2(code_ds, num_partitions=0)


def test_nul_differing_repos_count_apart(ray_session):
    """Repos that differ only after an embedded NUL are two repos."""
    df = pd.DataFrame(
        {
            "repo": ["r\0a", "r\0b"],
            "path": ["x.py", "x.py"],
            "commit": ["c", "c"],
            "lang": ["py", "py"],
            "content": ["x = 1\n", "y = 2\n"],
        }
    )
    df["file_id"] = df["repo"] + ":" + df["path"] + "@" + df["commit"]
    got = clone_groups_type2(ray_session.data.from_pandas(df), num_partitions=2)
    rows = got.to_pandas()
    assert len(rows) == 1
    assert rows["n_files"][0] == 2 and rows["n_repos"][0] == 2
    assert rows["rep_file"][0] == "r\0a:x.py@c"
