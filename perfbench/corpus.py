"""Seeded code-corpus generator and independent ground truth.

The benchmark owns its inputs: nothing here imports the engine, so an
engine change cannot silently change a workload. ``build(workload,
seed, cache_root)`` writes one Parquet shard directory per (workload,
seed, generator version) plus the truth files the output checks read:

* ``truth_exact.parquet`` — the exact-duplicate grouping, computed with
  hashlib + pandas: one row per member of a (size, sha256) group of two
  or more files, with its group key and keeper flag (keeper = smallest
  (repo, path, commit));
* ``truth_pairs.parquet`` — the planted near-duplicate pairs whose
  Jaccard over ``\\w+`` 5-token shingle sets is at least ``TAU``.

Near-duplicates are only ever planted inside a family (copies and
edited variants of one base document). Every token is drawn from a
100 k-word vocabulary, so two unrelated documents share essentially no
5-token shingle and cannot reach ``TAU``; the license header is only
put on documents of 100+ tokens, so a shared header alone stays far
below it.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

#: bump whenever generated bytes change, so stale caches are not reused
GEN_VERSION = 2
#: near-dup verify threshold and shingle length the truth is scored at
#: (the engine's defaults: jaccard_threshold=0.8, shingle_k=5)
TAU = 0.8
SHINGLE_K = 5
N_SHARDS = 8

_KEYWORDS = np.array(
    ["def", "return", "if", "else", "for", "in", "self", "import",
     "class", "None", "while", "and"],
    dtype=object,
)
_PREFIXES = ["get", "set", "tmp", "buf", "idx", "val", "node", "item"]
_VOCAB_SIZE = 100_000
#: token id i < _VOCAB_SIZE is an identifier, the rest are keywords
_WORDS = np.concatenate(
    [np.array([f"{_PREFIXES[i % 8]}_{i}" for i in range(_VOCAB_SIZE)],
              dtype=object), _KEYWORDS]
)
_LICENSE = (
    "Copyright The Example Authors Licensed under the Apache License "
    "Version 2 0 you may not use this file except in compliance with the "
    "License You may obtain a copy of the License at http www apache org"
)
_LINE = 8  # tokens per rendered line
_TOKEN_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class Spec:
    """Row count and the job a workload runs."""

    rows: int
    exact: bool
    neardup: bool


WORKLOADS = {
    "code_mix": Spec(rows=8_000, exact=True, neardup=True),
    "dense_families": Spec(rows=8_000, exact=False, neardup=True),
    "exact_bulk": Spec(rows=100_000, exact=True, neardup=False),
}


# -- token streams ----------------------------------------------------


def _tokens(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` token ids: one in five a keyword, the rest uniform over
    the vocabulary."""
    ids = rng.integers(0, _VOCAB_SIZE, n)
    kw = rng.random(n) < 0.2
    ids[kw] = _VOCAB_SIZE + rng.integers(0, len(_KEYWORDS), int(kw.sum()))
    return ids


def _render(ids: np.ndarray) -> str:
    words = _WORDS[ids].tolist()
    return "".join(
        " ".join(words[i:i + _LINE]) + "\n" for i in range(0, len(words), _LINE)
    )


def _bases(rng, lo: int, hi: int, count: int) -> list[np.ndarray]:
    """``count`` token-id documents of ``lo``..``hi - 1`` tokens."""
    if count <= 0:
        return []
    lengths = rng.integers(lo, hi, count)
    return np.split(_tokens(rng, int(lengths.sum())), np.cumsum(lengths)[:-1])


def _cluster_sizes(rng, lo: int, hi: int, rows: int) -> np.ndarray:
    """Random sizes in ``lo..hi - 1`` summing to at least ``rows``."""
    sizes = rng.integers(lo, hi, max(1, rows // lo + 1))
    return sizes[: int(np.searchsorted(np.cumsum(sizes), rows)) + 1]


def _token_edit(rng, ids: np.ndarray, n_edits: int) -> np.ndarray:
    out = ids.copy()
    pos = rng.choice(len(ids), n_edits, replace=False)
    out[pos] = _tokens(rng, n_edits)
    return out


def _line_edit(rng, ids: np.ndarray) -> np.ndarray:
    """Replace, insert or delete one line of the document."""
    n_lines = max(1, len(ids) // _LINE)
    at = int(rng.integers(0, n_lines)) * _LINE
    op = int(rng.integers(0, 3))
    if op == 0:
        return np.concatenate([ids[:at], _tokens(rng, _LINE), ids[at + _LINE:]])
    if op == 1:
        return np.concatenate([ids[:at], _tokens(rng, _LINE), ids[at:]])
    return np.concatenate([ids[:at], ids[at + _LINE:]])


# -- workload mixes ---------------------------------------------------


class _Rows:
    """Contents plus, per row, its planted near-dup family (copies or
    variants of one base document; -1 = none)."""

    def __init__(self) -> None:
        self.contents: list[str] = []
        self.family: list[int] = []
        self._next_family = 0

    def add(self, content: str, family: int = -1) -> None:
        self.contents.append(content)
        self.family.append(family)

    def add_family(self, members: list[str]) -> None:
        for c in members:
            self.add(c, self._next_family)
        self._next_family += 1


def _header(rng, ids: np.ndarray, share: float) -> str:
    """The license header for about ``share`` of documents of 100+
    tokens, else nothing."""
    return _LICENSE + "\n" if len(ids) >= 100 and rng.random() < share else ""


def _sized(rng, sizes: list[int]) -> list[str]:
    """Random contents of exactly the given byte sizes (every token
    renders to at least three bytes, so ``size // 2 + 1`` suffice)."""
    lengths = np.asarray(sizes, dtype=np.int64) // 2 + 1
    docs = np.split(_tokens(rng, int(lengths.sum())), np.cumsum(lengths)[:-1])
    return [_render(ids)[:size] for ids, size in zip(docs, sizes)]


def _code_mix(rng, n: int) -> _Rows:
    rows = _Rows()
    for _ in range(n // 100):  # empty files
        rows.add("")
    for ids in _bases(rng, 1, SHINGLE_K, n // 50):  # shorter than k tokens
        rows.add(_render(ids))
    for c in _sized(rng, [384] * (n // 20)):  # same size, different content
        rows.add(c)
    sizes = _cluster_sizes(rng, 2, 5, int(n * 0.12))  # exact-dup clusters
    for ids, k in zip(_bases(rng, 40, 300, len(sizes)), sizes):
        rows.add_family([_header(rng, ids, 0.2) + _render(ids)] * int(k))
    sizes = _cluster_sizes(rng, 2, 7, int(n * 0.15))  # line-edited families
    for base, k in zip(_bases(rng, 120, 300, len(sizes)), sizes):
        header = _header(rng, base, 0.2)
        variants = [base] + [_line_edit(rng, base) for _ in range(k - 1)]
        rows.add_family([header + _render(v) for v in variants])
    for ids in _bases(rng, 40, 300, n - len(rows.contents)):  # unique
        rows.add(_header(rng, ids, 0.2) + _render(ids))
    return rows


def _dense_families(rng, n: int) -> _Rows:
    rows = _Rows()
    sizes = _cluster_sizes(rng, 8, 25, int(n * 0.6))
    for base, k in zip(_bases(rng, 150, 301, len(sizes)), sizes):
        variants = [base] + [
            _token_edit(rng, base, int(rng.integers(1, 4))) for _ in range(k - 1)
        ]
        rows.add_family([_render(v) for v in variants])
    for ids in _bases(rng, 150, 301, n - len(rows.contents)):
        rows.add(_render(ids))
    return rows


def _exact_bulk(rng, n: int) -> _Rows:
    rows = _Rows()
    sizes = _cluster_sizes(rng, 2, 5, int(n * 0.3))  # exact-dup clusters
    for ids, k in zip(_bases(rng, 10, 60, len(sizes)), sizes):
        rows.contents.extend([_render(ids)] * int(k))
    # many same-size files with different content, over five sizes
    rows.contents.extend(
        _sized(rng, rng.choice([128, 192, 256, 320, 384], n // 4).tolist())
    )
    for ids in _bases(rng, 10, 60, n - len(rows.contents)):
        rows.contents.append(_render(ids))
    rows.family = [-1] * len(rows.contents)
    return rows


_MIXES = {
    "code_mix": _code_mix,
    "dense_families": _dense_families,
    "exact_bulk": _exact_bulk,
}


def generate(workload: str, seed: int, rows: int | None = None) -> pd.DataFrame:
    """The workload's code table (repo, path, commit, lang, content) plus
    a ``family`` column (planted near-dup family, -1 = none). Same
    (workload, seed, rows) → same frame."""
    n = WORKLOADS[workload].rows if rows is None else rows
    code = list(_MIXES).index(workload)
    rng = np.random.default_rng([seed, code, GEN_VERSION])
    mix = _MIXES[workload](rng, n)
    m = len(mix.contents)
    order = rng.permutation(m)
    n_repos = max(1, m // 40)
    repo_idx = rng.integers(0, n_repos, m)
    mega = rng.random(m) < 0.3  # one mega-repo holds ~30 % of rows
    repos = np.where(
        mega, "mega/monorepo",
        np.char.add(np.char.add("org", (repo_idx % 97).astype(str)),
                    np.char.add("/repo", repo_idx.astype(str))),
    )
    exts = np.array(["py", "c", "js", "go", "java"])
    ext = exts[rng.integers(0, len(exts), m)]
    langs = {"py": "python", "c": "c", "js": "javascript", "go": "go",
             "java": "java"}
    commits = rng.integers(0, 2**63, m).astype(np.uint64)
    return pd.DataFrame(
        {
            "repo": repos.astype(object),
            "path": [f"src/m{i // 100}/f{i}.{e}" for i, e in zip(range(m), ext)],
            "commit": [f"{c:016x}{c * 0x9E3779B97F4A7C15 % 2**64:016x}{i:08x}"
                       for i, c in enumerate(commits.tolist())],
            "lang": [langs[e] for e in ext],
            "content": [mix.contents[j] for j in order],
            "family": np.asarray(mix.family, dtype=np.int64)[order],
        }
    )


# -- ground truth -----------------------------------------------------


def file_ids(df: pd.DataFrame) -> pd.Series:
    """The engine's public row identity: ``repo:path@commit``."""
    return df["repo"] + ":" + df["path"] + "@" + df["commit"]


def exact_truth(df: pd.DataFrame) -> pd.DataFrame:
    """Members of every (size, sha256) group of two or more rows:
    ``file_id, group_key, is_keeper``."""
    raw = [c.encode("utf-8") for c in df["content"]]
    t = pd.DataFrame(
        {
            "file_id": file_ids(df),
            "repo": df["repo"], "path": df["path"], "commit": df["commit"],
            "group_key": [f"{len(b)}:{hashlib.sha256(b).hexdigest()}" for b in raw],
        }
    )
    t = t[t.groupby("group_key")["file_id"].transform("size") >= 2]
    t = t.sort_values(["group_key", "repo", "path", "commit"], kind="mergesort")
    t["is_keeper"] = ~t.duplicated("group_key")
    return t[["file_id", "group_key", "is_keeper"]].reset_index(drop=True)


def shingles(text: str) -> set[tuple[str, ...]]:
    toks = _TOKEN_RE.findall(text)
    return {tuple(toks[i:i + SHINGLE_K]) for i in range(len(toks) - SHINGLE_K + 1)}


def pair_truth(df: pd.DataFrame) -> pd.DataFrame:
    """Planted pairs (a < b by file_id) with shingle Jaccard ≥ TAU."""
    fam = df[df["family"] >= 0]
    fids = file_ids(fam).tolist()
    sets = [shingles(c) for c in fam["content"]]
    rows = []
    for idx in fam.groupby("family").indices.values():
        for i, j in combinations(idx, 2):
            a, b = sets[i], sets[j]
            if not a or not b:
                continue
            inter = len(a & b)
            jac = inter / (len(a) + len(b) - inter)
            if jac >= TAU:
                x, y = sorted((fids[i], fids[j]))
                rows.append((x, y, jac))
    return pd.DataFrame(rows, columns=["a", "b", "jaccard"])


# -- cache ------------------------------------------------------------


def build(workload: str, seed: int, cache_root: Path, rows: int | None = None) -> Path:
    """Generate (or reuse) the cached corpus + truth; returns its dir.
    ``meta.json`` is written last, so a directory without it is a
    partial build and is regenerated."""
    n = WORKLOADS[workload].rows if rows is None else rows
    out = Path(cache_root) / f"{workload}-n{n}-seed{seed}-gen{GEN_VERSION}"
    if (out / "meta.json").exists():
        return out
    if out.exists():
        shutil.rmtree(out)
    df = generate(workload, seed, n)
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    table = pa.Table.from_pandas(df.drop(columns=["family"]), preserve_index=False)
    step = -(-len(table) // N_SHARDS)
    for s in range(N_SHARDS):
        pq.write_table(table.slice(s * step, step), corpus / f"part-{s:02d}.parquet")
    truth = exact_truth(df)
    truth.to_parquet(out / "truth_exact.parquet", index=False)
    pairs = pair_truth(df)
    pairs.to_parquet(out / "truth_pairs.parquet", index=False)
    meta = {
        "workload": workload, "seed": seed, "gen_version": GEN_VERSION,
        "rows": len(df), "exact_members": len(truth),
        "exact_groups": int(truth["is_keeper"].sum()),
        "truth_pairs": len(pairs),
        "max_family": int(df.groupby("family").size().drop(-1, errors="ignore").max()
                          if (df["family"] >= 0).any() else 0),
    }
    (out / "meta.json").write_text(json.dumps(meta))
    return out
