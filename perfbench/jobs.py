"""The untraced jobs and the checks of their outputs.

A job starts at its first Dataset call and ends at its last
``count()``; every check runs after that, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
from duplicate_finder_ray.sources.code_table import read_code_table
from duplicate_finder_ray.stages import exact

#: the code-table columns both pipelines read
COLUMNS = ["repo", "path", "commit", "lang", "content"]
#: the planted pairs a correct run finds: banding detects a pair at
#: Jaccard 0.8 with probability 1 - (1 - 0.8**4)**32 > 0.9999999
RECALL_FLOOR = 0.999


def config(num_cpus: int) -> PipelineConfig:
    """Engine defaults, with the parallelism pinned to the session width
    so the job does not depend on the host's CPU count."""
    return PipelineConfig(parallelism=num_cpus)


@dataclass
class JobOutput:
    counts: dict = field(default_factory=dict)
    members: object = None   # materialized exact members
    pairs: object = None     # materialized verified near-dup pairs
    labels: object = None    # materialized component labels


def run_job(corpus: Path, cfg: PipelineConfig, exact_dedup: bool,
            near_dup: bool) -> JobOutput:
    out = JobOutput()
    if exact_dedup:
        res = DedupPipeline(cfg).run(str(corpus))
        out.members = res.members.materialize()
        out.counts["members"] = out.members.count()
        out.counts["groups"] = exact.groups_from_members(out.members).count()
    if near_dup:
        res = NearDupPipeline(cfg).run_on(read_code_table(str(corpus), columns=COLUMNS))
        out.pairs = res.pairs
        out.labels = res.labels.materialize()
        out.counts["signatures"] = res.signatures.count()
        out.counts["verified"] = res.pairs.count()
        out.counts["labels"] = out.labels.count()
    return out


# -- checks -----------------------------------------------------------


@dataclass
class Check:
    errors: list = field(default_factory=list)
    recall: float | None = None
    precision: float | None = None

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{what}: got {got}, expected {want}")


def _recall_precision(found: set, truth: set) -> tuple[float, float]:
    hit = len(found & truth)
    recall = hit / len(truth) if truth else 1.0
    precision = hit / len(found) if found else 1.0
    return recall, precision


def check_exact(out: JobOutput, truth: pd.DataFrame, chk: Check) -> None:
    """Member count, group count, keeper set and member set against the
    independent hashlib/pandas grouping."""
    got = out.members.select_columns(["file_id", "is_keeper"]).to_pandas()
    chk.expect("exact members", out.counts["members"], len(truth))
    chk.expect("exact groups", out.counts["groups"], int(truth["is_keeper"].sum()))
    keepers = set(got.loc[got["is_keeper"], "file_id"])
    want_keepers = set(truth.loc[truth["is_keeper"], "file_id"])
    if keepers != want_keepers:
        chk.errors.append(
            f"exact keepers: {len(keepers ^ want_keepers)} differ from truth"
        )
    chk.recall, chk.precision = _recall_precision(
        set(got["file_id"]), set(truth["file_id"])
    )


def _components(pairs) -> set[frozenset]:
    """Connected components of an edge list, by union-find."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def check_neardup(out: JobOutput, truth: pd.DataFrame, chk: Check) -> None:
    """Verified pairs against the planted pairs (recall, precision), and
    the component labels against a union-find over the same pairs."""
    got = out.pairs.select_columns(["a", "b"]).to_pandas()
    found = set(zip(got["a"], got["b"]))
    chk.recall, chk.precision = _recall_precision(
        found, set(zip(truth["a"], truth["b"]))
    )
    if chk.recall < RECALL_FLOOR:
        chk.errors.append(f"near-dup recall {chk.recall:.6f} < {RECALL_FLOOR}")
    if chk.precision < 1.0:
        chk.errors.append(f"near-dup precision {chk.precision:.6f} < 1")
    labels = out.labels.to_pandas()
    comps = {frozenset(g) for g in labels.groupby("component")["file_id"]
             .agg(frozenset)}
    if comps != _components(found):
        chk.errors.append("component labels differ from union-find over pairs")
