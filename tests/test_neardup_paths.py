"""Path equivalence of the near-dup pipeline: every size-threshold
switch, forced to its other side alone and all together, gives the
default run's pairs (all six columns) and labels.

The switches:

- ``BAND_EXCHANGE_BROADCAST_LIMIT = 0``: the band exchange instead of
  the one fused candidate task;
- ``PAIR_DEDUPE_BROADCAST_LIMIT = 0``: the grouped-aggregate pair
  dedupe instead of the one-task dedupe;
- ``broadcast_verify_limit = 0``: the sharded verify CSRs instead of
  one, with the shard split prestarted under the candidates stage and
  with it launched by the verify;
- ``cc._EDGES_PER_BUCKET = 1``: connected components over more than
  one bucket.

The corpora: the planted fixture, an empty corpus, an all-identical
one and a one-hot-bucket one (many files sharing a long header)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
from duplicate_finder_ray.sources.code_table import synthetic_code_corpus
from duplicate_finder_ray.stages import cc, neardup

PAIR_COLS = ["a", "b", "n_bands", "jaccard", "n_inter", "n_union"]
BASE = {"jaccard_threshold": 0.8}
SHARDED = {"broadcast_verify_limit": 0}


def _table(contents: list[str]) -> pa.Table:
    n = len(contents)
    return pa.table(
        {
            "repo": pa.array([f"org/r{i % 7}" for i in range(n)], pa.string()),
            "path": pa.array([f"src/f{i}.py" for i in range(n)], pa.string()),
            "commit": pa.array([f"{i:040d}" for i in range(n)], pa.string()),
            "lang": pa.array(["python"] * n, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def _one_hot_bucket() -> pa.Table:
    """Sixty files behind one 150-token header, with bodies of 5 to 64
    tokens: every file shares the header's band keys, and only the
    short-bodied pairs verify."""
    rng = np.random.default_rng(3)
    header = " ".join(f"hdr{i}" for i in range(150))
    return _table(
        [
            header + " " + " ".join(f"w{rng.integers(10**6)}" for _ in range(5 + i))
            for i in range(60)
        ]
    )


CORPORA = {
    "planted": lambda: pa.Table.from_pandas(
        synthetic_code_corpus(300, seed=11), preserve_index=False
    ),
    "empty": lambda: _table([]),
    "identical": lambda: _table(["def f(x):\n    return x + alpha * beta\n" * 8] * 40),
    "one_hot_bucket": _one_hot_bucket,
}

#: (module constant overrides, config overrides) per forced case
SWITCHES = {
    "band_exchange": ({(neardup, "BAND_EXCHANGE_BROADCAST_LIMIT"): 0}, {}),
    "pair_dedupe": ({(neardup, "PAIR_DEDUPE_BROADCAST_LIMIT"): 0}, {}),
    "verify_shards_prestarted": ({}, {**SHARDED, "verify_prestart_shards": True}),
    "verify_shards_inline": ({}, {**SHARDED, "verify_prestart_shards": False}),
    "cc_buckets": ({(cc, "_EDGES_PER_BUCKET"): 1}, {}),
    "all": (
        {
            (neardup, "BAND_EXCHANGE_BROADCAST_LIMIT"): 0,
            (neardup, "PAIR_DEDUPE_BROADCAST_LIMIT"): 0,
            (cc, "_EDGES_PER_BUCKET"): 1,
        },
        SHARDED,
    ),
}


def _run(ray_session, corpus: str, cfg: dict) -> tuple[list, list]:
    res = NearDupPipeline(PipelineConfig(**BASE, **cfg)).run_on(
        ray_session.data.from_arrow(CORPORA[corpus]())
    )
    pairs = res.pairs.to_pandas()
    labels = res.labels.to_pandas()
    return (
        sorted(pairs[PAIR_COLS].itertuples(index=False, name=None))
        if len(pairs)
        else [],
        sorted(labels[["file_id", "component"]].itertuples(index=False, name=None))
        if len(labels)
        else [],
    )


@pytest.fixture(scope="module")
def default_runs(ray_session):
    return {name: _run(ray_session, name, {}) for name in CORPORA}


def test_default_runs_cover_the_corpora(default_runs):
    """The planted, identical and one-hot-bucket corpora give pairs
    and labels on the default paths; the empty one gives neither."""
    assert default_runs["empty"] == ([], [])
    for name in ("planted", "identical", "one_hot_bucket"):
        pairs, labels = default_runs[name]
        assert pairs and labels, name
    assert len(default_runs["identical"][0]) == 40 * 39 // 2


@pytest.mark.parametrize("corpus", list(CORPORA))
@pytest.mark.parametrize("switch", list(SWITCHES))
def test_forced_path_matches_default(
    ray_session, default_runs, monkeypatch, switch, corpus
):
    constants, cfg = SWITCHES[switch]
    for (module, name), value in constants.items():
        monkeypatch.setattr(module, name, value)
    assert _run(ray_session, corpus, cfg) == default_runs[corpus]
