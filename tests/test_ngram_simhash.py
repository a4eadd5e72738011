"""Oracle tests for the n-gram Jaccard brute-force stage and the
SimHash Hamming-radius pipeline (SURVEY.md §5: pipeline e2e vs a
brute-force oracle)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.stages.neardup import (
    ascii_shingle_hashes,
    ngram_jaccard_pairs,
    simhash_candidate_pairs,
)


@pytest.fixture(scope="module")
def salad_corpus() -> pd.DataFrame:
    """Deterministic word-salad docs with planted near-dup structure."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    rows = []
    for i in range(60):
        words = list(rng.choice(vocab, size=30))
        rows.append({"doc_id": i, "text": " ".join(words)})
        if i % 5 == 0:
            # exact copy and a 2-word edit variant
            rows.append({"doc_id": 1000 + i, "text": " ".join(words)})
            v = words.copy()
            v[3], v[17] = "zzz", "qqq"
            rows.append({"doc_id": 2000 + i, "text": " ".join(v)})
    rows.append({"doc_id": 9998, "text": ""})
    rows.append({"doc_id": 9999, "text": "too short"})
    return pd.DataFrame(rows)


def brute_jaccard_pairs(df: pd.DataFrame, k: int, tau: float) -> set[tuple[str, str]]:
    sets = {
        str(r.doc_id): set(ascii_shingle_hashes(r.text, k).tolist())
        for r in df.itertuples()
    }
    out = set()
    keys = sorted(sets)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            sa, sb = sets[a], sets[b]
            if not sa or not sb:
                continue
            j = len(sa & sb) / len(sa | sb)
            if j >= tau:
                out.add((a, b))
    return out

def test_ngram_jaccard_matches_brute_force(ray_session, salad_corpus):
    got_df = ngram_jaccard_pairs(
        ray_session.data.from_pandas(salad_corpus), "doc_id", "text", k=5, threshold=0.5
    ).to_pandas()
    got = set(zip(got_df["a"], got_df["b"]))
    want = brute_jaccard_pairs(salad_corpus, k=5, tau=0.5)
    assert got == want
    assert len(want) > 0  # planted structure actually fires
    # values: exact copies must score 1.0
    copies = got_df[
        got_df.apply(
            lambda r: int(r["b"]) - int(r["a"]) == 1000, axis=1
        )
    ]
    assert (copies["jaccard"] == 1.0).all() and len(copies) > 0


def test_ngram_jaccard_empty_and_short_docs_excluded(ray_session, salad_corpus):
    got_df = ngram_jaccard_pairs(
        ray_session.data.from_pandas(salad_corpus), "doc_id", "text", k=5, threshold=0.1
    ).to_pandas()
    ids = set(got_df["a"]) | set(got_df["b"])
    assert "9998" not in ids and "9999" not in ids


def test_simhash_pairs_match_brute_force(ray_session, salad_corpus):
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
    from duplicate_finder_ray.stages.derive import add_identity

    cfg = PipelineConfig()
    code = pd.DataFrame(
        {
            "repo": "r/x",
            "path": [f"f{d}.py" for d in salad_corpus["doc_id"]],
            "commit": "c" * 40,
            "lang": "text",
            "content": salad_corpus["text"],
        }
    )
    sigs = NearDupPipeline(cfg).signatures_for(
        ray_session.data.from_pandas(code), simhash=True
    ).materialize()
    got_df = simhash_candidate_pairs(sigs, cfg, max_hamming=3).to_pandas()
    got = set(zip(got_df["a"], got_df["b"]))

    sdf = sigs.to_pandas()
    sdf = sdf[sdf["n_shingles"] > 0].sort_values("file_id")
    fids = sdf["file_id"].to_numpy()
    fps = sdf["simhash"].to_numpy().astype(np.uint64)
    want = set()
    for i in range(len(fids)):
        x = np.bitwise_xor(fps[i], fps[i + 1 :])
        ham = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
        for off in np.nonzero(ham <= 3)[0]:
            want.add((fids[i], fids[i + 1 + off]))
    # pigeonhole banding at radius 3 with 4 blocks has FULL recall;
    # uncapped tiny corpus ⇒ exact set equality
    assert got == want
    assert len(want) > 0
    # reported hamming values are the true distances
    by_pair = dict(zip(zip(got_df["a"], got_df["b"]), got_df["hamming"]))
    fp_by_id = dict(zip(fids, fps))
    for (a, b), h in by_pair.items():
        true = int(
            bin(int(fp_by_id[a]) ^ int(fp_by_id[b])).count("1")
        )
        assert h == true


def brute_containment_pairs(
    df: pd.DataFrame, k: int, tau: float
) -> set[tuple[str, str]]:
    sets = {
        str(r.doc_id): set(ascii_shingle_hashes(r.text, k).tolist())
        for r in df.itertuples()
    }
    out = set()
    keys = sorted(sets)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            sa, sb = sets[a], sets[b]
            if not sa or not sb:
                continue
            if len(sa & sb) / min(len(sa), len(sb)) >= tau:
                out.add((a, b))
    return out


def test_containment_catches_subset_docs_jaccard_misses(ray_session):
    from duplicate_finder_ray.stages.neardup import ngram_containment_pairs

    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(50)]
    rows = []
    for i in range(20):
        words = list(rng.choice(vocab, size=12))
        rows.append({"doc_id": i, "text": " ".join(words)})
        if i % 4 == 0:
            # the small doc embedded verbatim in a 5x larger one:
            # containment(small, big) = 1.0 but Jaccard ~ 0.2
            filler = list(rng.choice(vocab, size=48))
            rows.append({"doc_id": 100 + i, "text": " ".join(words + filler)})
    df = pd.DataFrame(rows)

    got_df = ngram_containment_pairs(
        ray_session.data.from_pandas(df), "doc_id", "text", k=5, threshold=0.8
    ).to_pandas()
    got = set(zip(got_df["a"], got_df["b"]))
    want = brute_containment_pairs(df, k=5, tau=0.8)
    assert got == want
    # every planted (small, embedding) pair is found ...
    planted = {
        tuple(sorted((str(i), str(100 + i)))) for i in range(0, 20, 4)
    }  # pairs are ordered by STRING comparison ('116' < '16')
    assert planted <= got
    # ... and symmetric Jaccard at the same threshold misses ALL of them
    jac = brute_jaccard_pairs(df, k=5, tau=0.8)
    assert not (planted & jac)
    # integer columns are the exact set sizes (embedded doc fully contained)
    emb = got_df[[tuple(sorted((a, b))) in planted
                  for a, b in zip(got_df["a"], got_df["b"])]]
    assert len(emb) == len(planted)
    assert (emb["n_inter"] == emb[["n_a", "n_b"]].min(axis=1)).all()
