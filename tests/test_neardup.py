"""E2E near-dup pipeline tests: LSH recall vs a brute-force Jaccard
oracle, verification modes, SimHash candidates, connected components."""

import numpy as np
import pandas as pd
import pytest

import ray

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.functions.shingles import Shingler, exact_jaccard, simhash64
from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
from duplicate_finder_ray.sources.code_table import synthetic_code_corpus
from duplicate_finder_ray.stages import cc, neardup


def brute_force_pairs(df: pd.DataFrame, cfg: PipelineConfig) -> set[tuple[str, str]]:
    """All unordered pairs with exact shingle Jaccard ≥ τ at the same
    shingle config — the reference-equivalent ground truth
    (SURVEY.md §5: 'brute-force Jaccard over shingle sets')."""
    sh = Shingler(k=cfg.shingle_k, mode=cfg.shingle_mode)
    fid = (df["repo"] + ":" + df["path"] + "@" + df["commit"]).tolist()
    sets = [sh.shingle_hashes(c) for c in df["content"]]
    truth = set()
    for i in range(len(df)):
        if len(sets[i]) == 0:
            continue
        for j in range(i + 1, len(df)):
            if len(sets[j]) == 0:
                continue
            if exact_jaccard(sets[i], sets[j]) >= cfg.jaccard_threshold:
                truth.add(tuple(sorted((fid[i], fid[j]))))
    return truth


@pytest.fixture(scope="module")
def corpus():
    return synthetic_code_corpus(300, seed=11)


@pytest.fixture(scope="module")
def corpus_ds(ray_session, corpus):
    return ray_session.data.from_pandas(corpus)


class TestNearDupPipeline:
    def test_recall_and_precision_exact_mode(self, corpus, corpus_ds):
        cfg = PipelineConfig(jaccard_threshold=0.8)
        res = NearDupPipeline(cfg).run_on(corpus_ds)
        got = set(
            map(tuple, np.sort(res.pairs.to_pandas()[["a", "b"]].to_numpy(), axis=1))
        )
        truth = brute_force_pairs(corpus, cfg)
        assert truth, "fixture must contain near-dup pairs"
        recall = len(truth & got) / len(truth)
        precision = len(truth & got) / max(1, len(got))
        assert recall >= 0.99, f"recall {recall}"
        assert precision == 1.0, f"precision {precision} (exact verify ⇒ no FPs)"

    def test_prestarted_handle_takes_sharded_path(
        self, corpus_ds, monkeypatch
    ):
        """A prestarted split is used even when the endpoint count is
        within ``broadcast_verify_limit``: one CSR build per shard, and
        the same pairs as the broadcast path."""
        from duplicate_finder_ray.stages.derive import add_identity

        cfg = PipelineConfig(jaccard_threshold=0.8)
        with_id = corpus_ds.map_batches(add_identity, batch_format="pyarrow")
        sigs = neardup.signatures(
            with_id.select_columns(["file_id", "content"]), cfg, emit_shingles=True
        ).materialize()
        cands = neardup.candidate_pairs(None, cfg, sigs_source=sigs).materialize()
        launches = []
        real_build = neardup._csr_ref

        def spy(*args):
            launches.append(1)
            return real_build(*args)

        monkeypatch.setattr(neardup, "_csr_ref", spy)

        def verified(**kw):
            launches.clear()
            out = neardup.verify_pairs_exact(cands, sigs, cfg, **kw).to_pandas()
            return set(out.itertuples(index=False, name=None)), len(launches)

        want, n_broadcast = verified()
        handle = neardup.prestart_verify_split(sigs, cfg)
        got, n_sharded = verified(prestarted=handle)
        assert cfg.broadcast_verify_limit > 2 * cands.count()
        assert n_broadcast == 1
        assert n_sharded == handle["n_shards"] > 1
        assert got == want and len(want) > 0

    @staticmethod
    def _verify_inputs(ds, cfg):
        """Materialized signature table (with shingles) and candidate
        pairs over the (repo, path, commit, content) table ``ds``."""
        from duplicate_finder_ray.stages.derive import add_identity

        with_id = ds.map_batches(add_identity, batch_format="pyarrow")
        sigs = neardup.signatures(
            with_id.select_columns(["file_id", "content"]), cfg, emit_shingles=True
        ).materialize()
        return sigs, neardup.candidate_pairs(None, cfg, sigs_source=sigs).materialize()

    def test_broadcast_scoring_starts_no_execution(self, corpus_ds, executions):
        """Over materialized inputs the broadcast verify path is a task
        wave: no Ray Data execution starts, counting included."""
        cfg = PipelineConfig(jaccard_threshold=0.8)
        sigs, cands = self._verify_inputs(corpus_ds, cfg)
        executions.clear()
        out = neardup.verify_pairs_exact(cands, sigs, cfg)
        assert out.count() > 0
        assert out.schema().names == neardup.VERIFIED_SCHEMA.names
        assert executions == []

    def test_broadcast_equals_sharded_over_many_pair_blocks(self, corpus_ds):
        """Candidates spread over several blocks score to the same
        pairs on the broadcast task wave and the sharded exchange."""
        import pyarrow as pa

        cfg = PipelineConfig(jaccard_threshold=0.8)
        sigs, cands = self._verify_inputs(corpus_ds, cfg)
        t = pa.concat_tables(ray.get(cands.to_arrow_refs()))
        step = -(-len(t) // 5)
        many = ray.data.from_arrow([t.slice(i, step) for i in range(0, len(t), step)])
        assert many.num_blocks() == 5

        def verified(c):
            out = neardup.verify_pairs_exact(many, sigs, c).to_pandas()
            return set(out.itertuples(index=False, name=None))

        sharded = PipelineConfig(jaccard_threshold=0.8, broadcast_verify_limit=0)
        want = verified(sharded)
        assert verified(cfg) == want and len(want) > 0

    def test_nul_differing_ids_score_through_the_task_wave(self, ray_session):
        """File ids that differ only after an embedded NUL keep their
        own shingle sets and names through the scoring, on one shard
        and on the sharded CSRs."""
        import pyarrow as pa

        base = " ".join(f"tok{i}" for i in range(60))
        other = " ".join(f"alt{i}" for i in range(60))
        ids = ["x\0a", "x\0b", "x\0c"]
        ds = ray_session.data.from_arrow(
            pa.table({"file_id": ids, "content": [base, base, other]})
        )
        cfg = PipelineConfig(jaccard_threshold=0.8)
        sigs = neardup.signatures(ds, cfg, emit_shingles=True).materialize()
        cands = pa.table(
            {
                "a": neardup.fid_of(np.array(ids[:2] + ids[:1], dtype=object)),
                "b": neardup.fid_of(np.array(ids[1:] + ids[2:], dtype=object)),
                "n_bands": pa.array([32, 0, 0], pa.int64()),
                "bucket_size": pa.array([2, 2, 2], pa.int64()),
            }
        )
        sharded = PipelineConfig(jaccard_threshold=0.8, broadcast_verify_limit=0)
        for c in (cfg, sharded):
            out = neardup.verify_pairs_exact(ray.data.from_arrow(cands), sigs, c)
            got = {(r["a"], r["b"], r["jaccard"]) for r in out.take_all()}
            assert got == {("x\0a", "x\0b", 1.0)}

    def test_fused_explode_exchange_matches_band_rows_path(
        self, corpus, corpus_ds, monkeypatch
    ):
        """candidate_pairs with sigs_source (explode fused into the
        exchange split tasks) must produce identical deduped candidate
        pairs to the band-rows path. BAND_EXCHANGE_BROADCAST_LIMIT=0
        forces the exchange on both sides."""
        from duplicate_finder_ray.stages.derive import add_identity

        monkeypatch.setattr(neardup, "BAND_EXCHANGE_BROADCAST_LIMIT", 0)
        cfg = PipelineConfig(jaccard_threshold=0.8)
        with_id = corpus_ds.map_batches(add_identity, batch_format="pyarrow")
        sigs = neardup.signatures(
            with_id.select_columns(["file_id", "content"]), cfg
        ).materialize()
        bands = neardup.explode_bands(sigs, cfg)
        p1 = neardup.candidate_pairs(bands, cfg).to_pandas()
        p2 = neardup.candidate_pairs(
            bands, cfg, sigs_source=sigs
        ).to_pandas()
        k1 = {
            (min(r.a, r.b), max(r.a, r.b), r.n_bands, r.bucket_size)
            for r in p1.itertuples()
        }
        k2 = {
            (min(r.a, r.b), max(r.a, r.b), r.n_bands, r.bucket_size)
            for r in p2.itertuples()
        }
        assert k1 == k2 and len(k1) > 0

    def test_shuffle_pair_dedupe_matches_remote_task_path(
        self, corpus, corpus_ds, monkeypatch
    ):
        """The distributed (sort-shuffle) cross-band pair dedupe must
        produce the same pairs AND n_bands counts as the small-side
        remote-task lexsort path."""
        cfg = PipelineConfig(jaccard_threshold=0.8)
        p1 = NearDupPipeline(cfg).run_on(corpus_ds).pairs.to_pandas()
        monkeypatch.setattr(neardup, "PAIR_DEDUPE_BROADCAST_LIMIT", 0)
        p2 = NearDupPipeline(cfg).run_on(corpus_ds).pairs.to_pandas()
        k1 = {
            (*sorted((r.a, r.b)), r.n_bands) for r in p1.itertuples()
        }
        k2 = {
            (*sorted((r.a, r.b)), r.n_bands) for r in p2.itertuples()
        }
        assert k1 == k2

    def test_estimate_mode_high_recall_on_clear_pairs(self, corpus, corpus_ds):
        """Estimate mode is noisy at the boundary; on pairs with true
        J ≥ τ + 3σ it must agree with exact mode."""
        cfg_ex = PipelineConfig(jaccard_threshold=0.8)
        cfg_est = PipelineConfig(jaccard_threshold=0.8, verify_mode="estimate")
        exact_pairs = NearDupPipeline(cfg_ex).run_on(corpus_ds).pairs.to_pandas()
        est = NearDupPipeline(cfg_est).run_on(corpus_ds).pairs.to_pandas()
        est_keys = set(map(tuple, np.sort(est[["a", "b"]].to_numpy(), axis=1)))
        clear = exact_pairs[exact_pairs["jaccard"] >= 0.91]
        clear_keys = set(map(tuple, np.sort(clear[["a", "b"]].to_numpy(), axis=1)))
        missed = clear_keys - est_keys
        assert not missed, f"estimate mode missed clear pairs: {missed}"

    def test_exact_dups_are_near_dups(self, ray_session):
        df = pd.DataFrame(
            {
                "repo": ["o/a", "o/b", "o/c"],
                "path": ["f1.py", "f2.py", "g.py"],
                "commit": ["1" * 40, "2" * 40, "3" * 40],
                "lang": ["python"] * 3,
                "content": [
                    "def f(): return alpha beta gamma delta epsilon zeta",
                    "def f(): return alpha beta gamma delta epsilon zeta",
                    "completely different words entirely here now okay fine",
                ],
            }
        )
        cfg = PipelineConfig(jaccard_threshold=0.8)
        res = NearDupPipeline(cfg).run_on(ray_session.data.from_pandas(df))
        pairs = res.pairs.to_pandas()
        assert len(pairs) == 1
        assert pairs["jaccard"].iloc[0] == 1.0
        labels = res.labels.to_pandas()
        assert labels["component"].nunique() == 1
        assert len(labels) == 2  # the unrelated doc is not in the pair graph

    def test_signature_table_shape(self, corpus_ds):
        """The default table carries the LSH band keys, not the K-wide
        MinHash; the MinHash and SimHash columns come on request."""
        import pyarrow as pa

        cfg = PipelineConfig()
        pipe = NearDupPipeline(cfg)
        bands = pa.list_(pa.uint64(), cfg.resolved_lsh_bands)
        assert pipe.signatures_for(corpus_ds).schema().base_schema == pa.schema(
            [
                ("file_id", pa.string()),
                ("fid", pa.uint64()),
                ("bands", bands),
                ("n_shingles", pa.int64()),
            ]
        )
        exact = pipe._signatures(corpus_ds, emit_shingles=True).schema()
        assert exact.names == ["file_id", "fid", "bands", "n_shingles", "shingles"]
        assert exact.base_schema.field("bands").type == bands
        sigs = pipe.signatures_for(corpus_ds, simhash=True, minhash=True).to_pandas()
        assert list(sigs.columns) == [
            "file_id", "fid", "bands", "minhash", "simhash", "n_shingles"
        ]
        assert all(len(m) == cfg.minhash_perms for m in sigs["minhash"][:5])

    @pytest.mark.parametrize("lsh_bands", [32, 0], ids=["b32", "auto"])
    @pytest.mark.parametrize("token_hash", ["blake2b", "md5"])
    def test_bands_are_band_keys_of_minhash(self, corpus, token_hash, lsh_bands):
        """``bands`` equals ``band_keys(minhash, b)`` bit for bit."""
        import pyarrow as pa

        from duplicate_finder_ray.functions.shingles import band_keys

        cfg = PipelineConfig(token_hash=token_hash, lsh_bands=lsh_bands)
        batch = pa.table(
            {
                "file_id": (corpus["repo"] + ":" + corpus["path"]).tolist(),
                "content": pa.array(corpus["content"].tolist(), pa.string()),
            }
        )
        out = neardup.signature_batch(batch, cfg, emit_minhash=True)
        minhash = np.stack(out["minhash"].to_numpy(zero_copy_only=False))
        bands = np.stack(out["bands"].to_numpy(zero_copy_only=False))
        assert minhash.shape == (len(corpus), cfg.minhash_perms)
        assert bands.shape == (len(corpus), cfg.resolved_lsh_bands)
        assert bands.dtype == np.uint64
        np.testing.assert_array_equal(
            bands, band_keys(minhash, cfg.resolved_lsh_bands)
        )
        # a table banded under another band count is refused, not misread
        other = PipelineConfig(lsh_bands=16 if bands.shape[1] != 16 else 8)
        with pytest.raises(ValueError, match="band keys per row"):
            neardup.make_band_explode(other)(out)

    def test_run_on_builds_no_band_row_dataset(self, corpus_ds, monkeypatch):
        """The pipeline's candidates read the signature blocks; the
        standalone band-row dataset is never built."""

        def no_band_rows(*args, **kwargs):
            raise AssertionError("explode_bands called")

        cfg = PipelineConfig(jaccard_threshold=0.8)
        expected = NearDupPipeline(cfg).run_on(corpus_ds).pairs.to_pandas()
        monkeypatch.setattr(neardup, "explode_bands", no_band_rows)
        got = NearDupPipeline(cfg).run_on(corpus_ds).pairs.to_pandas()
        cols = ["a", "b", "n_bands", "jaccard"]
        assert set(got[cols].itertuples(index=False, name=None)) == set(
            expected[cols].itertuples(index=False, name=None)
        )
        assert len(got) > 0

    def test_estimate_mode_equals_per_row_reference(self, corpus_ds):
        """Estimate-mode verify keeps exactly the candidates whose
        per-row MinHash agreement is ≥ τ, with that agreement as
        ``jaccard``."""
        cfg = PipelineConfig(jaccard_threshold=0.8, verify_mode="estimate")
        res = NearDupPipeline(cfg).run_on(corpus_ds)
        sigs = res.signatures.to_pandas()
        row = {int(f): m for f, m in zip(sigs["fid"], sigs["minhash"])}
        name = {int(f): n for f, n in zip(sigs["fid"], sigs["file_id"])}
        cands = neardup.candidate_pairs(
            None, cfg, sigs_source=res.signatures
        ).to_pandas()
        expected = set()
        for a, b, n_bands in zip(cands["a"], cands["b"], cands["n_bands"]):
            est = float(np.mean(row[int(a)] == row[int(b)]))
            if est >= cfg.jaccard_threshold:
                fa, fb = sorted((name[int(a)], name[int(b)]))
                expected.add((fa, fb, int(n_bands), est, -1, -1))
        got = res.pairs.to_pandas()
        cols = ["a", "b", "n_bands", "jaccard", "n_inter", "n_union"]
        assert set(got[cols].itertuples(index=False, name=None)) == expected
        assert len(got) == len(expected) > 0

    def test_simhash_only_on_request(self, corpus, corpus_ds):
        cfg = PipelineConfig()
        pipe = NearDupPipeline(cfg)
        assert "simhash" not in pipe.signatures_for(corpus_ds).schema().names
        with_shingles = pipe._signatures(corpus_ds, emit_shingles=True)
        assert "simhash" not in with_shingles.schema().names
        sigs = pipe.signatures_for(corpus_ds, simhash=True).to_pandas()
        content = dict(
            zip(
                corpus["repo"] + ":" + corpus["path"] + "@" + corpus["commit"],
                corpus["content"],
            )
        )
        sh = Shingler(k=cfg.shingle_k, mode=cfg.shingle_mode)
        assert len(sigs) == len(corpus)
        for file_id, fp in zip(sigs["file_id"], sigs["simhash"]):
            assert int(fp) == simhash64(sh.shingle_hashes(content[file_id]))


class TestShingleSetStage:
    @pytest.mark.parametrize("token_hash", ["blake2b", "md5"])
    def test_bytes_equal_per_doc_reference(self, token_hash):
        """Exact verify reads its shingle sets from the signature
        table's ``shingles`` column; its bytes must be the per-doc
        reference's, for ASCII (Arrow tokenizer) and mixed (Python
        tokenizer) batches through one cached ``Shingler``."""
        import pyarrow as pa

        cfg = PipelineConfig(token_hash=token_hash)
        ref = Shingler(k=cfg.shingle_k, mode=cfg.shingle_mode, token_hash=token_hash)
        ascii_texts = [
            "def f(x): return x + 1 if x else alpha beta gamma",
            "",
            None,
            "a b",
            "def f(x): return x + 2 if x else alpha beta gamma",
        ]
        mixed = ascii_texts + ["héllo wörld ß a b c d e f g 中文 h i"]
        for texts in (ascii_texts, mixed, ascii_texts):
            file_ids = [f"o/r:f{i}.py@c" for i in range(len(texts))]
            out = neardup.signature_batch(
                pa.table(
                    {"file_id": file_ids, "content": pa.array(texts, pa.string())}
                ),
                cfg,
                emit_shingles=True,
            )
            assert out["shingles"].type == pa.large_binary()
            assert out["shingles"].to_pylist() == [
                ref.shingle_hashes(t or "").tobytes() for t in texts
            ]
            np.testing.assert_array_equal(
                out["fid"].to_numpy(), neardup.fid_of(np.array(file_ids, dtype=object))
            )

    def test_exact_verify_without_shingles_raises(self, corpus_ds):
        cfg = PipelineConfig(jaccard_threshold=0.8)
        sigs = NearDupPipeline(cfg).signatures_for(corpus_ds).materialize()
        assert "shingles" not in sigs.schema().names
        cands = neardup.candidate_pairs(None, cfg, sigs_source=sigs)
        with pytest.raises(ValueError, match="shingles"):
            neardup.verify_pairs_exact(cands, sigs, cfg)


class TestSignatureSlices:
    def test_one_block_equals_kernel_per_batch(self, ray_session):
        """``signatures`` takes a whole block per task and runs the
        kernel over ``derive_batch_size``-row slices of it: its table
        equals ``signature_batch`` applied per 1 024-row batch and
        concatenated, column by column and row by row. The ASCII fast
        path is decided per kernel call, so the one non-ASCII row sits
        in the middle slice only."""
        import pyarrow as pa

        cfg = PipelineConfig()
        n = cfg.derive_batch_size * 5 // 2
        rng = np.random.default_rng(3)
        vocab = np.array(["def", "return", "x", "y", "if", "else", "for", "in"])
        texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 40))) for _ in range(n)]
        texts[0] = ""
        texts[1] = None
        texts[2] = "a b c"  # fewer tokens than a shingle
        texts[3] = "def f\x00 return x if y else z for w"
        texts[n // 2] = "héllo wörld ß a b c d e f g 中文 h i"
        block = pa.table(
            {
                "file_id": [f"o/r:f{i}.py@c" for i in range(n)],
                "content": pa.array(texts, pa.string()),
            }
        )
        emit = {"emit_shingles": True, "emit_minhash": True, "emit_simhash": True}
        want = pa.concat_tables(
            neardup.signature_batch(block.slice(s, 1024), cfg, **emit)
            for s in range(0, n, 1024)
        )
        got = neardup.signatures(ray_session.data.from_arrow(block), cfg, **emit)
        got = pa.concat_tables(ray.get(got.materialize().to_arrow_refs()))
        assert got.column_names == want.column_names
        for name in want.column_names:
            assert got[name].to_pylist() == want[name].to_pylist(), name


class TestSignatureKernelCache:
    #: back to back, each config differs from the one before in exactly
    #: one field the kernel reads
    CONFIGS = [
        {},
        {"shingle_k": 3},
        {"shingle_k": 3, "token_hash": "md5"},
        {"shingle_k": 3, "token_hash": "md5", "shingle_mode": "char"},
        {"shingle_k": 3, "token_hash": "md5", "shingle_mode": "char",
         "minhash_perms": 64},
        {"shingle_k": 3, "token_hash": "md5", "shingle_mode": "char",
         "minhash_perms": 64, "minhash_seed": 7},
        {"shingle_k": 3, "token_hash": "md5", "minhash_perms": 64,
         "minhash_seed": 7},
        {"shingle_k": 3, "minhash_perms": 64, "minhash_seed": 7},
        {"minhash_perms": 64, "minhash_seed": 7},
        {"minhash_seed": 7},
        {},
    ]

    @staticmethod
    def _reference(texts, cfg):
        """A fresh in-process kernel: new ``Shingler``, new tables."""
        import pyarrow as pa

        from duplicate_finder_ray.functions.shingles import (
            batch_minhash,
            minhash_params,
        )

        sh = Shingler(k=cfg.shingle_k, mode=cfg.shingle_mode, token_hash=cfg.token_hash)
        flat, offs = sh.shingle_hashes_batch_column(pa.array(texts, pa.string()))
        a, b = minhash_params(cfg.minhash_perms, cfg.minhash_seed)
        sets = [flat[offs[i] : offs[i + 1]].tobytes() for i in range(len(texts))]
        return batch_minhash(flat, offs, a, b), sets

    def test_back_to_back_configs(self, ray_session, corpus):
        """The per-process kernel caches are keyed on every config field
        the kernel reads: jobs (and in-process batches) run back to back
        with configs one field apart each equal a fresh kernel."""
        import pyarrow as pa

        from duplicate_finder_ray.functions.shingles import band_keys

        ds = ray_session.data.from_pandas(
            corpus.assign(file_id=corpus["repo"] + ":" + corpus["path"])[
                ["file_id", "content"]
            ]
        ).repartition(8)
        texts = corpus["content"].tolist()
        file_ids = (corpus["repo"] + ":" + corpus["path"]).tolist()
        batch = pa.table({"file_id": file_ids, "content": pa.array(texts, pa.string())})
        for i, overrides in enumerate(self.CONFIGS):
            cfg = PipelineConfig(**overrides)
            sigs, sets = self._reference(texts, cfg)
            bands = band_keys(sigs, cfg.resolved_lsh_bands)
            local = neardup.signature_batch(
                batch, cfg, emit_shingles=True, emit_minhash=True
            )
            np.testing.assert_array_equal(
                np.stack(local["minhash"].to_numpy(zero_copy_only=False)), sigs
            )
            np.testing.assert_array_equal(
                np.stack(local["bands"].to_numpy(zero_copy_only=False)), bands
            )
            assert local["shingles"].to_pylist() == sets, overrides
            # the job asks for the MinHash on every other config
            with_minhash = i % 2 == 0
            got = (
                neardup.signatures(
                    ds, cfg, emit_shingles=True, emit_minhash=with_minhash
                )
                .to_pandas()
                .set_index("file_id")
                .loc[file_ids]
            )
            np.testing.assert_array_equal(np.stack(got["bands"].to_numpy()), bands)
            assert ("minhash" in got.columns) == with_minhash, overrides
            if with_minhash:
                np.testing.assert_array_equal(
                    np.stack(got["minhash"].to_numpy()), sigs
                )
            assert got["shingles"].tolist() == sets, overrides


class TestBucketCap:
    def test_hot_bucket_capped_but_observable(self, ray_session):
        """A bucket above the cap emits at most cap members' pairs, and
        every emitted pair records the TRUE bucket size (no silent
        truncation)."""
        n = 30
        df = pd.DataFrame(
            {
                "repo": [f"o/r{i}" for i in range(n)],
                "path": [f"f{i}.py" for i in range(n)],
                "commit": [f"{i:040d}" for i in range(n)],
                "lang": ["python"] * n,
                "content": ["identical content words one two three four five"] * n,
            }
        )
        cfg = PipelineConfig(jaccard_threshold=0.8, band_bucket_cap=10)
        ds = ray_session.data.from_pandas(df)
        with_id = ds.map_batches(
            __import__(
                "duplicate_finder_ray.stages.derive", fromlist=["add_identity"]
            ).add_identity,
            batch_format="pyarrow",
        )
        sigs = neardup.signatures(
            with_id.select_columns(["file_id", "content"]), cfg
        )
        bands = neardup.explode_bands(sigs, cfg)
        pairs = neardup.candidate_pairs(bands, cfg).to_pandas()
        # cap=10 → 45 pairs max per bucket, not C(30,2)=435
        assert len(pairs) == 45
        assert (pairs["bucket_size"] == n).all()

    def test_derive_bucket_cap_budget(self):
        """Budget-derived cap: max m with Σ C(min(s, m), 2) ≤ budget."""
        import numpy as np

        sizes = np.array([100, 50, 3, 2, 1])
        # generous budget → cap = max bucket size (nothing truncated)
        assert neardup.derive_bucket_cap(sizes, 10_000_000) == 100
        # exact fit: C(100,2)+C(50,2)+C(3,2)+C(2,2)=4950+1225+3+1=6179
        assert neardup.derive_bucket_cap(sizes, 6179) == 100
        assert neardup.derive_bucket_cap(sizes, 6178) == 99
        # tight budget → small cap, never below 2
        assert neardup.derive_bucket_cap(sizes, 0) == 2
        assert neardup.derive_bucket_cap(np.array([], dtype=np.int64), 10) == 2
        # brute-force cross-check on a random size vector
        rng = np.random.default_rng(7)
        sz = rng.integers(1, 40, size=50)
        for budget in (10, 100, 1000, 5000):
            got = neardup.derive_bucket_cap(sz, budget)
            pairs_at = lambda m: int(
                sum(min(s, m) * (min(s, m) - 1) // 2 for s in sz)
            )
            assert pairs_at(got) <= budget or got == 2
            if got < sz.max():
                assert pairs_at(got + 1) > budget

    def test_overflow_warning_fires_when_binding(self):
        """A binding cap (fixed or budget-derived) must warn loudly;
        a non-binding one must stay silent."""
        import warnings as _w

        import numpy as np

        bh = np.repeat(np.uint64(12345), 20)
        ids = np.arange(20, dtype=np.uint64)
        with pytest.warns(RuntimeWarning, match="BINDING"):
            neardup.bucket_pairs_arrays(bh, ids, 5)
        # budget-derived cap that binds: 20-member bucket, budget 10
        with pytest.warns(RuntimeWarning, match="recall may drop"):
            a, b, sz = neardup.bucket_pairs_arrays(bh, ids, None, 10)
        assert (sz == 20).all()  # true size still recorded
        # budget-derived cap that does NOT bind: silence
        with _w.catch_warnings():
            _w.simplefilter("error")
            a, b, sz = neardup.bucket_pairs_arrays(bh, ids, None, 10_000)
        assert len(a) == 20 * 19 // 2  # complete — nothing truncated

    def test_default_config_truncates_nothing_at_gate_scale(
        self, ray_session
    ):
        """band_bucket_cap=None (default): a 30-member near-clique
        bucket emits ALL C(30,2) pairs — the old fixed default of 200
        is gone and the budget cap is non-binding here."""
        n = 30
        df = pd.DataFrame(
            {
                "repo": [f"o/r{i}" for i in range(n)],
                "path": [f"f{i}.py" for i in range(n)],
                "commit": [f"{i:040d}" for i in range(n)],
                "lang": ["python"] * n,
                "content": ["identical content words one two three four five"] * n,
            }
        )
        cfg = PipelineConfig(jaccard_threshold=0.8)
        assert cfg.band_bucket_cap is None
        ds = ray_session.data.from_pandas(df)
        with_id = ds.map_batches(
            __import__(
                "duplicate_finder_ray.stages.derive", fromlist=["add_identity"]
            ).add_identity,
            batch_format="pyarrow",
        )
        sigs = neardup.signatures(
            with_id.select_columns(["file_id", "content"]), cfg
        )
        bands = neardup.explode_bands(sigs, cfg)
        pairs = neardup.candidate_pairs(bands, cfg).to_pandas()
        assert len(pairs) == n * (n - 1) // 2
        assert (pairs["bucket_size"] == n).all()


def _force_width(mp: pytest.MonkeyPatch, width: int) -> None:
    """Make ``cc.connected_components`` run at exactly ``width`` buckets
    on a graph of at least ``width`` edges (small graphs run at 1)."""
    if width > 1:
        mp.setattr(cc, "_EDGES_PER_BUCKET", 1)
        mp.setattr(cc, "effective_parallelism", lambda cfg: width // 2)


class TestConnectedComponents:
    def test_chain_converges_to_one_component(self, ray_session):
        # path graph a-b-c-d-e: hash-to-min needs multiple rounds
        edges = pd.DataFrame(
            {"a": ["n1", "n2", "n3", "n4"], "b": ["n2", "n3", "n4", "n5"]}
        )
        cfg = PipelineConfig()
        labels = cc.connected_components(
            ray_session.data.from_pandas(edges), cfg
        ).to_pandas()
        assert labels["component"].nunique() == 1
        assert set(labels["file_id"]) == {"n1", "n2", "n3", "n4", "n5"}
        assert (labels["component"] == "n1").all()

    def test_two_components(self, ray_session):
        edges = pd.DataFrame({"a": ["x1", "x2", "y1"], "b": ["x2", "x3", "y2"]})
        cfg = PipelineConfig()
        labels = cc.connected_components(
            ray_session.data.from_pandas(edges), cfg
        ).to_pandas()
        comp = dict(zip(labels["file_id"], labels["component"]))
        assert comp["x1"] == comp["x2"] == comp["x3"] == "x1"
        assert comp["y1"] == comp["y2"] == "y1"

    def test_matches_networkx_free_oracle(self, ray_session):
        # random graph vs a simple driver-side union-find oracle, at the
        # default width (one bucket) and at forced multi-bucket widths
        rng = np.random.default_rng(9)
        n_nodes, n_edges = 60, 50
        a = rng.integers(0, n_nodes, n_edges)
        b = rng.integers(0, n_nodes, n_edges)
        mask = a != b
        edges = pd.DataFrame(
            {"a": [f"v{int(x):03d}" for x in a[mask]], "b": [f"v{int(x):03d}" for x in b[mask]]}
        )
        parent: dict[str, str] = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _, r in edges.iterrows():
            ra, rb = find(r["a"]), find(r["b"])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        oracle = {v: find(v) for v in parent}

        for width in (1, 2, 4, 16):
            with pytest.MonkeyPatch.context() as mp:
                _force_width(mp, width)
                rounds: list[dict] = []
                labels = cc.connected_components(
                    ray_session.data.from_pandas(edges),
                    PipelineConfig(),
                    round_metrics=rounds,
                ).to_pandas()
            got = dict(zip(labels["file_id"], labels["component"]))
            assert got == oracle
            assert len(labels) == len(oracle)
            assert {r["num_buckets"] for r in rounds} == {width}

    def test_empty_input_at_every_width(self, ray_session, monkeypatch):
        import pyarrow as pa

        empty = ray_session.data.from_arrow(
            pa.schema([("a", pa.string()), ("b", pa.string())]).empty_table()
        )
        for edges_per_bucket in (10**9, 1):
            monkeypatch.setattr(cc, "_EDGES_PER_BUCKET", edges_per_bucket)
            rounds: list[dict] = []
            labels = cc.connected_components(empty, PipelineConfig(), round_metrics=rounds)
            assert labels.count() == 0 and rounds == []
            assert labels.schema().names == ["file_id", "component"]

    @pytest.mark.parametrize(
        "widths", [(1,), (2, 4, 16)], ids=["one_bucket", "many_buckets"]
    )
    def test_nul_differing_ids_stay_apart(self, ray_session, widths):
        """Ids that differ only after an embedded NUL are distinct nodes
        at every width. Sixteen of them over at most sixteen buckets put
        at least two in one bucket."""
        import pyarrow as pa

        xs = [f"x\0{i:02d}" for i in range(16)]
        ys = [f"y{i:02d}" for i in range(16)]
        edges = pa.table({"a": xs, "b": ys})
        for width in widths:
            with pytest.MonkeyPatch.context() as mp:
                _force_width(mp, width)
                labels = cc.connected_components(
                    ray_session.data.from_arrow(edges), PipelineConfig()
                )
            got = {r["file_id"]: r["component"] for r in labels.take_all()}
            assert len(got) == 32
            assert got == {**{x: x for x in xs}, **dict(zip(ys, xs))}

    def test_iterative_chain(self, ray_session, monkeypatch):
        monkeypatch.setattr(cc, "_EDGES_PER_BUCKET", 1)
        edges = pd.DataFrame(
            {"a": [f"n{i}" for i in range(1, 30)], "b": [f"n{i+1}" for i in range(1, 30)]}
        )
        rounds: list[dict] = []
        labels = cc.connected_components(
            ray_session.data.from_pandas(edges), PipelineConfig(), round_metrics=rounds
        ).to_pandas()
        assert len(labels) == 30
        assert (labels["component"] == "n1").all()
        assert rounds[0]["num_buckets"] > 1

    def test_iterative_chain_starts_no_execution(
        self, ray_session, monkeypatch, executions
    ):
        monkeypatch.setattr(cc, "_EDGES_PER_BUCKET", 1)
        edges = ray_session.data.from_pandas(
            pd.DataFrame(
                {"a": [f"n{i}" for i in range(1, 30)], "b": [f"n{i+1}" for i in range(1, 30)]}
            )
        ).materialize()
        executions.clear()
        rounds: list[dict] = []
        labels = cc.connected_components(edges, PipelineConfig(), round_metrics=rounds)
        assert len(executions) == 0
        assert rounds[0]["num_buckets"] > 1 and len(rounds) > 1
        assert labels.count() == 30

    def test_non_convergence_raises(self, ray_session, monkeypatch):
        monkeypatch.setattr(cc, "_EDGES_PER_BUCKET", 1)
        monkeypatch.setattr(cc, "_MAX_ROUNDS", 1)
        edges = pd.DataFrame(
            {"a": [f"n{i}" for i in range(1, 30)], "b": [f"n{i+1}" for i in range(1, 30)]}
        )
        with pytest.raises(RuntimeError, match="1 rounds at width"):
            cc.connected_components(
                ray_session.data.from_pandas(edges), PipelineConfig()
            )

    def test_iterative_mega_component_hub_skew(self, ray_session):
        """North_rule skew stress: one giant star component (a hub node
        incident to every edge — the worst per-bucket concentration the
        hash-to-min exchange can see) plus a long chain, at widths 1 to
        16. The hub's complete incident set lands in one bucket every
        round; the per-bucket kernel must stay vectorized (seconds, not
        minutes) and exact."""
        n = 50_000
        star = pd.DataFrame(
            {"a": ["a_hub"] * n, "b": [f"n{i:06d}" for i in range(n)]}
        )
        chain = pd.DataFrame(
            {
                "a": [f"z{i:04d}" for i in range(400)],
                "b": [f"z{i + 1:04d}" for i in range(400)],
            }
        )
        edges = ray_session.data.from_pandas(
            pd.concat([star, chain], ignore_index=True)
        )
        star_nodes = ["a_hub"] + [f"n{i:06d}" for i in range(n)]
        for width in (1, 2, 4, 16):
            with pytest.MonkeyPatch.context() as mp:
                _force_width(mp, width)
                labels = cc.connected_components(edges, PipelineConfig()).to_pandas()
            got = dict(zip(labels["file_id"], labels["component"]))
            assert len(labels) == len(got) == n + 1 + 401
            assert all(got[x] == "a_hub" for x in star_nodes)
            assert all(got[f"z{i:04d}"] == "z0000" for i in range(401))

    def test_iterative_round_metrics_expose_bucket_bound(self, ray_session, monkeypatch):
        """The documented O(max-component) per-bucket bound must be
        OBSERVABLE: the contraction appends one metric row per round;
        max_bucket_rows tracks the giant component's star size so a
        runaway component is visible before it OOMs."""
        monkeypatch.setattr(cc, "_EDGES_PER_BUCKET", 1_000)
        n = 5_000
        star = pd.DataFrame(
            {"a": ["a_hub"] * n, "b": [f"n{i:06d}" for i in range(n)]}
        )
        cfg = PipelineConfig()
        rounds: list[dict] = []
        labels = cc.connected_components(
            ray_session.data.from_pandas(star), cfg, round_metrics=rounds
        ).to_pandas()
        assert len(labels) == n + 1
        assert len(rounds) >= 2  # one row per round, including fixpoint
        assert rounds[0]["num_buckets"] > 1
        for i, r in enumerate(rounds):
            assert r["round"] == i
            assert set(r) == {
                "round",
                "num_buckets",
                "max_bucket_rows",
                "total_star_rows",
            }
        # at the fixpoint the hub's bucket holds the whole component's
        # star: the metric must show the concentration, not average it
        assert rounds[-1]["max_bucket_rows"] >= n + 1
        assert rounds[-1]["total_star_rows"] >= n + 1

    def test_default_run_records_one_single_bucket_round(self, ray_session):
        from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

        df = pd.DataFrame(
            {
                "repo": ["o/r"] * 4,
                "path": [f"f{i}.py" for i in range(4)],
                "commit": ["1" * 40] * 4,
                "lang": ["python"] * 4,
                "content": ["alpha beta gamma delta epsilon zeta" * 3] * 4,
            }
        )
        res = NearDupPipeline(PipelineConfig(jaccard_threshold=0.5)).run_on(
            ray_session.data.from_pandas(df)
        )
        assert res.metrics["cc_rounds"] == [
            {"round": 0, "num_buckets": 1, "max_bucket_rows": 4, "total_star_rows": 4}
        ]
        assert res.labels.count() == 4

    def test_round_metrics_in_checkpoint_lineage(self, ray_session, tmp_path):
        """run_checkpointed persists the per-round CC bucket loads into
        the labels stage's lineage manifest: at the default width, one
        single-bucket round."""
        from duplicate_finder_ray.pipelines.neardup import NearDupPipeline

        df = pd.DataFrame(
            {
                "repo": ["o/r"] * 4,
                "path": [f"f{i}.py" for i in range(4)],
                "commit": ["1" * 40] * 4,
                "lang": ["python"] * 4,
                "content": ["alpha beta gamma delta epsilon zeta" * 3] * 4,
            }
        )
        cfg = PipelineConfig(jaccard_threshold=0.5)
        res = NearDupPipeline(cfg).run_checkpointed(
            ray_session.data.from_pandas(df), str(tmp_path / "ckpt")
        )
        by_stage = {m["stage"]: m for m in res.metrics["checkpoints"]}
        assert "cc_rounds" in by_stage["labels"]
        assert by_stage["labels"]["cc_rounds"] == res.metrics["cc_rounds"]
        assert [r["num_buckets"] for r in res.metrics["cc_rounds"]] == [1]


class TestSimHashPairs:
    def test_identical_zero_hamming(self, ray_session):
        df = pd.DataFrame(
            {
                "repo": ["o/a", "o/b"],
                "path": ["f1.py", "f2.py"],
                "commit": ["1" * 40, "2" * 40],
                "lang": ["python"] * 2,
                "content": ["alpha beta gamma delta epsilon zeta eta theta"] * 2,
            }
        )
        cfg = PipelineConfig()
        ds = ray_session.data.from_pandas(df)
        sigs = NearDupPipeline(cfg).signatures_for(ds, simhash=True)
        pairs = neardup.simhash_candidate_pairs(sigs, cfg, max_hamming=3).to_pandas()
        assert len(pairs) == 1
        assert pairs["hamming"].iloc[0] == 0

    @staticmethod
    def _sigs(ray_session, ids: list[str], fps: list[int]):
        import pyarrow as pa

        return ray_session.data.from_arrow(
            pa.table(
                {
                    "file_id": pa.array(ids, pa.string()),
                    "simhash": pa.array(fps, pa.uint64()),
                    "n_shingles": pa.array([5] * len(ids), pa.int64()),
                }
            )
        )

    def test_nul_differing_ids_in_one_dedupe_partition(
        self, ray_session, monkeypatch
    ):
        """Two pairs whose first ids differ only after an embedded NUL,
        in ONE cross-band dedupe partition, stay two pairs with their
        own ids. ("x\0a", "x\0b") is 6 bits apart: a candidate, never
        a pair."""
        from duplicate_finder_ray.stages import exchange

        monkeypatch.setattr(exchange, "default_partitions", lambda: 1)
        sigs = self._sigs(ray_session, ["y", "x\0b", "x\0a"], [0, 0b111000, 0b111])
        pairs = neardup.simhash_candidate_pairs(sigs, PipelineConfig(), 3)
        got = {(r["a"], r["b"], r["hamming"]) for r in pairs.take_all()}
        assert got == {("x\0a", "y", 3), ("x\0b", "y", 3)}

    def test_binding_cap_keeps_first_members_by_file_id_and_warns(
        self, ray_session
    ):
        """Five equal fingerprints share a bucket in every block; a cap
        of 3 emits only the pairs among the three smallest file_ids and
        the emitting kernel warns."""
        import pyarrow as pa

        ids = ["f4", "f2", "f0", "f3", "f1"]
        sigs = self._sigs(ray_session, ids, [7] * 5)
        pairs = neardup.simhash_candidate_pairs(
            sigs, PipelineConfig(band_bucket_cap=3), 3
        )
        got = {(r["a"], r["b"], r["hamming"]) for r in pairs.take_all()}
        assert got == {("f0", "f1", 0), ("f0", "f2", 0), ("f1", "f2", 0)}

        rows = pa.table(
            {
                "bkey": pa.array([9] * 5, pa.uint64()),
                "file_id": ids,
                "simhash": pa.array([7] * 5, pa.uint64()),
            }
        )
        with pytest.warns(RuntimeWarning, match="SimHash bucket cap 3 BINDING"):
            out = neardup.simhash_bucket_pairs(rows, 3, 10_000_000, 3)
        assert sorted(zip(out["a"].to_pylist(), out["b"].to_pylist())) == [
            ("f0", "f1"),
            ("f0", "f2"),
            ("f1", "f2"),
        ]
