"""Checkpoint / resume / lineage tests (M7)."""

import json
import os

import pandas as pd
import pyarrow as pa
import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
from duplicate_finder_ray.sources.code_table import synthetic_code_corpus
from duplicate_finder_ray.state.checkpoint import (
    CheckpointManager,
    config_hash,
    sha_xor_invariant,
)


class TestCheckpointManager:
    def test_save_load_roundtrip(self, ray_session, tmp_path):
        mgr = CheckpointManager(str(tmp_path), {"x": 1})
        df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        out = mgr.save("s1", ray_session.data.from_pandas(df))
        assert mgr.has("s1")
        got = out.to_pandas().sort_values("a").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, df)

    def test_config_hash_invalidates(self, ray_session, tmp_path):
        df = pd.DataFrame({"a": [1]})
        m1 = CheckpointManager(str(tmp_path), {"x": 1})
        m1.save("s", ray_session.data.from_pandas(df))
        m2 = CheckpointManager(str(tmp_path), {"x": 2})
        assert m1.has("s") and not m2.has("s")

    def test_run_stage_skips_completed(self, ray_session, tmp_path):
        mgr = CheckpointManager(str(tmp_path), {"x": 1})
        calls = []

        def make():
            calls.append(1)
            return ray_session.data.from_pandas(pd.DataFrame({"a": [1, 2]}))

        mgr.run_stage("s", make)
        mgr.run_stage("s", make)
        assert len(calls) == 1  # second run resumed from checkpoint
        mgr.run_stage("s", make, resume=False)
        assert len(calls) == 2

    def test_resave_replaces_not_accretes(self, ray_session, tmp_path):
        """Re-saving over a COMPLETED checkpoint must replace it — the old
        behavior left prior shards beside new ones and load() returned
        duplicated rows (3-row stage reloading as 6)."""
        mgr = CheckpointManager(str(tmp_path), {"x": 1})
        df = pd.DataFrame({"a": [1, 2, 3]})
        mgr.save("s", ray_session.data.from_pandas(df))
        out = mgr.save("s", ray_session.data.from_pandas(df))
        assert out.count() == 3
        assert sorted(out.to_pandas()["a"]) == [1, 2, 3]

    def test_empty_stage_loads_typed_when_materialized(self, ray_session, tmp_path):
        mgr = CheckpointManager(str(tmp_path), {"x": 1})
        empty = pa.schema([("a", pa.int64()), ("b", pa.string())]).empty_table()
        mgr.save("s", ray_session.data.from_arrow(empty))
        out = mgr.load("s").materialize()
        assert out.count() == 0
        assert out.schema().names == ["a", "b"]

    def test_missing_success_means_incomplete(self, ray_session, tmp_path):
        mgr = CheckpointManager(str(tmp_path), {"x": 1})
        mgr.save("s", ray_session.data.from_pandas(pd.DataFrame({"a": [1]})))
        os.unlink(os.path.join(mgr.stage_dir("s"), "_SUCCESS"))
        assert not mgr.has("s")

    def test_lineage_rows_per_partition(self, ray_session, tmp_path):
        mgr = CheckpointManager(str(tmp_path), {"x": 1})
        ds = ray_session.data.from_pandas(
            pd.DataFrame({"a": range(100)})
        ).repartition(4)
        mgr.save("s", ds)
        lin = mgr.lineage_table().to_pandas()
        assert len(lin) >= 1
        assert lin["rows"].sum() == 100
        assert (lin["bytes"] > 0).all()
        assert set(lin["stage"]) == {"s"}

    def test_dataclass_config_hash_stable(self):
        assert config_hash(PipelineConfig()) == config_hash(PipelineConfig())
        assert config_hash(PipelineConfig()) != config_hash(
            PipelineConfig(jaccard_threshold=0.5)
        )


def _forced_scale(monkeypatch) -> PipelineConfig:
    """A config, with the candidate stage's two module limits patched,
    that forces every size-threshold path to its scale side."""
    from duplicate_finder_ray.stages import neardup as nd_stages

    monkeypatch.setattr(nd_stages, "BAND_EXCHANGE_BROADCAST_LIMIT", 0)
    monkeypatch.setattr(nd_stages, "PAIR_DEDUPE_BROADCAST_LIMIT", 0)
    return PipelineConfig(jaccard_threshold=0.8, broadcast_verify_limit=0)


def _sorted_table(ds, keys: list[str]) -> pa.Table:
    import ray

    blocks = [b for b in ray.get(ds.to_arrow_refs()) if len(b)]
    return pa.concat_tables(blocks).sort_by([(k, "ascending") for k in keys])


class TestResumablePipeline:
    @pytest.fixture(scope="class")
    def corpus_ds(self, ray_session):
        return ray_session.data.from_pandas(synthetic_code_corpus(120, seed=3))

    @pytest.mark.parametrize("scale", [False, True], ids=["default", "forced_scale"])
    def test_checkpointed_equals_direct(
        self, ray_session, corpus_ds, tmp_path, monkeypatch, scale
    ):
        """Bit-identical signatures, pairs and labels, every column, on
        both sides of the band-exchange, pair-dedupe and verify
        thresholds."""
        cfg = (
            _forced_scale(monkeypatch)
            if scale
            else PipelineConfig(jaccard_threshold=0.8)
        )
        direct = NearDupPipeline(cfg).run_on(corpus_ds)
        ckpt = NearDupPipeline(cfg).run_checkpointed(corpus_ds, str(tmp_path))
        for name, keys in (
            ("signatures", ["file_id"]),
            ("pairs", ["a", "b"]),
            ("labels", ["file_id"]),
        ):
            d = _sorted_table(getattr(direct, name), keys)
            c = _sorted_table(getattr(ckpt, name), keys)
            assert d.column_names == c.column_names, name
            for col in d.column_names:
                assert d.column(col).type == c.column(col).type, (name, col)
                assert d.column(col).to_pylist() == c.column(col).to_pylist(), (
                    name,
                    col,
                )
        assert direct.pairs.count() > 0

    def test_checkpointed_runs_fused_exchange_and_prestart(
        self, ray_session, corpus_ds, tmp_path, monkeypatch
    ):
        """At scale the checkpointed run takes the same stage calls as
        run_on: the band exchange fuses the explode (a premap over the
        signature blocks) and the verify split is prestarted once."""
        from duplicate_finder_ray.stages import exchange
        from duplicate_finder_ray.stages import neardup as nd_stages

        band_premaps, prestarts = [], []
        real_exchange = exchange.hash_exchange
        real_prestart = nd_stages.prestart_verify_split

        def recording_exchange(source, part_of, *args, premap=None, **kwargs):
            if part_of == "band_hash":  # the LSH band exchange's key
                band_premaps.append(premap)
            return real_exchange(source, part_of, *args, premap=premap, **kwargs)

        def recording_prestart(*args, **kwargs):
            prestarts.append(1)
            return real_prestart(*args, **kwargs)

        monkeypatch.setattr(exchange, "hash_exchange", recording_exchange)
        monkeypatch.setattr(nd_stages, "prestart_verify_split", recording_prestart)
        res = NearDupPipeline(_forced_scale(monkeypatch)).run_checkpointed(
            corpus_ds, str(tmp_path)
        )
        assert res.pairs.count() > 0
        assert len(band_premaps) == 1 and band_premaps[0] is not None
        assert len(prestarts) == 1

    def test_signature_format_change_recomputes(
        self, ray_session, corpus_ds, tmp_path, monkeypatch
    ):
        """A signatures stage written under another signature-table
        layout is recomputed, not loaded; the same layout resumes."""
        from duplicate_finder_ray.stages import neardup as nd_stages

        cfg = PipelineConfig(jaccard_threshold=0.8)
        root = str(tmp_path)
        calls = []
        real_signatures = nd_stages.signatures
        fmt = nd_stages.SIGNATURE_FORMAT

        def counting(*args, **kwargs):
            calls.append(1)
            return real_signatures(*args, **kwargs)

        monkeypatch.setattr(nd_stages, "signatures", counting)
        monkeypatch.setattr(nd_stages, "SIGNATURE_FORMAT", fmt - 1)
        old = NearDupPipeline(cfg).run_checkpointed(corpus_ds, root)
        monkeypatch.setattr(nd_stages, "SIGNATURE_FORMAT", fmt)
        new = NearDupPipeline(cfg).run_checkpointed(corpus_ds, root)
        assert len(calls) == 2
        assert old.metrics["config_hash"] != new.metrics["config_hash"]
        NearDupPipeline(cfg).run_checkpointed(corpus_ds, root)
        assert len(calls) == 2

    def test_resume_skips_completed_stages(self, ray_session, corpus_ds, tmp_path):
        cfg = PipelineConfig(jaccard_threshold=0.8)
        pipe = NearDupPipeline(cfg)
        r1 = pipe.run_checkpointed(corpus_ds, str(tmp_path))
        # capture manifest mtimes, then resume: nothing may be rewritten
        mgr_root = str(tmp_path)
        mtimes = {
            d: os.path.getmtime(os.path.join(mgr_root, d, "_SUCCESS"))
            for d in os.listdir(mgr_root)
            if os.path.exists(os.path.join(mgr_root, d, "_SUCCESS"))
        }
        assert len(mtimes) == 4  # signatures, candidates, verified, labels
        r2 = pipe.run_checkpointed(corpus_ds, str(tmp_path))
        for d, t in mtimes.items():
            assert os.path.getmtime(os.path.join(mgr_root, d, "_SUCCESS")) == t
        assert r1.pairs.count() == r2.pairs.count()

    def test_kill_after_band_exchange_resumes_identically(
        self, ray_session, corpus_ds, tmp_path, monkeypatch
    ):
        """Round-3 VERDICT item 6: the fault path itself. The run is
        KILLED (injected crash) right after the candidates (band
        exchange) manifest lands; the rerun must (a) skip the completed
        signatures + candidates stages untouched, and (b) produce
        labels identical to an uninterrupted direct run."""
        from duplicate_finder_ray.stages import neardup as nd_stages

        cfg = PipelineConfig(jaccard_threshold=0.8)
        root = str(tmp_path)

        real_verify = nd_stages.verify_pairs_exact

        def crash(*a, **k):
            raise RuntimeError("injected kill after band exchange")

        monkeypatch.setattr(nd_stages, "verify_pairs_exact", crash)
        with pytest.raises(RuntimeError, match="injected kill"):
            NearDupPipeline(cfg).run_checkpointed(corpus_ds, root)

        done = {
            d.split("-")[0]
            for d in os.listdir(root)
            if os.path.exists(os.path.join(root, d, "_SUCCESS"))
        }
        assert done == {"stage__signatures", "stage__candidates"}

        mtimes = {
            d: os.path.getmtime(os.path.join(root, d, "_SUCCESS"))
            for d in os.listdir(root)
            if os.path.exists(os.path.join(root, d, "_SUCCESS"))
        }
        monkeypatch.setattr(nd_stages, "verify_pairs_exact", real_verify)
        resumed = NearDupPipeline(cfg).run_checkpointed(corpus_ds, root)
        for d, t in mtimes.items():  # completed stages not rewritten
            assert os.path.getmtime(os.path.join(root, d, "_SUCCESS")) == t

        direct = NearDupPipeline(cfg).run_on(corpus_ds)
        dl = direct.labels.to_pandas().sort_values("file_id").reset_index(drop=True)
        rl = resumed.labels.to_pandas().sort_values("file_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(dl, rl)

    def test_partial_resume_recomputes_only_missing(
        self, ray_session, corpus_ds, tmp_path
    ):
        cfg = PipelineConfig(jaccard_threshold=0.8)
        pipe = NearDupPipeline(cfg)
        pipe.run_checkpointed(corpus_ds, str(tmp_path))
        # kill the LAST stage (labels) — as if the run died mid-final-shuffle
        label_dir = [d for d in os.listdir(str(tmp_path)) if "labels" in d][0]
        os.unlink(os.path.join(str(tmp_path), label_dir, "_SUCCESS"))
        sig_dir = [d for d in os.listdir(str(tmp_path)) if "signatures" in d][0]
        sig_mtime = os.path.getmtime(os.path.join(str(tmp_path), sig_dir, "_SUCCESS"))
        r = pipe.run_checkpointed(corpus_ds, str(tmp_path))
        # signatures untouched; labels rebuilt and complete again
        assert os.path.getmtime(os.path.join(str(tmp_path), sig_dir, "_SUCCESS")) == sig_mtime
        assert os.path.exists(os.path.join(str(tmp_path), label_dir, "_SUCCESS"))
        assert r.labels.count() > 0


class TestShaXorInvariant:
    def test_partition_and_order_insensitive(self, ray_session):
        shas = [f"{i:016x}" + "0" * 48 for i in (3, 5, 9, 17, 33)]
        a = ray_session.data.from_pandas(pd.DataFrame({"sha256": shas}))
        b = ray_session.data.from_pandas(
            pd.DataFrame({"sha256": list(reversed(shas))})
        ).repartition(3)
        assert sha_xor_invariant(a) == sha_xor_invariant(b)

    def test_detects_changed_row(self, ray_session):
        shas = [f"{i:016x}" + "0" * 48 for i in (3, 5, 9)]
        mutated = shas[:2] + [f"{999:016x}" + "0" * 48]
        a = ray_session.data.from_pandas(pd.DataFrame({"sha256": shas}))
        b = ray_session.data.from_pandas(pd.DataFrame({"sha256": mutated}))
        assert sha_xor_invariant(a) != sha_xor_invariant(b)
