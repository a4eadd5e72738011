"""Similarity-search tests: brute-force top-k vs numpy oracle, cosine
pairs vs O(n²) oracle, LSH recall on planted near-dup clusters."""

import numpy as np
import pandas as pd
import pytest

from duplicate_finder_ray.stages import similarity


def make_embeddings(n: int, d: int = 32, seed: int = 7, planted_groups: int = 0):
    """Random unit-ish vectors; optionally plant groups of 3 near-dup
    vectors (cosine ≥ ~0.95) at the end."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d))
    rows = [base]
    for g in range(planted_groups):
        v = rng.standard_normal(d)
        for _ in range(3):
            rows.append((v + 0.12 * rng.standard_normal(d))[None, :])
    mat = np.vstack(rows)
    return pd.DataFrame(
        {
            "vec_id": np.arange(len(mat), dtype=np.int64),
            "embedding": [row.astype(np.float32) for row in mat],
        }
    )


def brute_force_topk(df: pd.DataFrame, qids, k: int):
    m = np.vstack(df["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = df["vec_id"].to_numpy()
    out = {}
    for q in qids:
        qi = int(np.nonzero(ids == q)[0][0])
        scores = m @ m[qi]
        order = sorted(
            (i for i in range(len(ids)) if ids[i] != q),
            key=lambda i: (-scores[i], ids[i]),
        )[:k]
        out[q] = [(int(ids[i]), scores[i]) for i in order]
    return out


def brute_force_pairs(df: pd.DataFrame, tau: float) -> set[tuple[int, int]]:
    m = np.vstack(df["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    s = m @ m.T
    ids = df["vec_id"].to_numpy()
    ia, ib = np.nonzero(np.triu(s >= tau, k=1))
    return {(int(ids[i]), int(ids[j])) for i, j in zip(ia, ib)}


@pytest.fixture(scope="module")
def emb_df():
    return make_embeddings(120, planted_groups=6)


@pytest.fixture(scope="module")
def emb_ds(ray_session, emb_df):
    # several blocks so local-topk + global reduce actually compose
    return ray_session.data.from_pandas(emb_df).repartition(4)


class TestTopK:
    def test_matches_numpy_oracle(self, emb_df, emb_ds):
        qids = [0, 5, 17]
        got = similarity.topk_neighbors(emb_ds, qids, k=8).to_pandas()
        want = brute_force_topk(emb_df, qids, 8)
        for q in qids:
            sub = got[got["query_id"] == q].sort_values("rank")
            assert sub["vec_id"].tolist() == [v for v, _ in want[q]]
            np.testing.assert_allclose(
                sub["score"].to_numpy(), [s for _, s in want[q]], atol=1e-12
            )
            assert sub["rank"].tolist() == list(range(1, 9))

    def test_excludes_self(self, emb_ds):
        got = similarity.topk_neighbors(emb_ds, [3], k=5).to_pandas()
        assert 3 not in got["vec_id"].tolist()

    def test_zero_vector_safe(self, ray_session):
        df = pd.DataFrame(
            {
                "vec_id": np.array([0, 1, 2], dtype=np.int64),
                "embedding": [
                    np.zeros(8, np.float32),
                    np.ones(8, np.float32),
                    -np.ones(8, np.float32),
                ],
            }
        )
        ds = ray_session.data.from_pandas(df)
        got = similarity.topk_neighbors(ds, [1], k=2).to_pandas()
        assert len(got) == 2  # no NaN blowup from the zero vector


class TestCosinePairs:
    def test_matches_oracle(self, emb_df, emb_ds):
        tau = 0.9
        got = similarity.cosine_pairs(emb_ds, tau).to_pandas()
        keys = set(zip(got["a"].astype(int), got["b"].astype(int)))
        want = brute_force_pairs(emb_df, tau)
        assert want, "fixture must plant near-dup pairs"
        assert keys == want
        assert (got["a"] < got["b"]).all()
        assert (got["score"] >= tau).all()

    def test_lsh_high_precision_and_recall_on_planted(self, emb_df, emb_ds):
        tau = 0.9
        got = similarity.lsh_cosine_pairs(
            emb_ds, tau, n_tables=12, n_bits=8, seed=3
        ).to_pandas()
        keys = set(zip(got["a"].astype(int), got["b"].astype(int)))
        want = brute_force_pairs(emb_df, tau)
        assert keys <= want, "exact verify ⇒ no false positives"
        recall = len(keys & want) / len(want)
        assert recall >= 0.95, f"recall {recall} over {len(want)} planted pairs"

    def test_lsh_deterministic(self, emb_ds):
        a = similarity.lsh_cosine_pairs(emb_ds, 0.9, seed=5).to_pandas()
        b = similarity.lsh_cosine_pairs(emb_ds, 0.9, seed=5).to_pandas()
        ka = sorted(zip(a["a"], a["b"]))
        kb = sorted(zip(b["a"], b["b"]))
        assert ka == kb


    def test_lsh_binding_cap_truncates_and_warns(self, ray_session):
        """Five equal vectors share a bucket in every table; a cap of 3
        scores only the pairs among the three smallest vec_ids, each
        carrying the true bucket size, and the emitting kernel warns."""
        import pyarrow as pa

        vec = np.linspace(-1.0, 1.0, 16, dtype=np.float32)
        df = pd.DataFrame(
            {
                "vec_id": np.array([4, 2, 0, 3, 1], dtype=np.int64),
                "embedding": [vec] * 5,
            }
        )
        got = similarity.lsh_cosine_pairs(
            ray_session.data.from_pandas(df), 0.9, n_tables=4, bucket_cap=3
        )
        rows = {(r["a"], r["b"], r["bucket_size"]) for r in got.take_all()}
        assert rows == {(0, 1, 5), (0, 2, 5), (1, 2, 5)}

        tbl = pa.table(
            {
                "bkey": pa.array([9] * 5, pa.uint64()),
                "vec_id": df["vec_id"].to_numpy(),
            }
        )
        with pytest.warns(
            RuntimeWarning, match="embedding LSH bucket cap 3 BINDING"
        ):
            out = similarity._lsh_bucket_pairs(tbl, 3)
        assert sorted(zip(out["a"].to_pylist(), out["b"].to_pylist())) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]


class TestCosineThresholdSweep:
    THRESHOLDS = np.array([300_000, 500_000, 700_000, 900_000], dtype=np.int64)
    #: the sample regime's estimate on this fixture (62 of 138 vectors
    #: sampled, counts scaled by (138/62)²), pinned so the sample and
    #: its scaling stay what they were
    SAMPLED = {300_000: 456, 500_000: 50, 700_000: 10, 900_000: 10}

    @pytest.mark.parametrize("brute_rows", [1_000, 50])
    def test_regimes_and_materialized_sizes(
        self, emb_df, emb_ds, monkeypatch, brute_rows
    ):
        """At or below ``brute_rows`` the sweep is exact; above it, it
        sweeps a hash sample and never materializes the whole corpus."""
        import ray.data

        sizes = []
        materialize = ray.data.Dataset.materialize

        def spy(ds):
            out = materialize(ds)
            sizes.append(out.count())
            return out

        monkeypatch.setattr(ray.data.Dataset, "materialize", spy)
        got = {
            r["threshold_ppm"]: r["n_pairs"]
            for r in similarity.cosine_threshold_sweep(
                emb_ds, self.THRESHOLDS, 0.3, brute_rows=brute_rows, sample_rows=60
            ).take_all()
        }
        n = len(emb_df)
        if brute_rows >= n:
            m = np.vstack(emb_df["embedding"].to_numpy()).astype(np.float64)
            m /= np.linalg.norm(m, axis=1, keepdims=True)
            ppm = np.round((m @ m.T)[np.triu_indices(n, k=1)] * 1e6)
            want = {int(t): int((ppm >= t).sum()) for t in self.THRESHOLDS}
        else:
            assert sizes and max(sizes) < n
            want = self.SAMPLED
        assert got == want


class TestIVFTopK:
    def test_exhaustive_probe_is_exact(self, emb_df, emb_ds):
        """nprobe=None (probe every cell) must reproduce the brute
        force exactly — same neighbors, same order, same scores —
        even with cell_splits>1 (top-k merges associatively)."""
        qids = [0, 5, 17]
        got = similarity.ivf_topk_neighbors(
            emb_ds, qids, k=8, n_centroids=8, nprobe=None, cell_splits=3
        ).to_pandas()
        want = brute_force_topk(emb_df, qids, 8)
        for q in qids:
            sub = got[got["query_id"] == q].sort_values("rank")
            assert sub["vec_id"].tolist() == [v for v, _ in want[q]]
            np.testing.assert_allclose(
                sub["score"].to_numpy(), [s for _, s in want[q]], atol=1e-12
            )
            assert sub["rank"].tolist() == list(range(1, 9))

    def test_low_nprobe_recall(self, emb_df, emb_ds):
        """Probing half the cells keeps high recall@k on this corpus
        (queries' planted neighbors concentrate in nearby cells)."""
        qids = list(range(120, 138))  # the planted near-dup vectors
        k = 3
        got = similarity.ivf_topk_neighbors(
            emb_ds, qids, k=k, n_centroids=8, nprobe=4, seed=11
        ).to_pandas()
        want = brute_force_topk(emb_df, qids, k)
        hits = total = 0
        for q in qids:
            truth = {v for v, _ in want[q]}
            found = set(got[got["query_id"] == q]["vec_id"].astype(int))
            hits += len(truth & found)
            total += len(truth)
        recall = hits / total
        assert recall >= 0.8, f"recall@{k} {recall}"

    def test_deterministic(self, emb_ds):
        a = similarity.ivf_topk_neighbors(
            emb_ds, [1, 2], k=5, n_centroids=8, nprobe=3, seed=4
        ).to_pandas()
        b = similarity.ivf_topk_neighbors(
            emb_ds, [1, 2], k=5, n_centroids=8, nprobe=3, seed=4
        ).to_pandas()
        pa_ = sorted(map(tuple, a[["query_id", "vec_id", "rank"]].to_numpy()))
        pb = sorted(map(tuple, b[["query_id", "vec_id", "rank"]].to_numpy()))
        assert pa_ == pb

    def test_empty_input(self, ray_session):
        df = pd.DataFrame(
            {
                "vec_id": np.array([], dtype=np.int64),
                "embedding": pd.Series([], dtype=object),
            }
        )
        ds = ray_session.data.from_pandas(df)
        got = similarity.ivf_topk_neighbors(ds, [0], k=3)
        assert got.count() == 0


class TestIncrementalCosinePairs:
    def _split(self, ray_session, emb_df):
        inc_mask = (emb_df["vec_id"] % 7) == 0
        baseline = ray_session.data.from_pandas(
            emb_df[~inc_mask].reset_index(drop=True)
        ).repartition(3)
        increment = ray_session.data.from_pandas(
            emb_df[inc_mask].reset_index(drop=True)
        )
        return baseline, increment, set(emb_df.loc[inc_mask, "vec_id"])

    def test_matches_brute_force_restriction(self, emb_df, ray_session):
        # incremental = full brute-force pair set restricted to pairs
        # touching >= 1 increment vector (incl. inc-vs-inc)
        baseline, increment, inc_ids = self._split(ray_session, emb_df)
        got = {
            (r["a"], r["b"])
            for r in similarity.incremental_cosine_pairs(
                baseline, increment, 0.5
            ).take_all()
        }
        want = {
            (a, b)
            for (a, b) in brute_force_pairs(emb_df, 0.5)
            if a in inc_ids or b in inc_ids
        }
        assert got == want
        assert want, "fixture must contain increment-touching pairs"

    def test_empty_increment(self, emb_df, ray_session):
        baseline = ray_session.data.from_pandas(emb_df)
        increment = ray_session.data.from_pandas(emb_df.iloc[0:0])
        out = similarity.incremental_cosine_pairs(baseline, increment, 0.5)
        assert out.count() == 0

    def test_overlap_guard_no_self_pairs(self, emb_df, ray_session):
        # passing the increment inside the baseline too must not emit
        # (v, v) self pairs or duplicates of inc-vs-inc pairs... self
        # pairs are guarded; inc-inc dupes are the caller's contract,
        # so only assert the self-pair guard here
        ds_all = ray_session.data.from_pandas(emb_df)
        inc = ray_session.data.from_pandas(emb_df.head(10))
        rows = similarity.incremental_cosine_pairs(ds_all, inc, 0.5).take_all()
        assert all(r["a"] != r["b"] for r in rows)


class TestHyperplaneParams:
    def test_meets_target_with_largest_feasible_bits(self):
        import math

        for tau in (0.3, 0.4, 0.6, 0.8, 0.95):
            L, bits = similarity.hyperplane_params_for(tau, 0.9999, max_tables=64)
            p = 1.0 - math.acos(tau) / math.pi
            assert L <= 64
            assert 1 - (1 - p**bits) ** L >= 0.9999
            # one more bit per table must blow the table budget
            if bits < 16:
                q = p ** (bits + 1)
                assert math.log(1e-4) / math.log(1.0 - q) > 64

    def test_degenerate_tau_one(self):
        assert similarity.hyperplane_params_for(1.0, 0.9999) == (1, 1)

    def test_rejects_unreachable_recall(self):
        # target_recall >= 1.0 needs infinitely many tables (log(0));
        # <= 0 is meaningless — both must fail loudly, not with a
        # math-domain error
        import pytest

        for bad in (1.0, 1.5, 0.0, -0.1):
            with pytest.raises(ValueError, match="target_recall"):
                similarity.hyperplane_params_for(0.4, bad)

    def test_extreme_negative_tau_no_crash(self):
        # p -> 0 underflows q = p**bits to 0.0 for large bits; those
        # bit-widths must be skipped, not divide by log(1) = 0
        L, bits = similarity.hyperplane_params_for(-0.999999, 0.9)
        assert L >= 1 and bits >= 1
