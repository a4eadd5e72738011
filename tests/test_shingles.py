"""Unit tests for shingling / MinHash / SimHash primitives."""

import numpy as np
import pytest

from duplicate_finder_ray.functions.shingles import (
    Shingler,
    band_keys,
    estimated_jaccard,
    exact_jaccard,
    hamming64,
    minhash_params,
    minhash_signature,
    simhash64,
    simhash_band_keys,
    token_id,
)


class TestShingler:
    def test_deterministic(self):
        a = Shingler(k=3).shingle_hashes("the quick brown fox jumps")
        b = Shingler(k=3).shingle_hashes("the quick brown fox jumps")
        np.testing.assert_array_equal(a, b)

    def test_count(self):
        # n tokens, k=3 → n-k+1 shingles (all distinct here)
        sh = Shingler(k=3).shingle_hashes("a b c d e f")
        assert len(sh) == 4

    def test_short_doc_empty(self):
        assert len(Shingler(k=5).shingle_hashes("one two")) == 0
        assert len(Shingler(k=5).shingle_hashes("")) == 0

    def test_order_sensitivity(self):
        a = Shingler(k=2).shingle_hashes("x y z")
        b = Shingler(k=2).shingle_hashes("z y x")
        assert set(a.tolist()) != set(b.tolist())

    def test_modes(self):
        line = Shingler(k=2, mode="line")
        assert len(line.shingle_hashes("a\nb\nc\n")) == 2
        char = Shingler(k=4, mode="char")
        assert len(char.shingle_hashes("abcde")) == 2
        with pytest.raises(ValueError):
            Shingler(mode="bogus")

    def test_vocab_cache_consistency(self):
        sh = Shingler(k=2)
        first = sh.shingle_hashes("alpha beta gamma")
        again = sh.shingle_hashes("alpha beta gamma")
        np.testing.assert_array_equal(first, again)
        assert token_id("alpha") == sh._vocab["alpha"]


class TestMinHash:
    def test_identical_sets_identical_sigs(self):
        a, b = minhash_params(64, seed=1)
        s = Shingler(k=3).shingle_hashes("one two three four five six")
        np.testing.assert_array_equal(
            minhash_signature(s, a, b), minhash_signature(s.copy(), a, b)
        )

    def test_estimator_tracks_true_jaccard(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2**63, 1000, dtype=np.uint64)
        # overlap 80%: replace 200 elements
        other = base.copy()
        other[:200] = rng.integers(0, 2**63, 200, dtype=np.uint64)
        sa = np.unique(base)
        sb = np.unique(other)
        true_j = exact_jaccard(sa, sb)
        a, b = minhash_params(256, seed=3)
        est = estimated_jaccard(
            minhash_signature(sa, a, b), minhash_signature(sb, a, b)
        )
        assert abs(est - true_j) < 0.1

    def test_empty_set_sentinel(self):
        a, b = minhash_params(16, seed=0)
        sig = minhash_signature(np.empty(0, dtype=np.uint64), a, b)
        assert (sig == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_seed_changes_sigs(self):
        s = Shingler(k=2).shingle_hashes("p q r s t")
        a1, b1 = minhash_params(32, seed=1)
        a2, b2 = minhash_params(32, seed=2)
        assert not np.array_equal(
            minhash_signature(s, a1, b1), minhash_signature(s, a2, b2)
        )


class TestSimHash:
    def test_identical(self):
        s = Shingler(k=2).shingle_hashes("m n o p q")
        assert simhash64(s) == simhash64(s.copy())

    def test_similar_docs_close_different_docs_far(self):
        sh = Shingler(k=3)
        base = "def compute total for item in values return total " * 10
        near = base.replace("item", "entry", 1)
        far = "completely unrelated words about seventeen ducks on a pond " * 10
        f_base = np.array([simhash64(sh.shingle_hashes(base))], dtype=np.uint64)
        f_near = np.array([simhash64(sh.shingle_hashes(near))], dtype=np.uint64)
        f_far = np.array([simhash64(sh.shingle_hashes(far))], dtype=np.uint64)
        assert hamming64(f_base, f_near)[0] < hamming64(f_base, f_far)[0]

    def test_empty_zero(self):
        assert simhash64(np.empty(0, dtype=np.uint64)) == 0


class TestBanding:
    def test_band_keys_shape_and_determinism(self):
        rng = np.random.default_rng(5)
        sigs = rng.integers(0, 2**63, (10, 128), dtype=np.uint64)
        k1 = band_keys(sigs, 32)
        k2 = band_keys(sigs.copy(), 32)
        assert k1.shape == (10, 32)
        np.testing.assert_array_equal(k1, k2)

    def test_identical_band_block_same_key(self):
        rng = np.random.default_rng(6)
        s1 = rng.integers(0, 2**63, (1, 128), dtype=np.uint64)
        s2 = s1.copy()
        s2[0, 4:] = rng.integers(0, 2**63, 124, dtype=np.uint64)
        k1, k2 = band_keys(s1, 32)[0], band_keys(s2, 32)[0]
        assert k1[0] == k2[0]           # first band (rows 0-3) identical
        assert (k1[1:] != k2[1:]).any()  # later bands differ

    def test_same_rows_different_band_differ(self):
        # identical row-block content in different band positions must
        # not collide (band index folded into the key)
        sigs = np.tile(
            np.arange(4, dtype=np.uint64), (1, 32)
        ).reshape(1, 128)
        keys = band_keys(sigs, 32)[0]
        assert len(np.unique(keys)) == 32

    def test_simhash_blocks(self):
        fps = np.array([0x0123456789ABCDEF], dtype=np.uint64)
        blocks = simhash_band_keys(fps, 4)[0]
        assert blocks.tolist() == [0xCDEF, 0x89AB, 0x4567, 0x0123]


class TestBatchKernels:
    """The CSR batch kernels must be bit-identical to the per-doc
    functions — the signature pass routes every signature through them."""

    def test_batch_matches_per_doc_all_modes(self):
        from duplicate_finder_ray.functions.shingles import (
            Shingler,
            batch_minhash,
            batch_simhash,
            minhash_params,
            minhash_signature,
            simhash64,
        )

        rng = np.random.default_rng(5)
        words = ["foo", "bar", "baz", "qux", "if", "ret", "x", "y1", "z"]
        a, b = minhash_params(64, 7)
        work = {}
        for mode in ("token", "line", "char"):
            for trial in range(15):
                texts = []
                for _ in range(rng.integers(1, 25)):
                    nw = rng.integers(0, 40)
                    sep = "\n" if rng.random() < 0.3 else " "
                    texts.append(sep.join(rng.choice(words, size=nw).tolist()))
                if trial % 7 == 0:
                    texts[0] = ""  # empty doc
                if trial % 5 == 0:
                    texts.append(None)  # null content
                sh = Shingler(k=3, mode=mode)
                flat, offs = sh.shingle_hashes_batch(texts)
                sigs = batch_minhash(flat, offs, a, b, work=work)
                sims = batch_simhash(flat, offs, work=work)
                ref_sh = Shingler(k=3, mode=mode)
                for i, t in enumerate(texts):
                    ref = ref_sh.shingle_hashes(t if t is not None else "")
                    np.testing.assert_array_equal(ref, flat[offs[i]:offs[i+1]])
                    np.testing.assert_array_equal(
                        minhash_signature(ref, a, b), sigs[i]
                    )
                    assert simhash64(ref) == int(sims[i])

    def test_batch_all_empty_docs(self):
        from duplicate_finder_ray.functions.shingles import (
            Shingler,
            batch_minhash,
            batch_simhash,
            minhash_params,
        )

        a, b = minhash_params(16, 3)
        flat, offs = Shingler(k=5).shingle_hashes_batch(["", "a b", None])
        assert len(flat) == 0 and offs.tolist() == [0, 0, 0, 0]
        sigs = batch_minhash(flat, offs, a, b)
        assert (sigs == np.uint64(0xFFFFFFFFFFFFFFFF)).all()
        assert batch_simhash(flat, offs).tolist() == [0, 0, 0]

    def test_batch_spans_row_blocks(self):
        # one doc larger than _ROW_BLOCK shingles: the blocked kernels
        # must min/vote-merge across block boundaries
        from duplicate_finder_ray.functions.shingles import (
            _ROW_BLOCK,
            Shingler,
            batch_minhash,
            batch_simhash,
            minhash_params,
            minhash_signature,
            simhash64,
        )

        rng = np.random.default_rng(11)
        big = " ".join(
            f"t{v}" for v in rng.integers(0, 1 << 30, size=_ROW_BLOCK + 500)
        )
        texts = ["small doc one two three four five", big]
        sh = Shingler(k=3)
        flat, offs = sh.shingle_hashes_batch(texts)
        assert offs[2] - offs[1] > _ROW_BLOCK
        a, b = minhash_params(32, 9)
        sigs = batch_minhash(flat, offs, a, b)
        sims = batch_simhash(flat, offs)
        ref_sh = Shingler(k=3)
        for i, t in enumerate(texts):
            ref = ref_sh.shingle_hashes(t)
            np.testing.assert_array_equal(minhash_signature(ref, a, b), sigs[i])
            assert simhash64(ref) == int(sims[i])


class TestBatchKernelProperty:
    def test_batch_equals_per_doc_on_random_texts(self):
        """Hypothesis: the whole-batch CSR kernels (shingle_hashes_batch
        → batch_minhash/batch_simhash) are bit-identical to the per-doc
        reference functions on arbitrary unicode texts, all modes."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from duplicate_finder_ray.functions.shingles import (
            batch_minhash,
            batch_simhash,
        )

        a, b = minhash_params(32, seed=7)

        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(
                st.text(
                    st.characters(codec="utf-8"),
                    min_size=0,
                    max_size=80,
                ),
                min_size=1,
                max_size=6,
            ),
            st.sampled_from(["token", "char", "line"]),
            st.sampled_from([2, 3, 5]),
        )
        def check(texts, mode, k):
            sh = Shingler(k=k, mode=mode)
            flat, offs = sh.shingle_hashes_batch(texts)
            sigs = batch_minhash(flat, offs, a, b)
            sims = batch_simhash(flat, offs)
            for i, t in enumerate(texts):
                hs = sh.shingle_hashes(t)
                np.testing.assert_array_equal(
                    np.sort(np.unique(hs)), np.sort(flat[offs[i] : offs[i + 1]])
                )
                np.testing.assert_array_equal(
                    sigs[i], minhash_signature(np.unique(hs), a, b)
                )
                assert sims[i] == simhash64(np.unique(hs))

        check()


class TestColumnTokenizePath:
    def test_column_equals_list_path(self):
        import pyarrow as pa

        from duplicate_finder_ray.functions.shingles import Shingler

        ascii_texts = ["a b c d e f g", "x_1 y2 z! a b c d", "", None, "short"]
        uni_texts = ["héllo wörld a b c d é", "中文 分词 a b c d e", "a b c d e"]
        for texts in (ascii_texts, uni_texts, ascii_texts + uni_texts):
            col = pa.array(texts, pa.string())
            s1, s2 = Shingler(k=3), Shingler(k=3)
            f1, o1 = s1.shingle_hashes_batch_column(col)
            f2, o2 = s2.shingle_hashes_batch(texts)
            np.testing.assert_array_equal(o1, o2)
            np.testing.assert_array_equal(f1, f2)

    def test_column_property_random_unicode(self):
        import pyarrow as pa

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from duplicate_finder_ray.functions.shingles import Shingler

        @settings(max_examples=50, deadline=None)
        @given(
            st.lists(
                st.text(st.characters(codec="utf-8"), max_size=60),
                min_size=1,
                max_size=5,
            )
        )
        def check(texts):
            col = pa.array(texts, pa.string())
            f1, o1 = Shingler(k=2).shingle_hashes_batch_column(col)
            f2, o2 = Shingler(k=2).shingle_hashes_batch(texts)
            np.testing.assert_array_equal(o1, o2)
            np.testing.assert_array_equal(f1, f2)

        check()


def _assert_matches_per_doc(sh, texts, ascii_only=False):
    """``sh``'s column kernel against a fresh per-doc reference."""
    import pyarrow as pa

    flat, offs = sh.shingle_hashes_batch_column(
        pa.array(texts, pa.string()), ascii_only=ascii_only
    )
    ref = Shingler(k=sh.k, mode=sh.mode, token_hash=sh.token_hash)
    assert len(offs) == len(texts) + 1
    for i, t in enumerate(texts):
        np.testing.assert_array_equal(
            flat[offs[i] : offs[i + 1]], ref.shingle_hashes(t or "")
        )


def _assert_memo_consistent(sh, bound):
    from duplicate_finder_ray.functions.shingles import token_id_md5

    tokens = sh._memo_tokens.to_pylist()
    assert len(tokens) == len(sh._memo_ids) <= bound
    assert len(set(tokens)) == len(tokens)
    one = token_id if sh.token_hash == "blake2b" else token_id_md5
    assert [one(t) for t in tokens] == sh._memo_ids.tolist()


def _docs(rng, words, n_docs, max_len=30):
    docs = [
        " ".join(rng.choice(words, size=rng.integers(0, max_len)).tolist())
        for _ in range(n_docs)
    ]
    # null, empty and fewer-than-k-token docs in every batch
    return docs + [None, "", "one two"]


class TestTokenMemo:
    """One ``Shingler`` reused across many batches, as in a signature
    worker's kernel cache, must equal the per-doc reference whatever its
    memo holds."""

    def test_memo_filling_full_and_past_bound(self, monkeypatch):
        from duplicate_finder_ray.functions import shingles

        monkeypatch.setattr(shingles, "_MEMO_MAX", 40)
        rng = np.random.default_rng(3)
        sh = Shingler(k=3)
        sizes = []
        # 12-word vocab (filling), then 400 words: the memo fills up,
        # then later batches miss a frozen memo
        for vocab in [12, 12, 400, 400, 400, 400]:
            words = np.array([f"w{i}" for i in range(vocab)])
            _assert_matches_per_doc(sh, _docs(rng, words, 30))
            _assert_memo_consistent(sh, 40)
            sizes.append(len(sh._memo_ids))
        assert sizes[0] == sizes[1] == 14  # the 12 words, "one", "two"
        assert sizes[2:] == [40] * 4

    @pytest.mark.parametrize("bound", [None, 25])
    def test_ascii_and_non_ascii_batches_share_memo(self, monkeypatch, bound):
        from duplicate_finder_ray.functions import shingles

        if bound is not None:
            monkeypatch.setattr(shingles, "_MEMO_MAX", bound)
        ascii_words = np.array(["foo", "bar", "baz", "qux", "x1", "y_2", "café"])
        uni_words = np.array(["héllo", "wörld", "中文", "foo", "bar", "ß", "x1"])
        rng = np.random.default_rng(4)
        sh = Shingler(k=2)
        for trial in range(8):
            words = uni_words if trial % 2 else ascii_words[:-1]
            _assert_matches_per_doc(sh, _docs(rng, words, 20))
            _assert_memo_consistent(sh, bound or shingles._MEMO_MAX)
        # both tokenize paths filled the one memo
        assert {"héllo", "baz"} <= set(sh._memo_tokens.to_pylist())

    def test_md5_family_ascii_only(self, monkeypatch):
        from duplicate_finder_ray.functions import shingles

        monkeypatch.setattr(shingles, "_MEMO_MAX", 10)
        words = np.array(["alpha", "beta", "gämma", "δelta", "x_1", "中", "z9"])
        rng = np.random.default_rng(5)
        sh = Shingler(k=2, token_hash="md5")
        for _ in range(6):
            texts = _docs(rng, words, 15)
            # the md5 family tokenizes ASCII-only whatever the flag says
            _assert_matches_per_doc(sh, texts, ascii_only=True)
            _assert_matches_per_doc(sh, texts, ascii_only=False)
            _assert_memo_consistent(sh, 10)

    def test_empty_batches(self):
        import pyarrow as pa

        sh = Shingler(k=3)
        for texts in ([], [None], ["", None, "a b"]):
            flat, offs = sh.shingle_hashes_batch_column(pa.array(texts, pa.string()))
            assert len(flat) == 0
            assert offs.tolist() == [0] * (len(texts) + 1)
        assert len(sh._memo_ids) == 2  # "a", "b"

    @pytest.mark.parametrize("n_docs", [200, 300, 70_000])
    def test_doc_index_widths(self, n_docs):
        """The per-doc sort narrows the doc index to uint8, uint16 or
        uint32 by batch size; every width must give the reference."""
        rng = np.random.default_rng(n_docs)
        words = np.array([f"t{i}" for i in range(50)])
        texts = [
            " ".join(rng.choice(words, size=rng.integers(0, 8)).tolist())
            for _ in range(n_docs)
        ]
        texts[-1] = None
        _assert_matches_per_doc(Shingler(k=2), texts)


def _regex_tokens(arr):
    """The reference tokenizer: RE2's ``[^0-9A-Za-z_]+`` split, empty
    tokens dropped."""
    import pyarrow.compute as pc

    split = pc.split_pattern_regex(pc.fill_null(arr, ""), r"[^0-9A-Za-z_]+")
    return [[t for t in row if t] for row in split.to_pylist()]


def _lut_tokens(arr):
    """The production tokenizer: byte-table map + whitespace split,
    empty tokens dropped."""
    import pyarrow.compute as pc

    from duplicate_finder_ray.functions.shingles import _separators_to_spaces

    split = pc.ascii_split_whitespace(_separators_to_spaces(pc.fill_null(arr, "")))
    return [[t for t in row if t] for row in split.to_pylist()]


_TOKENIZER_TEXTS = [
    "def f(x): return x+1",
    None,
    "",
    "!!! ... ;;; ()",
    "  leading and trailing  ",
    "--x--",
    "tab\there\rcr\vvt\fff\nnl",
    "héllo wörld_ß 中文x y",
    "snake_case CamelCase 42abc",
    None,
    "é",
    "a",
]


class TestByteTableTokenizer:
    """The byte-table split must give the RE2 split's tokens on every
    path that tokenizes in Arrow."""

    @pytest.mark.parametrize("large", [False, True])
    @pytest.mark.parametrize("lo,hi", [(0, None), (1, None), (3, 9), (7, 8), (5, 5)])
    def test_split_equals_regex(self, large, lo, hi):
        import pyarrow as pa

        typ = pa.large_string() if large else pa.string()
        arr = pa.array(_TOKENIZER_TEXTS, typ)
        arr = arr.slice(lo, None if hi is None else hi - lo)
        assert arr.offset == lo
        assert _lut_tokens(arr) == _regex_tokens(arr)

    def test_split_property(self):
        import pyarrow as pa

        from hypothesis import given, settings
        from hypothesis import strategies as st

        alphabet = st.sampled_from(list("aZ9_ \t\r\n\v\f.-+é中ß€") + ["\x00"])

        @settings(max_examples=80, deadline=None)
        @given(
            st.lists(st.one_of(st.none(), st.text(alphabet, max_size=30)), max_size=8),
            st.integers(0, 8),
            st.booleans(),
        )
        def check(texts, lo, large):
            arr = pa.array(texts, pa.large_string() if large else pa.string())
            arr = arr.slice(min(lo, len(arr)))
            assert _lut_tokens(arr) == _regex_tokens(arr)

        check()

    @pytest.mark.parametrize(
        "token_hash,ascii_only", [("blake2b", True), ("md5", False), ("md5", True)]
    )
    def test_non_ascii_bytes_are_separators(self, token_hash, ascii_only):
        """ASCII-only tokenization (the flag, or the md5 family) splits
        at every non-ASCII byte: the token ids are the digests of the
        RE2 tokens, on a sliced column."""
        import pyarrow as pa

        from duplicate_finder_ray.functions.shingles import token_id_md5

        one = token_id if token_hash == "blake2b" else token_id_md5
        arr = pa.array(["skip"] + _TOKENIZER_TEXTS, pa.string()).slice(1)
        ids, counts = Shingler(k=2, token_hash=token_hash)._token_ids_column(
            arr, ascii_only
        )
        ref = _regex_tokens(arr)
        assert counts.tolist() == [len(r) for r in ref]
        assert ids.tolist() == [one(t) for r in ref for t in r]
        assert "héllo" not in [t for r in ref for t in r]  # really split


class TestMinHashTile:
    """``batch_minhash`` evaluates (perms × shingles) tiles; every
    layout must equal the per-doc ``minhash_signature``."""

    @staticmethod
    def _check(sizes, num_perms=32, work=None, seed=0):
        from duplicate_finder_ray.functions.shingles import (
            batch_minhash,
            minhash_signature,
        )

        rng = np.random.default_rng(seed)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        flat = rng.integers(0, 2**64, size=int(offsets[-1]), dtype=np.uint64)
        a, b = minhash_params(num_perms, seed + 1)
        sigs = batch_minhash(flat, offsets, a, b, work=work)
        assert sigs.shape == (len(sizes), num_perms)
        assert sigs.flags.c_contiguous
        for i in range(len(sizes)):
            np.testing.assert_array_equal(
                sigs[i], minhash_signature(flat[offsets[i] : offsets[i + 1]], a, b)
            )

    def test_doc_spanning_tiles(self):
        from duplicate_finder_ray.functions.shingles import _ROW_BLOCK

        # a doc over three tiles between docs that straddle tile edges
        self._check([_ROW_BLOCK - 3, 2 * _ROW_BLOCK + 10, 5, _ROW_BLOCK, 1])

    def test_runs_of_empty_docs(self):
        from duplicate_finder_ray.functions.shingles import _ROW_BLOCK

        self._check([0, 0, 3, 0, 0, 0, _ROW_BLOCK + 7, 0, 1, 0, 0])

    def test_one_doc_and_empty_batches(self):
        self._check([17])
        self._check([0])
        self._check([])

    def test_workspace_reused_across_widths(self):
        work: dict = {}
        for num_perms in (128, 16, 64):
            self._check([40, 0, 9000, 3], num_perms=num_perms, work=work)
        assert work["minhash_tile"].shape[0] == 128


class TestMissDigests:
    """Miss digests read straight from Arrow buffers must equal the
    per-token ``token_id`` / ``token_id_md5``."""

    TOKENS = ["foo", "", "héllo", "中文", "x_1", "ß", "a" * 300, "foo"]

    @pytest.mark.parametrize("token_hash", ["blake2b", "md5"])
    @pytest.mark.parametrize("large", [False, True])
    def test_digest_ids(self, token_hash, large):
        import pyarrow as pa

        from duplicate_finder_ray.functions.shingles import _digest_ids, token_id_md5

        one = token_id if token_hash == "blake2b" else token_id_md5
        typ = pa.large_string() if large else pa.string()
        arr = pa.array(["skip", "me"] + self.TOKENS, typ)
        for values in (arr, arr.slice(2), arr.slice(3, 2), arr.slice(8, 0)):
            got = _digest_ids(values, token_hash)
            assert got.dtype == np.uint64
            assert got.tolist() == [one(t) for t in values.to_pylist()]

    @pytest.mark.parametrize("token_hash", ["blake2b", "md5"])
    def test_ids_arrow_list_path(self, token_hash):
        """Non-ASCII tokens reach ``_ids_arrow`` through the Python
        tokenizer; cold and warm memo both give the digests."""
        from duplicate_finder_ray.functions.shingles import token_id_md5

        one = token_id if token_hash == "blake2b" else token_id_md5
        sh = Shingler(k=2, token_hash=token_hash)
        texts = ["héllo wörld 中文 foo", None, "ß x_1 héllo new"]
        for _ in range(2):
            ids, counts = sh._token_ids_list(texts)
            units = [u for t in texts for u in sh.units(t or "")]
            assert counts.sum() == len(units)
            assert ids.tolist() == [one(u) for u in units]
