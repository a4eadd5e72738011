"""Unit tests for the barrier-free hash-exchange primitive, its split
wave and its key-hashing kernel."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.stages.exchange import (
    default_partitions,
    grouped_aggregate,
    hash_exchange,
    partition_ids,
    split_wave,
)

_EMPTY = pa.schema([("k", pa.int64()), ("n", pa.int64())]).empty_table()


def _make_fns(form: str):
    # closures, not module-level functions: workers can't import the
    # tests package, and closures pickle by value
    def part(tbl: pa.Table, n: int) -> np.ndarray:
        return (tbl.column("k").to_numpy() % n).astype(np.int64)

    def count_reduce(p: int, tbl: pa.Table) -> pa.Table:
        ks, counts = np.unique(tbl.column("k").to_numpy(), return_counts=True)
        return pa.table(
            {"k": pa.array(ks, pa.int64()), "n": pa.array(counts, pa.int64())}
        )

    return (part if form == "callable" else "k"), count_reduce


_FORMS = pytest.mark.parametrize("form", ["callable", "key"])


class TestHashExchange:
    @_FORMS
    def test_counts_match_groupby(self, ray_session, form):
        rng = np.random.default_rng(0)
        ks = rng.integers(0, 50, size=10_000)
        ds = ray_session.data.from_arrow(
            pa.table({"k": pa.array(ks, pa.int64())})
        ).repartition(7)
        part, count_reduce = _make_fns(form)
        out = hash_exchange(ds, part, 5, count_reduce, _EMPTY).take_all()
        got = {r["k"]: r["n"] for r in out}
        want = dict(zip(*np.unique(ks, return_counts=True)))
        assert got == {int(k): int(v) for k, v in want.items()}

    @_FORMS
    def test_partitions_are_disjoint_and_complete(self, ray_session, form):
        ks = np.arange(1000)
        ds = ray_session.data.from_arrow(pa.table({"k": pa.array(ks, pa.int64())}))

        def tag_reduce(p: int, tbl: pa.Table) -> pa.Table:
            kv = tbl.column("k").to_numpy()
            # every row landed in its partition
            if form == "callable":
                assert (kv % 4 == p).all()
            else:
                assert (partition_ids(tbl, ["k"], 4) == p).all()
            return pa.table(
                {
                    "k": pa.array(kv, pa.int64()),
                    "n": pa.array(np.full(len(kv), p, dtype=np.int64)),
                }
            )

        part, _ = _make_fns(form)
        out = hash_exchange(ds, part, 4, tag_reduce, _EMPTY).take_all()
        seen = sorted(r["k"] for r in out)
        assert seen == list(range(1000))

    @_FORMS
    def test_empty_source_keeps_schema(self, ray_session, form):
        ds = ray_session.data.from_arrow(
            pa.table({"k": pa.array([], pa.int64())})
        )
        part, count_reduce = _make_fns(form)
        out = hash_exchange(ds, part, 3, count_reduce, _EMPTY)
        assert out.count() == 0
        assert out.schema().names == ["k", "n"]

    def test_out_of_range_partition_ids_fail_loudly(self, ray_session):
        # the old behavior silently dropped rows whose pid fell outside
        # [0, n_parts) — a buggy partitioner must be an error, not data
        # loss
        ds = ray_session.data.from_arrow(
            pa.table({"k": pa.array([1, 2, 3], pa.int64())})
        )

        def bad_part(tbl: pa.Table, n: int) -> np.ndarray:
            return tbl.column("k").to_numpy().astype(np.int64)  # 3 >= n

        _, count_reduce = _make_fns("callable")
        with pytest.raises(Exception, match="outside"):
            hash_exchange(ds, bad_part, 3, count_reduce, _EMPTY).take_all()

        def negative_part(tbl: pa.Table, n: int) -> np.ndarray:
            return -np.ones(len(tbl), dtype=np.int64)

        with pytest.raises(Exception, match="outside"):
            hash_exchange(
                ds, negative_part, 3, count_reduce, _EMPTY
            ).take_all()

    @_FORMS
    def test_single_partition(self, ray_session, form):
        ds = ray_session.data.from_arrow(
            pa.table({"k": pa.array([1, 1, 2], pa.int64())})
        )
        part, count_reduce = _make_fns(form)
        out = hash_exchange(ds, part, 1, count_reduce, _EMPTY).take_all()
        assert {r["k"]: r["n"] for r in out} == {1: 2, 2: 1}

    def test_multi_column_key_and_default_width(self, ray_session):
        # (g, k) groups split across three blocks meet in one reduce;
        # n_parts=None resolves to default_partitions()
        blocks = [
            pa.table({"g": ["a", "b", "a"], "k": pa.array([1, 1, 2], pa.int64())}),
            pa.table({"g": ["a", "b"], "k": pa.array([1, 1], pa.int64())}),
            pa.table({"g": ["a"], "k": pa.array([2], pa.int64())}),
        ]
        ds = ray_session.data.from_arrow(blocks)

        def group_count(p: int, tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas().groupby(["g", "k"]).size().reset_index()
            return pa.table(
                {
                    "g": pa.array(df["g"], pa.string()),
                    "k": pa.array(df["k"], pa.int64()),
                    "n": pa.array(df[0], pa.int64()),
                }
            )

        empty = pa.schema(
            [("g", pa.string()), ("k", pa.int64()), ("n", pa.int64())]
        ).empty_table()
        out = hash_exchange(ds, ["g", "k"], None, group_count, empty)
        assert out.num_blocks() == default_partitions()
        got = sorted((r["g"], r["k"], r["n"]) for r in out.take_all())
        assert got == [("a", 1, 2), ("a", 2, 2), ("b", 1, 2)]

    @_FORMS
    @pytest.mark.parametrize("rows", [0, 500])
    def test_pandas_blocks_equal_arrow_blocks(self, ray_session, form, rows):
        # the source's blocks reach the split tasks as Ray Data holds
        # them, so pandas blocks must exchange like their Arrow twins
        ks = np.arange(rows, dtype=np.int64) % 37
        frames = [pd.DataFrame({"k": ks[i::3]}) for i in range(3)]
        part, count_reduce = _make_fns(form)

        def run(ds):
            out = hash_exchange(ds, part, 4, count_reduce, _EMPTY)
            assert out.schema().names == ["k", "n"]
            return sorted((r["k"], r["n"]) for r in out.take_all())

        from_pandas = run(ray_session.data.from_pandas(frames))
        from_arrow = run(
            ray_session.data.from_arrow(
                [pa.Table.from_pandas(f, preserve_index=False) for f in frames]
            )
        )
        assert from_pandas == from_arrow
        assert sum(n for _, n in from_pandas) == rows

    def test_failing_upstream_block_raises(self, ray_session):
        # a lazy source that fails on one block is a loud error, never
        # an exchange of the blocks that did arrive
        ds = ray_session.data.from_arrow(
            [pa.table({"k": pa.array([i, i + 10], pa.int64())}) for i in range(6)]
        )

        def poison(tbl: pa.Table) -> pa.Table:
            if 3 in tbl.column("k").to_pylist():
                raise RuntimeError("poisoned block")
            return tbl

        lazy = ds.map_batches(poison, batch_format="pyarrow", batch_size=None)
        part, count_reduce = _make_fns("key")
        with pytest.raises(Exception, match="poisoned block"):
            hash_exchange(lazy, part, 3, count_reduce, _EMPTY)

    @_FORMS
    def test_lazy_source_is_never_materialized(
        self, ray_session, monkeypatch, form
    ):
        # the split wave draws the source's blocks as Ray Data produces
        # them; no copy of the whole source lands first
        rng = np.random.default_rng(1)
        ks = rng.integers(0, 50, size=5_000)
        lazy = (
            ray_session.data.from_arrow(
                pa.table({"k": pa.array(ks, pa.int64())})
            )
            .repartition(6)
            .map_batches(lambda t: t, batch_format="pyarrow")
        )

        def no_materialize(self):
            raise AssertionError("hash_exchange materialized its source")

        monkeypatch.setattr(
            ray_session.data.Dataset, "materialize", no_materialize
        )
        part, count_reduce = _make_fns(form)
        out = hash_exchange(lazy, part, 5, count_reduce, _EMPTY)
        got = {r["k"]: r["n"] for r in out.take_all()}
        want = dict(zip(*np.unique(ks, return_counts=True)))
        assert got == {int(k): int(v) for k, v in want.items()}

    @_FORMS
    def test_empty_blocks_launch_no_split(self, ray_session, monkeypatch, form):
        # blocks whose metadata says 0 rows never reach the split wave;
        # the partitions are those of the source without them
        import duplicate_finder_ray.stages.exchange as exchange

        rng = np.random.default_rng(2)
        full = [
            pa.table({"k": pa.array(rng.integers(0, 40, n), pa.int64())})
            for n in (300, 1, 500)
        ]
        empty = full[0].slice(0, 0)
        drawn = []
        real = exchange.split_wave

        def counting(block_refs, *args):
            def each():
                for ref in block_refs:
                    drawn.append(ref)
                    yield ref

            return real(each(), *args)

        monkeypatch.setattr(exchange, "split_wave", counting)
        part, count_reduce = _make_fns(form)

        def run(blocks):
            drawn.clear()
            src = ray_session.data.from_arrow(blocks)
            out = hash_exchange(src, part, 5, count_reduce, _EMPTY).take_all()
            return sorted((r["k"], r["n"]) for r in out), len(drawn)

        want, n_full = run(full)
        got, n_mixed = run([empty, full[0], empty, full[1], full[2], empty])
        assert (n_full, n_mixed) == (3, 3)
        assert got == want
        drawn.clear()
        only_empty = hash_exchange(
            ray_session.data.from_arrow([empty, empty]),
            part, 5, count_reduce, _EMPTY,
        )
        assert len(drawn) == 0
        assert only_empty.count() == 0
        assert only_empty.schema().names == ["k", "n"]


def _payload_block(seed: int, rows: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 1000, rows)
    return pa.table(
        {
            "k": pa.array(k, pa.int64()),
            "s": pa.array(
                [None if x % 11 == 0 else f"v{x}" for x in k], pa.string()
            ),
            "f": pa.array(rng.normal(size=rows)),
            "blob": pa.array(
                [bytes([x % 256]) * (x % 5) for x in k], pa.large_binary()
            ),
            "bands": pa.array(
                [[int(x), int(x) * 3] for x in k], pa.list_(pa.uint64(), 2)
            ),
            "u": pa.array(rng.integers(0, 1 << 40, rows), pa.uint64()),
        }
    )


def _split_blocks(case: str) -> list[pa.Table]:
    blocks = [_payload_block(1, 700), _payload_block(2, 1)]
    # a multi-chunk block
    blocks.append(pa.concat_tables([_payload_block(3, 50), _payload_block(4, 80)]))
    if case == "empty_block":
        blocks.insert(1, _payload_block(5, 0))
    elif case == "zero_column_block":
        blocks.insert(1, pa.table({}))
    return blocks


class TestSplitWave:
    """``split_wave``'s sub-tables equal the per-partition ``filter``
    split they replace."""

    @_FORMS
    @pytest.mark.parametrize("n_parts", [1, 8, 64])
    @pytest.mark.parametrize(
        "case", ["plain", "empty_block", "zero_column_block", "premap_empties"]
    )
    def test_sub_tables_equal_filter_reference(
        self, ray_session, form, n_parts, case
    ):
        blocks = _split_blocks(case)
        premap = None
        if case == "premap_empties":
            # drops every row of the one-row block and some of the others
            def premap(tbl: pa.Table) -> pa.Table:
                return tbl.filter(pa.compute.greater(tbl["k"], 100))

            blocks[1] = blocks[1].set_column(
                0, "k", pa.array([7], pa.int64())
            )
        part, _ = _make_fns(form)
        got = split_wave(
            [ray_session.put(b) for b in blocks], part, n_parts, premap
        )
        assert len(got) == len(blocks)
        for block, row in zip(blocks, got):
            if premap is not None:
                block = premap(block)
            assert len(row) == n_parts
            subs = ray_session.get(row)
            if block.num_columns == 0:
                assert all(len(t) == 0 for t in subs)
                continue
            pid = (
                block.column("k").to_numpy() % n_parts
                if form == "callable"
                else partition_ids(block, ["k"], n_parts)
            )
            for p, sub in enumerate(subs):
                want = block.filter(pa.array(pid == p))
                assert sub.schema == want.schema
                assert sub.equals(want), (p, len(sub), len(want))
        if case == "premap_empties":
            assert sum(len(t) for t in ray_session.get(got[1])) == 0

    def test_bad_ids_fail_loudly(self, ray_session):
        ref = ray_session.put(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))

        def short(tbl: pa.Table, n: int) -> np.ndarray:
            return np.zeros(len(tbl) - 1, dtype=np.int64)

        def too_high(tbl: pa.Table, n: int) -> np.ndarray:
            return np.full(len(tbl), n, dtype=np.int64)

        for fn, match in ((short, "2 ids for 3 rows"), (too_high, "outside")):
            for n_parts in (1, 4):
                with pytest.raises(Exception, match=match):
                    ray_session.get(split_wave([ref], fn, n_parts)[0])


_NS = [1, 2, 3, 7, 16, 64, 1000]


def _ids(values, key_type=None, n=16) -> np.ndarray:
    return partition_ids(pa.table({"k": pa.array(values, key_type)}), ["k"], n)


class TestPartitionIds:
    """The key-hashing kernel: ids are a function of the key values
    alone, whatever block a row sits in."""

    @pytest.mark.parametrize("n", _NS)
    def test_same_value_same_id_whatever_the_neighbours(self, n):
        blocks = [
            ["x\0a", "x\0b", "y"],
            ["x\0b"],
            ["x\0b", "x\0c", "x\0b", "z", None],
            ["q"] * 50 + ["x\0b"],
        ]
        ids = [dict(zip(b, _ids(b, pa.string(), n))) for b in blocks]
        assert len({d["x\0b"] for d in ids}) == 1
        ints = [[5, 7], [7, 5, 5, 1 << 40], [5]]
        iids = [dict(zip(b, _ids(b, pa.int64(), n))) for b in ints]
        assert len({d[5] for d in iids}) == 1

    def test_values_differing_after_nul_hash_apart(self):
        # a full-buffer hash: keys equal up to the NUL are still
        # different keys
        got = _ids(["x\0a", "x\0b", "x\0c"], pa.string(), n=1 << 62)
        assert len(set(got)) == 3

    @pytest.mark.parametrize("n", _NS)
    def test_int_key_ignores_nulls_in_its_block(self, n):
        clean = _ids([1, 2, 3, 1 << 50], pa.int64(), n)
        holey = _ids([1, None, 3, None, 1 << 50], pa.int64(), n)
        assert list(holey[[0, 2, 4]]) == list(clean[[0, 2, 3]])
        assert holey[1] == holey[3] == _ids([None, 9], pa.int64(), n)[0]

    @pytest.mark.parametrize("n", _NS)
    def test_integer_widths_agree(self, n):
        want = _ids([0, 1, 300, 70_000], pa.int64(), n)
        for t in (pa.int32(), pa.uint32(), pa.uint64()):
            assert list(_ids([0, 1, 300, 70_000], t, n)) == list(want)

    @pytest.mark.parametrize("n", _NS)
    def test_multi_column_keys_colocate_equal_tuples(self, n):
        a = pa.table(
            {"s": ["u", "v", "u", "w"], "i": pa.array([1, 1, 2, 3], pa.int64())}
        )
        b = pa.table(
            {"s": ["w", "u", "u"], "i": pa.array([3, 2, 1], pa.int64())}
        )
        ia = partition_ids(a, ["s", "i"], n)
        ib = partition_ids(b, ["s", "i"], n)
        assert ia[0] == ib[2] and ia[2] == ib[1] and ia[3] == ib[0]

    @pytest.mark.parametrize("n", _NS)
    @pytest.mark.parametrize("t", [pa.string(), pa.large_string(), pa.binary()])
    def test_single_string_column_is_the_stable_hash_formula(self, n, t):
        vals = ["", "abc", "x\0b", None, "é" * 9]
        if t == pa.binary():
            vals = [None if v is None else v.encode() for v in vals]
        col = pa.chunked_array([pa.array(vals[:2], t), pa.array(vals[2:], t)])
        want = (
            stable_hash_array(col.to_numpy(zero_copy_only=False)) % np.uint64(n)
        ).astype(np.int64)
        got = partition_ids(pa.table({"k": col}), ["k"], n)
        assert list(got) == list(want)

    @pytest.mark.parametrize("n", _NS)
    def test_ids_in_range(self, n):
        rng = np.random.default_rng(n)
        tbl = pa.table(
            {
                "i": pa.array(rng.integers(-(1 << 62), 1 << 62, 500)),
                "f": pa.array(rng.normal(size=500)),
                "s": pa.array([str(x) for x in rng.integers(0, 99, 500)]),
                "b": pa.array(rng.integers(0, 2, 500).astype(bool)),
            }
        )
        for keys in (["i"], ["f"], ["s"], ["b"], ["s", "i", "f"]):
            ids = partition_ids(tbl, keys, n)
            assert ids.dtype == np.int64 and len(ids) == len(tbl)
            assert ids.min() >= 0 and ids.max() < n


# -- grouped_aggregate against Ray Data's sort-based groupby -------------

_AGGS = {
    "total": ("sum", "v"),
    "lo": ("min", "v"),
    "hi": ("max", "v"),
    "n": ("count", None),
}


def _agg_table(seed: int, rows: int, null_keys: bool) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 40, rows)
    words = np.array(["x\0a", "x\0b", "", "é", "plain", "x"], dtype=object)
    s = words[rng.integers(0, len(words), rows)]
    v = rng.integers(-1000, 1000, rows)
    v_null = rng.random(rows) < 0.1
    k_null = (rng.random(rows) < 0.1) if null_keys else np.zeros(rows, bool)
    return pa.table(
        {
            "k": pa.array(k, pa.int64(), mask=k_null),
            "s": pa.array(s, pa.string(), mask=k_null),
            "v": pa.array(v, pa.int64(), mask=v_null),
        }
    )


#: name → (keys, block sizes (0 = an empty block), null keys,
#: reference); Ray's sort-based groupby raises on a null string key, so
#: those cases take an Arrow group_by over the whole table instead
_AGG_CASES = {
    "int_key": (["k"], [700, 0, 500, 800], False, "ray"),
    "string_key_nul_differing": (["s"], [900, 1100], False, "ray"),
    "multi_key": (["k", "s"], [0, 600, 0, 1400, 0], False, "ray"),
    "null_int_key": (["k"], [300, 0, 1700], True, "ray"),
    "null_string_key": (["s"], [1000, 0, 1000], True, "arrow"),
    "null_multi_key": (["s", "k"], [500, 1500], True, "arrow"),
    "empty_input": (["s", "k"], [0, 0], False, "empty"),
}


def _rows(t: pa.Table, cols: list[str]) -> list[tuple]:
    rows = zip(*(t.column(c).to_pylist() for c in cols))
    return sorted(rows, key=lambda r: [(x is None, x) for x in r])


class TestGroupedAggregate:
    @pytest.mark.parametrize("case", list(_AGG_CASES))
    def test_matches_sort_based_groupby(self, ray_session, case):
        from ray.data.aggregate import Count, Max, Min, Sum

        keys, sizes, null_keys, ref = _AGG_CASES[case]
        table = _agg_table(len(case), sum(sizes), null_keys)
        cuts = np.cumsum([0, *sizes])
        ds = ray_session.data.from_arrow(
            [table.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
        )
        out = grouped_aggregate(ds, keys, _AGGS)
        cols = [*keys, *_AGGS]
        got = pa.concat_tables(ray.get(out.materialize().to_arrow_refs()))
        assert got.column_names == cols
        if ref == "empty":
            assert len(got) == 0
            assert got.schema == pa.schema(
                [("s", pa.string()), ("k", pa.int64())]
                + [(c, pa.int64()) for c in _AGGS]
            )
            return
        if ref == "ray":
            want = pa.Table.from_pylist(
                ds.groupby(keys)
                .aggregate(
                    Sum("v", alias_name="total"),
                    Min("v", alias_name="lo"),
                    Max("v", alias_name="hi"),
                    Count(alias_name="n"),
                )
                .take_all()
            )
        else:
            want = table.group_by(keys).aggregate(
                [("v", "sum"), ("v", "min"), ("v", "max"), ([], "count_all")]
            )
            want = want.rename_columns(
                [{"v_sum": "total", "v_min": "lo", "v_max": "hi", "count_all": "n"}.get(c, c)
                 for c in want.column_names]
            )
        assert len(got) == len(want) > 1
        assert _rows(got, cols) == _rows(want, cols)
        if "s" in keys:  # the NUL-differing strings stay two groups
            assert {"x\0a", "x\0b"} <= set(got.column("s").to_pylist())


class TestEmptyPartitionBlocks:
    def test_projection_after_exchange_concatenates(self, ray_session):
        """Two groups over many partitions: the projected output's block
        refs share one schema, so they concatenate."""
        from duplicate_finder_ray.stages.relational import topk_per_group_by

        t = pa.table({"g": ["a", "b", "a", "b", "a"], "v": [1, 2, 3, 4, 5]})
        ds = ray_session.data.from_arrow([t.slice(0, 2), t.slice(2)])
        top = topk_per_group_by(ds, "g", ["v"], [False], 1)
        refs = top.select_columns(["g", "rank"]).materialize().to_arrow_refs()
        got = pa.concat_tables(ray.get(refs))
        assert got.column_names == ["g", "rank"]
        assert sorted(got.column("g").to_pylist()) == ["a", "b"]

    def test_every_partition_empty_keeps_one_typed_block(self, ray_session):
        t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        out = grouped_aggregate(
            ray_session.data.from_arrow([t, t]), "k", {"s": ("sum", "v")}
        ).materialize()
        refs = out.to_arrow_refs()
        assert len(refs) == 1
        got = ray.get(refs[0])
        assert len(got) == 0 and got.column_names == ["k", "s"]
