"""Unit tests for the two post-read shapes of ``stages/util.py``:
``map_blocks``, one task per block, and ``gather_blocks``, one task over
all the blocks (with ``sorted_distinct``, the kernel its endpoint and
probe-array callers share)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from duplicate_finder_ray.stages.util import gather_blocks, map_blocks, sorted_distinct

_EMPTY = pa.schema([("x", pa.int64()), ("tag", pa.string())]).empty_table()


def _tagger():
    # a closure, not a module-level function: workers can't import the
    # tests package, and closures pickle by value
    def tag(t: pa.Table, label: str = "k") -> pa.Table:
        return t.select(["x"]).append_column(
            "tag", pa.array([label] * len(t), pa.string())
        )

    return tag


def _blocks(*sizes: int) -> list[pa.Table]:
    out, lo = [], 0
    for n in sizes:
        out.append(pa.table({"x": pa.array(range(lo, lo + n), pa.int64())}))
        lo += n
    return out


class TestMapBlocks:
    def test_block_order_is_kept(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(5, 1, 7, 3))
        out = map_blocks(ds, _tagger(), _EMPTY)
        assert out.num_blocks() == 4
        assert [r["x"] for r in out.take_all()] == list(range(16))

    @pytest.mark.parametrize(
        "blocks",
        [[pa.table({"x": pa.array([], pa.int64())})], [pa.table({})]],
        ids=["zero_row", "zero_column"],
    )
    def test_empty_blocks_give_empty(self, ray_session, blocks):
        def fn(t):
            raise AssertionError("fn ran on an empty block")

        out = map_blocks(ray_session.data.from_arrow(blocks), fn, _EMPTY)
        assert out.count() == 0
        assert out.schema().names == _EMPTY.schema.names

    def test_empty_blocks_among_full_ones(self, ray_session):
        full = _blocks(4, 2)
        ds = ray_session.data.from_arrow(
            [full[0].slice(0, 0), full[0], pa.table({}), full[1]]
        )
        out = map_blocks(ds, _tagger(), _EMPTY)
        assert [r["x"] for r in out.take_all()] == list(range(6))
        assert out.schema().names == ["x", "tag"]

    def test_empty_outputs_are_typed(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(3, 3))
        out = map_blocks(ds, lambda t: t.slice(0, 0), _EMPTY)
        assert out.count() == 0
        assert out.schema().names == ["x", "tag"]

    def test_dataset_without_blocks(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(3)).limit(0).materialize()
        assert ds.num_blocks() == 0
        out = map_blocks(ds, _tagger(), _EMPTY)
        assert out.count() == 0
        assert out.schema().names == ["x", "tag"]

    def test_shared_refs_reach_every_task(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(2, 2, 2))
        tag_ref = ray_session.put("shared")
        off_ref = ray_session.put(100)
        tag = _tagger()

        def fn(t, label, off):
            return tag(t, label).set_column(
                0, "x", pa.array([v + off for v in t["x"].to_pylist()], pa.int64())
            )

        rows = map_blocks(ds, fn, _EMPTY, tag_ref, off_ref).take_all()
        assert [r["tag"] for r in rows] == ["shared"] * 6
        assert [r["x"] for r in rows] == list(range(100, 106))

    def test_raising_fn_raises_at_the_caller(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(2, 2))
        tag = _tagger()

        def fn(t):
            if t["x"][0].as_py() == 2:
                raise ValueError("poisoned block")
            return tag(t)

        with pytest.raises(Exception, match="poisoned block"):
            map_blocks(ds, fn, _EMPTY)


class TestGatherBlocks:
    """``gather_blocks``: one task folds every block of a source."""

    def test_empty_blocks_among_full_ones(self, ray_session):
        full = _blocks(4, 2)
        ds = ray_session.data.from_arrow(
            [full[0].slice(0, 0), full[0], pa.table({}), full[1]]
        )
        out = ray_session.get(gather_blocks(ds, lambda t: t, _EMPTY))
        assert out["x"].to_pylist() == list(range(6))

    def test_empty_sub_tables_among_full_ones(self, ray_session):
        full = _blocks(3, 2)
        refs = [
            ray_session.put(t)
            for t in (pa.table({}), full[0], full[1].slice(0, 0), full[1])
        ]
        out = ray_session.get(gather_blocks(refs, lambda t: t, _EMPTY))
        assert out["x"].to_pylist() == list(range(5))

    @pytest.mark.parametrize(
        "blocks",
        [[pa.table({"x": pa.array([], pa.int64())})], [pa.table({})]],
        ids=["zero_row", "zero_column"],
    )
    def test_no_rows_give_empty_without_calling_fn(self, ray_session, blocks):
        def fn(t):
            raise AssertionError("fn ran without rows")

        refs = [ray_session.put(b) for b in blocks]
        assert ray_session.get(gather_blocks(refs, fn, "none")) == "none"

    def test_source_without_blocks_launches_no_task(self, ray_session, monkeypatch):
        from duplicate_finder_ray.stages import util

        def launch(*args, **kwargs):
            raise AssertionError("a task was launched")

        monkeypatch.setattr(util, "_gather_blocks", launch)
        ds = ray_session.data.from_arrow(_blocks(3)).limit(0).materialize()
        assert ds.num_blocks() == 0
        assert ray_session.get(util.gather_blocks(ds, launch, _EMPTY)).equals(_EMPTY)
        assert ray_session.get(util.gather_blocks([], launch, 7)) == 7
        count_ref, arr_ref = util.gather_blocks([], launch, (0, "e"), num_returns=2)
        assert ray_session.get([count_ref, arr_ref]) == [0, "e"]

    def test_lazy_source(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(3, 4)).map_batches(
            lambda t: t.filter(pc.greater(t["x"], 1)),
            batch_format="pyarrow",
        )
        out = ray_session.get(gather_blocks(ds, lambda t: len(t), 0))
        assert out == 5

    def test_rows_come_in_block_order(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(5, 1, 7, 3))
        out = ray_session.get(gather_blocks(ds, lambda t: t["x"].to_pylist(), []))
        assert out == list(range(16))

    def test_columns_projection(self, ray_session):
        # a block that dodged an upstream projection carries an extra column
        refs = [
            ray_session.put(pa.table({"x": [1], "y": ["a"]})),
            ray_session.put(pa.table({"y": ["b"], "x": [2], "z": [0.5]})),
        ]
        out = ray_session.get(gather_blocks(refs, lambda t: t, None, columns=["y"]))
        assert out.column_names == ["y"]
        assert out["y"].to_pylist() == ["a", "b"]

    def test_shared_ref_reaches_the_task(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(2, 2))
        off_ref = ray_session.put(100)
        out = gather_blocks(ds, lambda t, off, k: len(t) * k + off, 0, off_ref, 3)
        assert ray_session.get(out) == 112

    def test_num_returns_two(self, ray_session):
        ds = ray_session.data.from_arrow(
            [pa.table({"a": [3, 1], "b": [1, 2]}), pa.table({"a": [2], "b": [5]})]
        )
        count_ref, vals_ref = gather_blocks(
            ds, sorted_distinct, (0, np.empty(0, np.int64)), num_returns=2
        )
        assert ray_session.get(count_ref) == 4
        assert ray_session.get(vals_ref).tolist() == [1, 2, 3, 5]

    def test_raising_fn_raises_at_the_caller(self, ray_session):
        ds = ray_session.data.from_arrow(_blocks(2, 2))

        def fn(t):
            raise ValueError("poisoned gather")

        ref = gather_blocks(ds, fn, None)
        with pytest.raises(ValueError, match="poisoned gather"):
            ray_session.get(ref)


class TestSortedDistinct:
    def test_strings_differing_after_a_nul_stay_apart(self):
        t = pa.table({"a": ["x\x00y", "x", "x"], "b": ["x\x00", "w", "x\x00y"]})
        n, vals = sorted_distinct(t)
        assert n == 4
        assert vals.tolist() == ["w", "x", "x\x00", "x\x00y"]

    def test_uint64_values(self):
        big = np.uint64(2**64 - 1)
        t = pa.table(
            {
                "a": pa.array([big, 5], pa.uint64()),
                "b": pa.array([5, 0], pa.uint64()),
            }
        )
        n, vals = sorted_distinct(t)
        assert n == 3
        assert vals.dtype == np.uint64
        assert vals.tolist() == [0, 5, 2**64 - 1]
