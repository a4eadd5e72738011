"""Unit tests for ``stages/util.py::map_blocks``, the one-task-per-block
map the post-read stages run on."""

import pyarrow as pa
import pytest

from duplicate_finder_ray.stages.util import map_blocks

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
