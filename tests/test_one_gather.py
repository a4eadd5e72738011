"""Block refs have one source: ``stages/util.py``.

A stage reaches a Dataset's blocks through ``util.block_refs``,
``map_blocks`` (one task per block), ``gather_blocks`` (one task over
all the blocks), ``fetch_blocks`` (a small read-back) or the exchange's
``split_wave``.

* No call is a ``.to_arrow_refs()`` or a ``.get_internal_block_refs()``.
* ``.iter_internal_ref_bundles()`` is called in ``stages/util.py`` only.
* Every ``ray.remote`` task normalizes the blocks it gets with
  ``BlockAccessor.for_block`` (directly or through a function of its
  module), unless ``NOT_BLOCK_TASKS`` names it: a Ray Data block may be
  Arrow or pandas, and only an accessor reads both.

Pure static scan: no Ray session."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "duplicate_finder_ray"

#: remote tasks that get no Dataset block, with what they get instead
NOT_BLOCK_TASKS = {
    "stages/bloom.py:or_merge": "the per-block bitmaps",
    "stages/decontam.py:merge": "the per-block hash arrays",
    # not a gather_blocks fold: with ``empty=None`` it runs the reduce
    # on an empty partition's 0 rows, which gather_blocks never does
    "stages/exchange.py:reduce_part": "the Arrow sub-tables of split tasks",
    "stages/cc.py:_owned": "a star table of a contraction task",
}


def _is_remote(dec: ast.expr) -> bool:
    if isinstance(dec, ast.Call):
        dec = dec.func
    return isinstance(dec, ast.Attribute) and dec.attr == "remote"


def _normalizes(fn: ast.AST, funcs: dict[str, ast.AST], seen: set[str]) -> bool:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "for_block"
            and isinstance(node.value, ast.Name)
            and node.value.id == "BlockAccessor"
        ):
            return True
        if isinstance(node, ast.Name) and node.id in funcs and node.id not in seen:
            seen.add(node.id)
            if _normalizes(funcs[node.id], funcs, seen):
                return True
    return False


def _offences(path: str, tree: ast.AST):
    funcs = {
        n.name: n
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("to_arrow_refs", "get_internal_block_refs"):
                yield f"{path}:{node.lineno}: {attr}"
            elif attr == "iter_internal_ref_bundles" and path != "stages/util.py":
                yield f"{path}:{node.lineno}: {attr}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not any(_is_remote(d) for d in node.decorator_list):
                continue
            if f"{path}:{node.name}" in NOT_BLOCK_TASKS:
                continue
            if not _normalizes(node, funcs, {node.name}):
                yield f"{path}:{node.lineno}: task {node.name} without BlockAccessor"


def _scan() -> list[str]:
    return [
        hit
        for f in sorted(PACKAGE.rglob("*.py"))
        for hit in _offences(
            f.relative_to(PACKAGE).as_posix(), ast.parse(f.read_text())
        )
    ]


def test_block_refs_come_from_util_only():
    assert _scan() == []


def test_not_block_tasks_still_exist():
    names = {
        f"{f.relative_to(PACKAGE).as_posix()}:{n.name}"
        for f in PACKAGE.rglob("*.py")
        for n in ast.walk(ast.parse(f.read_text()))
        if isinstance(n, ast.FunctionDef) and any(map(_is_remote, n.decorator_list))
    }
    assert set(NOT_BLOCK_TASKS) <= names


def test_the_scan_sees_each_form():
    src = (
        "refs = ds.materialize().to_arrow_refs()\n"
        "refs = ds.get_internal_block_refs()\n"
        "for b in ds.iter_internal_ref_bundles(): pass\n"
        "@ray.remote\n"
        "def concat(*blocks):\n"
        "    return pa.concat_tables(blocks)\n"
        "@ray.remote(num_returns=2)\n"
        "def pair(*blocks):\n"
        "    return 0, blocks\n"
        "@_ray.remote\n"
        "def alias(block):\n"
        "    return len(block)\n"
        "def view(block):\n"
        "    return BlockAccessor.for_block(block).to_arrow()\n"
        "@ray.remote\n"
        "def through_helper(block):\n"
        "    return view(block)\n"
        "@ray.remote\n"
        "def direct(block):\n"
        "    return BlockAccessor.for_block(block).num_rows()\n"
        "fetched = [BlockAccessor.for_block(b) for b in ray.get(refs)]\n"
    )
    hits = [h.split(": ", 1)[1] for h in _offences("x.py", ast.parse(src))]
    assert sorted(hits) == sorted(
        [
            "to_arrow_refs",
            "get_internal_block_refs",
            "iter_internal_ref_bundles",
            "task concat without BlockAccessor",
            "task pair without BlockAccessor",
            "task alias without BlockAccessor",
        ]
    )
    util_src = "for b in ds.iter_internal_ref_bundles(): pass\n"
    assert list(_offences("stages/util.py", ast.parse(util_src))) == []
