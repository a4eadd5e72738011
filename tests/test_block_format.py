"""Block-format guard: the package reads Parquet through one reader and
hands its map kernels one block format.

* ``ray.data.read_parquet`` is called only in ``sources/code_table.py``,
  whose ``read_code_table`` drops the file's schema metadata. A
  pandas-written file's metadata otherwise rides every block, makes
  the block schemas unhashable and sends each concat down Ray's slow
  schema unification.
* No map asks for ``batch_format="pandas"``: pandas string grouping
  merges keys that differ only after an embedded NUL, and its empty
  results are zero-column blocks.
* The near-dup stages, the clone groups and the incremental
  pipelines (``PANDAS_FREE``) neither import pandas nor convert a
  block with ``to_pandas``: their pair, label and group kernels group
  file_id and repo strings.
* ``pipelines/incremental.py`` has no hand-written ``np.lexsort`` or
  ``np.searchsorted``: it sorts with the exact path's kernels and
  probes with ``stages/util.py::in_sorted``.

Pure static scan: no Ray session."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "duplicate_finder_ray"
READER = "sources/code_table.py"
PANDAS_FREE = (
    "stages/cc.py",
    "stages/neardup.py",
    "stages/semdedup.py",
    "stages/clones.py",
    "pipelines/incremental.py",
)
KERNEL_ONLY = "pipelines/incremental.py"
HAND_KERNELS = ("lexsort", "searchsorted")


def _package_trees():
    for f in sorted(PACKAGE.rglob("*.py")):
        yield f.relative_to(PACKAGE).as_posix(), ast.parse(f.read_text())


def _parquet_reads(tree: ast.AST, path: str):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
            "read_parquet"
        ):
            yield f"{path}:{node.lineno}"


def _pandas_maps(tree: ast.AST, path: str):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(
            k.arg == "batch_format"
            and isinstance(k.value, ast.Constant)
            and k.value.value == "pandas"
            for k in node.keywords
        ):
            yield f"{path}:{node.lineno}"


def _pandas_uses(tree: ast.AST, path: str):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            if isinstance(node, ast.Attribute) and node.attr == "to_pandas":
                yield f"{path}:{node.lineno}"
            continue
        if any(m == "pandas" or m.startswith("pandas.") for m in mods):
            yield f"{path}:{node.lineno}"


def _hand_kernels(tree: ast.AST, path: str):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in HAND_KERNELS
            and ast.unparse(node.value) in ("np", "numpy")
        ):
            yield f"{path}:{node.lineno}"


def test_parquet_reads_go_through_read_code_table():
    found = [
        hit
        for rel, tree in _package_trees()
        if rel != READER
        for hit in _parquet_reads(tree, rel)
    ]
    assert not found, (
        "read Parquet with sources/code_table.py::read_code_table:\n"
        + "\n".join(found)
    )


def test_no_pandas_batch_format():
    found = [hit for rel, tree in _package_trees() for hit in _pandas_maps(tree, rel)]
    assert not found, (
        'map with batch_format="pyarrow" and group with '
        "pa.Table.group_by:\n" + "\n".join(found)
    )


def test_near_dup_stages_are_pandas_free():
    found = [
        hit
        for rel, tree in _package_trees()
        if rel in PANDAS_FREE
        for hit in _pandas_uses(tree, rel)
    ]
    assert not found, (
        "group with stages/util.py::group_aggregate or Arrow sorts:\n"
        + "\n".join(found)
    )


def test_incremental_uses_engine_kernels():
    found = [
        hit
        for rel, tree in _package_trees()
        if rel == KERNEL_ONLY
        for hit in _hand_kernels(tree, rel)
    ]
    assert not found, (
        "sort with stages/exact.py::_sorted_order and probe with "
        "stages/util.py::in_sorted:\n" + "\n".join(found)
    )


def test_guard_sees_planted_examples():
    planted = ast.parse(
        "ds = ray.data.read_parquet(path)\n"
        'ds = ds.map_batches(fn, batch_format="pandas")\n'
        'ds = ds.map_batches(fn, batch_format="pyarrow")\n'
        "import pandas as pd\n"
        "df = ds.to_pandas()\n"
        "from pandas.util import hash_array\n"
        "import pyarrow.pandas_compat\n"
        "order = np.lexsort((b, a))\n"
        "pos = numpy.searchsorted(s, x)\n"
        "order = pc.sort_indices(t)\n"
    )
    assert list(_parquet_reads(planted, "x.py")) == ["x.py:1"]
    assert list(_pandas_maps(planted, "x.py")) == ["x.py:2"]
    assert sorted(_pandas_uses(planted, "x.py")) == ["x.py:4", "x.py:5", "x.py:6"]
    assert list(_hand_kernels(planted, "x.py")) == ["x.py:8", "x.py:9"]
