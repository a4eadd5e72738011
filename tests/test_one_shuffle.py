"""One grouping shuffle: every grouping in the package runs on
``stages/exchange.py``'s hash exchange (``hash_exchange`` or
``grouped_aggregate``), never on Ray Data's sort-based groupby, which
samples boundaries, sorts every block and walks its rows and groups in
Python.

* No module imports ``ray.data.aggregate``.
* No call is a ``.map_groups(...)``.
* No call is a Dataset ``groupby``. The package's pandas ``groupby``
  calls (inside per-partition kernels) all pass ``sort=``; Ray's
  ``Dataset.groupby`` takes no such keyword, so a ``.groupby(...)``
  without ``sort=`` is a Dataset one.

Pure static scan: no Ray session."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "duplicate_finder_ray"


def _offences(path: str, tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "ray.data.aggregate"
        ):
            yield f"{path}:{node.lineno}: imports ray.data.aggregate"
        elif isinstance(node, ast.Import) and any(
            a.name.startswith("ray.data.aggregate") for a in node.names
        ):
            yield f"{path}:{node.lineno}: imports ray.data.aggregate"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "map_groups":
                yield f"{path}:{node.lineno}: map_groups"
            elif node.func.attr == "groupby" and not any(
                k.arg == "sort" for k in node.keywords
            ):
                yield f"{path}:{node.lineno}: Dataset groupby"


def test_no_sort_based_grouping_in_the_package():
    found = [
        hit
        for f in sorted(PACKAGE.rglob("*.py"))
        for hit in _offences(
            f.relative_to(PACKAGE).as_posix(), ast.parse(f.read_text())
        )
    ]
    assert found == []


def test_the_scan_sees_each_form():
    src = (
        "from ray.data.aggregate import Sum\n"
        "import ray.data.aggregate\n"
        "ds.groupby('k').map_groups(f)\n"
        "ds.groupby(['a', 'b']).count()\n"
        "df.groupby('k', sort=False).size()\n"
    )
    hits = [h.split(": ", 1)[1] for h in _offences("x.py", ast.parse(src))]
    assert sorted(hits) == sorted(
        [
            "imports ray.data.aggregate",
            "imports ray.data.aggregate",
            "map_groups",
            "Dataset groupby",
            "Dataset groupby",
        ]
    )
