"""Dead-code guard: every top-level function or class defined in the
package must be referenced by name somewhere in the code base other
than its own definition — package, scripts, tests, perfbench, bench.py
or `__ray_entry__.py`. A name counts as referenced when it occurs
as a whole identifier token (a call, an import, a string registry
entry, a docstring mention) more often than it is defined.

Pure static scan: no Ray session."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "duplicate_finder_ray"
SCANNED = [
    PACKAGE,
    ROOT / "scripts",
    ROOT / "tests",
    ROOT / "perfbench",
    ROOT / "bench.py",
    ROOT / "__ray_entry__.py",
]
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _py_files(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    return sorted(path.rglob("*.py")) if path.is_dir() else []


def unreferenced_defs() -> list[str]:
    tokens: Counter[str] = Counter()
    for path in SCANNED:
        for f in _py_files(path):
            tokens.update(_IDENT.findall(f.read_text()))
    defs: dict[str, list[str]] = {}
    for f in _py_files(PACKAGE):
        for node in ast.parse(f.read_text()).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                where = f"{f.relative_to(ROOT)}:{node.lineno} {node.name}"
                defs.setdefault(node.name, []).append(where)
    return sorted(
        where
        for name, wheres in defs.items()
        if tokens[name] <= len(wheres)  # only its own definition(s)
        for where in wheres
    )


def test_no_unreferenced_package_defs():
    dead = unreferenced_defs()
    assert not dead, "unreferenced top-level defs:\n" + "\n".join(dead)
