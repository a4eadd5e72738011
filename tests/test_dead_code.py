"""Dead-code guard: every top-level function or class defined in the
package must be referenced by name somewhere in the code base other
than its own definition — package, scripts, tests, perfbench, bench.py
or `__ray_entry__.py`. A name counts as referenced when it occurs
as a whole identifier token (a call, an import, a string registry
entry, a docstring mention) more often than it is defined.

Dead-import guard: every name a package module (``__init__.py`` files
aside, which re-export) binds by ``import`` is read somewhere in that
module's code. Docstrings and comments do not count.

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


def unused_imports(package: Path = PACKAGE) -> list[str]:
    """``<module>:<line> <name>`` for every name a package module
    imports and its code never reads as a name."""
    out = []
    for f in _py_files(package):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            where = f"{f.relative_to(package).as_posix()}:{node.lineno}"
            out += [f"{where} {n}" for n in names if n not in read]
    return out


def test_no_unused_package_imports():
    dead = unused_imports()
    assert not dead, "imported names never used:\n" + "\n".join(dead)


def test_unused_import_scan_sees_each_form(tmp_path):
    (tmp_path / "__init__.py").write_text("from m import unused_in_init\n")
    (tmp_path / "m.py").write_text(
        '"""pd.util.hash_array is only named in a docstring."""\n'
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import pyarrow.compute\n"
        "import pandas as pd\n"
        "from x import used, dead as alias\n"
        "def f():\n"
        "    from y import local_dead\n"
        "    return np.zeros(used) + pyarrow.compute.sum([])\n"
    )
    assert sorted(h.split(" ")[1] for h in unused_imports(tmp_path)) == [
        "alias",
        "local_dead",
        "pd",
    ]
