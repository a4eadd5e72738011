"""Partitioner guard: exchanges name their key columns and let
``stages/exchange.py::partition_ids`` hash them. A hand-written
``(pa.Table, int) -> np.ndarray`` partitioner in the package is allowed
only where the partition index itself means something — each such
function is listed below with the reason. And every payload split runs
on ``stages/exchange.py::split_wave``: no comprehension in the package
filters a table once per partition.

Pure static scan: no Ray session."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "duplicate_finder_ray"

ALLOWED = {
    "stages/cc.py::_bucket_column":
        "edges carry both endpoints' precomputed bucket ids",
    "stages/chunking.py::greedy_pack.part_of":
        "md5-prefix partition the oracle replays to reproduce the packing",
    "stages/diagnostics.py::key_skew_report.part_of":
        "the md5 partition id is the reported quantity",
    "stages/diagnostics.py::table_fingerprint.part_of":
        "all partials go to partition 0, whose reduce emits the one row",
    "stages/graph.py::triangle_count._attach.part_padded":
        "nodes and edges route by raw id modulo n, read from two columns",
    "stages/join.py::shuffle_hash_join.part_of":
        "hot keys are salted over distinct partitions",
    "stages/neardup.py::_sig_shard":
        "verify CSR shards are fid % n, the shard the scoring tasks read",
    "stages/rank.py::global_rank.part_of":
        "range partitioning: partition order is the global rank order",
    "stages/rank.py::sorted_neighborhood_pairs.part_of":
        "rows carry a precomputed destination chunk",
    "stages/relational.py::asof_join.bucket_part":
        "both sides carry a precomputed bucket id",
    "stages/relational.py::salted_distinct_count.part_of":
        "a hot key's values fan out over salted partitions",
    "stages/similarity.py::_vec_id_shard":
        "shard matrices are vec_id % n, the shard the pair routing reads",
    "stages/similarity.py::lsh_cosine_pairs.spair_part":
        "the reduce reads the (shard, shard) pair from its partition id",
}


def _is_partitioner(fn: ast.FunctionDef) -> bool:
    args = fn.args.args
    return (
        len(args) == 2
        and fn.returns is not None
        and ast.unparse(fn.returns) == "np.ndarray"
        and args[0].annotation is not None
        and ast.unparse(args[0].annotation) == "pa.Table"
        and args[1].annotation is not None
        and ast.unparse(args[1].annotation) == "int"
    )


def _partitioners(node: ast.AST, path: str, prefix: str = ""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{child.name}" if prefix else child.name
            if isinstance(child, ast.FunctionDef) and _is_partitioner(child):
                yield f"{path}::{qual}"
            yield from _partitioners(child, path, qual)
        else:
            yield from _partitioners(child, path, prefix)


def _package_trees():
    for f in sorted(PACKAGE.rglob("*.py")):
        yield f.relative_to(PACKAGE).as_posix(), ast.parse(f.read_text())


def package_partitioners() -> list[str]:
    found = []
    for rel, tree in _package_trees():
        found.extend(_partitioners(tree, rel))
    return found


def test_hand_written_partitioners_are_allowlisted():
    extra = [p for p in package_partitioners() if p not in ALLOWED]
    assert not extra, (
        "pass the key column name(s) to hash_exchange instead of a "
        "hand-written partitioner, or allowlist it with a reason:\n"
        + "\n".join(extra)
    )


def test_allowlist_has_no_stale_entries():
    stale = sorted(set(ALLOWED) - set(package_partitioners()))
    assert not stale, "allowlisted partitioners no longer exist:\n" + "\n".join(
        stale
    )


def _per_partition_filters(tree: ast.AST, path: str):
    """Comprehensions that call ``.filter(`` while iterating over
    ``range(...)``: the hand-written per-partition split."""
    comps = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    for node in ast.walk(tree):
        if not isinstance(node, comps):
            continue
        over_range = any(
            isinstance(g.iter, ast.Call)
            and isinstance(g.iter.func, ast.Name)
            and g.iter.func.id == "range"
            for g in node.generators
        )
        calls_filter = any(
            isinstance(c, ast.Call)
            and isinstance(c.func, ast.Attribute)
            and c.func.attr == "filter"
            for c in ast.walk(node)
        )
        if over_range and calls_filter:
            yield f"{path}:{node.lineno}"


def test_no_hand_written_split():
    found = []
    for rel, tree in _package_trees():
        found.extend(_per_partition_filters(tree, rel))
    assert not found, (
        "split payload with stages/exchange.py::split_wave instead of one "
        "filter per partition:\n" + "\n".join(found)
    )


def test_split_guard_sees_the_old_loop():
    old = "parts = [block.filter(pa.array(pid == p)) for p in range(n)]"
    assert list(_per_partition_filters(ast.parse(old), "x.py")) == ["x.py:1"]
