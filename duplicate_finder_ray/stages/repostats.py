"""Cross-repo duplicate analytics over the derived code-files table
(repo, path, commit, lang, size, sha256).

The reference engine stops at listing duplicate groups
(/root/reference/duplicate_finder/duplicate_finder.py:176-209); at
corpus scale the questions a user actually asks next are *which repos
vendor each other's code* (repo-overlap matrix), *which exact contents
are vendored everywhere* (hot-content report), and *which whole
directories are copies* (Merkle-style dir fingerprints). All three ride
the engine's shuffle doctrine: slim rows only (sha hex + short
strings — content never enters these stages), ONE hash exchange
co-locates each key, per-partition kernels are vectorized numpy/pandas
passes, and cross-partition finishes are grouped aggregates.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from duplicate_finder_ray.stages.exchange import grouped_aggregate, hash_exchange
from duplicate_finder_ray.stages.util import gather_blocks, group_aggregate


def _codes(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """int32 dictionary codes of a string column (Arrow C hash table) —
    equal values share a code, so group membership/boundaries are plain
    int comparisons with NO per-row python string materialization (the
    round-3 to_pandas()/object-array hop this replaces)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.dictionary_encode(col).indices.to_numpy(zero_copy_only=False)


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first row of each run in a sorted key
    array (object or numeric dtype)."""
    if len(sorted_keys) == 0:
        return np.zeros(0, dtype=bool)
    return np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]


def repo_overlap_pairs(
    files: ray.data.Dataset,
    num_partitions: int = 16,
    max_repos_per_content: int = 256,
) -> ray.data.Dataset:
    """Repo-overlap matrix: for every unordered pair of repos that share
    at least one identical file content, the number of DISTINCT shared
    contents. Output (repo_a, repo_b, n_shared) with repo_a < repo_b.

    Shape: slim (sha256, repo) rows cross ONE sha-keyed exchange; each
    partition dedupes (sha, repo), emits within-group pairs with a fully
    vectorized predecessor expansion (no Python loop over groups), and
    partial-counts pairs before the final slim grouped sum. Hot vendored
    content (a sha present in more repos than ``max_repos_per_content``)
    is capped at the lexicographically-first repos so one
    everywhere-vendored file cannot emit O(repos²) pairs; the cap is
    deterministic and must be sized above the honest overlap range when
    exact counts are required (the SQL oracle assumes a non-binding cap).
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if max_repos_per_content < 2:
        raise ValueError("max_repos_per_content must be >= 2")

    slim = files.select_columns(["sha256", "repo"])
    out_schema = pa.schema(
        [("repo_a", pa.string()), ("repo_b", pa.string()), ("n", pa.int64())]
    )

    def emit_pairs(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        tbl = tbl.sort_by([("sha256", "ascending"), ("repo", "ascending")])
        sha_c = _codes(tbl.column("sha256"))
        repo_c = _codes(tbl.column("repo"))
        distinct = np.r_[
            True, (sha_c[1:] != sha_c[:-1]) | (repo_c[1:] != repo_c[:-1])
        ]
        tbl = tbl.filter(pa.array(distinct))
        sha_c, repo_c = sha_c[distinct], repo_c[distinct]
        repo = tbl.column("repo")  # stays Arrow; pairs materialize via take
        starts = np.r_[True, sha_c[1:] != sha_c[:-1]]
        n_rows = len(sha_c)
        gidx = np.cumsum(starts) - 1  # group index per row
        start_pos = np.nonzero(starts)[0]
        local = np.arange(n_rows) - start_pos[gidx]  # rank within group
        local = np.minimum(local, max_repos_per_content - 1)
        # rows past the cap emit no pairs and pair with nothing new:
        keep = (np.arange(n_rows) - start_pos[gidx]) < max_repos_per_content
        n_pred = np.where(keep, local, 0)  # predecessors to pair with
        total = int(n_pred.sum())
        if total == 0:
            return out_schema.empty_table()
        b_idx = np.repeat(np.arange(n_rows), n_pred)
        run_start = np.repeat(np.cumsum(n_pred) - n_pred, n_pred)
        offset = np.arange(total) - run_start
        a_idx = np.repeat(start_pos[gidx], n_pred) + offset
        # count per (repo_a, repo_b) over int codes; strings materialize
        # only for the DISTINCT pairs, via Arrow take
        pkey = repo_c[a_idx].astype(np.uint64) << np.uint64(32)
        pkey |= repo_c[b_idx].astype(np.uint64)
        uniq, first, counts = np.unique(
            pkey, return_index=True, return_counts=True
        )
        return pa.table(
            {
                "repo_a": repo.take(pa.array(a_idx[first])).combine_chunks(),
                "repo_b": repo.take(pa.array(b_idx[first])).combine_chunks(),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    partials = hash_exchange(
        slim, "sha256", num_partitions, emit_pairs, out_schema.empty_table()
    )
    return grouped_aggregate(partials, ["repo_a", "repo_b"], {"n_shared": ("sum", "n")})


def vendored_content(
    files: ray.data.Dataset,
    min_repos: int = 2,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Hot-content report: every exact content (by sha256) present in at
    least ``min_repos`` DISTINCT repos, with its fan-out and the bytes
    an exact dedup would reclaim. Output
    (sha256, n_repos, n_files, size, wasted_bytes) where
    wasted_bytes = size × (n_files − 1).

    Shape: slim (sha256, repo, size) rows, ONE sha-keyed exchange, one
    vectorized boundary pass per partition; only qualifying rows (the
    vendored minority) leave the reduce."""
    if min_repos < 2:
        raise ValueError("min_repos must be >= 2")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")

    slim = files.select_columns(["sha256", "repo", "size"])
    out_schema = pa.schema(
        [
            ("sha256", pa.string()),
            ("n_repos", pa.int64()),
            ("n_files", pa.int64()),
            ("size", pa.int64()),
            ("wasted_bytes", pa.int64()),
        ]
    )

    def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        tbl = tbl.sort_by([("sha256", "ascending"), ("repo", "ascending")])
        sha_c = _codes(tbl.column("sha256"))
        repo_c = _codes(tbl.column("repo"))
        size = tbl.column("size").to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.r_[True, sha_c[1:] != sha_c[:-1]]
        gidx = np.cumsum(starts) - 1
        n_groups = int(gidx[-1]) + 1
        n_files = np.bincount(gidx, minlength=n_groups)
        # distinct repos per sha: a (sha, repo) run boundary inside the group
        repo_new = starts | np.r_[True, repo_c[1:] != repo_c[:-1]]
        n_repos = np.bincount(gidx[repo_new], minlength=n_groups)
        g_size = size[np.nonzero(starts)[0]]  # sha determines size
        qual = n_repos >= min_repos
        if not qual.any():
            return out_schema.empty_table()
        return pa.table(
            {
                "sha256": tbl.column("sha256")
                .take(pa.array(np.nonzero(starts)[0][qual]))
                .combine_chunks(),
                "n_repos": pa.array(n_repos[qual], pa.int64()),
                "n_files": pa.array(n_files[qual], pa.int64()),
                "size": pa.array(g_size[qual], pa.int64()),
                "wasted_bytes": pa.array(
                    g_size[qual] * (n_files[qual] - 1), pa.int64()
                ),
            }
        )

    return hash_exchange(
        slim, "sha256", num_partitions, reduce_fn, out_schema.empty_table()
    )


def dup_dir_groups(
    files: ray.data.Dataset,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Duplicate-directory detection: directories (per repo) whose
    content MULTISET — the sorted list of member-file sha256s, filenames
    ignored — is identical to another directory's. Output one member row
    per directory in a group of ≥2: (dir_hash, repo, dir, n_files),
    where dir_hash = md5 of the comma-joined sorted sha list (a
    Merkle-style one-level fingerprint).

    Shape: two exchanges over strictly shrinking slim rows — (repo, dir,
    sha) keyed by directory to build fingerprints (one vectorized sort +
    boundary pass; the md5-per-directory loop is the irreducible
    per-group work, same stance as the md5 sampling kernels), then one
    row PER DIRECTORY keyed by dir_hash to keep groups of ≥2. Content
    never enters either exchange."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")

    out_schema = pa.schema(
        [
            ("dir_hash", pa.string()),
            ("repo", pa.string()),
            ("dir", pa.string()),
            ("n_files", pa.int64()),
        ]
    )

    def slim(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    "repo": pa.array([], pa.string()),
                    "dir": pa.array([], pa.string()),
                    "sha256": pa.array([], pa.string()),
                }
            )
        d = pc.replace_substring_regex(
            batch.column("path"), pattern="/[^/]*$", replacement=""
        )
        return pa.table(
            {"repo": batch.column("repo"), "dir": d, "sha256": batch.column("sha256")}
        )

    slim_ds = files.select_columns(["repo", "path", "sha256"]).map_batches(
        slim, batch_format="pyarrow"
    )

    def fingerprint(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        tbl = tbl.sort_by(
            [("repo", "ascending"), ("dir", "ascending"), ("sha256", "ascending")]
        )
        repo_c = _codes(tbl.column("repo"))
        dir_c = _codes(tbl.column("dir"))
        starts = np.r_[
            True, (repo_c[1:] != repo_c[:-1]) | (dir_c[1:] != dir_c[:-1])
        ]
        start_pos = np.nonzero(starts)[0]
        ends = np.append(start_pos[1:], len(repo_c))
        # python strings materialize ONLY for the md5 join (the digest
        # input itself); boundaries came from int codes
        sha = tbl.column("sha256").to_pylist()
        md5 = hashlib.md5
        hashes = [
            md5(",".join(sha[s:e]).encode()).hexdigest()
            for s, e in zip(start_pos, ends)
        ]
        firsts = pa.array(start_pos)
        return pa.table(
            {
                "dir_hash": pa.array(hashes, pa.string()),
                "repo": tbl.column("repo").take(firsts).combine_chunks(),
                "dir": tbl.column("dir").take(firsts).combine_chunks(),
                "n_files": pa.array((ends - start_pos).astype(np.int64), pa.int64()),
            }
        )

    per_dir = hash_exchange(
        slim_ds, ["repo", "dir"], num_partitions, fingerprint, out_schema.empty_table()
    )

    def keep_groups(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        h_c = _codes(tbl.column("dir_hash"))
        sizes = np.bincount(h_c, minlength=int(h_c.max()) + 1)
        keep = sizes[h_c] >= 2
        if not keep.any():
            return out_schema.empty_table()
        return tbl.filter(pa.array(keep)).select(
            ["dir_hash", "repo", "dir", "n_files"]
        )

    return hash_exchange(
        per_dir, "dir_hash", num_partitions, keep_groups, out_schema.empty_table()
    )


def repo_content_counts(
    files: ray.data.Dataset,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Distinct exact contents per repo: (repo, n_contents). Slim
    (repo, sha256) rows, ONE repo-keyed exchange, one dedupe+boundary
    pass per partition — dimension-sized output (one row per repo)."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    slim = files.select_columns(["repo", "sha256"])
    out_schema = pa.schema([("repo", pa.string()), ("n_contents", pa.int64())])

    def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        repo_c = _codes(tbl.column("repo"))
        sha_c = _codes(tbl.column("sha256"))
        pair = repo_c.astype(np.uint64) << np.uint64(32)
        pair |= sha_c.astype(np.uint64)
        uniq, first = np.unique(pair, return_index=True)
        u_repo = repo_c[first]
        n_contents = np.bincount(u_repo, minlength=int(repo_c.max()) + 1)
        r_first = np.zeros(len(n_contents), dtype=np.int64)
        r_first[repo_c[::-1]] = np.arange(len(repo_c) - 1, -1, -1)
        present = n_contents > 0
        return pa.table(
            {
                "repo": tbl.column("repo")
                .take(pa.array(r_first[present]))
                .combine_chunks(),
                "n_contents": pa.array(
                    n_contents[present].astype(np.int64), pa.int64()
                ),
            }
        )

    return hash_exchange(
        slim, "repo", num_partitions, reduce_fn, out_schema.empty_table()
    )


def fork_candidates(
    files: ray.data.Dataset,
    min_containment_ppm: int = 500_000,
    num_partitions: int = 16,
    max_repos_per_content: int = 256,
) -> ray.data.Dataset:
    """Fork / vendored-tree detection: repo pairs whose shared DISTINCT
    contents cover at least ``min_containment_ppm`` parts-per-million of
    the SMALLER repo's distinct contents — the classic fork signal
    (a fork contains most of the upstream's files verbatim). Output
    (repo_a, repo_b, n_shared, n_a, n_b, containment_ppm) with
    containment_ppm = (n_shared × 10⁶) // min(n_a, n_b) on the exact
    integer lattice.

    Composition, no new shuffle shapes: the repo-overlap exchange + the
    per-repo content-count exchange (both slim), then the
    dimension-sized count table broadcasts into the pair stream via the
    standard small-side join — the pair stream itself never re-shuffles.
    The broadcast side is one row PER REPO (not per file); at extreme
    repo cardinality swap it for a repo-keyed exchange of the pairs."""
    if not (0 < min_containment_ppm <= 1_000_000):
        raise ValueError("min_containment_ppm must be in (0, 1e6]")
    from duplicate_finder_ray.stages.relational import broadcast_hash_join

    overlap = repo_overlap_pairs(
        files,
        num_partitions=num_partitions,
        max_repos_per_content=max_repos_per_content,
    )
    rc = repo_content_counts(files, num_partitions=num_partitions)

    def rename(to: str):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(["repo", to])

        return fn

    rc_a = rc.map_batches(rename("n_a"), batch_format="pyarrow")
    rc_b = rc.map_batches(rename("n_b"), batch_format="pyarrow")
    withc = broadcast_hash_join(
        broadcast_hash_join(overlap, rc_a, "repo_a", "repo", ["n_a"]),
        rc_b,
        "repo_b",
        "repo",
        ["n_b"],
    )

    def score(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column("containment_ppm", pa.array([], pa.int64()))
        ns = batch.column("n_shared").to_numpy().astype(np.int64)
        na = batch.column("n_a").to_numpy().astype(np.int64)
        nb = batch.column("n_b").to_numpy().astype(np.int64)
        ppm = (ns * 1_000_000) // np.minimum(na, nb)
        out = batch.append_column("containment_ppm", pa.array(ppm, pa.int64()))
        return out.filter(pa.array(ppm >= min_containment_ppm))

    return withc.map_batches(score, batch_format="pyarrow")


def dup_rate_by_size(
    files: ray.data.Dataset,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Duplicate-rate-by-size report: files bucketed by the DECIMAL
    DIGIT COUNT of their byte size (an exact, SQL-twin-safe log bucket:
    length(CAST(size AS VARCHAR))), per bucket the file count, the
    count of files belonging to an exact-duplicate group (same sha256
    seen ≥2 times corpus-wide), and dup_rate_ppm on the integer
    lattice = (n_dup_files × 10⁶) // n_files. The audit answers "are my
    duplicates concentrated in small or large files?".

    Shape: slim (sha256, size) rows, ONE sha-keyed exchange (group
    membership is global per sha), per-partition bucket partials, tiny
    grouped sum, ppm computed map-side on the handful of buckets."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    slim = files.select_columns(["sha256", "size"])
    part_schema = pa.schema(
        [
            ("size_digits", pa.int64()),
            ("n_files", pa.int64()),
            ("n_dup_files", pa.int64()),
        ]
    )

    def bucket_partials(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return part_schema.empty_table()
        sha_c = _codes(tbl.column("sha256"))
        size = tbl.column("size").to_numpy(zero_copy_only=False).astype(np.int64)
        gsize = np.bincount(sha_c, minlength=int(sha_c.max()) + 1)
        is_dup = gsize[sha_c] >= 2
        # decimal digit count without str(): size >= 1 always (files).
        # log10(10**k - 1) rounds UP to k in float64 for k >= 15, so the
        # naive floor(log10)+1 overcounts there; correct it with an exact
        # integer compare (digits <= 19 for int64, so 10**(digits-1) fits).
        s = np.maximum(size, 1)
        digits = np.floor(np.log10(s)).astype(np.int64) + 1
        digits -= s < 10 ** np.maximum(digits - 1, 0)
        n_files = np.bincount(digits)
        n_dup = np.bincount(digits, weights=is_dup).astype(np.int64)
        present = n_files > 0
        return pa.table(
            {
                "size_digits": pa.array(
                    np.nonzero(present)[0].astype(np.int64), pa.int64()
                ),
                "n_files": pa.array(n_files[present].astype(np.int64), pa.int64()),
                "n_dup_files": pa.array(n_dup[present], pa.int64()),
            }
        )

    partials = hash_exchange(
        slim, "sha256", num_partitions, bucket_partials, part_schema.empty_table()
    )
    totals = grouped_aggregate(
        partials,
        "size_digits",
        {"n_files": ("sum", "n_files"), "n_dup_files": ("sum", "n_dup_files")},
    )

    def ppm(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column("dup_rate_ppm", pa.array([], pa.int64()))
        nd = batch.column("n_dup_files").to_numpy().astype(np.int64)
        nf = batch.column("n_files").to_numpy().astype(np.int64)
        return batch.append_column(
            "dup_rate_ppm", pa.array((nd * 1_000_000) // nf, pa.int64())
        )

    return totals.map_batches(ppm, batch_format="pyarrow")


def fork_families(
    files: ray.data.Dataset,
    min_containment_ppm: int = 500_000,
    num_partitions: int = 16,
    max_repos_per_content: int = 256,
) -> ray.data.Dataset:
    """Repo FAMILIES: connected components over the fork-candidate
    graph — transitive closure of "A is a fork/vendored copy of B", so
    a chain upstream → fork → fork-of-fork lands in one family even
    when the endpoints share too little directly.  Output
    ``(repo, family)`` where ``family`` is the lexicographically
    smallest repo in the component (the same min-label rule as
    near-dup clusters).

    Pure composition: the fork-candidate pair stream (slim, repo-keyed)
    feeds stages/cc.py's contraction — no new shuffle shapes.  Repos
    with no qualifying pair are singletons and never enter the
    computation."""
    from duplicate_finder_ray.config import PipelineConfig
    from duplicate_finder_ray.stages.cc import connected_components

    pairs = fork_candidates(
        files,
        min_containment_ppm=min_containment_ppm,
        num_partitions=num_partitions,
        max_repos_per_content=max_repos_per_content,
    )

    def to_edges(batch: pa.Table) -> pa.Table:
        return batch.select(["repo_a", "repo_b"]).rename_columns(["a", "b"])

    edges = pairs.map_batches(to_edges, batch_format="pyarrow")
    labels = connected_components(edges, PipelineConfig())

    def to_family(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["repo", "family"])

    return labels.map_batches(to_family, batch_format="pyarrow")


def dir_rollup(
    files: ray.data.Dataset,
) -> ray.data.Dataset:
    """Recursive per-directory rollup (``du``): for EVERY ancestor
    directory of every file, the file count and total bytes beneath it
    — the tree view behind storage audits and the dup-dir report.
    Output ``(repo, dir, n_files, total_bytes)``; top-level files have
    no ancestor and contribute no row.

    Shape: ancestor prefixes are emitted map-side with D C-level
    ``rpartition`` passes (D = max path depth, a small constant) and
    summed per (repo, dir) in the same batch, so the stored blocks and
    the shuffle only carry directory-vocabulary rows — never one row
    per file × depth."""

    def ancestors(batch: pa.Table) -> pa.Table:
        # ancestor emission: D RE2 passes strip one trailing component
        # each round (C++ kernels — no per-row Python string work)
        repo = pa.chunked_array([batch.column("repo")]).combine_chunks()
        cur = pa.chunked_array([batch.column("path")]).combine_chunks()
        size = pc.cast(batch.column("size"), pa.int64())
        frames = []
        while True:
            mask = pc.match_substring_regex(cur, "/")
            if not pc.any(mask).as_py():
                break
            repo = pc.filter(repo, mask)
            cur = pc.filter(cur, mask)
            size = pc.filter(size, mask)
            cur = pc.replace_substring_regex(
                cur, pattern="/[^/]*$", replacement=""
            )
            frames.append(pa.table({"repo": repo, "dir": cur, "size": size}))
        if not frames:
            frames = [pa.table({"repo": repo, "dir": cur, "size": size}).slice(0, 0)]
        return group_aggregate(
            pa.concat_tables(frames),
            ["repo", "dir"],
            [([], "count_all"), ("size", "sum")],
            ["n_files", "total_bytes"],
        )

    return grouped_aggregate(
        files.select_columns(["repo", "path", "size"]).map_batches(
            ancestors, batch_format="pyarrow"
        ),
        ["repo", "dir"],
        {"n_files": ("sum", "n_files"), "total_bytes": ("sum", "total_bytes")},
    )


def repo_size_gini(files: ray.data.Dataset) -> ray.data.Dataset:
    """Corpus concentration audit: the Gini coefficient of per-repo
    byte totals on an exact integer ppm lattice — "how unevenly is the
    corpus distributed across repos" (the number behind sampling and
    skew decisions). One row: (n_repos, total_bytes, gini_ppm) with
    gini_ppm = 10⁶·(2·Σᵢ rᵢ·bᵢ − (n+1)·Σb) // (n·Σb), ranks ascending
    by (bytes, repo) — every step integer, so the SQL twin reproduces
    it bit-for-bit (DuckDB sums in HUGEINT; the engine reduces in
    Python ints, both overflow-free).

    Shape: one repo-keyed grouped sum (dimension-sized, each block
    pre-summed in its split task), ONE tiny remote task for the rank
    arithmetic — file rows never co-locate."""
    out_schema = pa.schema(
        [
            ("n_repos", pa.int64()),
            ("total_bytes", pa.int64()),
            ("gini_ppm", pa.int64()),
        ]
    )

    totals = grouped_aggregate(
        files.select_columns(["repo", "size"]), "repo", {"bytes": ("sum", "size")}
    )

    def gini(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .sort_values(["bytes", "repo"], kind="mergesort")
            .reset_index(drop=True)
        )
        n = len(df)
        b = df["bytes"].to_numpy(np.int64)
        tot = int(b.sum())
        if tot == 0:
            ppm = 0
        else:
            s1 = sum((i + 1) * int(v) for i, v in enumerate(b))
            ppm = (1_000_000 * (2 * s1 - (n + 1) * tot)) // (n * tot)
        return pa.table(
            {
                "n_repos": pa.array([n], pa.int64()),
                "total_bytes": pa.array([tot], pa.int64()),
                "gini_ppm": pa.array([ppm], pa.int64()),
            }
        )

    return ray.data.from_arrow_refs(
        [gather_blocks(totals, gini, out_schema.empty_table())]
    )


def dedup_summary(
    files: ray.data.Dataset,
    num_partitions: int = 16,
) -> "pd.DataFrame":
    """One-row executive dedup report: total files, distinct contents,
    duplicate groups/files and the bytes an exact dedup would reclaim —
    the headline numbers of the reference's final report
    (/root/reference/duplicate_finder/duplicate_finder.py:306-340)
    generalized to corpus scale.

    Shape: slim (sha256, size) rows cross ONE sha-keyed exchange; each
    partition reduces its groups to a SINGLE partial row (sha groups
    never span partitions), and the five scalars sum across the
    partition-count-sized result on the driver."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")

    part_schema = pa.schema(
        [
            ("total_files", pa.int64()),
            ("distinct_contents", pa.int64()),
            ("dup_groups", pa.int64()),
            ("dup_files", pa.int64()),
            ("reclaimable_bytes", pa.int64()),
        ]
    )

    slim = files.select_columns(["sha256", "size"])

    def summarize(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return part_schema.empty_table()
        sha_c = _codes(tbl.column("sha256"))
        size = tbl.column("size").to_numpy(zero_copy_only=False).astype(np.int64)
        n_groups = int(sha_c.max()) + 1
        n = np.bincount(sha_c, minlength=n_groups)
        g_size = np.zeros(n_groups, dtype=np.int64)
        g_size[sha_c] = size  # sha determines size; any writer wins
        dup = n > 1
        return pa.table(
            {
                "total_files": pa.array([int(len(sha_c))], pa.int64()),
                "distinct_contents": pa.array([n_groups], pa.int64()),
                "dup_groups": pa.array([int(dup.sum())], pa.int64()),
                "dup_files": pa.array([int(n[dup].sum())], pa.int64()),
                "reclaimable_bytes": pa.array(
                    [int(((n - 1) * g_size)[dup].sum())], pa.int64()
                ),
            }
        )

    partials = hash_exchange(
        slim, "sha256", num_partitions, summarize, part_schema.empty_table()
    )
    agg = partials.to_pandas().sum()
    return pd.DataFrame([{c: int(agg[c]) for c in part_schema.names}])
