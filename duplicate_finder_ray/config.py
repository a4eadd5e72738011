"""Pipeline configuration with the reference's normalization semantics.

Mirrors every observable knob of the reference config
(/root/reference/duplicate_finder/duplicate_finder_config.py:14-199 and
the CLI surface cli_args.py:18-129), re-targeted from a filesystem root to
a Parquet dataset URI, and extended with the near-duplicate parameters
(shingling / MinHash / SimHash / LSH / clustering) that BASELINE.json's
north_rule mandates.

Normalization conformance (tests pin these against the reference's own
accept/reject matrices):

* size strings go through the strict config-layer grammar then the loose
  parser — ``"10M"`` raises, ``"10MB"``/``"100KiB"``/``"10"`` pass
  (reference duplicate_finder_config.py:159-184);
* patterns are stripped, empties dropped, ``None`` passes through
  (reference :149-157);
* parallelism ``None``/``<=0`` → ``min(32, os.cpu_count() or 8)``; values
  over 32 warn but are honored (reference :186-199);
* output file paths resolve without an existence check (reference
  :142-147).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from duplicate_finder_ray.functions.globs import globs_to_regex
from duplicate_finder_ray.functions.sizes import validate_size_string


def banding_for(num_perms: int, tau: float, target_recall: float) -> int:
    """Recall-targeted LSH banding: the band count b = K // r for the
    LARGEST rows-per-band r whose S-curve detection probability for a
    pair exactly at Jaccard τ, 1 - (1 - τ^r)^(K//r), still meets
    ``target_recall``. Larger r ⇒ sharper S-curve ⇒ fewer noise
    candidates, so the largest feasible r is the cheapest banding that
    cannot cost recall at the verify threshold. Falls back to r=1
    (b=K, the max-recall banding) when even that misses the target
    (tiny τ)."""
    if not (0 < tau <= 1):
        raise ValueError(f"tau must be in (0, 1]: {tau}")
    for r in range(num_perms, 0, -1):
        b = num_perms // r
        if num_perms // b != r:
            # not a rows-per-band the pipeline can actually run: it uses
            # r_eff = K // b, which exceeds this nominal r and flattens
            # the S-curve below the validated recall (e.g. K=128,
            # τ=0.95, target=0.998: b=9 validates at r=13 but runs
            # r=14 → 0.99757). The realizable twin of this banding is
            # visited when the loop reaches r = K // b.
            continue
        if 1.0 - (1.0 - tau**r) ** b >= target_recall:
            return b
    return num_perms


def normalize_file_path(file_path: str | None) -> str | None:
    """Resolve an output-file path; None passes through (reference :142-147)."""
    if file_path is None:
        return None
    return str(Path(file_path).expanduser().resolve())


def normalize_patterns(patterns: list[str] | None) -> list[str] | None:
    """Strip whitespace, drop empties, None passes through (reference :149-157)."""
    if patterns is None:
        return None
    return [p.strip() for p in patterns if p.strip()]


def normalize_parallelism(value: int | None) -> int:
    """Reference thread-count rule (reference :186-199), reused as the
    default actor-pool ``concurrency`` / task parallelism hint."""
    if value is None or value <= 0:
        return min(32, os.cpu_count() or 8)
    if value > 32:
        warnings.warn(
            f"Using {value} parallel workers, more than the recommended maximum of 32.",
            stacklevel=2,
        )
    return value


@dataclass
class PipelineConfig:
    """All knobs for the dedup engine. Field-for-field superset of the
    reference's ``DuplicateFinderConfig`` (§2.6 of SURVEY.md)."""

    # ---- input --------------------------------------------------------
    #: Parquet dataset path/URI of the code table (repo, path, commit,
    #: lang, content). Analogue of the reference's scan_folder_path.
    input_path: str | None = None

    # ---- reference filter/sort/report knobs ---------------------------
    exclude_patterns: list[str] | None = None
    include_patterns: list[str] | None = None
    max_file_size_str: str | None = None
    max_file_size: int | None = None
    min_file_size_str: str | None = None
    min_file_size: int | None = None
    output_path: str | None = None          # report sink (parquet dir or .txt)
    sort_by_group_size: bool = False        # mutually exclusive with next
    sort_by_file_size: bool = False
    parallelism: int = 0                    # reference threads_count semantics
    verify_content: bool = False            # byte-exact refinement of hash groups
    delete_duplicates: bool = False         # non-destructive: emit decisions / filter keepers
    delete_report_path: str | None = None
    interactive_mode: bool = False
    dry_run: bool = False

    # ---- exact-dedup execution knobs ----------------------------------
    #: "fused": one pass computes size+sha256 and feeds the members
    #: exchange directly (the members reduce drops singletons, so a size
    #: prefilter could not change the output). "two_pass": pass 1 sizes
    #: only, broadcast candidate sizes, pass 2 hashes only candidates
    #: (reference's hash-work-avoidance, duplicate_finder.py:42-48,186-189
    #: — pays a second content read).
    prefilter_mode: str = "fused"
    #: rows per signature-kernel call inside a signature task (the
    #: task itself takes a whole block, so it can fuse with the read),
    #: and the batch size of the exact pipeline's derive maps.
    derive_batch_size: int = 1024

    # ---- near-dup (north_rule extension) ------------------------------
    shingle_k: int = 5                      # tokens per shingle
    shingle_mode: str = "token"             # "token" | "char" | "line"
    #: token-id hash family: "blake2b" (production default) or "md5"
    #: (SQL-replayable — DuckDB md5_number_lower + ASCII tokenization,
    #: functions/shingles.py:token_id_md5 — so an external engine can
    #: audit signatures/bands bit-for-bit)
    token_hash: str = "blake2b"
    minhash_perms: int = 128                # signature length K
    #: b bands of r = K // b rows. Default (32, 4): detection prob for
    #: Jaccard 0.8 is 1-(1-0.8^4)^32 ≈ 1-5e-8 — recall is set by the
    #: verify tier, not banding. 0 = AUTO: derive the banding from
    #: (minhash_perms, jaccard_threshold, lsh_target_recall) — the
    #: largest rows-per-band r whose S-curve detection probability AT τ
    #: still meets the target (most selective banding that cannot cost
    #: recall; a fixed 32×4 at τ=0.5 only detects 87% of pairs exactly
    #: at the threshold).
    lsh_bands: int = 32
    #: candidate-recall floor AT τ used by lsh_bands=0 (auto) banding.
    lsh_target_recall: float = 0.995
    minhash_seed: int = 42
    jaccard_threshold: float = 0.8          # verify threshold τ
    #: "exact": candidates kept iff the true Jaccard of the shingle
    #: sets the signature pass carried is ≥ τ (semi-join on pair
    #: endpoints, no content shuffle).
    #: "estimate": cheap MinHash-agreement filter at τ (σ ≈ 0.035 at
    #: K=128 — borderline pairs can flip; recall/precision tradeoff).
    verify_mode: str = "exact"
    #: endpoint-count threshold below which exact verification broadcasts
    #: the shingle sets instead of sharding them (small-side rule).
    #: 1M endpoints × ~1.5 KB shingle set ≈ 1.5 GB CSR in the object
    #: store — read zero-copy by every task, well within a worker's
    #: budget on standard nodes; beyond it the sharded-CSR path keeps
    #: the 10^9-endpoint shape correct (if slower).
    broadcast_verify_limit: int = 1_000_000
    #: candidate cap per LSH bucket. None (default) = derive the cap
    #: per emission task from ``band_pair_budget`` so nothing is
    #: truncated while the task's total pair volume fits the budget
    #: (the old fixed default of 200 silently cut flagship recall to
    #: 0.40 at near-clique density — BASELINE.md sf0.1 density probe).
    #: A binding cap is LOUD: warnings + logs + true bucket_size on
    #: every emitted pair (SURVEY.md §7.3 hot-key skew).
    band_bucket_cap: int | None = None
    #: per-emission-task candidate-pair budget used when
    #: band_bucket_cap is None: largest cap with
    #: Σ C(min(size, cap), 2) ≤ budget. 10M pairs ≈ 240 MB of transient
    #: (a, b, size) arrays — a worker-heap bound, not a recall knob.
    band_pair_budget: int = 10_000_000
    #: start the exact-verify shard SPLIT (the payload partition of the
    #: signature table by fid % n_shards) as soon as signatures
    #: materialize, overlapping it under candidate generation instead
    #: of serializing it after (round-4 VERDICT item 2: the split wave
    #: was a measured ~1.8 s critical-path term at 32 CPUs). The
    #: prestarted split is UNFILTERED (endpoints are unknown until
    #: candidates finish), so it partitions the full signature payload
    #: rather than the endpoint subset — CSR builds still filter to
    #: endpoints, so verify memory is unchanged; only the transient
    #: split sub-blocks cover the full corpus. Net win whenever dup
    #: density is substantial; set False for very sparse corpora.
    verify_prestart_shards: bool = True

    # ---- checkpointing ------------------------------------------------
    checkpoint_dir: str | None = None

    # ---- derived (filled in __post_init__) ----------------------------
    include_regex: str | None = field(default=None, repr=False)
    exclude_regex: str | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sort_by_group_size and self.sort_by_file_size:
            # CLI enforces exclusivity (reference cli_args.py:27-38).
            raise ValueError(
                "sort_by_group_size and sort_by_file_size are mutually exclusive"
            )
        self.exclude_patterns = normalize_patterns(self.exclude_patterns)
        self.include_patterns = normalize_patterns(self.include_patterns)
        self.max_file_size = validate_size_string(self.max_file_size_str)
        self.min_file_size = validate_size_string(self.min_file_size_str)
        self.output_path = normalize_file_path(self.output_path)
        self.delete_report_path = normalize_file_path(self.delete_report_path)
        self.parallelism = normalize_parallelism(self.parallelism)
        if self.prefilter_mode not in ("fused", "two_pass"):
            raise ValueError(f"invalid prefilter_mode: {self.prefilter_mode}")
        if self.verify_mode not in ("exact", "estimate"):
            raise ValueError(f"invalid verify_mode: {self.verify_mode}")
        if self.lsh_bands and self.minhash_perms % self.lsh_bands != 0:
            raise ValueError(
                f"minhash_perms ({self.minhash_perms}) must be divisible by "
                f"lsh_bands ({self.lsh_bands})"
            )
        self.include_regex = globs_to_regex(self.include_patterns)
        self.exclude_regex = globs_to_regex(self.exclude_patterns)

    @property
    def resolved_lsh_bands(self) -> int:
        """The band count actually used: the explicit ``lsh_bands``, or
        (when 0) the recall-targeted auto derivation."""
        if self.lsh_bands:
            return self.lsh_bands
        return banding_for(
            self.minhash_perms, self.jaccard_threshold, self.lsh_target_recall
        )

    @property
    def lsh_rows_per_band(self) -> int:
        return self.minhash_perms // self.resolved_lsh_bands

    def config_hash(self) -> str:
        """Stable hash of the semantic fields, used to key checkpoint
        manifests so a resume only reuses stages built with an identical
        config."""
        import hashlib
        import json

        payload = {
            k: v
            for k, v in sorted(self.__dict__.items())
            if k not in ("output_path", "delete_report_path", "checkpoint_dir")
        }
        return hashlib.sha256(
            json.dumps(payload, default=str, sort_keys=True).encode()
        ).hexdigest()[:16]
