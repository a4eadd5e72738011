"""Near-duplicate pipeline: signatures → LSH → verified pairs → clusters.

North_rule flagship extension (SURVEY.md §3.4 lower half). One
composition of four named stages, shared by ``run_on`` and
``run_checkpointed``:

    signatures  signature task map over (file_id, content), fused with
                the identity map, and with the Parquet read when it is
                read a block per file: the LSH band keys of the K-perm
                MinHash, plus the shingle sets in exact verify mode or
                the MinHash itself in estimate mode (SimHash only
                through ``signatures_for``)
    candidates  LSH band exchange over the signature blocks, the band
                explosion running inside its tasks (no band-row
                dataset). Small inputs: one task explodes and lexsorts.
                At scale: ``hash_exchange`` with the explosion fused
                into its split tasks. Hot buckets capped; pairs deduped
                across bands with a band-collision count
    verified    exact Jaccard over fid-keyed shingle CSRs of the
                signature blocks' endpoint rows, one scoring task per
                candidate block with every CSR a task argument (pairs
                never shuffle): one CSR for few endpoints, else one per
                fid shard, split under the candidates stage when the
                corpus is large
    labels      connected components: hash-to-min contraction rounds
                as task waves over block refs, one bucket per 2 M
                edges (one task, one round on smaller graphs)

On inputs below the broadcast limits, the signature pass is the only
Ray Data execution: candidates, the verify scoring and every CC
round are Ray tasks launched over the materialized blocks' refs.

Each stage runs through a hook ``(name, make, extra) → materialized
Dataset``. ``run_on`` materializes ``make()``; ``run_checkpointed``
commits it through ``CheckpointManager.run_stage`` (or loads the
completed checkpoint without calling ``make``) and materializes the
read-back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import ray.data

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.stages import cc, neardup
from duplicate_finder_ray.stages.derive import add_identity


@dataclass
class NearDupResult:
    #: file_id, fid, bands (LSH band keys), n_shingles, plus shingles in
    #: exact verify mode or minhash in estimate mode
    signatures: ray.data.Dataset
    #: a, b, n_bands, jaccard, n_inter, n_union — exact Jaccard plus the
    #: integer set sizes in verify_mode="exact"; MinHash estimate (and
    #: -1 sentinels for the sizes) in "estimate" mode
    pairs: ray.data.Dataset
    labels: ray.data.Dataset       # file_id, component
    metrics: dict = field(default_factory=dict)


class NearDupPipeline:
    def __init__(self, cfg: PipelineConfig | None = None) -> None:
        self.cfg = cfg or PipelineConfig()

    def signatures_for(
        self, ds: ray.data.Dataset, simhash: bool = False, minhash: bool = False
    ) -> ray.data.Dataset:
        """(repo,path,commit,lang,content) → signature table. Content is
        dropped inside the signature tasks; only (file_id, sigs) flow on.
        ``simhash=True`` adds the 64-bit SimHash fingerprint column,
        ``minhash=True`` the K-wide MinHash signature."""
        return self._signatures(
            ds, emit_shingles=False, emit_simhash=simhash, emit_minhash=minhash
        )

    def _signatures(
        self,
        ds: ray.data.Dataset,
        emit_shingles: bool,
        emit_simhash: bool = False,
        emit_minhash: bool = False,
    ) -> ray.data.Dataset:
        ds = ds.map_batches(add_identity, batch_format="pyarrow")
        ds = ds.select_columns(["file_id", "content"])
        return neardup.signatures(
            ds,
            self.cfg,
            emit_shingles=emit_shingles,
            emit_simhash=emit_simhash,
            emit_minhash=emit_minhash,
        )

    def _compose(self, ds: ray.data.Dataset, stage) -> NearDupResult:
        """The pipeline, once: ``stage(name, make, extra=None)`` runs
        each named stage and returns its output as a materialized
        Dataset."""
        cfg = self.cfg
        exact = cfg.verify_mode == "exact"
        # exact mode carries the shingle sets through the signature pass
        # so verification never re-reads or re-shingles content;
        # estimate mode carries the MinHash it compares instead
        sigs = stage(
            "signatures",
            lambda: self._signatures(
                ds, emit_shingles=exact, emit_minhash=not exact
            ),
        )  # reused: bands + verify endpoint lookups
        prestarted = None

        def make_candidates() -> ray.data.Dataset:
            nonlocal prestarted
            # overlap the verify shard split under candidate generation
            # (round-4 VERDICT item 2) when the corpus exceeds the
            # broadcast limit (endpoints can approach the corpus); a
            # launched split always feeds the sharded verify path.
            # Launched here so a run resuming past this stage never
            # starts it.
            if (
                exact
                and cfg.verify_prestart_shards
                and sigs.count() > cfg.broadcast_verify_limit
            ):
                prestarted = neardup.prestart_verify_split(sigs, cfg)
            # the band explosion runs inside the candidate tasks over
            # the signature blocks; no band-row dataset is built
            return neardup.candidate_pairs(None, cfg, sigs_source=sigs)

        candidates = stage("candidates", make_candidates)
        verified = stage(
            "verified",
            lambda: (
                neardup.verify_pairs_exact(candidates, sigs, cfg, prestarted=prestarted)
                if exact
                else neardup.verify_pairs(candidates, sigs, cfg)
            ),
        )
        cc_rounds: list[dict] = []
        labels = stage(
            "labels",
            lambda: cc.connected_components(verified, cfg, round_metrics=cc_rounds),
            # persisted into the labels stage's lineage manifest: the
            # per-round O(max-component) bucket-load guard, one row per
            # contraction round (empty when the stage was resumed from
            # a checkpoint or the graph has no edge)
            lambda: {"cc_rounds": cc_rounds},
        )
        return NearDupResult(
            signatures=sigs,
            pairs=verified,
            labels=labels,
            metrics={"cc_rounds": cc_rounds},
        )

    def run_on(self, ds: ray.data.Dataset) -> NearDupResult:
        return self._compose(ds, lambda name, make, extra=None: make().materialize())

    def run_checkpointed(
        self,
        ds: ray.data.Dataset,
        checkpoint_root: str,
        resume: bool = True,
    ) -> NearDupResult:
        """Checkpointed/resumable run (north_rule M7): every shuffle-
        stage boundary (signatures → candidate pairs → verified pairs →
        labels) commits partitioned Parquet + a lineage manifest; a
        rerun with the same config resumes from the last completed
        boundary instead of recomputing (the reference restarts from
        zero — SURVEY.md §4.1 'Checkpoint / resume: none')."""
        from duplicate_finder_ray.state.checkpoint import CheckpointManager

        mgr = CheckpointManager(checkpoint_root, self.cfg)

        def stage(name, make, extra=None) -> ray.data.Dataset:
            return mgr.run_stage(name, make, resume=resume, extra=extra).materialize()

        res = self._compose(ds, stage)
        res.metrics.update(checkpoints=mgr.manifests(), config_hash=mgr.cfg_hash)
        return res
