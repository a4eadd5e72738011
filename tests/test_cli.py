"""CLI tests — mirrors the reference's CLI test level
(/root/reference/tests/test_cli_args.py:17-59): help text, duplicate
listing, dry-run "[would delete]" lines, exclude suppressing results —
in-process (reusing the session Ray) plus one subprocess --help check.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pandas as pd
import pytest

from duplicate_finder_ray.cli import (
    build_parser,
    interactive_decisions,
    main,
    render_delete_report,
)


def test_help_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "duplicate_finder_ray", "--help"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert "find-dupes-ray" in out
    assert "--exclude" in out and "--dry-run" in out and "--verify-content" in out


def test_sort_flags_mutually_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["/tmp/x", "-g", "-s"])


@pytest.fixture()
def corpus_parquet(tmp_path, tiny_corpus):
    p = tmp_path / "corpus.parquet"
    tiny_corpus.to_parquet(p, index=False)
    return str(p)


def test_cli_lists_duplicates(ray_session, corpus_parquet, capsys):
    assert main([corpus_parquet]) == 0
    out = capsys.readouterr().out
    assert "group(s) of duplicate files" in out
    assert "orgA/r1:src/a.py@" in out  # member line present


def test_cli_dry_run_would_delete(ray_session, corpus_parquet, capsys):
    assert main([corpus_parquet, "--delete", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "[would delete]" in out
    # keeper (lexicographic min) is never listed as deleted
    assert "[would delete] orgA/r1:src/a.py@" not in out
    assert "[would delete] orgB/r2:lib/b.py@" in out


def test_cli_delete_dry_run_streams_non_keepers(
    ray_session, corpus_parquet, monkeypatch, capsys
):
    """--delete outside interactive mode reads the non-keeper rows batch
    by batch: no Dataset reaches the driver whole through to_pandas."""
    import ray.data

    def no_collect(self, *args, **kwargs):
        raise AssertionError("--delete collected a Dataset with to_pandas")

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", no_collect)
    assert main([corpus_parquet, "--delete", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "[would delete] orgB/r2:lib/b.py@" in out
    assert "[would delete] orgA/r1:src/a.py@" not in out


def test_cli_exclude_suppresses(ray_session, corpus_parquet, capsys):
    # exclude everything → no duplicates reported
    assert main([corpus_parquet, "-e", "*"]) == 0
    out = capsys.readouterr().out
    assert "No duplicate files found." in out


def test_cli_report_file(ray_session, corpus_parquet, tmp_path, capsys):
    report = tmp_path / "dupes.txt"
    assert main([corpus_parquet, "-o", str(report)]) == 0
    text = report.read_text()
    assert text.startswith("Duplicate files report")
    assert "file(s), size:" in text


def test_cli_delete_writes_dedup_table(
    ray_session, corpus_parquet, tmp_path, monkeypatch, capsys
):
    import ray.data

    monkeypatch.setattr("builtins.input", lambda _="": "y")
    out_dir = tmp_path / "dedup"
    assert main([corpus_parquet, "--delete", "--dedup-output", str(out_dir)]) == 0
    deduped = ray.data.read_parquet(str(out_dir)).to_pandas()
    # every content value appears exactly once among former duplicates
    assert deduped["content"].duplicated().sum() == 0
    # keeper survived
    assert ((deduped["repo"] == "orgA/r1") & (deduped["path"] == "src/a.py")).any()


def test_cli_delete_aborts_on_no(ray_session, corpus_parquet, monkeypatch, capsys):
    monkeypatch.setattr("builtins.input", lambda _="": "n")
    assert main([corpus_parquet, "--delete"]) == 0
    assert "Aborted." in capsys.readouterr().out


def test_interactive_decisions_keep_choice():
    df = pd.DataFrame(
        {
            "group_id": ["g1"] * 3,
            "file_id": ["a", "b", "c"],
            "rank": [0, 1, 2],
            "size": [5, 5, 5],
            "is_keeper": [True, False, False],
        }
    )
    # keep #2 ("b") → drop a and c
    answers = iter(["2"])
    dropped = interactive_decisions(df, input_fn=lambda _: next(answers))
    assert dropped == {"a", "c"}


def test_interactive_decisions_skip_group():
    df = pd.DataFrame(
        {
            "group_id": ["g1"] * 2,
            "file_id": ["a", "b"],
            "rank": [0, 1],
            "size": [1, 1],
            "is_keeper": [True, False],
        }
    )
    dropped = interactive_decisions(df, input_fn=lambda _: "")
    assert dropped == set()


def test_interactive_invalid_then_valid():
    df = pd.DataFrame(
        {
            "group_id": ["g1"] * 2,
            "file_id": ["a", "b"],
            "rank": [0, 1],
            "size": [1, 1],
            "is_keeper": [True, False],
        }
    )
    answers = iter(["zzz", "9", "1"])
    dropped = interactive_decisions(df, input_fn=lambda _: next(answers))
    assert dropped == {"b"}


def test_render_delete_report_dry_vs_real():
    dry = render_delete_report({"x", "y"}, dry_run=True, bytes_freed=2048)
    assert dry.count("[would delete]") == 2 and "Would free: 2.0 KB" in dry
    real = render_delete_report({"x"}, dry_run=False, bytes_freed=10)
    assert "Deleted: x" in real and "Freed:" in real


def test_unlink_requires_filesystem_mode(ray_session, corpus_parquet):
    with pytest.raises(SystemExit):
        main([corpus_parquet, "--delete", "--unlink"])


def test_filesystem_unlink_deletes_non_keepers(ray_session, tmp_path, capsys,
                                               monkeypatch):
    root = tmp_path / "tree"
    (root / "sub").mkdir(parents=True)
    (root / "a.txt").write_bytes(b"same-bytes-here")
    (root / "sub" / "b.txt").write_bytes(b"same-bytes-here")
    (root / "unique.txt").write_bytes(b"totally different")
    monkeypatch.setattr("builtins.input", lambda _="": "y")
    assert main([str(root), "--filesystem", "--delete", "--unlink"]) == 0
    out = capsys.readouterr().out
    assert "Unlinked 1 file(s)." in out
    # keeper = lexicographically first path (a.txt); b.txt unlinked
    assert (root / "a.txt").exists()
    assert not (root / "sub" / "b.txt").exists()
    assert (root / "unique.txt").exists()


def test_filesystem_unlink_dry_run_removes_nothing(ray_session, tmp_path,
                                                   capsys):
    root = tmp_path / "tree2"
    root.mkdir()
    (root / "x1.bin").write_bytes(b"dup")
    (root / "x2.bin").write_bytes(b"dup")
    assert main([str(root), "--filesystem", "--delete", "--unlink",
                 "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "[would delete]" in out
    assert (root / "x1.bin").exists() and (root / "x2.bin").exists()


def test_cli_near_dup_checkpoint_resumes(ray_session, tiny_corpus,
                                         tmp_path, capsys):
    # the tiny corpus plus two near-dup families, so the summary counts
    # real clusters
    extra = [
        {"repo": "orgN/rN", "path": f"n/{fam}{i}.py", "commit": f"{i}" * 40,
         "lang": "python",
         "content": " ".join([f"{fam}{w}" for w in range(30)] + [f"tail{i}"])}
        for fam in ("alpha", "beta")
        for i in range(3)
    ]
    corpus_parquet = str(tmp_path / "corpus.parquet")
    pd.concat([tiny_corpus, pd.DataFrame(extra)]).to_parquet(
        corpus_parquet, index=False
    )
    ckpt = tmp_path / "ckpt"
    args = [corpus_parquet, "--near-dup", "--jaccard-threshold", "0.5",
            "--checkpoint-dir", str(ckpt)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "Near-duplicate clusters:" in first
    # every stage directory carries a _SUCCESS lineage manifest
    stage_dirs = [d for d in ckpt.rglob("_SUCCESS")]
    assert len(stage_dirs) >= 4  # signatures, candidates, verified, labels
    # second run resumes from the checkpoints and prints the same summary
    assert main(args) == 0
    second = capsys.readouterr().out
    line = [l for l in first.splitlines() if "Near-duplicate clusters" in l]
    assert line and line[0] in second
    # the printed count is the number of distinct components of an
    # independent run on the same corpus
    from duplicate_finder_ray.cli import build_parser, config_from_args
    from duplicate_finder_ray.pipelines.neardup import NearDupPipeline
    from duplicate_finder_ray.sources.code_table import read_code_table

    cfg = config_from_args(build_parser().parse_args(args[:-2]))
    labels = NearDupPipeline(cfg).run_on(read_code_table(corpus_parquet)).labels
    n_components = len({r["component"] for r in labels.take_all()})
    assert n_components >= 2
    assert line[0].startswith(f"Near-duplicate clusters: {n_components} (")


def test_ray_job_entry_in_process(ray_session, corpus_parquet, tmp_path, capsys):
    """scripts/ray_job.py (the `ray job submit` surface) — in-process
    against the session cluster (ray.is_initialized() guard skips init)."""
    import importlib.util
    import json as _json

    spec = importlib.util.spec_from_file_location(
        "ray_job", os.path.join(os.path.dirname(__file__), "..", "scripts", "ray_job.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    out_dir = tmp_path / "job_out"
    rc = mod.main([corpus_parquet, "--output", str(out_dir), "--near-dup",
                   "--jaccard-threshold", "0.5",
                   "--checkpoint-dir", str(tmp_path / "job_ckpt")])
    assert rc == 0
    summary = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["exact_members"] > 0
    assert summary["near_dup_members"] >= 0
    assert (out_dir / "exact_members").is_dir()
    assert (out_dir / "near_dup_labels").is_dir()
    assert any((tmp_path / "job_ckpt").rglob("_SUCCESS"))


def test_streaming_report_byte_identical(ray_session, corpus_parquet, tmp_path):
    """write_text_report / print_duplicates_stream (the no-driver-
    materialization path main() uses) must emit byte-identical output
    to the collected-DataFrame renderers they replace."""
    import io

    from duplicate_finder_ray.cli import print_duplicates, print_duplicates_stream
    from duplicate_finder_ray.config import PipelineConfig
    from duplicate_finder_ray.pipelines.dedup import (
        DedupPipeline,
        render_text_report,
        write_text_report,
    )

    res = DedupPipeline(PipelineConfig()).run(corpus_parquet)
    members_df = res.members.to_pandas()

    buf = io.StringIO()
    write_text_report(res.members, buf)
    assert buf.getvalue() == render_text_report(members_df)

    con_stream, con_df = io.StringIO(), io.StringIO()
    print_duplicates_stream(res.members, out=con_stream)
    print_duplicates(members_df, out=con_df)
    assert con_stream.getvalue() == con_df.getvalue()


def test_streaming_report_empty_corpus(ray_session, tmp_path):
    import io

    import pandas as pd

    from duplicate_finder_ray.config import PipelineConfig
    from duplicate_finder_ray.pipelines.dedup import (
        DedupPipeline,
        write_text_report,
    )

    df = pd.DataFrame(
        {
            "repo": ["o/r1", "o/r2"],
            "path": ["a.py", "b.py"],
            "commit": ["0" * 40, "1" * 40],
            "lang": ["python", "python"],
            "content": ["unique one", "unique two"],
        }
    )
    p = tmp_path / "nodups.parquet"
    df.to_parquet(p, index=False)
    res = DedupPipeline(PipelineConfig()).run(str(p))
    buf = io.StringIO()
    assert write_text_report(res.members, buf) == 0
    assert buf.getvalue() == "No duplicate files found.\n"
