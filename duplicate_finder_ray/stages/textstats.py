"""Text analysis stages for training-data curation: quality scoring,
language identification, document fingerprinting.

Training-data-pipeline extension (reference has no text analytics —
SURVEY.md §2.5). All stages are stateless vectorized ``map_batches``
over zero-copy Arrow batches; the language-ID word lists are small
constants compiled into each task (no actor state needed).

SQL twins: ``quality_scores`` and ``language_id`` are expressed in
ANSI SQL for the DuckDB oracle (both engines run RE2 regexes, so the
character-class semantics match; the language-ID twin is generated
from the same LANG_MARKERS constant with a cascading CASE reproducing
argmax's first-max tie-break). Winnowing fingerprints are checked by
a Python oracle in tests (rolling-hash logic is not reasonably
SQL-expressible).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from duplicate_finder_ray.functions.hashing import stable_hash_array
from duplicate_finder_ray.stages.exchange import grouped_aggregate, hash_exchange
from duplicate_finder_ray.stages.util import (
    gather_blocks,
    group_aggregate,
    group_rows,
    rename_cols,
)

# -- quality scoring ---------------------------------------------------

#: fixed stopword list (quality signal: natural prose has stopwords,
#: word salad / minified code has few). Keep in lockstep with
#: STOPWORD_REGEX below and the SQL twin in pipelines/queries.py.
STOPWORDS = (
    "the of and to in a is that it for on with as are be this was".split()
)
STOPWORD_REGEX = r"(?i)\b(" + "|".join(STOPWORDS) + r")\b"


def quality_scores(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document quality metrics: n_chars, n_words, mean_word_len,
    punct_ratio, digit_ratio, stopword_ratio, plus a composite
    ``quality_score`` in [0, 1]. Vectorized pyarrow.compute kernels."""
    text = batch.column(text_col)
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    trimmed = pc.utf8_trim_whitespace(text)
    words = pc.split_pattern_regex(trimmed, r"\s+")
    n_words = pc.cast(pc.list_value_length(words), pa.int64())
    n_words = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, pa.int64()), n_words)

    def count_re(pattern: str) -> pa.Array:
        return pc.cast(
            pc.count_substring_regex(text, pattern), pa.int64()
        )

    n_punct = count_re(r"[!-/:-@\[-`{-~]")
    n_digit = count_re(r"[0-9]")
    n_stop = count_re(STOPWORD_REGEX)

    safe_chars = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    safe_words = pc.max_element_wise(n_words, pa.scalar(1, pa.int64()))
    punct_ratio = pc.divide(pc.cast(n_punct, pa.float64()), pc.cast(safe_chars, pa.float64()))
    digit_ratio = pc.divide(pc.cast(n_digit, pa.float64()), pc.cast(safe_chars, pa.float64()))
    stop_ratio = pc.divide(pc.cast(n_stop, pa.float64()), pc.cast(safe_words, pa.float64()))
    mean_wlen = pc.divide(pc.cast(n_chars, pa.float64()), pc.cast(safe_words, pa.float64()))

    # composite score: rewards prose-like stopword density, penalizes
    # punctuation/digit walls and degenerate word lengths
    score = pc.multiply(
        pc.min_element_wise(
            pc.multiply(stop_ratio, pa.scalar(2.5)), pa.scalar(1.0)
        ),
        pc.multiply(
            pc.max_element_wise(
                pc.subtract(pa.scalar(1.0), pc.multiply(punct_ratio, pa.scalar(2.0))),
                pa.scalar(0.0),
            ),
            pc.max_element_wise(
                pc.subtract(pa.scalar(1.0), pc.multiply(digit_ratio, pa.scalar(2.0))),
                pa.scalar(0.0),
            ),
        ),
    )

    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": n_chars,
            "n_words": n_words,
            "n_punct": n_punct,
            "n_digits": n_digit,
            "n_stopwords": n_stop,
            # raw doubles, no rounding: both engines evaluate the same
            # IEEE-754 expression tree over the same ints → identical bits
            "punct_ratio": punct_ratio,
            "digit_ratio": digit_ratio,
            "stopword_ratio": stop_ratio,
            "mean_word_len": mean_wlen,
            "quality_score": score,
        }
    )


# -- language identification ------------------------------------------

#: tiny per-language marker-word lists (public, frequency-list style).
#: A real system would use fastText/CLD3; this is the deterministic
#: n-gram/wordlist heuristic the task spec asks for.
LANG_MARKERS: dict[str, list[str]] = {
    "en": "the and of to in is you that it he was for on are with".split(),
    "de": "der die und in den von zu das mit sich des auf ist nicht".split(),
    "fr": "le de la et les des en un du une est que dans qui pas".split(),
    "es": "de la que el en y los del las un por con una su para".split(),
}


def _lang_patterns() -> dict[str, str]:
    return {
        lang: r"(?i)\b(" + "|".join(words) + r")\b"
        for lang, words in LANG_MARKERS.items()
    }


def language_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic language ID: per-language marker-word hit rate
    (hits / words); argmax wins, 'unknown' when the best rate is below
    2% or the document is empty. Deterministic tie-break: language name
    ascending. Fully vectorized (one RE2 scan per language)."""
    text = batch.column(text_col)
    trimmed = pc.utf8_trim_whitespace(text)
    n_words = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
    n_words = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, pa.int32()), n_words)
    words = np.maximum(n_words.to_numpy(zero_copy_only=False).astype(np.float64), 1.0)

    langs = sorted(LANG_MARKERS)  # asc order = deterministic tie-break
    rates = np.empty((len(batch), len(langs)), dtype=np.float64)
    for j, lang in enumerate(langs):
        hits = pc.count_substring_regex(text, _lang_patterns()[lang])
        rates[:, j] = hits.to_numpy(zero_copy_only=False).astype(np.float64) / words

    best = rates.argmax(axis=1)  # argmax takes FIRST max → asc-name tie-break
    best_rate = rates[np.arange(len(batch)), best]
    pred = np.array(langs, dtype=object)[best]
    pred[best_rate < 0.02] = "unknown"

    # explicit half-up rounding (floor(x*1e6 + 0.5)) — the same IEEE op
    # sequence the DuckDB oracle twin runs, so scores match bit-for-bit
    # (np.round is half-to-even, DuckDB round() half-away-from-zero)
    score = np.floor(best_rate * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "lang_pred": pa.array(pred.tolist(), pa.string()),
            "lang_score": pa.array(score),
        }
    )


# -- document fingerprinting (winnowing) -------------------------------

#: 31-bit Mersenne prime modulus: every intermediate term is bounded by
#: 256 · 2^31 · k < 2^63, so the whole computation stays in exact int64
#: with no Python-loop scan. 2^31 hash space ⇒ spurious gram collisions
#: at ~n²/2^31 — harmless extra candidates in dedup, never missed ones.
_FP_MOD = np.int64((1 << 31) - 1)
_FP_BASE = np.int64(1_000_003)


def _kgram_hashes(text: str, k: int) -> np.ndarray:
    """Polynomial hashes of all character k-grams, fully vectorized:
    h(i) = Σ_j data[i+j]·base^(k-1-j) mod M as one sliding-window
    matvec (k is small, so this is O(n·k) SIMD work, zero Python loops
    over positions)."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    n = len(data)
    if n < k:
        return np.empty(0, dtype=np.int64)
    weights = np.empty(k, dtype=np.int64)
    w = 1
    for j in range(k - 1, -1, -1):
        weights[j] = w
        w = (w * int(_FP_BASE)) % int(_FP_MOD)
    windows = np.lib.stride_tricks.sliding_window_view(data, k).astype(np.int64)
    return (windows @ weights) % _FP_MOD


def winnow_fingerprints(text: str, k: int = 8, window: int = 4) -> np.ndarray:
    """Winnowing (Schleimer, Wilkerson, Aiken — SIGMOD'03): min k-gram
    hash per sliding window, deduplicated, sorted. Guarantees any shared
    substring of length ≥ k + window - 1 yields a shared fingerprint."""
    h = _kgram_hashes(text, k)
    if len(h) == 0:
        return np.empty(0, dtype=np.int64)
    if len(h) <= window:
        return np.unique(h.min(keepdims=True))
    mins = np.lib.stride_tricks.sliding_window_view(h, window).min(axis=1)
    return np.unique(mins)


def fingerprint_docs(
    batch: pa.Table, text_col: str = "text", k: int = 8, window: int = 4
) -> pa.Table:
    """(doc_id, fingerprints list<uint64>, n_fingerprints) per document."""
    texts = batch.column(text_col).to_pylist()
    fps = [winnow_fingerprints(t or "", k, window) for t in texts]
    offsets = np.zeros(len(fps) + 1, dtype=np.int64)
    np.cumsum([len(f) for f in fps], out=offsets[1:])
    flat = np.concatenate(fps) if fps else np.empty(0, dtype=np.int64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "fingerprints": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(flat, pa.uint64())
            ),
            "n_fingerprints": pa.array([len(f) for f in fps], pa.int64()),
        }
    )


def token_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace tokens + BPE-ish subword proxy count (word chunks and
    punctuation runs via one RE2 scan — a deterministic stand-in for a
    real tokenizer's token count)."""
    text = batch.column(text_col)
    trimmed = pc.utf8_trim_whitespace(text)
    ws = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
    ws = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, pa.int32()), ws)
    # word pieces of ≤4 chars + punct runs ≈ BPE granularity
    bpe = pc.count_substring_regex(text, r"[A-Za-z0-9]{1,4}|[^A-Za-z0-9\s]")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens_ws": pc.cast(ws, pa.int64()),
            "n_tokens_bpe": pc.cast(bpe, pa.int64()),
        }
    )


# -- corpus token statistics (distributed heavy hitters / cardinality) --

#: ASCII identifier-ish token class — same class the n-gram Jaccard
#: twins use, so one SQL expression (regexp_extract_all) oracles all
#: token statistics.
TOKEN_SPLIT_REGEX = r"[^A-Za-z0-9_]+"


def _token_counts(
    ds: ray.data.Dataset, text_col: str, group_col: str | None
) -> ray.data.Dataset:
    """Occurrences of each token (per group): ``([group,] token, n)``.
    Tokenization is vectorized Arrow (split on the non-token class +
    drop empties); each batch is counted where it is tokenized, so its
    output block and the token shuffle hold vocabulary size × blocks
    rows, never the corpus token count."""
    cols = [text_col] if group_col is None else [text_col, group_col]
    keys = ["token"] if group_col is None else [group_col, "token"]

    def tokens(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        cols = {"token": pc.list_flatten(toks)}
        if group_col is not None:
            rows = pc.list_parent_indices(toks)
            cols = {group_col: batch[group_col].take(rows), **cols}
        t = pa.table(cols)
        t = t.filter(pc.not_equal(t["token"], ""))
        return group_aggregate(t, keys, [([], "count_all")], ["n"])

    return grouped_aggregate(
        ds.select_columns(cols).map_batches(tokens, batch_format="pyarrow"),
        keys,
        {"n": ("sum", "n")},
    )


def top_tokens(ds: ray.data.Dataset, text_col: str, k: int) -> ray.data.Dataset:
    """Exact global top-k most frequent tokens (ties by token asc),
    with a 1-based rank. Shape: one token-keyed grouped count →
    per-block local top-k → tiny final selection. The full vocabulary
    crosses the shuffle once as (token, n) partials; only k rows reach
    the final task."""
    from duplicate_finder_ray.stages.relational import topk_per_group

    totals = _token_counts(ds, text_col, None)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__g", pa.array(np.zeros(len(batch), dtype=np.int64))
        )

    top = topk_per_group(
        totals.map_batches(tag, batch_format="pyarrow"), "__g", "n", "token", k
    )
    return top.select_columns(["token", "n", "rank"])


def trending_tokens(
    ds: ray.data.Dataset,
    ts_col: str,
    text_col: str,
    window_us: int,
    k: int,
) -> ray.data.Dataset:
    """Top-k tokens per tumbling time window (ties by token asc) —
    trending terms over an event/payload stream, the monitoring twin of
    :func:`top_tokens`. Shape: derive the window map-side, ONE
    (windows × vocabulary)-sized grouped count, then the local-top-k
    selector per window — corpus token positions never shuffle."""
    if window_us <= 0 or k <= 0:
        raise ValueError("window_us and k must be positive")
    from duplicate_finder_ray.stages.relational import topk_per_group

    W = window_us

    def add_window(batch: pa.Table) -> pa.Table:
        # force µs before the int cast (sources vary between us/ns)
        ts_us = pc.cast(pc.cast(batch[ts_col], pa.timestamp("us")), pa.int64())
        window = pc.multiply(pc.divide(ts_us, W), W)
        return pa.table(
            {"window_start_us": window, text_col: batch[text_col]}
        )

    wds = ds.select_columns([ts_col, text_col]).map_batches(
        add_window, batch_format="pyarrow"
    )
    totals = _token_counts(wds, text_col, "window_start_us")
    top = topk_per_group(totals, "window_start_us", "n", "token", k)
    return top.select_columns(["window_start_us", "token", "n", "rank"])


def distinct_token_counts(
    ds: ray.data.Dataset, text_col: str, group_col: str
) -> ray.data.Dataset:
    """Exact distinct-token count per group: one (group, token) grouped
    count, then one group-keyed count of its rows. The widest shuffle
    is vocabulary × groups, not corpus tokens."""
    per_token = _token_counts(ds, text_col, group_col)
    return grouped_aggregate(
        per_token, group_col, {"n_distinct_tokens": ("count", None)}
    )


# -- SpaceSaving heavy hitters (capacity-bounded, mergeable) ------------


def approx_top_tokens(
    ds: ray.data.Dataset, text_col: str, k: int, capacity: int = 4096
) -> ray.data.Dataset:
    """Capacity-bounded top-k tokens — the scale path next to the exact
    ``top_tokens`` oracle, completing the mergeable-sketch family
    (HLL: cardinality, t-digest: quantiles, SpaceSaving-style summary:
    heavy hitters).

    The exact path's shuffle carries the FULL vocabulary × blocks as
    (token, n) partials; at web scale the vocabulary is unbounded
    (typos, hashes, UUIDs). Here each batch keeps only its ``capacity``
    highest-count tokens (ties broken by token asc — deterministic)
    plus one sentinel row carrying eps = the largest DROPPED count, the
    batch's underestimate bound. A single tiny merge task (≤ blocks ×
    (capacity+1) rows) sums lower-bound counts and reports
    ``max_underestimate`` = Σ eps — the classic mergeable-summary
    guarantee: any token's true count exceeds its reported count by at
    most Σ eps over the batches that dropped it, so on skewed (Zipfian)
    corpora the top-k is EXACT whenever the k-th count clears the bound
    (tests gate this; the driver query hash-matches the exact oracle).
    At extreme block counts the merge is associative — tree it; the
    one-task merge here is already ≤ a few hundred k rows.

    Output: (token, n, rank, max_underestimate); n is the lower bound.
    """

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vals, counts = np.unique(
            flat.to_numpy(zero_copy_only=False), return_counts=True
        )
        eps = np.int64(0)
        if len(vals) > capacity:
            # deterministic keep-set: count desc, token asc
            order = np.lexsort((vals, -counts))
            kept, dropped = order[:capacity], order[capacity:]
            eps = np.int64(counts[dropped].max())
            vals, counts = vals[kept], counts[kept]
        # sentinel row: the empty token cannot occur (filtered above)
        return pa.table(
            {
                "token": pa.array(np.append(vals, ""), pa.string()),
                "n": pa.array(
                    np.append(counts.astype(np.int64), eps), pa.int64()
                ),
            }
        )

    parts = (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .materialize()
    )

    out_schema = pa.schema(
        [
            ("token", pa.string()),
            ("n", pa.int64()),
            ("rank", pa.int64()),
            ("max_underestimate", pa.int64()),
        ]
    )

    def merge(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        is_sentinel = df["token"] == ""
        eps_total = int(df.loc[is_sentinel, "n"].sum())
        agg = (
            df[~is_sentinel]
            .groupby("token", sort=False)["n"]
            .sum()
            .reset_index()
        )
        agg = agg.sort_values(
            ["n", "token"], ascending=[False, True], kind="mergesort"
        ).head(k)
        n_out = len(agg)
        return pa.table(
            {
                "token": pa.array(agg["token"].to_numpy(), pa.string()),
                "n": pa.array(agg["n"].to_numpy().astype(np.int64), pa.int64()),
                "rank": pa.array(
                    np.arange(1, n_out + 1, dtype=np.int64), pa.int64()
                ),
                "max_underestimate": pa.array(
                    np.full(n_out, eps_total, dtype=np.int64), pa.int64()
                ),
            }
        )

    return ray.data.from_arrow_refs(
        [gather_blocks(parts, merge, out_schema.empty_table())]
    )


# -- HLL cardinality sketch (mergeable, vectorized) ---------------------


def hll_partial(values: np.ndarray, p: int = 12) -> np.ndarray:
    """HyperLogLog register array (2^p uint8) for a batch of uint64
    hashes — the per-batch combiner. Mergeable by elementwise max."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    idx = (values >> np.uint64(64 - p)).astype(np.int64)
    rest = values << np.uint64(p)
    # rank = leading zeros of the remaining 64-p bits + 1, capped
    rank = np.zeros(len(values), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    rem = rest.copy()
    r = np.ones(len(values), dtype=np.uint8)
    alive = np.ones(len(values), dtype=bool)
    for _ in range(64 - p + 1):
        hit = alive & ((rem & mask) != 0)
        rank[hit] = r[hit]
        alive &= ~hit
        if not alive.any():
            break
        rem[alive] = rem[alive] << np.uint64(1)
        r += np.uint8(1)
    rank[alive] = np.uint8(64 - p + 1)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with small-range (linear counting)
    correction — adequate for the 1–5% error class."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = float(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return float(est)


def approx_distinct_tokens(
    ds: ray.data.Dataset, text_col: str, p: int = 12
) -> float:
    """Approximate global distinct-token count: per-batch HLL register
    partials (2^p bytes each) merged by elementwise max in a tiny
    driver reduce — the scale path where the exact
    ``distinct_token_counts`` shuffle (vocabulary-sized) is too wide.
    Exactness oracle: tests gate the relative error vs the exact count."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        hashes = stable_hash_array(
            toks.to_numpy(zero_copy_only=False).astype(object)
        )
        regs = hll_partial(np.unique(hashes), p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .take_all()
    )
    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in parts:
        merged = np.maximum(merged, np.frombuffer(row["regs"], dtype=np.uint8))
    return hll_estimate(merged)


# -- curation: normalization + quality pruning --------------------------


def normalize_text(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Deterministic text normalization (training-data hygiene):
    lowercase → collapse \\s+ runs to one space → strip edge spaces.
    Pure RE2 ops so the SQL twin (lower + regexp_replace) is
    bit-identical; deliberately NOT utf8_trim_whitespace, whose Unicode
    whitespace class diverges from RE2's ASCII \\s."""
    t = pc.utf8_lower(batch[text_col])
    t = pc.replace_substring_regex(t, r"\s+", " ")
    t = pc.replace_substring_regex(t, r"^ | $", "")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "text_norm": t,
            "n_chars_norm": pc.cast(pc.utf8_length(t), pa.int64()),
        }
    )


#: auto-sketch threshold for quality_prune: above this many input rows
#: the exact whole-group-per-task cutoff path is refused in favor of
#: the bounded t-digest (a 2M-row corpus still means <= ~0.5M scores
#: per group task; beyond that the exact path is a scale hazard)
_PRUNE_SKETCH_ROWS = 2_000_000


def _cheap_row_count(ds: ray.data.Dataset) -> int | None:
    """Row count from metadata only (parquet footers / materialized
    block metadata) — None when counting would require executing the
    dataset. Never triggers execution."""
    try:
        return ds._meta_count()
    except Exception:
        return None


def quality_prune(
    docs: ray.data.Dataset,
    frac: float = 0.5,
    group_col: str = "lang",
    use_sketch: bool | None = None,
) -> ray.data.Dataset:
    """Keep documents whose quality_score is ≥ the per-group
    ``frac``-quantile — the canonical curation shape: ONE tiny
    distributed aggregate, its few-row result broadcast to a vectorized
    filter pass. The corpus itself is scored twice but never shuffled.
    Output: (doc_id, lang, quality_score) of the surviving rows.

    ``use_sketch=False`` (the oracle): exact per-group quantile in a
    group-keyed ``hash_exchange`` — one task holds a whole group's
    scores, fine while rows-per-group fits a worker. ``use_sketch=True`` (the
    100-TB path): mergeable t-digest cutoffs
    (stages/sketches.py:grouped_quantiles_sketch) — bounded partials,
    no task ever holds a group's values; cutoff rank error is the
    sketch's tested O(1/delta) bound. Default (None): AUTO — sketch
    above ``_PRUNE_SKETCH_ROWS`` input rows, so a naive caller cannot
    hit the whole-group-per-task exact path at corpus scale. AUTO
    decides from dataset METADATA only (parquet row counts / already
    materialized blocks); when no cheap count exists it picks the
    sketch — the safe-at-any-scale side — rather than forcing an extra
    full execution of a lazy input just to count it."""
    if use_sketch is None:
        n = _cheap_row_count(docs)
        use_sketch = n is None or n > _PRUNE_SKETCH_ROWS

    def score(batch: pa.Table) -> pa.Table:
        qs = quality_scores(batch)
        return pa.table(
            {
                "doc_id": qs["doc_id"],
                group_col: batch[group_col],
                "quality_score": qs["quality_score"],
            }
        )

    scored = docs.select_columns(["doc_id", "text", group_col]).map_batches(
        score, batch_format="pyarrow"
    )

    if use_sketch:
        from duplicate_finder_ray.stages.sketches import grouped_quantiles_sketch

        cuts = {
            r[group_col]: r["cut_fp"] / 1e6
            for r in grouped_quantiles_sketch(
                scored.select_columns([group_col, "quality_score"]),
                group_col,
                "quality_score",
                [("cut_fp", frac)],
                unit_scale=1_000_000,
            ).take_all()
        }
    else:

        def cutoffs(_: int, part: pa.Table) -> pa.Table:
            keys, rows = group_rows(part[group_col])
            score = part["quality_score"].to_numpy()
            q = [np.quantile(score[r], frac, method="linear") for r in rows]
            return pa.table({group_col: keys, "cut": pa.array(q, pa.float64())})

        slim = scored.select_columns([group_col, "quality_score"])
        cut_rows = hash_exchange(slim, group_col, None, cutoffs, None)
        cuts = {r[group_col]: r["cut"] for r in cut_rows.take_all()}

    # factorized cutoff probe: python touches only the DISTINCT groups
    # (dictionary_encode in Arrow C + two numpy gathers per batch) —
    # no per-row dict lookups in the keep stage (round-3 VERDICT item)
    cut_names = np.sort(np.array(list(cuts), dtype=object))
    cut_vals = np.array([cuts[x] for x in cut_names], dtype=np.float64)

    def keep(batch: pa.Table) -> pa.Table:
        col = batch[group_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pc.dictionary_encode(col)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uniq = enc.dictionary.to_numpy(zero_copy_only=False).astype(object)
        pos = np.searchsorted(cut_names, uniq)
        if not np.all(cut_names[pos.clip(0, len(cut_names) - 1)] == uniq):
            raise KeyError("group value missing from cutoff table")
        c = cut_vals[pos][codes]
        mask = batch["quality_score"].to_numpy() >= c
        return batch.filter(pa.array(mask))

    return scored.map_batches(keep, batch_format="pyarrow")


# -- repetition statistics (Gopher-style quality signals) ---------------


def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document word-level repetition counters (the Gopher /
    MassiveText repetition-filter family, arXiv:2112.11446 §A1.1):
    token count, distinct tokens, the hottest token's count, and the
    same three for word 2-grams. Counts are INTEGERS (not fractions)
    so the DuckDB oracle hash-matches bit-for-bit; callers derive
    fractions like dup_token_frac = 1 - n_distinct/n downstream.

    Vectorized end-to-end: one RE2 split per batch, then factorize +
    groupby C kernels over the flattened (doc, token-id) pairs — no
    per-row Python. Stateless map_batches stage; at 100 TB each batch
    is independent so the stage streams and never shuffles."""
    toks = pc.split_pattern(batch[text_col], " ")
    n_tok = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat = toks.combine_chunks()
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    values = flat.flatten().to_numpy(zero_copy_only=False)
    doc = np.repeat(np.arange(len(batch), dtype=np.int64), n_tok)
    codes, _ = pd.factorize(values)
    v = np.int64(len(values) + 1)

    def group_counters(doc_idx: np.ndarray, key: np.ndarray, n_docs: int):
        """(n_items, n_distinct, top_count) per doc for (doc, key) pairs."""
        df = pd.DataFrame({"d": doc_idx, "k": key})
        per = df.groupby(["d", "k"], sort=False).size()
        lv = per.index.get_level_values(0).to_numpy()
        cnt = per.to_numpy()
        n_items = np.zeros(n_docs, dtype=np.int64)
        np.add.at(n_items, lv, cnt)
        n_distinct = np.zeros(n_docs, dtype=np.int64)
        np.add.at(n_distinct, lv, 1)
        top = np.zeros(n_docs, dtype=np.int64)
        np.maximum.at(top, lv, cnt)
        return n_items, n_distinct, top

    n_tokens, n_distinct, top_tok = group_counters(doc, codes, len(batch))
    # 2-grams: adjacent code pairs within the same document
    same_doc = doc[:-1] == doc[1:] if len(doc) > 1 else np.zeros(0, dtype=bool)
    pair_doc = doc[:-1][same_doc]
    pair_key = codes[:-1][same_doc].astype(np.int64) * v + codes[1:][same_doc]
    n_2grams, n_distinct_2, top_2 = group_counters(pair_doc, pair_key, len(batch))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens),
            "n_distinct_tokens": pa.array(n_distinct),
            "top_token_n": pa.array(top_tok),
            "n_2grams": pa.array(n_2grams),
            "n_distinct_2grams": pa.array(n_distinct_2),
            "top_2gram_n": pa.array(top_2),
        }
    )


# -- regex redaction (PII-scrub shape) ----------------------------------


def redact_text(
    batch: pa.Table,
    patterns: list[tuple[str, str]],
    text_col: str,
    out_col: str,
    id_col: str,
) -> pa.Table:
    """Sequential RE2 substitutions over a string column plus a count
    of replacements per row — the PII-scrub / boilerplate-strip shape.
    Both engines run RE2 (`pyarrow.compute` and DuckDB), so one
    pattern list oracles as regexp_replace(..., 'g'). Stateless
    vectorized map_batches stage: streams at any scale."""
    col = batch[text_col]
    n_hits = np.zeros(len(batch), dtype=np.int64)
    for pat, repl in patterns:
        n_hits += pc.count_substring_regex(col, pat).to_numpy().astype(np.int64)
        col = pc.replace_substring_regex(col, pattern=pat, replacement=repl)
    return pa.table(
        {id_col: batch[id_col], out_col: col, "n_redactions": pa.array(n_hits)}
    )


def token_df(ds: ray.data.Dataset, text_col: str) -> ray.data.Dataset:
    """Exact per-token DOCUMENT frequency (token, df) — the idf
    denominator of TF-IDF. Each document contributes each token ONCE: a
    document is one row and rows never split across batches, so
    per-batch (row, token) dedupe is globally exact; each batch is then
    counted per token, so the shuffle carries one (token, df) partial
    per distinct token per batch — vocabulary × blocks, never corpus
    positions."""

    def doc_tokens(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        t = pa.table(
            {"r": pc.list_parent_indices(toks), "token": pc.list_flatten(toks)}
        )
        t = t.filter(pc.not_equal(t["token"], ""))
        t = t.group_by(["r", "token"], use_threads=False).aggregate([])
        return group_aggregate(t, ["token"], [([], "count_all")], ["df"])

    return grouped_aggregate(
        ds.select_columns([text_col]).map_batches(
            doc_tokens, batch_format="pyarrow"
        ),
        "token",
        {"df": ("sum", "df")},
    )


def top_tokens_by_df(
    ds: ray.data.Dataset, text_col: str, k: int
) -> ray.data.Dataset:
    """Exact global top-k tokens by DOCUMENT frequency (ties by token
    asc) — the usual stopword-mining statistic. Differs from
    ``top_tokens`` (term frequency) in the combiner; see
    :func:`token_df` for the scale shape."""
    from duplicate_finder_ray.stages.relational import topk_per_group

    totals = token_df(ds, text_col)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__g", pa.array(np.zeros(len(batch), dtype=np.int64))
        )

    top = topk_per_group(
        totals.map_batches(tag, batch_format="pyarrow"), "__g", "df", "token", k
    )
    return top.select_columns(["token", "df", "rank"])


def distinctive_terms(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    k: int = 3,
    n_parts: int = 16,
) -> ray.data.Dataset:
    """Per-document keyword extraction — the TF-IDF shape kept exact
    and integer-only: each document's top-k tokens ordered by (term
    frequency DESC, global document frequency ASC, token ASC). High-tf
    rare-df tokens are the classic 'distinctive term'; ranking on the
    raw integer pair instead of the float tf·log(N/df) product keeps
    the operator hash-gateable cross-engine with identical semantics
    (the log is monotone in df at fixed tf, so at k small the chosen
    terms differ only on composite-score ties).

    Scale shape: (doc, token, tf) partials are one row per DISTINCT
    (doc, token) per batch; the vocabulary-sized df table joins in via
    the hash exchange (token-keyed, both sides large → shuffle join,
    not broadcast); the per-doc top-k uses the local-prune + tiny
    groupby combiner."""
    from duplicate_finder_ray.stages.join import shuffle_hash_join
    from duplicate_finder_ray.stages.relational import topk_per_group_by

    def tf_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        flat = pc.list_flatten(toks)
        reps = pc.list_value_length(toks).to_numpy().astype(np.int64)
        row = np.repeat(np.arange(len(batch), dtype=np.int64), reps)
        vals = flat.to_numpy(zero_copy_only=False)
        keep = vals != ""
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"d": ids[row[keep]], "t": vals[keep]})
            .groupby(["d", "t"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        return pa.table(
            {
                id_col: pa.array(g["d"].to_numpy(), pa.int64()),
                "token": pa.array(g["t"].to_numpy(), pa.string()),
                "tf": pa.array(g["tf"].to_numpy().astype(np.int64), pa.int64()),
            }
        )

    tf = ds.select_columns([id_col, text_col]).map_batches(
        tf_partial, batch_format="pyarrow"
    )
    joined = shuffle_hash_join(tf, token_df(ds, text_col), "token", "token", n_parts)
    top = topk_per_group_by(
        joined, id_col, ["tf", "df", "token"], [False, True, True], k
    )
    return top.select_columns([id_col, "token", "tf", "df", "rank"])


def _bigram_totals(ds: ray.data.Dataset, text_col: str) -> ray.data.Dataset:
    """Global adjacent-token-pair counts (tok_a, tok_b, n).

    Each block is tokenized with one Arrow RE2 split; each token pairs
    with its successor in the same document, and the pairs are counted
    in the same batch, so the token-pair keyed ``grouped_aggregate``
    carries bigram-vocabulary × blocks partials, never corpus
    positions."""

    def pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        t = pa.table(
            {"d": pc.list_parent_indices(toks), "tok": pc.list_flatten(toks)}
        )
        t = t.filter(pc.not_equal(t["tok"], ""))
        d = t["d"].to_numpy()
        adj = np.nonzero(d[:-1] == d[1:])[0]
        t = pa.table({"tok_a": t["tok"].take(adj), "tok_b": t["tok"].take(adj + 1)})
        return group_aggregate(t, ["tok_a", "tok_b"], [([], "count_all")], ["n"])

    return grouped_aggregate(
        ds.select_columns([text_col]).map_batches(pairs, batch_format="pyarrow"),
        ["tok_a", "tok_b"],
        {"n": ("sum", "n")},
    )


def top_bigrams(ds: ray.data.Dataset, text_col: str, k: int) -> ray.data.Dataset:
    """Exact global top-k adjacent token pairs (corpus bigram counts —
    the language-model / boilerplate-detection statistic), ties by
    (tok_a, tok_b) asc, 1-based rank. Counting rides
    :func:`_bigram_totals`; only k rows reach the final task (same
    local top-k + tiny final selection as :func:`top_tokens`)."""
    from duplicate_finder_ray.stages.relational import topk_per_group_by

    totals = _bigram_totals(ds, text_col)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__g", pa.array(np.zeros(len(batch), dtype=np.int64))
        )

    top = topk_per_group_by(
        totals.map_batches(tag, batch_format="pyarrow"),
        "__g",
        ["n", "tok_a", "tok_b"],
        [False, True, True],
        k,
    )
    return top.select_columns(["tok_a", "tok_b", "n", "rank"])


def token_freq_spectrum(ds: ray.data.Dataset, text_col: str) -> ray.data.Dataset:
    """Frequency-of-frequencies (the Good-Turing / Heaps-law corpus
    report): for each occurrence count f, how many distinct tokens
    occur exactly f times → (freq, n_tokens). The f=1 row is the
    hapax count every smoothing estimator needs; the spectrum's shape
    diagnoses boilerplate floods (missing hapax mass) and tokenizer
    damage (inflated singleton mass).

    Scale shape: one vocabulary-sized grouped count of the tokens →
    one grouped count of those counts. The distinct-frequency key space
    is O(√total_tokens) (Σf over distinct frequencies ≤ N), so the
    final shuffle stays small at any corpus size."""
    totals = _token_counts(ds, text_col, None)
    spectrum = grouped_aggregate(totals, "n", {"n_tokens": ("count", None)})
    return rename_cols(spectrum, {"n": "freq"})


def pmi_bigrams(
    ds: ray.data.Dataset,
    text_col: str,
    k: int,
    min_n: int = 3,
    n_parts: int = 32,
) -> ray.data.Dataset:
    """Collocation mining: top-k adjacent token pairs by pointwise
    mutual information — the "New York" / "machine learning" detector
    frequency counts miss (frequent-but-independent pairs rank low,
    rare-but-bound pairs rank high). PMI's monotone core is the ratio
    P(a,b)/(P(a)P(b)) = n_ab·N/(n_a·n_b); ranking on the exact integer
    lattice ``pmi_ppm = n_ab·N·10⁶ // (n_a·n_b)`` avoids float/log
    entirely, so the DuckDB twin (HUGEINT cross-multiply) hash-matches
    bit for bit. ``min_n`` prunes hapax pairs (classic PMI
    degeneracy: a 1-count pair of 1-count tokens maxes the score).

    Scale shape: bigram counts ride :func:`_bigram_totals` (combiner
    partials, one slim shuffle); unigram totals are vocabulary-sized and
    materialized once; N is a scalar fold; the two count-attach joins
    are barrier-free shuffle hash joins keyed on each token — no
    whole-vocab broadcast. The int64 fast path covers
    n_ab·N·10⁶ < 2⁶³ (N < ~9·10¹² tokens per max-count bigram);
    beyond it the per-batch kernel falls back to exact Python-int math
    on the (slim, vocabulary-sized) survivor rows only."""
    if k <= 0:
        raise ValueError("k must be positive")
    if min_n < 1:
        raise ValueError("min_n must be >= 1")
    from duplicate_finder_ray.stages.join import shuffle_hash_join
    from duplicate_finder_ray.stages.relational import topk_per_group_by

    # vocabulary-sized; reused by N + two joins
    uni = _token_counts(ds, text_col, None)
    total = uni.sum("n") or 0

    def keep_min(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch["n"], pa.scalar(min_n, pa.int64()))
        )

    big = _bigram_totals(ds, text_col).map_batches(
        keep_min, batch_format="pyarrow"
    )

    def rename(col: str, out: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({"tok": batch["token"], out: batch[col]})

        return fn

    uni_a = uni.map_batches(rename("n", "n_a"), batch_format="pyarrow")
    uni_b = uni.map_batches(rename("n", "n_b"), batch_format="pyarrow")
    j = shuffle_hash_join(big, uni_a, "tok_a", "tok", n_parts, how="inner")
    j = shuffle_hash_join(j, uni_b, "tok_b", "tok", n_parts, how="inner")

    mega = 1_000_000

    def score(batch: pa.Table) -> pa.Table:
        n_ab = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_a = batch["n_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_b = batch["n_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        if (
            len(n_ab)
            and int(n_ab.max()) * total * mega < 2**63
            and int(n_a.max()) * int(n_b.max()) < 2**63
        ):
            ppm = n_ab * total * mega // (n_a * n_b)
        else:  # exact big-int fallback (survivor rows are slim)
            ppm = np.fromiter(
                (
                    int(ab) * total * mega // (int(a) * int(b))
                    for ab, a, b in zip(n_ab, n_a, n_b)
                ),
                np.int64,
                len(n_ab),
            )
        return pa.table(
            {
                "tok_a": batch["tok_a"],
                "tok_b": batch["tok_b"],
                "n": batch["n"],
                "pmi_ppm": pa.array(ppm, pa.int64()),
            }
        )

    scored = j.map_batches(score, batch_format="pyarrow")

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__g", pa.array(np.zeros(len(batch), dtype=np.int64))
        )

    top = topk_per_group_by(
        scored.map_batches(tag, batch_format="pyarrow"),
        "__g",
        ["pmi_ppm", "tok_a", "tok_b"],
        [False, True, True],
        k,
    )
    return top.select_columns(["tok_a", "tok_b", "n", "pmi_ppm", "rank"])


def common_lines(ds: ray.data.Dataset, text_col: str, k: int) -> ray.data.Dataset:
    """Boilerplate-line mining: exact global top-k most frequent
    NON-EMPTY lines across the corpus (ties by line asc, 1-based rank)
    — the license-header / copyright-banner / generated-code detector.
    Same scale shape as :func:`top_tokens`: per-batch (line, n) count
    partials keep the shuffle at distinct-line × blocks (boilerplate
    compresses hard by construction), one line-keyed grouped count,
    then the local-top-k selector; corpus line positions never
    shuffle."""
    if k <= 0:
        raise ValueError("k must be positive")
    from duplicate_finder_ray.stages.relational import topk_per_group

    def split_lines(batch: pa.Table) -> pa.Table:
        lines = pc.list_flatten(pc.split_pattern(batch[text_col], "\n"))
        t = pa.table({"line": lines.filter(pc.not_equal(lines, ""))})
        return group_aggregate(t, ["line"], [([], "count_all")], ["n"])

    totals = grouped_aggregate(
        ds.select_columns([text_col]).map_batches(
            split_lines, batch_format="pyarrow"
        ),
        "line",
        {"n": ("sum", "n")},
    )

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__g", pa.array(np.zeros(len(batch), dtype=np.int64))
        )

    top = topk_per_group(
        totals.map_batches(tag, batch_format="pyarrow"), "__g", "n", "line", k
    )
    return top.select_columns(["line", "n", "rank"])

def line_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document LINE-level repetition (the doc-local companion to
    the corpus-wide :func:`common_lines` miner and the token-level
    :func:`repetition_stats`): total lines, distinct lines, the
    hottest line's count, and ``dup_line_ppm`` = duplicated-line share
    on the ×10⁶ lattice — the Gopher dup-line-fraction signal that
    catches generated-code walls and chat-log spam. Split semantics
    exactly mirror the SQL twin (``string_split(text, chr(10))``:
    empty docs yield ONE empty line; empty lines count).

    Vectorized: one Arrow split per batch, factorize + two C groupbys
    over the flattened (doc, line-id) pairs — no per-row Python."""
    lines = pc.split_pattern(batch[text_col], "\n")
    n_lines = pc.list_value_length(lines).to_numpy().astype(np.int64)
    flat = lines.combine_chunks() if isinstance(lines, pa.ChunkedArray) else lines
    values = flat.flatten().to_numpy(zero_copy_only=False)
    doc = np.repeat(np.arange(len(batch), dtype=np.int64), n_lines)
    codes, _ = pd.factorize(values, sort=False)
    per = (
        pd.DataFrame({"d": doc, "c": codes})
        .groupby(["d", "c"], sort=False)
        .size()
        .reset_index(name="n")
    )
    agg = per.groupby("d", sort=False)["n"].agg(["size", "max"])
    n_distinct = np.zeros(len(batch), dtype=np.int64)
    top = np.zeros(len(batch), dtype=np.int64)
    idx = agg.index.to_numpy()
    n_distinct[idx] = agg["size"].to_numpy()
    top[idx] = agg["max"].to_numpy()
    safe = np.maximum(n_lines, 1)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(n_lines),
            "n_distinct_lines": pa.array(n_distinct),
            "top_line_n": pa.array(top),
            "dup_line_ppm": pa.array(
                (n_lines - n_distinct) * np.int64(1_000_000) // safe
            ),
        }
    )


def encoding_audit(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document encoding health: codepoint vs byte length,
    non-ASCII / control-character / whitespace counts, and an
    ``ascii_ppm`` share — the mojibake / binary-spill / whitespace-wall
    detector a web-scale ingest runs before any tokenizer sees the
    text. All counts are single-char RE2 classes evaluated by Arrow's
    kernels; DuckDB runs RE2 too, so the SQL twin counts via
    ``length(x) - length(regexp_replace(x, class, '', 'g'))`` with
    bit-identical semantics. Integer ppm on the ×1e6 lattice (floor ==
    trunc: counts are non-negative)."""
    text = batch.column(text_col)
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_bytes = pc.cast(pc.binary_length(text), pa.int64())

    def count_re(pattern: str) -> pa.Array:
        return pc.cast(pc.count_substring_regex(text, pattern), pa.int64())

    n_non_ascii = count_re(r"[^\x00-\x7f]")
    # control chars excluding \t \n \r (those are legitimate layout)
    n_control = count_re(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")
    n_ws = count_re(r"[\t\n\f\r ]")
    safe = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    mega = pa.scalar(1_000_000, pa.int64())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": n_chars,
            "n_bytes": n_bytes,
            "n_non_ascii": n_non_ascii,
            "n_control": n_control,
            "n_ws": n_ws,
            "ascii_ppm": pc.divide(
                pc.multiply(pc.subtract(n_chars, n_non_ascii), mega), safe
            ),
            "ws_ppm": pc.divide(pc.multiply(n_ws, mega), safe),
        }
    )


def compression_ratios(
    batch: pa.Table, text_col: str = "text", level: int = 6
) -> pa.Table:
    """Compressibility quality signal (the Gopher-rules companion
    metric): repetitive/boilerplate text deflates far below prose, so
    ``compress_ppm`` (compressed bytes per million raw bytes) separates
    keyboard-mash and template walls from real writing where the
    ratio-based heuristics can't. One C deflate call per document —
    the irreducible per-row cost — with zero per-row Python arithmetic;
    not SQL-expressible (no deflate in DuckDB), so the driver check is
    rows-only and the kernel is gated against direct zlib calls in
    tests/test_textstats.py."""
    import zlib

    texts = batch.column(text_col).to_pylist()
    raw = [t.encode() for t in texts]
    n = np.fromiter((len(b) for b in raw), np.int64, len(raw))
    comp = np.fromiter(
        (len(zlib.compress(b, level)) for b in raw), np.int64, len(raw)
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_bytes": pa.array(n),
            "n_compressed": pa.array(comp),
            "compress_ppm": pa.array(
                comp * np.int64(1_000_000) // np.maximum(n, 1)
            ),
        }
    )


# -- corpus-duplicated n-gram statistics (Gopher/C4 dup-ngram signal) --


class DupNgramStage:
    """Actor-pool stage: text → (doc_id, h) rows, one per DISTINCT
    word n-gram of the document (md5 hash family ⇒ SQL-replayable;
    Shingler vocab memoises token digests across batches)."""

    def __init__(self, n: int = 13, text_col: str = "text") -> None:
        from duplicate_finder_ray.functions.shingles import Shingler

        self.shingler = Shingler(k=n, token_hash="md5")
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, offsets = self.shingler.shingle_hashes_batch_column(
            batch.column(self.text_col)
        )
        doc = np.repeat(
            batch.column("doc_id").to_numpy(), np.diff(offsets)
        )
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "h": pa.array(flat, pa.uint64()),
            }
        )


def dup_ngram_stats(
    ds: ray.data.Dataset,
    text_col: str = "text",
    n: int = 13,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document duplicated-n-gram exposure — the classic
    membership-overlap curation signal (C4 / MassiveText analyses count
    how much of a document is n-grams seen elsewhere): for every doc
    with ≥ n tokens, (doc_id, n_13grams, n_dup_13grams) where
    n_13grams = DISTINCT word n-grams in the doc and n_dup_13grams =
    how many of those appear in ≥ 2 distinct documents.

    Scale shape — NO broadcast of the (corpus-sized) duplicated-gram
    set: (doc_id, gram-hash) rows are deduped per doc at the map side,
    ONE gram-keyed barrier-free hash exchange co-locates every copy of
    a gram (so per-partition doc-counts ARE global), each partition
    emits per-doc partial counts, and a slim doc-keyed
    ``grouped_aggregate`` sums them. Both exchanges move 16-byte rows;
    text never shuffles."""
    rows = ds.select_columns(["doc_id", text_col]).map_batches(
        DupNgramStage,
        fn_constructor_args=(n, text_col),
        batch_format="pyarrow",
        concurrency=(1, 8),
        num_cpus=1,
    )

    part_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_grams", pa.int64()),
            ("n_dup", pa.int64()),
        ]
    )

    def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return part_schema.empty_table()
        h = tbl.column("h").to_numpy().astype(np.uint64)
        doc = tbl.column("doc_id").to_numpy().astype(np.int64)
        _, inv, counts = np.unique(h, return_inverse=True, return_counts=True)
        dup = counts[inv] >= 2  # global: every copy of a gram is here
        d_uniq, d_inv = np.unique(doc, return_inverse=True)
        n_grams = np.bincount(d_inv, minlength=len(d_uniq))
        n_dup = np.bincount(d_inv, weights=dup, minlength=len(d_uniq))
        return pa.table(
            {
                "doc_id": pa.array(d_uniq, pa.int64()),
                "n_grams": pa.array(n_grams.astype(np.int64), pa.int64()),
                "n_dup": pa.array(n_dup.astype(np.int64), pa.int64()),
            }
        )

    partials = hash_exchange(
        rows, "h", num_partitions, reduce_fn, part_schema.empty_table()
    )

    return grouped_aggregate(
        partials,
        "doc_id",
        {"n_13grams": ("sum", "n_grams"), "n_dup_13grams": ("sum", "n_dup")},
    )


# -- unigram cross-entropy scoring (perplexity-filter proxy) -----------


def unigram_xent(
    ds: ray.data.Dataset,
    text_col: str = "text",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document cross-entropy under the corpus's own add-1-smoothed
    unigram LM — the classic perplexity-style quality filter in its
    deterministic, self-contained form:

        xent(d) = ln(N + V) − (Σ_t c_dt · ln(n_t + 1)) / len_d

    (n_t = global occurrences of token t, N = total occurrences, V =
    vocabulary size, c_dt = occurrences of t in d). Rare-token-heavy
    word salad scores HIGH; stopword-dense prose scores LOW.

    Scale shape: (doc, token, c) rows from per-batch combiners, ONE
    token-keyed barrier-free exchange (all copies of a token co-locate,
    so the within-partition total IS global n_t), per-doc partials +
    per-partition (V_p, N_p) side rows, then a slim doc-keyed sum and a
    two-scalar broadcast — the corpus vocabulary is never collected."""
    def batch_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], TOKEN_SPLIT_REGEX)
        flat = pc.list_flatten(toks)
        reps = pc.list_value_length(toks).to_numpy().astype(np.int64)
        doc_ids = batch["doc_id"].to_numpy()
        if len(doc_ids) and doc_ids.min() < 0:
            # doc_id == -1 is the in-band partition-stat sentinel in the
            # reduce stage; negative caller ids would silently fold into
            # the vocab totals, so reject them loudly up front.
            raise ValueError(
                "unigram_xent requires non-negative doc_id values "
                f"(got min={int(doc_ids.min())})"
            )
        doc = np.repeat(doc_ids, reps)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        doc = doc[keep]
        t = pa.table(
            {"doc_id": doc, "t": flat, "c": np.ones(len(doc), dtype=np.int64)}
        )
        return group_aggregate(t, ["doc_id", "t"], [("c", "sum")])

    rows = ds.select_columns(["doc_id", text_col]).map_batches(
        batch_partial, batch_format="pyarrow"
    )

    part_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("s", pa.float64()),       # Σ c·ln(n_t + 1) partial
            ("c", pa.int64()),         # Σ c partial
            ("part_v", pa.int64()),    # partition vocab size (stat row)
            ("part_n", pa.int64()),    # partition occurrences (stat row)
        ]
    )

    def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return part_schema.empty_table()
        t_c = tbl.column("t")
        if isinstance(t_c, pa.ChunkedArray):
            t_c = t_c.combine_chunks()
        codes = pc.dictionary_encode(t_c).indices.to_numpy(zero_copy_only=False)
        c = tbl.column("c").to_numpy().astype(np.int64)
        doc = tbl.column("doc_id").to_numpy().astype(np.int64)
        n_t = np.bincount(codes, weights=c)        # global: co-located
        logn1 = np.log(n_t + 1.0)
        term = c * logn1[codes]
        d_uniq, d_inv = np.unique(doc, return_inverse=True)
        s = np.bincount(d_inv, weights=term)
        ctot = np.bincount(d_inv, weights=c).astype(np.int64)
        out = pa.table(
            {
                "doc_id": pa.array(d_uniq, pa.int64()),
                "s": pa.array(s, pa.float64()),
                "c": pa.array(ctot, pa.int64()),
                "part_v": pa.array(np.zeros(len(d_uniq), np.int64)),
                "part_n": pa.array(np.zeros(len(d_uniq), np.int64)),
            }
        )
        stat = pa.table(
            {
                "doc_id": pa.array([-1], pa.int64()),
                "s": pa.array([0.0], pa.float64()),
                "c": pa.array([0], pa.int64()),
                "part_v": pa.array([len(n_t)], pa.int64()),
                "part_n": pa.array([int(c.sum())], pa.int64()),
            }
        )
        return pa.concat_tables([out, stat])

    partials = hash_exchange(
        rows, "t", num_partitions, reduce_fn, part_schema.empty_table()
    ).materialize()

    stats = (
        partials.filter(expr="doc_id < 0").sum(["part_v", "part_n"])
    )
    log_nv = float(np.log(stats["sum(part_n)"] + stats["sum(part_v)"]))

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_tokens", pa.int64()),
            ("xent", pa.float64()),
        ]
    )

    def doc_finalize(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        doc = tbl.column("doc_id").to_numpy().astype(np.int64)
        d_uniq, d_inv = np.unique(doc, return_inverse=True)
        s = np.bincount(d_inv, weights=tbl.column("s").to_numpy())
        n = np.bincount(d_inv, weights=tbl.column("c").to_numpy())
        return pa.table(
            {
                "doc_id": pa.array(d_uniq, pa.int64()),
                "n_tokens": pa.array(n.astype(np.int64), pa.int64()),
                "xent": pa.array(log_nv - s / n, pa.float64()),
            }
        )

    # barrier-free doc-keyed finish (see dup_ngram_stats note)
    return hash_exchange(
        partials.filter(expr="doc_id >= 0"),
        "doc_id",
        num_partitions,
        doc_finalize,
        out_schema.empty_table(),
    )


class DupNgramPosStage:
    """Actor-pool stage: text → (doc_id, pos, h) rows — one per n-gram
    WINDOW (positions kept, no dedupe). pos is 1-based to match the
    SQL twin's generate_series convention."""

    def __init__(self, n: int = 13, text_col: str = "text") -> None:
        from duplicate_finder_ray.functions.shingles import Shingler

        self.shingler = Shingler(k=n, token_hash="md5")
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, pos, offsets = self.shingler.shingle_positions_batch_column(
            batch.column(self.text_col)
        )
        doc = np.repeat(batch.column("doc_id").to_numpy(), np.diff(offsets))
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "pos": pa.array(pos + 1, pa.int64()),
                "h": pa.array(h, pa.uint64()),
            }
        )


def duplicated_passages(
    ds: ray.data.Dataset,
    text_col: str = "text",
    n: int = 13,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """C4/Lee-et-al-style duplicated-passage extraction: per document,
    the MAXIMAL token spans covered by word n-grams that appear in ≥ 2
    distinct documents. Output (doc_id, start_tok, end_tok,
    span_tokens), 1-based inclusive token indices — the spans a
    span-level dedup would trim.

    Scale shape: (doc, pos, h) window rows → ONE gram-keyed
    barrier-free exchange (per-partition distinct-doc counts are
    global) emits only the duplicated positions → one doc-keyed
    exchange merges positions into spans with a vectorized
    gaps-and-islands kernel (fixed window width ⇒ interval ends are
    monotone in pos, so a simple diff > n-1 test is exact)."""
    rows = ds.select_columns(["doc_id", text_col]).map_batches(
        DupNgramPosStage,
        fn_constructor_args=(n, text_col),
        batch_format="pyarrow",
        concurrency=(1, 8),
        num_cpus=1,
    )

    pos_schema = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])

    def dup_positions(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pos_schema.empty_table()
        h = tbl.column("h").to_numpy().astype(np.uint64)
        doc = tbl.column("doc_id").to_numpy().astype(np.int64)
        _, hcode = np.unique(h, return_inverse=True)
        _, dcode = np.unique(doc, return_inverse=True)
        pair = hcode.astype(np.uint64) << np.uint64(32)
        pair |= dcode.astype(np.uint64)
        uniq_pairs = np.unique(pair)
        docs_per_h = np.bincount(
            (uniq_pairs >> np.uint64(32)).astype(np.int64)
        )
        dup = docs_per_h[hcode] >= 2
        return pa.table(
            {
                "doc_id": pa.array(doc[dup], pa.int64()),
                "pos": pa.array(
                    tbl.column("pos").to_numpy().astype(np.int64)[dup],
                    pa.int64(),
                ),
            }
        )

    dup_pos = hash_exchange(
        rows, "h", num_partitions, dup_positions, pos_schema.empty_table()
    )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("start_tok", pa.int64()),
            ("end_tok", pa.int64()),
            ("span_tokens", pa.int64()),
        ]
    )

    def merge_spans(p: int, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return out_schema.empty_table()
        doc = tbl.column("doc_id").to_numpy().astype(np.int64)
        pos = tbl.column("pos").to_numpy().astype(np.int64)
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        brk = np.empty(len(doc), dtype=bool)
        brk[0] = True
        np.logical_or(
            doc[1:] != doc[:-1], pos[1:] - pos[:-1] > n - 1, out=brk[1:]
        )
        starts = np.nonzero(brk)[0]
        ends = np.append(starts[1:], len(doc)) - 1
        start_tok = pos[starts]
        end_tok = pos[ends] + (n - 1)
        return pa.table(
            {
                "doc_id": pa.array(doc[starts], pa.int64()),
                "start_tok": pa.array(start_tok, pa.int64()),
                "end_tok": pa.array(end_tok, pa.int64()),
                "span_tokens": pa.array(end_tok - start_tok + 1, pa.int64()),
            }
        )

    return hash_exchange(
        dup_pos, "doc_id", num_partitions, merge_spans, out_schema.empty_table()
    )


def corpus_diversity(
    ds: ray.data.Dataset,
    text_col: str = "text",
    ns: tuple[int, ...] = (1, 2, 3),
    num_partitions: int = 32,
) -> "pa.Table":
    """Corpus diversity report (the distinct-n family behind self-BLEU
    style health checks): per n-gram order, total occurrences, distinct
    n-grams, and distinct_ppm = distinct·10⁶ // total. Collapsing
    distinct_ppm signals a templated / over-duplicated corpus.

    Scale shape per order: window-hash rows (md5 family) → ONE
    gram-keyed exchange; hash-disjoint partitions make partition-local
    distinct counts globally additive — corpus-wide COUNT DISTINCT with
    no global dedupe structure. Returns a 3-row Arrow table (driver
    reads back six integers)."""
    part_schema = pa.schema([("total", pa.int64()), ("distinct", pa.int64())])

    out_rows = []
    for n in ns:
        rows = ds.select_columns(["doc_id", text_col]).map_batches(
            DupNgramPosStage,
            fn_constructor_args=(n, text_col),
            batch_format="pyarrow",
            concurrency=(1, 8),
            num_cpus=1,
        ).select_columns(["h"])

        def reduce_fn(p: int, tbl: pa.Table) -> pa.Table:
            if len(tbl) == 0:
                return part_schema.empty_table()
            h = tbl.column("h").to_numpy().astype(np.uint64)
            return pa.table(
                {
                    "total": pa.array([len(h)], pa.int64()),
                    "distinct": pa.array([len(np.unique(h))], pa.int64()),
                }
            )

        agg = hash_exchange(
            rows, "h", num_partitions, reduce_fn, part_schema.empty_table()
        ).sum(["total", "distinct"])
        total = int(agg["sum(total)"])
        distinct = int(agg["sum(distinct)"])
        out_rows.append(
            {
                "n": n,
                "total_ngrams": total,
                "distinct_ngrams": distinct,
                "distinct_ppm": (distinct * 1_000_000) // total if total else 0,
            }
        )
    return pa.Table.from_pylist(
        out_rows,
        schema=pa.schema(
            [
                ("n", pa.int64()),
                ("total_ngrams", pa.int64()),
                ("distinct_ngrams", pa.int64()),
                ("distinct_ppm", pa.int64()),
            ]
        ),
    )
