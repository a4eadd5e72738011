"""Scale probe for the event/stream suite: run retry dedup, calendar
seasonality and the gap-filled hourly series over >= 2.4 M synthetic
events and report wall time + EXACT expected counts (checked, not
eyeballed).

The points being evidenced at scale:

- ``dedup_retry_events``: the only shuffle is ONE slim user-keyed
  hash exchange (4 int64 + 1 dict-string column, no payload); the
  per-partition kernel is a lexsort + shift — no per-key Python.
- ``seasonality_profile``: scan-side decode, ≤168-row groupby — wall
  time is read + arithmetic only.
- ``hourly_dense``: raw events never shuffle (value-counts partials),
  the hour dimension is synthesized; planted silent hours MUST appear
  as zero rows.

Corpus: generated DISTRIBUTED and deterministically — timestamps and
users are pure functions of event_id (counter hashing), so blocks
synthesize independently at any parallelism. Construction plants
exact truths:

- events come in PAIRS: event 2i at a base time, event 2i+1 exactly
  1 s later with the same (user, type) → retry dedup at a 5 s window
  keeps exactly one per pair (n_kept == n_events / 2) provided base
  times within a (user, type) key are > 5 s apart — enforced by
  striding each key's bases 10 s apart.
- bases all land inside a 14-day span but hour 25 of the span is left
  EMPTY (no base maps into it) → hourly_dense must emit that hour
  with n_events = 0.

Usage: python scripts/bench_events.py [n_events] [n_partitions]
Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray
import ray.data

HOUR_US = 3_600_000_000
N_USERS = 5_000
N_TYPES = 4
SPAN_HOURS = 14 * 24
EMPTY_HOUR = 25  # planted silent hour (zero events)


def synth(batch: pa.Table) -> pa.Table:
    """(event_id) -> full event rows; pure function of event_id."""
    eid = batch.column("id").to_numpy()
    pair = eid // 2  # two events per pair
    user = pair % N_USERS
    ty = (pair // N_USERS) % N_TYPES
    # per-(user, type) sequence number; bases stride 10 s apart
    seq = pair // (N_USERS * N_TYPES)
    base = seq * 10_000_000 + (pair % 977) * 13  # jitter, still < 10 s apart
    # spread bases over the span, skipping the planted empty hour
    # (int64 throughout: pair ≤ ~1.2e6 so pair·knuth < 2⁶³)
    hour = ((pair.astype(np.int64) * 2654435761) % (2**32)) % (SPAN_HOURS - 1)
    hour = np.where(hour >= EMPTY_HOUR, hour + 1, hour)
    ts = hour * HOUR_US + base % HOUR_US
    # retries: odd event of each pair fires exactly 1 s after the even
    ts = ts + (eid % 2) * 1_000_000
    types = np.array(["click", "view", "purchase", "error"], dtype=object)
    return pa.table(
        {
            "event_id": pa.array(eid, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(user, pa.int64()),
            "event_type": pa.array(types[ty], pa.string()),
            "value": pa.array((eid % 1000).astype(np.float64) / 10.0),
        }
    )


def main() -> None:
    n_events = int(sys.argv[1]) if len(sys.argv) > 1 else 2_400_000
    n_parts = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    if n_events % 2:
        raise SystemExit("n_events must be even (pair construction)")
    if n_events > 2 * N_USERS * N_TYPES * 360:
        # keeps per-key base offsets (seq·10 s) inside one hour so the
        # >5 s-apart invariant the exact-count asserts rely on holds
        raise SystemExit("n_events too large for the planted invariants")
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from duplicate_finder_ray.stages.events import (
        anomalous_hours,
        daily_new_users,
        dedup_retry_events,
        hourly_dense,
        inactive_users,
        rolling_active_users,
        seasonality_profile,
    )

    events = (
        ray.data.range(n_events, override_num_blocks=n_parts)
        .map_batches(synth, batch_format="pyarrow")
        .materialize()  # probe the operators, not the synthesizer
    )

    t0 = time.time()
    kept = dedup_retry_events(events, 5_000_000, n_parts).count()
    t_retry = time.time() - t0
    assert kept == n_events // 2, (kept, n_events // 2)

    t0 = time.time()
    season = seasonality_profile(events).take_all()
    t_season = time.time() - t0
    assert sum(r["n_events"] for r in season) == n_events
    assert len(season) <= 7 * 24

    t0 = time.time()
    dense = hourly_dense(events, n_parts).take_all()
    t_dense = time.time() - t0
    zero_hours = sorted(
        r["hour_us"] // HOUR_US for r in dense if r["n_events"] == 0
    )
    assert sum(r["n_events"] for r in dense) == n_events
    assert EMPTY_HOUR in zero_hours, zero_hours[:5]

    # --- session-12 additions: adoption, churn, bursts, WAU ---
    t0 = time.time()
    dnu = daily_new_users(events).take_all()
    t_dnu = time.time() - t0
    # every user appears exactly once as a first-timer; the running
    # total must end at the full population and never decrease
    assert sum(r["n_new_users"] for r in dnu) == N_USERS
    dnu.sort(key=lambda r: r["day_us"])
    cums = [r["cum_users"] for r in dnu]
    assert cums[-1] == N_USERS and all(b >= a for a, b in zip(cums, cums[1:]))

    t0 = time.time()
    churned = inactive_users(events, 12 * 3600, n_parts).count()
    t_churn = time.time() - t0
    # cross-path truth: Ray Data's own sort-groupby max per user
    import pyarrow.compute as _pc
    from ray.data.aggregate import Max as _Max

    def _us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": _pc.cast(_pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
            }
        )

    per_user = (
        events.map_batches(_us, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(_Max("ts_us", alias_name="last"))
        .take_all()
    )
    mx = max(r["last"] for r in per_user)
    expect_churn = sum(1 for r in per_user if r["last"] < mx - 12 * 3600 * 1_000_000)
    assert churned == expect_churn, (churned, expect_churn)

    t0 = time.time()
    burst = anomalous_hours(events, k_sigma=3).take_all()
    t_burst = time.time() - t0
    # cross-path truth: the exact integer inequality over the dense
    # series already in hand
    xs = [r["n_events"] for r in dense]
    h, s = len(xs), sum(xs)
    q = sum(v * v for v in xs)
    expect_burst = sorted(
        r["hour_us"] for r in dense
        if h * r["n_events"] - s > 0
        and (h * r["n_events"] - s) ** 2 > 9 * (h * q - s * s)
    )
    assert sorted(r["hour_us"] for r in burst) == expect_burst

    t0 = time.time()
    wau = rolling_active_users(events, window_days=1, n_parts=n_parts).take_all()
    t_wau = time.time() - t0
    # window=1 must equal per-day distinct users — computed here from
    # the same corpus via an independent single-pass set count
    from collections import defaultdict

    seen: dict = defaultdict(set)
    for b in events.to_arrow_refs():
        tbl = ray.get(b)
        ts_us = _pc.cast(_pc.cast(tbl["ts"], pa.timestamp("us")), pa.int64()).to_numpy()
        day = (ts_us // 86_400_000_000) * 86_400_000_000
        for d, u in zip(day, tbl["user_id"].to_numpy()):
            seen[int(d)].add(int(u))
    expect_wau = {d: len(us) for d, us in seen.items()}
    assert {r["day_us"]: r["n_active"] for r in wau} == expect_wau

    print(
        json.dumps(
            {
                "n_events": n_events,
                "retry_dedup_sec": round(t_retry, 2),
                "retry_kept": kept,
                "seasonality_sec": round(t_season, 2),
                "seasonality_cells": len(season),
                "hourly_dense_sec": round(t_dense, 2),
                "dense_hours": len(dense),
                "planted_empty_hour_found": True,
                "events_per_sec_retry": int(n_events / max(t_retry, 1e-9)),
                "daily_new_users_sec": round(t_dnu, 2),
                "inactive_users_sec": round(t_churn, 2),
                "n_churned_12h": churned,
                "anomalous_hours_sec": round(t_burst, 2),
                "n_anomalous_hours": len(burst),
                "rolling_active_sec": round(t_wau, 2),
                "all_cross_path_asserts": True,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
