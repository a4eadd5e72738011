"""Filesystem-source parity tests (mirrors the reference's e2e tests,
/root/reference/tests/test_duplicate_finder.py:53-113, over a real tmp
tree) and windowed-aggregate oracle tests for the events stages."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from duplicate_finder_ray.config import PipelineConfig
from duplicate_finder_ray.pipelines.dedup import DedupPipeline
from duplicate_finder_ray.sources.filesystem import list_regular_files, read_file_tree
from duplicate_finder_ray.stages import events as ev


@pytest.fixture()
def file_tree(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.txt").write_bytes(b"same content")
    (tmp_path / "sub" / "b.txt").write_bytes(b"same content")
    (tmp_path / "c.bin").write_bytes(bytes(range(256)))  # non-UTF8 binary
    (tmp_path / "sub" / "d.bin").write_bytes(bytes(range(256)))
    (tmp_path / "unique.txt").write_bytes(b"only one of these")
    (tmp_path / "link.txt").symlink_to(tmp_path / "a.txt")
    return tmp_path


def test_list_regular_files_excludes_symlinks_and_dirs(file_tree):
    files = list_regular_files(str(file_tree))
    names = {f.rsplit("/", 1)[-1] for f in files}
    assert "link.txt" not in names
    assert names == {"a.txt", "b.txt", "c.bin", "d.bin", "unique.txt"}


def test_filesystem_dedup_end_to_end(ray_session, file_tree):
    ds = read_file_tree(str(file_tree))
    res = DedupPipeline(PipelineConfig()).run_on(ds)
    members = res.members.to_pandas()
    assert set(members["path"]) == {"a.txt", "sub/b.txt", "c.bin", "sub/d.bin"}
    # keeper = lexicographically smallest relative path (reference
    # keep-first rule over sorted absolute paths)
    keepers = set(members.loc[members["is_keeper"], "path"])
    assert keepers == {"a.txt", "c.bin"}
    # binary content hashed correctly: group sizes right
    assert members.groupby("group_id").size().tolist() == [2, 2]


def test_filesystem_empty_tree(ray_session, tmp_path):
    ds = read_file_tree(str(tmp_path))
    assert ds.count() == 0
    res = DedupPipeline(PipelineConfig()).run_on(ds)
    assert res.members.count() == 0


def test_filesystem_verify_content_binary(ray_session, file_tree):
    res = DedupPipeline(PipelineConfig(verify_content=True)).run_on(
        read_file_tree(str(file_tree))
    )
    members = res.members.to_pandas()
    assert len(members) == 4  # byte-verify confirms both groups


# ---- events windows -------------------------------------------------------


@pytest.fixture(scope="module")
def events_df() -> pd.DataFrame:
    base = pd.Timestamp("2024-03-01 00:00:00")
    rows = []
    eid = 0
    for user in (1, 2):
        # session A: 3 events 10 min apart; gap 2h; session B: 2 events
        for off in (0, 10, 20, 140, 150):
            rows.append(
                {
                    "event_id": eid,
                    "ts": base + pd.Timedelta(minutes=off + user),
                    "user_id": user,
                    "event_type": "click" if eid % 2 == 0 else "view",
                    "value": round(1.01 * (eid + 1), 2),
                    "props": "{}",
                }
            )
            eid += 1
    return pd.DataFrame(rows)


def test_hourly_rollup_oracle(ray_session, events_df):
    got = ev.hourly_rollup(ray_session.data.from_pandas(events_df)).to_pandas()
    ts_us = events_df["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
    want = events_df.assign(
        window_start_us=(ts_us // 3_600_000_000) * 3_600_000_000,
        value_cents=(events_df["value"] * 100).round().astype("int64"),
    )
    want = (
        want.groupby(["window_start_us", "event_type"])
        .agg(n_events=("event_id", "size"), sum_value_cents=("value_cents", "sum"))
        .reset_index()
    )
    got_s = got.sort_values(["window_start_us", "event_type"]).reset_index(drop=True)
    want_s = want.sort_values(["window_start_us", "event_type"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_s[want_s.columns.tolist()], want_s, check_dtype=False
    )


def test_hourly_rollup_rounds_half_up(ray_session):
    """Cents round half-AWAY (floor(x*100+0.5)) on exact .5 — matching the
    DuckDB oracle; Arrow pc.round alone is half-to-even (0.125 → 12)."""
    df = pd.DataFrame(
        {
            "event_id": [0, 1],
            "ts": [pd.Timestamp("2024-03-01 00:00:00")] * 2,
            "user_id": [1, 1],
            "event_type": ["click", "click"],
            # 0.125*100 = 12.5 and 0.375*100 = 37.5, both exact in binary
            "value": [0.125, 0.375],
            "props": ["{}", "{}"],
        }
    )
    got = ev.hourly_rollup(ray_session.data.from_pandas(df)).to_pandas()
    assert got["sum_value_cents"].iloc[0] == 13 + 38


def test_sessionize_gap_semantics(ray_session, events_df):
    got = ev.sessionize(
        ray_session.data.from_pandas(events_df), gap_minutes=30
    ).to_pandas()
    for user in (1, 2):
        u = got[got["user_id"] == user].sort_values("session_id")
        assert list(u["session_id"]) == [1, 2]
        assert list(u["n_events"]) == [3, 2]
        # sessions are disjoint and ordered
        assert u.iloc[0]["session_end_us"] < u.iloc[1]["session_start_us"]


def test_sessionize_single_event_user(ray_session):
    df = pd.DataFrame(
        {
            "event_id": [0],
            "ts": [pd.Timestamp("2024-01-01")],
            "user_id": [42],
            "event_type": ["x"],
            "value": [1.0],
            "props": ["{}"],
        }
    )
    got = ev.sessionize(ray_session.data.from_pandas(df)).to_pandas()
    assert len(got) == 1
    assert got.iloc[0]["n_events"] == 1
    assert got.iloc[0]["session_start_us"] == got.iloc[0]["session_end_us"]


class TestRetentionCohorts:
    def test_matches_python_oracle(self, ray_session):
        import datetime as dt
        from collections import Counter

        import pandas as pd

        from duplicate_finder_ray.stages.events import retention_cohorts

        base = dt.datetime(2024, 3, 1)
        rows = [
            (1, base),                              # u1 cohort day 0
            (1, base + dt.timedelta(hours=5)),      # same day — distinct
            (1, base + dt.timedelta(days=2)),       # offset 2
            (2, base + dt.timedelta(days=1)),       # u2 cohort day 1
            (2, base + dt.timedelta(days=3)),       # offset 2
            (3, base + dt.timedelta(days=1)),       # u3 cohort day 1
        ]
        df = pd.DataFrame(rows, columns=["user_id", "ts"])
        got = {
            (r["cohort_us"], r["day_offset"]): r["n_users"]
            for r in retention_cohorts(
                ray_session.data.from_pandas(df).repartition(3),
                num_partitions=4,
            ).take_all()
        }
        day = 86_400_000_000
        want = Counter()
        first = {}
        seen = set()
        for u, ts in sorted(rows, key=lambda r: (r[0], r[1])):
            b = (int(ts.timestamp() * 1e6) // day) * day
            first.setdefault(u, b)
            if (u, b) not in seen:
                seen.add((u, b))
                want[(first[u], (b - first[u]) // day)] += 1
        assert got == dict(want)

    def test_rejects_bad_params(self, ray_session):
        import pandas as pd

        from duplicate_finder_ray.stages.events import retention_cohorts

        ds = ray_session.data.from_pandas(
            pd.DataFrame({"user_id": [1], "ts": [pd.Timestamp("2024-01-01")]})
        )
        import pytest as _pytest

        with _pytest.raises(ValueError):
            retention_cohorts(ds, bucket_us=0)
        with _pytest.raises(ValueError):
            retention_cohorts(ds, num_partitions=0)


class TestSessionFunnel:
    """session_funnel: sessionize + within-session funnel in one pass."""

    @staticmethod
    def _mk(rows):
        return pd.DataFrame(
            [
                {
                    "event_id": i,
                    "ts": pd.Timestamp("2024-03-01") + pd.Timedelta(minutes=m),
                    "user_id": u,
                    "event_type": t,
                    "value": 1.0,
                    "props": "{}",
                }
                for i, (u, m, t) in enumerate(rows)
            ]
        )

    def test_conversion_scenarios(self, ray_session):
        from duplicate_finder_ray.stages.events import session_funnel

        rows = [
            # user 1, session 1: signup -> purchase (converted)
            (1, 0, "signup"), (1, 5, "view"), (1, 10, "purchase"),
            # user 1, session 2 (>30 min gap): purchase before signup
            (1, 60, "purchase"), (1, 65, "signup"),
            # user 2: signup only, then (new session) purchase only —
            # split across the boundary, so NEITHER session converts
            (2, 0, "signup"), (2, 45, "purchase"),
            # user 3: one session, no signup at all
            (3, 0, "view"), (3, 1, "purchase"),
        ]
        got = (
            session_funnel(
                ray_session.data.from_pandas(self._mk(rows)).repartition(3),
                "signup",
                "purchase",
                num_partitions=4,
            )
            .to_pandas()
            .sort_values(["user_id", "session_id"])
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            {
                "user_id": [1, 1, 2, 2, 3],
                "session_id": [1, 2, 1, 2, 1],
                "n_events": [3, 2, 1, 1, 2],
                "converted": [1, 0, 0, 0, 0],
            }
        )
        pd.testing.assert_frame_equal(
            got[want.columns.tolist()], want, check_dtype=False
        )

    def test_simultaneous_steps_not_converted(self, ray_session):
        """Equal first-A and first-B timestamps are NOT 'strictly before'."""
        from duplicate_finder_ray.stages.events import session_funnel

        rows = [(7, 0, "signup"), (7, 0, "purchase")]
        got = session_funnel(
            ray_session.data.from_pandas(self._mk(rows)), "signup", "purchase"
        ).to_pandas()
        assert len(got) == 1 and got.iloc[0]["converted"] == 0

    def test_rejects_bad_params(self, ray_session):
        from duplicate_finder_ray.stages.events import session_funnel

        ds = ray_session.data.from_pandas(self._mk([(1, 0, "signup")]))
        with pytest.raises(ValueError):
            session_funnel(ds, "signup", "signup")
        with pytest.raises(ValueError):
            session_funnel(ds, "a", "b", gap_us=0)
        with pytest.raises(ValueError):
            session_funnel(ds, "a", "b", num_partitions=0)


class TestEventTransitions:
    """event_transitions: per-user Markov bigram counts vs a pandas
    LAG oracle."""

    @staticmethod
    def _mk(rows):
        return pd.DataFrame(
            [
                {
                    "event_id": i,
                    "ts": pd.Timestamp("2024-03-01")
                    + pd.Timedelta(minutes=m),
                    "user_id": u,
                    "event_type": t,
                    "value": 1.0,
                    "props": "{}",
                }
                for i, (u, m, t) in enumerate(rows)
            ]
        )

    def _oracle(self, df):
        d = df.sort_values(["user_id", "ts", "event_id"]).copy()
        d["prev"] = d.groupby("user_id")["event_type"].shift()
        d = d[d["prev"].notna()]
        out = (
            d.groupby(["prev", "event_type"])
            .size()
            .reset_index(name="n")
            .rename(columns={"prev": "from_type", "event_type": "to_type"})
            .sort_values(["from_type", "to_type"])
            .reset_index(drop=True)
        )
        out["n"] = out["n"].astype("int64")
        return out

    def test_matches_lag_oracle(self, ray_session):
        from duplicate_finder_ray.stages.events import event_transitions

        rows = [
            (1, 0, "view"), (1, 1, "view"), (1, 2, "cart"),
            (1, 3, "purchase"),
            (2, 0, "view"), (2, 1, "cart"), (2, 2, "view"),
            (3, 5, "view"),  # single event: no transitions
        ]
        df = self._mk(rows)
        got = (
            event_transitions(
                ray_session.data.from_pandas(df).repartition(3),
                num_partitions=4,
            )
            .to_pandas()
            .sort_values(["from_type", "to_type"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, self._oracle(df))

    def test_tie_break_by_event_id(self, ray_session):
        """Same-timestamp events order by event_id (LAG ORDER BY ts,
        event_id)."""
        from duplicate_finder_ray.stages.events import event_transitions

        rows = [(5, 0, "a"), (5, 0, "b"), (5, 0, "c")]
        got = event_transitions(
            ray_session.data.from_pandas(self._mk(rows))
        ).to_pandas()
        pairs = set(zip(got["from_type"], got["to_type"]))
        assert pairs == {("a", "b"), ("b", "c")}

    def test_rejects_bad_partitions(self, ray_session):
        from duplicate_finder_ray.stages.events import event_transitions

        ds = ray_session.data.from_pandas(self._mk([(1, 0, "a")]))
        with pytest.raises(ValueError):
            event_transitions(ds, num_partitions=0)


class TestUserPeakRate:
    """user_peak_rate: busiest tumbling minute per user."""

    @staticmethod
    def _mk(rows):
        return pd.DataFrame(
            [
                {
                    "event_id": i,
                    "ts": pd.Timestamp("2024-03-01")
                    + pd.Timedelta(seconds=s),
                    "user_id": u,
                    "event_type": "e",
                    "value": 1.0,
                    "props": "{}",
                }
                for i, (u, s) in enumerate(rows)
            ]
        )

    def test_peak_and_tie_break(self, ray_session):
        from duplicate_finder_ray.stages.events import user_peak_rate

        base = pd.Timestamp("2024-03-01").value // 1000  # us
        rows = [
            # user 1: 3 events in minute 0, 1 in minute 2
            (1, 0), (1, 10), (1, 59), (1, 120),
            # user 2: 2 events in minute 0 and 2 in minute 1 — tie,
            # earliest bucket wins
            (2, 0), (2, 30), (2, 60), (2, 90),
            # user 3: single event
            (3, 400),
        ]
        got = (
            user_peak_rate(
                ray_session.data.from_pandas(self._mk(rows)).repartition(3),
                num_partitions=4,
            )
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        minute = 60_000_000
        want = pd.DataFrame(
            {
                "user_id": [1, 2, 3],
                "peak_events": [3, 2, 1],
                "peak_bucket_us": [
                    base,
                    base,
                    base + (400 // 60) * minute,
                ],
            }
        )
        pd.testing.assert_frame_equal(got, want)

    def test_rejects_bad_params(self, ray_session):
        from duplicate_finder_ray.stages.events import user_peak_rate

        ds = ray_session.data.from_pandas(self._mk([(1, 0)]))
        with pytest.raises(ValueError):
            user_peak_rate(ds, bucket_us=0)
        with pytest.raises(ValueError):
            user_peak_rate(ds, num_partitions=0)


class TestSessionCooccurrence:
    """session_cooccurrence: unordered type pairs per session."""

    @staticmethod
    def _mk(rows):
        return pd.DataFrame(
            [
                {
                    "event_id": i,
                    "ts": pd.Timestamp("2024-03-01")
                    + pd.Timedelta(minutes=m),
                    "user_id": u,
                    "event_type": t,
                    "value": 1.0,
                    "props": "{}",
                }
                for i, (u, m, t) in enumerate(rows)
            ]
        )

    def test_pairs_per_session(self, ray_session):
        from duplicate_finder_ray.stages.events import session_cooccurrence

        rows = [
            # user 1 session 1: {view, cart, purchase} -> 3 pairs
            (1, 0, "view"), (1, 1, "cart"), (1, 2, "purchase"),
            (1, 3, "view"),  # repeat type: still ONE distinct per session
            # user 1 session 2 (>30 min gap): {view} only -> no pairs
            (1, 60, "view"),
            # user 2: {view, cart} -> 1 pair
            (2, 0, "cart"), (2, 5, "view"),
        ]
        got = (
            session_cooccurrence(
                ray_session.data.from_pandas(self._mk(rows)).repartition(3),
                num_partitions=4,
            )
            .to_pandas()
            .sort_values(["type_a", "type_b"])
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            {
                "type_a": ["cart", "cart", "cart", "purchase"],
                "type_b": ["purchase", "view", "view", "view"],
                "n_sessions": [1, 1, 1, 1],
            }
        )
        # (cart,view) appears in BOTH user 1 s1 and user 2 s1 -> merge
        want = (
            want.groupby(["type_a", "type_b"], as_index=False)["n_sessions"]
            .sum()
            .sort_values(["type_a", "type_b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

    def test_rejects_bad_params(self, ray_session):
        from duplicate_finder_ray.stages.events import session_cooccurrence

        ds = ray_session.data.from_pandas(self._mk([(1, 0, "a")]))
        with pytest.raises(ValueError):
            session_cooccurrence(ds, gap_us=0)
        with pytest.raises(ValueError):
            session_cooccurrence(ds, num_partitions=0)


class TestWatermarkAudit:
    def test_matches_python_oracle(self, ray_session):
        import numpy as np
        import pyarrow as pa

        from duplicate_finder_ray.stages.events import watermark_audit

        rng = np.random.default_rng(13)
        n = 500
        base = 1_700_000_000_000_000  # µs epoch
        ts_us = base + rng.integers(0, 5 * 3600, n) * 1_000_000
        eid = rng.permutation(n).astype(np.int64)
        tbl = pa.table(
            {
                "event_id": pa.array(eid),
                "ts": pa.array(ts_us, pa.timestamp("us")),
            }
        )
        got = {
            r["window_start_us"]: (
                r["n_on_time"], r["n_late"], r["max_delay_s_seen"]
            )
            for r in watermark_audit(
                ray_session.data.from_arrow(tbl).repartition(4),
                max_delay_s=600,
                allowed_lateness_s=300,
            ).take_all()
        }
        want: dict = {}
        H = 3_600_000_000
        for t, e in zip(ts_us.tolist(), eid.tolist()):
            w = t // H * H
            d = e % 600
            late = t + d * 1_000_000 > w + H + 300_000_000
            on, lt, mx = want.get(w, (0, 0, 0))
            want[w] = (on + (not late), lt + late, max(mx, d))
        assert got == want

    def test_rejects_bad_params(self, ray_session):
        import pyarrow as pa

        from duplicate_finder_ray.stages.events import watermark_audit

        ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "event_id": pa.array([1], pa.int64()),
                    "ts": pa.array([0], pa.timestamp("us")),
                }
            )
        )
        import pytest as _pytest

        with _pytest.raises(ValueError):
            watermark_audit(ds, max_delay_s=0)
        with _pytest.raises(ValueError):
            watermark_audit(ds, allowed_lateness_s=-1)


class TestAnomalousHours:
    """Planted-truth tests for the exact-integer burst detector."""

    @staticmethod
    def _events_at(hour_counts: dict[int, int]) -> pd.DataFrame:
        import ray.data  # noqa: F401

        rows = []
        eid = 0
        for hour, n in hour_counts.items():
            for j in range(n):
                rows.append(
                    {
                        "event_id": eid,
                        "ts": pd.Timestamp("2024-01-01")
                        + pd.Timedelta(hours=hour, seconds=j % 3000),
                        "user_id": eid % 7,
                        "event_type": "view",
                        "value": 1.0,
                    }
                )
                eid += 1
        return pd.DataFrame(rows)

    def test_planted_burst_flagged(self, ray_session):
        import ray.data

        # 23 calm hours at ~10 events, one 500-event burst hour
        counts = {h: 10 + (h % 3) for h in range(24)}
        counts[7] = 500
        df = self._events_at(counts)
        got = ev.anomalous_hours(ray.data.from_pandas(df), k_sigma=3).to_pandas()
        burst_us = int(
            (pd.Timestamp("2024-01-01") + pd.Timedelta(hours=7)).value // 1000
        )
        assert got["hour_us"].tolist() == [burst_us]
        assert got["n_events"].tolist() == [500]

    def test_uniform_series_has_no_anomalies(self, ray_session):
        import ray.data

        df = self._events_at({h: 20 for h in range(12)})
        got = ev.anomalous_hours(ray.data.from_pandas(df), k_sigma=3).to_pandas()
        assert len(got) == 0

    def test_gap_hours_enter_the_mean(self, ray_session):
        import ray.data

        # hours 0 and 10 only: the 9-hour outage gap drags the mean
        # down, so both live hours clear mean+3sigma only if the math
        # uses the DENSE series; with counts equal they do not (sigma
        # is driven by the gap, threshold sits between)
        df = self._events_at({0: 30, 10: 300})
        got = ev.anomalous_hours(ray.data.from_pandas(df), k_sigma=3).to_pandas()
        # exact check vs the integer inequality over the dense series
        x = np.array([30] + [0] * 9 + [300], dtype=object)
        h, s, q = len(x), int(x.sum()), int((x * x).sum())
        expect = [
            int(v)
            for v in x
            if h * int(v) - s > 0 and (h * int(v) - s) ** 2 > 9 * (h * q - s * s)
        ]
        assert sorted(got["n_events"].tolist()) == sorted(expect)

    def test_rejects_bad_k(self, ray_session):
        import ray.data

        with pytest.raises(ValueError):
            ev.anomalous_hours(ray.data.from_pandas(self._events_at({0: 1})), 0)


class TestDailyNewUsers:
    def test_first_seen_semantics(self, ray_session):
        import ray.data

        day = lambda d: pd.Timestamp("2024-03-01") + pd.Timedelta(days=d)
        df = pd.DataFrame(
            [
                # u1 first on day 0 (appears again day 2: not re-counted)
                {"event_id": 0, "user_id": 1, "ts": day(0)},
                {"event_id": 1, "user_id": 1, "ts": day(2)},
                # u2, u3 first on day 1
                {"event_id": 2, "user_id": 2, "ts": day(1)},
                {"event_id": 3, "user_id": 3, "ts": day(1) + pd.Timedelta(hours=5)},
                # u4 first on day 3
                {"event_id": 4, "user_id": 4, "ts": day(3)},
            ]
        )
        got = (
            ev.daily_new_users(ray.data.from_pandas(df))
            .to_pandas()
            .sort_values("day_us")
        )
        assert got["n_new_users"].tolist() == [1, 2, 1]
        assert got["cum_users"].tolist() == [1, 3, 4]
        day_us = [int(day(d).value // 1000) for d in (0, 1, 3)]
        assert got["day_us"].tolist() == day_us

    def test_empty_events(self, ray_session):
        import ray.data
        import pyarrow as pa

        empty = pa.table(
            {"user_id": pa.array([], pa.int64()), "ts": pa.array([], pa.timestamp("us"))}
        )
        got = ev.daily_new_users(ray.data.from_arrow(empty)).to_pandas()
        assert len(got) == 0


class TestInactiveUsers:
    def test_churn_cutoff_semantics(self, ray_session):
        import ray.data

        t0 = pd.Timestamp("2024-05-01")
        df = pd.DataFrame(
            [
                # u1 last seen day 0 (churned vs day-10 corpus max)
                {"event_id": 0, "user_id": 1, "ts": t0},
                # u2 seen day 0 AND day 9 (active: only the max counts)
                {"event_id": 1, "user_id": 2, "ts": t0},
                {"event_id": 2, "user_id": 2, "ts": t0 + pd.Timedelta(days=9)},
                # u3 defines the corpus max, day 10
                {"event_id": 3, "user_id": 3, "ts": t0 + pd.Timedelta(days=10)},
                # u4 last seen day 7 (exactly at the 3-day edge: NOT churned,
                # strict < comparison)
                {"event_id": 4, "user_id": 4, "ts": t0 + pd.Timedelta(days=7)},
            ]
        )
        got = (
            ev.inactive_users(ray.data.from_pandas(df), cutoff_s=3 * 86_400, n_parts=3)
            .to_pandas()
            .sort_values("user_id")
        )
        assert got["user_id"].tolist() == [1]
        assert got["last_ts_us"].tolist() == [int(t0.value // 1000)]

    def test_rejects_negative_cutoff(self, ray_session):
        import ray.data

        with pytest.raises(ValueError):
            ev.inactive_users(ray.data.from_items([]), cutoff_s=-1)


class TestHourlyAutocorr:
    def test_alternating_series_is_anticorrelated(self, ray_session):
        import ray.data

        # counts alternate 5, 50, 5, 50, ... over 12 hours: the lag-1
        # pairs are (5,50) and (50,5) alternating -> r = -1 exactly
        rows = []
        eid = 0
        for h in range(12):
            for _ in range(5 if h % 2 == 0 else 50):
                rows.append(
                    {
                        "event_id": eid,
                        "user_id": eid % 3,
                        "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(hours=h, seconds=eid % 60),
                    }
                )
                eid += 1
        got = ev.hourly_autocorr(ray.data.from_pandas(pd.DataFrame(rows)), lag=1).to_pandas()
        assert got["lag"].tolist() == [1]
        assert got["n_rows"].tolist() == [11]
        assert got["corr_micro"].tolist() == [-1_000_000]

    def test_constant_series_r_zero_convention(self, ray_session):
        import ray.data

        rows = [
            {"event_id": i, "user_id": 0,
             "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(hours=i % 6)}
            for i in range(6 * 4)
        ]
        got = ev.hourly_autocorr(ray.data.from_pandas(pd.DataFrame(rows)), lag=1).to_pandas()
        assert got["corr_micro"].tolist() == [0]

    def test_rejects_bad_lag(self, ray_session):
        import ray.data

        with pytest.raises(ValueError):
            ev.hourly_autocorr(ray.data.from_items([]), lag=0)


class TestRollingActiveUsers:
    def test_trailing_window_semantics(self, ray_session):
        import ray.data

        day = lambda d: pd.Timestamp("2024-06-01") + pd.Timedelta(days=d)
        df = pd.DataFrame(
            [
                # u1 active days 0 and 3; u2 active day 1 (twice); u3 day 3
                {"event_id": 0, "user_id": 1, "ts": day(0)},
                {"event_id": 1, "user_id": 2, "ts": day(1)},
                {"event_id": 2, "user_id": 2, "ts": day(1) + pd.Timedelta(hours=2)},
                {"event_id": 3, "user_id": 1, "ts": day(3)},
                {"event_id": 4, "user_id": 3, "ts": day(3)},
            ]
        )
        got = (
            ev.rolling_active_users(ray.data.from_pandas(df), window_days=2, n_parts=3)
            .to_pandas()
            .sort_values("day_us")
        )
        # window 2 (trailing): d0 {u1}=1, d1 {u1,u2}=2, d2 {u2}=1,
        # d3 {u1,u3}=2; d4 clipped (beyond corpus max)
        day_us = [int(day(d).value // 1000) for d in (0, 1, 2, 3)]
        assert got["day_us"].tolist() == day_us
        assert got["n_active"].tolist() == [1, 2, 1, 2]

    def test_window_one_equals_daily_distinct(self, ray_session):
        import ray.data

        rng = np.random.default_rng(2)
        df = pd.DataFrame(
            {
                "event_id": range(300),
                "user_id": rng.integers(0, 20, 300),
                "ts": [
                    pd.Timestamp("2024-06-01")
                    + pd.Timedelta(days=int(d), minutes=int(m))
                    for d, m in zip(rng.integers(0, 6, 300), rng.integers(0, 1440, 300))
                ],
            }
        )
        got = (
            ev.rolling_active_users(ray.data.from_pandas(df), window_days=1)
            .to_pandas()
            .sort_values("day_us")
        )
        df["day"] = df["ts"].dt.floor("D")
        expect = df.groupby("day")["user_id"].nunique()
        assert got["n_active"].tolist() == expect.tolist()

    def test_rejects_bad_window(self, ray_session):
        import ray.data

        with pytest.raises(ValueError):
            ev.rolling_active_users(ray.data.from_items([]), window_days=0)
