"""Session set-up, the per-job watchdog and the object-store sampler.

The benchmark's Ray session is a local node of ``num_cpus`` logical
CPUs whose temp files live inside the checkout. The engine package
reaches Ray's worker processes through ``PYTHONPATH``, which ``run.py``
sets on the session process; worker processes inherit it from the node
that process starts.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: object-store capacity of the benchmark session
OBJECT_STORE_BYTES = 768 * 1024**2
#: object-store sampling period
SAMPLE_S = 0.02
#: a Unix socket path must stay under 108 bytes; Ray appends ~62
#: characters of session and socket names to its temp dir
_MAX_TEMP_DIR = 44


def init_session(num_cpus: int, temp_dir: Path) -> None:
    import ray
    from ray.data import DataContext

    kwargs = {}
    if len(str(temp_dir)) <= _MAX_TEMP_DIR:
        kwargs["_temp_dir"] = str(temp_dir)
    else:
        print(f"perfbench: temp dir {temp_dir} too long for Ray's sockets; "
              "using Ray's default", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=num_cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        # keep idle worker processes for the whole run: by default Ray
        # kills workers idle beyond num_cpus after 1 s and starts new
        # ones on the next demand, and that churn (several process
        # start-ups per near-dup job, slowed by up to 2x when other
        # tenants load the host) made job walls swing by a quarter
        _system_config={
            "num_workers_soft_limit": 3 * num_cpus,
            "idle_worker_killing_time_threshold_ms": 600_000,
        },
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False


@dataclass
class Outcome:
    """Result of one watched call: ``value`` when it returned, else the
    exception it raised or ``timed_out`` when it outlived the watchdog."""

    value: Any = None
    error: BaseException | None = None
    timed_out: bool = False
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


def watched(fn: Callable[[], Any], timeout_s: float) -> Outcome:
    """Run ``fn`` in a daemon thread and wait at most ``timeout_s``. A
    hang becomes ``Outcome(timed_out=True)`` instead of a stuck
    benchmark; the caller must then abandon the session, because the
    hung call still holds its resources."""
    out = Outcome()

    def target() -> None:
        try:
            out.value = fn()
        except Exception as exc:  # reported as a failed run
            out.error = exc

    t0 = time.perf_counter()
    worker = threading.Thread(target=target, name="perfbench-job", daemon=True)
    worker.start()
    worker.join(timeout_s)
    out.seconds = time.perf_counter() - t0
    if worker.is_alive():
        out.timed_out = True
    return out


class StoreSampler:
    """Samples object-store bytes in use (capacity minus the node's
    available ``object_store_memory``, which Ray updates within ~0.1 s)
    on a background thread and keeps the peak since ``reset()``."""

    def __init__(self) -> None:
        import ray

        self._ray = ray
        self._capacity = ray.cluster_resources()["object_store_memory"]
        self._peak = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-store", daemon=True
        )
        self._thread.start()

    def used(self) -> float:
        avail = self._ray.available_resources().get("object_store_memory", 0.0)
        return self._capacity - avail

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_S):
            used = self.used()
            with self._lock:
                self._peak = max(self._peak, used)

    def settle(self, timeout_s: float = 2.0) -> None:
        """Wait until the previous job's objects are freed (store in use
        stops shrinking), so its bytes do not count toward the next."""
        last = self.used()
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            time.sleep(0.1)
            now = self.used()
            if now >= last:
                return
            last = now

    def reset(self) -> None:
        with self._lock:
            self._peak = self.used()

    def peak_mb(self) -> float:
        with self._lock:
            return self._peak / 1e6

    def close(self) -> None:
        self._stop.set()
        self._thread.join(1.0)
