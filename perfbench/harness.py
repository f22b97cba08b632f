"""Measurement plumbing shared by the workloads.

Spark session start and stop, the in-memory tracer (spans and counters),
per-step Spark job counters via job groups, pass isolation checks, and
the summary statistics the benchmark reports.
"""
from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

# The session settings of the `spark` fixture in conftest.py.
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}
DRIVER_MEMORY = "2g"
MAX_CORES = 4


def local_cores() -> int:
    """n in local[n]: the usable cores, at most MAX_CORES."""
    return max(1, min(MAX_CORES, len(os.sched_getaffinity(0))))


def configure_environment(root: str, work_dir: str) -> None:
    """Point the driver, the JVM and the Python workers at the checkout.

    Must run before pyspark is imported: driver options are read at JVM
    launch. Every scratch path lives under ``work_dir`` in the checkout.
    """
    src = os.path.join(root, "src")
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    java_opts = f"-Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{local_cores()}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            f"--conf spark.local.dir={tmp}",
            f"--conf spark.driver.extraJavaOptions={java_opts}",
            f"--conf spark.sql.warehouse.dir={os.path.join(work_dir, 'warehouse')}",
            "pyspark-shell",
        ]
    )


def start_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM (and its Python workers) exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


def environment(spark) -> dict:
    import platform

    import pyspark

    sc = spark.sparkContext
    return {
        "master": sc.master,
        "local_n": local_cores(),
        "nproc": os.cpu_count(),
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "driver_memory": DRIVER_MEMORY,
        "session_conf": {k: spark.conf.get(k) for k in SESSION_CONF},
        "default_parallelism": sc.defaultParallelism,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset (random)"),
        # equal across two runs iff they used the same str hash salt
        "hash_probe": hash("perfbench"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """0 when there are no samples (every such request failed)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype="float64"), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# --------------------------------------------------------------------------
# Spark isolation and job counters
# --------------------------------------------------------------------------
def persisted_rdds(spark) -> int:
    return int(spark.sparkContext._jsc.getPersistentRDDs().size())


def cache_is_empty(spark) -> bool:
    manager = spark._jsparkSession.sharedState().cacheManager()
    return bool(manager.isEmpty()) and persisted_rdds(spark) == 0


def release_cache(spark) -> None:
    """Drop everything a pass left cached or persisted."""
    spark.catalog.clearCache()
    jsc = spark.sparkContext._jsc
    for rdd in list(jsc.getPersistentRDDs().values()):
        rdd.unpersist(True)


def settle(spark) -> None:
    """Collect the garbage in the driver and in the JVM, so that the build
    or the requests timed next do not pay for it at random moments."""
    gc.collect()
    spark.sparkContext._jvm.System.gc()


class SpeedGauge:
    """The host's current single-thread speed, read from a fixed workload.

    A shared host can run the same single-threaded driver code at two
    speeds about 1.5x apart, switching every second or so and sometimes
    staying slow for minutes. The gauge is read before and after every
    driver-side request: one reading runs a fixed reference workload (a
    Python loop and a pandas filter-group-sort on a constant frame; no
    code of the program). ``timed`` scales the request's wall time by
    ``REFERENCE_MS`` over the median reading of the last ``WINDOW_S``
    seconds, i.e. reports it at the speed at which one reading takes
    ``REFERENCE_MS``. A reading taken less than ``FRESH_S`` ago serves as
    the next request's first one.
    """

    REFERENCE_MS = 3.0
    FRESH_S = 0.1
    WINDOW_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 4000
        self._frame = pd.DataFrame({
            "a": rng.integers(0, 50, n), "b": rng.integers(0, 20, n), "w": rng.random(n),
        })
        self.readings: list[tuple[float, float]] = []  # (when, ms)
        self.calls: list[tuple[float, float, float]] = []  # (when, wall s, scaled s)

    def read(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        df = self._frame
        df[df["a"] == 7].groupby("b")["w"].max().reset_index().sort_values("w")
        t1 = time.perf_counter()
        self.readings.append((t1, 1000.0 * (t1 - t0)))
        return self.readings[-1][1]

    def timed(self, fn):
        """(answer, seconds at the reference speed, wall seconds)."""
        if not self.readings or time.perf_counter() - self.readings[-1][0] > self.FRESH_S:
            self.read()
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        self.read()
        horizon = self.readings[-1][0] - self.WINDOW_S
        recent = [ms for when, ms in self.readings[-64:] if when >= horizon]
        scaled = seconds * self.REFERENCE_MS / median(recent)
        self.calls.append((t0, seconds, scaled))
        return out, scaled, seconds


class JobCounter:
    """Counts Spark jobs, stages and tasks run under one job group."""

    def __init__(self, spark, run_id: str):
        self.spark = spark
        self.run_id = run_id
        self.n = 0

    @contextmanager
    def group(self, step: str):
        sc = self.spark.sparkContext
        self.n += 1
        gid = f"{self.run_id}-{step}-{self.n}"
        sc.setJobGroup(gid, step)
        try:
            yield gid
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)

    def counts(self, gid: str) -> dict[str, int]:
        tracker = self.spark.sparkContext.statusTracker()
        jobs = tracker.getJobIdsForGroup(gid)
        stages = tasks = 0
        for job in jobs:
            info = tracker.getJobInfo(job)
            if info is None:
                continue
            for sid in info.stageIds:
                stage = tracker.getStageInfo(sid)
                if stage is None:
                    continue
                stages += 1
                tasks += stage.numTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks}


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace_id: str = ""


@dataclass
class Tracer:
    """Spans and counters kept in memory and written out at the end.

    Span durations and counts are summed within a pass and reported as
    the median over passes; per-call latencies are kept as samples. When
    ``enabled`` is false nothing is recorded, so the same workload code
    serves the untraced run.
    """

    enabled: bool
    spans: list[Span] = field(default_factory=list)
    passes: list[dict[str, float]] = field(default_factory=list)
    calls: dict[str, list[float]] = field(default_factory=dict)
    trace_id: str = ""
    _stack: list[int] = field(default_factory=list)

    def begin_pass(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.passes.append({})

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, trace_id=self.trace_id)
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[idx]
            span.end = time.perf_counter()
            self.count(name + "_s", span.end - span.start)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            cur = self.passes[-1]
            cur[name] = cur.get(name, 0.0) + float(value)

    def call(self, name: str, seconds: float) -> None:
        """One call's latency, scaled as the end-to-end latency it
        belongs to (at the gauge's reference speed, or wall time)."""
        if self.enabled:
            self.calls.setdefault(name + "_ms", []).append(1000.0 * seconds)

    def value(self, name: str) -> float:
        """Median over traced passes (or calls); 0 if the layer did no work."""
        if name in self.calls:
            return median(self.calls[name])
        return median([p[name] for p in self.passes if name in p])

    def child_sum(self, parent_name: str) -> list[float]:
        """Per traced pass: summed durations of the direct children of
        each span called ``parent_name``."""
        sums = []
        for i, span in enumerate(self.spans):
            if span.name == parent_name:
                sums.append(
                    sum(c.end - c.start for c in self.spans if c.parent == i)
                )
        return sums

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "trace": s.trace_id}
            for s in self.spans
        ]
