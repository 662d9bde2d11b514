"""The benchmark's two workloads.

Each workload builds its inputs, measures its legs, checks the outputs
and fills a :class:`Run`.  Paper parameters are used everywhere:
w=300, d=240, and micro-batches of 30 frames (one second of 30 fps
video).  The six cameras are the paper profiles V1-M2 at their Table 6
lengths; ``--seed`` picks the query workload (see README.md for why the
scene seeds stay at the calibrated profiles).

Pure-Python legs run single-threaded in this process; Spark runs in
the session ``jobs._common.get_spark`` ships (``local[*]``), in traced
runs only.  An untraced run repeats the workload's legs for
:func:`rounds` rounds and runs a speed probe after every micro-batch,
which measures how fast the shared host lets this process run at that
moment (see :func:`set_batch_metrics`).  In a traced run
(``Run.tracer`` set) every pure-Python leg runs twice: one untraced
round, for the per-method throughput and the tracing overhead, and
once with every layer call of its pipelines wrapped in spans.
"""
from __future__ import annotations

import gc
import os
import pickle
import shutil
import statistics
import subprocess
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.evaluate import QueryPipeline
from repro.core.queries import geq_only_queries, random_cnf_queries
from repro.videogen import datasets
from repro.videogen.datasets import DATASETS, build_vr

from perfbench.trace import Tracer, strip

clock = time.perf_counter

W, D = 300, 240
CHUNK = 30  # frames per micro-batch: one second of 30 fps video
PAPER_CAMERAS = ("V1", "V2", "D1", "D2", "M1", "M2")
N_QUERIES = 50
N_GEQ_QUERIES, GEQ_N_MIN = 100, 3
LIVE_DATASET, LIVE_FRAMES = "M1", 3600  # three times M1's paper length
STREAM_FRAMES = 300
SETUP_REPS = 5
# Nominal seconds of one round of each workload's timed legs on the
# reference machine (4 cores, CPython 3.11).  ``--seconds`` buys whole
# rounds, a number that does not depend on how fast the machine happens
# to be: a run that fits in one more, warmer round when the machine is
# fast would otherwise report faster figures than one that does not.
ROUND_S = {"paper-cameras": 10.0, "live-feed": 10.0}
# The speed probe: a fixed pure-Python loop, and the seconds it takes on
# the reference machine when no other tenant slows it.  (The known-defect
# probes of ``Run.probe`` are another thing.)
SPEED_PROBE_LOOPS = 5000
SPEED_PROBE_REF_S = 3.0e-4
SETUP_PROBES = 25  # after each set-up, ~10 ms
ROW_COLUMNS = ("camera", "fid", "qid", "objset", "n_frames")
_MASK = (1 << 64) - 1


def speed_probe() -> float:
    """Seconds of the speed probe; it allocates no objects the cyclic
    collector tracks, so the program's heap does not slow it."""
    t0 = clock()
    x = 0
    for i in range(SPEED_PROBE_LOOPS):
        x += i * i
    return clock() - t0


@dataclass
class Run:
    """Measurements, counts and checks of one benchmark run."""

    workload: str
    seed: int
    seconds: float
    tracer: Tracer | None
    out_dir: str
    attempted: int = 0
    failed: int = 0
    # Known-defect probes (the SSG snapshot, the SSG streaming query)
    # are counted apart from the workload's operations.
    probes: int = 0
    probe_failures: int = 0
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=lambda: defaultdict(float))
    checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    # (micro-batch seconds, seconds of the probe right after it)
    paced: list = field(default_factory=list)

    def pace(self, seconds: float) -> None:
        """Probe the machine's speed after a micro-batch of ``seconds``."""
        self.paced.append((seconds, speed_probe()))

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def probe(self, ok: bool) -> None:
        self.probes += 1
        self.probe_failures += not ok

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.op(ok)
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def error(self, what: str) -> None:
        self.errors.append(f"{what}: {traceback.format_exc(limit=4)}")

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks) and not self.errors


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def frames_of(vr, n_frames: int) -> list[tuple[int, list[tuple[int, str]]]]:
    """``(fid, [(oid, cls), ...])`` for every frame, empty ones included."""
    by_fid: dict[int, list[tuple[int, str]]] = defaultdict(list)
    for fid, oid, cls in zip(vr["fid"].tolist(), vr["oid"].tolist(), vr["cls"].tolist()):
        by_fid[fid].append((oid, cls))
    return [(fid, by_fid.get(fid, [])) for fid in range(n_frames)]


def build_inputs(run: Run, lengths: dict[str, int]):
    """Build every camera's VR relation and frame list ``SETUP_REPS``
    times; return the last build and the median set-up seconds, each
    scaled by the speed probes run right after it (see
    :func:`set_batch_metrics`)."""
    build_s, total_s, scaled_s = [], [], []
    for _ in range(SETUP_REPS):
        # build_vr memoises per process; clear it so that every
        # repetition pays for scene -> detector -> tracker again.
        datasets._VR_CACHE.clear()
        t0 = clock()
        vrs = {name: build_vr(name, n_frames=n) for name, n in lengths.items()}
        t1 = clock()
        frames = {name: frames_of(vrs[name], n) for name, n in lengths.items()}
        t2 = clock()
        probe_s = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
        build_s.append(t1 - t0)
        total_s.append(t2 - t0)
        scaled_s.append((t2 - t0) * SPEED_PROBE_REF_S / probe_s)
    run.layer["vr.build_s"] = statistics.median(build_s)
    run.layer["setup_s.measured"] = statistics.median(total_s)
    run.layer["vr.rows"] = sum(len(vr) for vr in vrs.values())
    # Inputs live for the whole run: keep them out of the collector's
    # scans so that garbage collection in the timed legs does not
    # depend on the size of the set-up heap.
    gc.collect()
    gc.freeze()
    return vrs, frames, statistics.median(scaled_s)


def paper_lengths() -> dict[str, int]:
    return {name: DATASETS[name].scene.n_frames for name in PAPER_CAMERAS}


# ----------------------------------------------------------------------
# row checks
# ----------------------------------------------------------------------
def python_rows(camera: str, rows) -> list[tuple]:
    """Match rows in the Spark output's shape (objset as an oid string)."""
    as_text: dict[tuple[int, ...], str] = {}
    out = []
    for m in rows:
        text = as_text.get(m.objset)
        if text is None:
            text = as_text[m.objset] = ",".join(map(str, m.objset))
        out.append((camera, m.fid, m.qid, text, m.n_frames))
    return out


def digest(rows) -> tuple[int, int]:
    """Order-free multiset digest: (row count, sum of row hashes)."""
    n = h = 0
    for r in rows:
        n += 1
        h = (h + hash(r)) & _MASK
    return n, h


def pandas_rows(pdf) -> list[tuple]:
    return list(zip(*(pdf[c].tolist() for c in ROW_COLUMNS)))


# ----------------------------------------------------------------------
# pure-Python legs
# ----------------------------------------------------------------------
@dataclass
class Leg:
    label: str
    frames: int = 0
    seconds: float = 0.0
    digest: tuple = (0, 0)
    terminated: int = 0


def run_leg(run: Run, label: str, frames_by_cam, queries, method, prune, costs) -> Leg:
    """Feed every camera through a fresh pipeline, timing each 30-frame
    micro-batch; ``costs[(label, camera, k)]`` gets micro-batch ``k``'s
    seconds appended."""
    leg = Leg(label)
    n = h = 0
    for name, frames in frames_by_cam.items():
        try:
            pipe = QueryPipeline(queries, w=W, d=D, method=method, prune=prune)
            rows = []
            gc.collect()
            dt = 0.0
            for k, i in enumerate(range(0, len(frames), CHUNK)):
                tk = clock()
                for fid, objs in frames[i : i + CHUNK]:
                    rows.extend(pipe.feed(fid, objs))
                dk = clock() - tk
                costs[label, name, k].append(dk)
                run.pace(dk)
                dt += dk
        except Exception:
            run.op(False)
            run.error(f"{label} on {name}")
            continue
        run.op(True)
        leg.seconds += dt
        leg.frames += len(frames)
        leg.terminated += pipe.stats.terminated
        cn, ch = digest(python_rows(name.lower(), rows))
        n, h = n + cn, (h + ch) & _MASK
    leg.digest = (n, h)
    return leg


def trace_leg(run: Run, label: str, frames_by_cam, queries, method, prune) -> None:
    """Traced pass of one leg: spans per layer call, counts per frame."""
    tr = run.tracer
    peak = total = frames_seen = 0
    results_before = tr.results_states
    for name, frames in frames_by_cam.items():
        pipe = QueryPipeline(queries, w=W, d=D, method=method, prune=prune)
        tr.instrument(pipe)
        tr.set_trace(f"{run.workload}/{name}/{label}")
        gc.collect()
        for fid, objs in frames:
            pipe.feed(fid, objs)
            ns = pipe.gen.n_states()
            total += ns
            peak = max(peak, ns)
        frames_seen += len(frames)
        run.layer["match_rows"] += pipe.stats.matches
        run.layer["terminated"] += pipe.stats.terminated
        run.layer["codec.bits"] = max(run.layer["codec.bits"], len(pipe.codec))
        run.layer["ssg.visits"] += getattr(pipe.gen, "stats", {}).get("visits", 0)
    results = tr.results_states - results_before
    run.layer[f"states.peak.{label}"] = peak
    run.layer[f"states.mean.{label}"] = total / max(frames_seen, 1)
    run.layer["results.states"] += results
    run.layer[f"results.useful.{label}"] = results / max(total, 1)


def rounds(run: Run) -> int:
    """Rounds of the timed legs: as many as ``--seconds`` buys at the
    nominal round time, and one in a traced run, whose figures are
    per-layer and come from the traced pass."""
    if run.tracer is not None:
        return 1
    return max(1, int(run.seconds // ROUND_S[run.workload]))


def round_seconds(costs: dict, keys=None) -> float:
    """Seconds of one round: the sum over micro-batches of each one's
    mean seconds over the rounds."""
    keys = costs.keys() if keys is None else keys
    return sum(statistics.fmean(costs[k]) for k in keys)


def python_legs(run: Run, frames_by_cam, legs, costs) -> dict[str, list[Leg]]:
    """Run ``legs`` = [(label, queries, method, prune)] for
    :func:`rounds` rounds, collecting micro-batch seconds in ``costs``."""
    out: dict[str, list[Leg]] = defaultdict(list)
    for _ in range(rounds(run)):
        for label, queries, method, prune in legs:
            out[label].append(run_leg(run, label, frames_by_cam, queries, method, prune, costs))
    for label, queries, method, prune in legs:
        first = out[label][0]
        seconds = round_seconds(costs, [k for k in costs if k[0] == label])
        if seconds:
            run.layer[f"eval_fps.{label}"] = first.frames / seconds
        for name in frames_by_cam:
            keys = [k for k in costs if k[:2] == (label, name)]
            if keys:
                run.layer[f"camera_s.{name}.{label}"] = round_seconds(costs, keys)
        same = all(leg.digest == first.digest for leg in out[label])
        run.check(f"{label}: every round gives the same rows", same)
        if run.tracer is not None:
            trace_leg(run, label, frames_by_cam, queries, method, prune)
    return out


def layer_self_times(run: Run, untraced_feed_s: float) -> None:
    """Per-layer self times of the traced pure-Python legs, and the
    tracing overhead against the untraced legs' feed time."""
    tr = run.tracer
    per_layer = {
        "feed": "emit.s", "encode": "encode.s", "decode": "decode.s",
        "cnf": "cnf.s", "advance": "advance.s", "results": "results.s",
    }
    feed_tree = 0.0
    for (trace_id, name), s in tr.self_times().items():
        metric = per_layer.get(name)
        if metric is None:
            continue
        if trace_id.count("/") == 2 and name in ("advance", "results"):
            metric = f"{metric}.{trace_id.rsplit('/', 1)[1]}"
        run.layer[metric] += s
        feed_tree += s
    run.layer["cnf.calls"] = tr.count("cnf")
    traced_feed_s = tr.total("feed")
    if untraced_feed_s and traced_feed_s:
        run.layer["trace.overhead"] = traced_feed_s / untraced_feed_s - 1
        run.report.append(
            f"layer self times sum to {feed_tree:.3f} s; traced feed "
            f"{traced_feed_s:.3f} s; untraced feed {untraced_feed_s:.3f} s"
        )


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); (0, 0) when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def weighted_median(pairs: list[tuple[float, float]]) -> float:
    """Median of the values of (weight, value) pairs, by weight."""
    pairs = sorted(pairs, key=lambda wv: wv[1])
    half, acc = sum(w for w, _ in pairs) / 2, 0.0
    for w, v in pairs:
        acc += w
        if acc >= half:
            return v
    return pairs[-1][1]


def set_batch_metrics(run: Run, costs: dict, frames: int) -> None:
    """End-to-end throughput over ``costs``, the micro-batch seconds of
    every leg and round, which hold ``frames`` frames per round; and the
    per-layer latency of one second of one camera's video: median and
    tail over every micro-batch sample, with the sample count.

    Other tenants of a shared host slow this process by up to half for
    stretches of seconds to a minute, about as long as a run.  The
    probe after each micro-batch is slowed alike, so the throughput is
    scaled by the probe's median seconds, weighted by the micro-batch
    seconds, over its reference seconds: frames per second at the
    reference machine's speed.  The measured throughput and the
    slowdown are per-layer metrics."""
    fps = frames / round_seconds(costs)
    slowdown = weighted_median(run.paced) / SPEED_PROBE_REF_S
    run.e2e["eval_fps"] = fps * slowdown
    run.layer["eval_fps.measured"] = fps
    run.layer["host.slowdown"] = slowdown
    batch_ms = [1000.0 * s for samples in costs.values() for s in samples]
    run.layer["batch_ms_p50"] = statistics.median(batch_ms)
    value, pct = tail(batch_ms)
    run.layer["batch_ms_tail"] = value
    run.layer["batch.samples"] = len(batch_ms)
    run.report.append(
        f"batch_ms over {len(batch_ms)} micro-batches: p50 {run.layer['batch_ms_p50']:.2f} ms, "
        + (f"p{pct:.1f} {value:.2f} ms" if pct else "no tail (fewer than 11 samples)")
    )


# ----------------------------------------------------------------------
# Spark
# ----------------------------------------------------------------------
def start_spark(run: Run):
    from jobs._common import get_spark

    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    conf = dict(spark.sparkContext.getConf().getAll())
    keys = ("spark.master", "spark.sql.shuffle.partitions",
            "spark.sql.execution.arrow.pyspark.enabled")
    run.info["spark_conf"] = {k: conf.get(k) for k in keys}
    for k in ("spark.sql.adaptive.enabled", "spark.sql.adaptive.coalescePartitions.enabled"):
        run.info["spark_conf"][k] = spark.conf.get(k)
    run.info["spark_conf"]["defaultParallelism"] = spark.sparkContext.defaultParallelism
    run.report.append(f"spark settings: {run.info['spark_conf']}")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def marked_vr(vrs: dict, lengths: dict[str, int], prefix: int | None = None):
    """One VR relation with ``oid = -1`` rows for empty frames, each
    camera up to its own length."""
    import pandas as pd

    from repro.spark.streaming import with_empty_frame_markers

    parts = []
    for name, n in lengths.items():
        vr = vrs[name]
        if prefix is not None:
            vr, n = vr[vr.fid < prefix], min(n, prefix)
        parts.append(with_empty_frame_markers(vr, n))
    return pd.concat(parts, ignore_index=True)


def udf_task_count(sc, group: str) -> int:
    """Tasks that ran the last stage of the job group's jobs: the
    ``applyInPandas`` stage of an ``evaluate_queries_batch`` action."""
    st = sc.statusTracker()
    last = None
    for job_id in st.getJobIdsForGroup(group):
        job = st.getJobInfo(job_id)
        for stage_id in job.stageIds if job else ():
            stage = st.getStageInfo(stage_id)
            if stage and stage.numCompletedTasks and (last is None or stage_id > last[0]):
                last = (stage_id, stage.numCompletedTasks)
    return last[1] if last else 0


def spark_batch_leg(run: Run, spark, vr_df, queries):
    """``evaluate_queries_batch`` with SSG, from the cached VR DataFrame
    to the match rows collected as pandas; returns (seconds, rows)."""
    from repro.spark.batch import evaluate_queries_batch

    sc = spark.sparkContext
    tr = run.tracer
    out = evaluate_queries_batch(vr_df, queries, w=W, d=D, method="ssg")
    if tr is not None:
        tr.set_trace(f"{run.workload}/all/spark-ssg")
        sc.setJobGroup("perfbench-udf", "applyInPandas without collection")
        t0 = clock()
        with tr.span("spark.udf"):
            out.write.format("noop").mode("overwrite").save()
        run.layer["spark.udf_s"] = clock() - t0
    sc.setJobGroup("perfbench-batch", "evaluate_queries_batch")
    t0 = clock()
    pdf = out.toPandas()
    seconds = clock() - t0
    run.layer["spark_batch_s"] = seconds
    run.layer["spark.rows_out"] = len(pdf)
    run.layer["spark.udf_tasks"] = udf_task_count(sc, "perfbench-batch")
    if tr is not None:
        run.layer["spark.collect_s"] = max(seconds - run.layer["spark.udf_s"], 0.0)
    return seconds, pandas_rows(pdf)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def paper_cameras(run: Run) -> None:
    """Six cameras, 50 random CNF queries; NAIVE, MFS and SSG in pure
    Python.  A traced run adds the pruned legs of :func:`pruned_legs`,
    then starts Spark for SSG through ``evaluate_queries_batch`` and
    MFS/SSG through ``evaluate_queries_stream``."""
    queries = random_cnf_queries(N_QUERIES, seed=run.seed)
    lengths = paper_lengths()
    vrs, frames, run.e2e["setup_s"] = build_inputs(run, lengths)
    costs: dict = defaultdict(list)
    legs = [(m, queries, m, False) for m in ("naive", "mfs", "ssg")]
    out = python_legs(run, frames, legs, costs)
    set_batch_metrics(run, costs, len(legs) * sum(lengths.values()))

    ref = out["naive"][0].digest
    for label in ("mfs", "ssg"):
        run.check(f"{label} rows == naive rows", out[label][0].digest == ref)
    run.info["match_rows"] = ref[0]
    if run.tracer is not None:
        untraced_s = sum(legs_[0].seconds for legs_ in out.values()) + pruned_legs(run, frames)
        layer_self_times(run, untraced_s)
        spark_legs(run, vrs, frames, lengths, queries, out["ssg"][0], ref)


def pruned_legs(run: Run, frames) -> float:
    """The traced run's pruned legs: 100 >=-only queries at n_min=3 as
    MFS_O and SSG_O, where CNFEvalE is the admission test on every new
    set.  Checks them against each other and against an unpruned run
    (Proposition 1); returns their untraced seconds."""
    queries = geq_only_queries(N_GEQ_QUERIES, n_min=GEQ_N_MIN, seed=run.seed)
    legs = [("mfs_o", queries, "mfs", True), ("ssg_o", queries, "ssg", True)]
    out = python_legs(run, frames, legs, defaultdict(list))
    mfs_o, ssg_o = out["mfs_o"][0], out["ssg_o"][0]
    run.check("mfs_o rows == ssg_o rows", mfs_o.digest == ssg_o.digest)
    run.check("mfs_o terminated == ssg_o terminated", mfs_o.terminated == ssg_o.terminated,
              f"{mfs_o.terminated} vs {ssg_o.terminated}")
    # Proposition 1: pruning never drops a match.
    reference = run_leg(run, "ssg-unpruned", frames, queries, "ssg", False, defaultdict(list))
    run.check("pruned rows == unpruned rows", mfs_o.digest == reference.digest,
              f"{mfs_o.digest[0]} rows pruned, {reference.digest[0]} unpruned")
    run.info["pruned_match_rows"] = mfs_o.digest[0]
    run.info["terminated"] = mfs_o.terminated
    return mfs_o.seconds + ssg_o.seconds


def spark_legs(run: Run, vrs, frames, lengths, queries, ssg: Leg, ref) -> None:
    """The traced run's Spark legs: session start, the batch leg checked
    against the pure-Python rows, and the streaming legs."""
    t0 = clock()
    spark = start_spark(run)
    try:
        run.layer["spark.start_s"] = clock() - t0
        t0 = clock()
        from repro.spark.batch import evaluate_queries_batch
        from repro.spark.relation import vr_to_spark

        vr_df = vr_to_spark(spark, marked_vr(vrs, lengths)).cache()
        vr_df.count()
        run.layer["spark.input_s"] = clock() - t0
        # Warm-up: the first Python UDF of a session starts the worker.
        evaluate_queries_batch(
            vr_df.where(f"fid < {CHUNK}"), queries, w=W, d=D, method="ssg"
        ).toPandas()
        try:
            spark_seconds, spark_rows = spark_batch_leg(run, spark, vr_df, queries)
            run.op(True)
        except Exception:
            run.op(False)
            run.error("spark batch leg")
            spark_seconds, spark_rows = 0.0, []
        stream_legs(run, spark, vrs, frames, queries)
    finally:
        stop_spark(spark)
    spark_digest = digest(spark_rows)
    run.check("spark batch rows == naive rows", spark_digest == ref,
              f"spark {spark_digest[0]} rows, python {ref[0]} rows")
    if spark_seconds and ssg.seconds:
        run.layer["spark.vs_python"] = spark_seconds / ssg.seconds


@contextmanager
def _no_span(name: str):
    yield


def _live_leg(run: Run, frames, queries, method: str, keep_at: int, traced: bool = False):
    """Feed ``frames`` in 30-frame micro-batches; after each one, pickle
    the pipeline and continue from the restored copy, as the streaming
    operator does.  A snapshot that fails is a failed probe, and the
    leg continues from the in-memory pipeline."""
    tr = run.tracer if traced else None
    pipe = QueryPipeline(queries, w=W, d=D, method=method)
    if tr is not None:
        tr.set_trace(f"{run.workload}/{LIVE_DATASET}/{method}")
        tr.instrument(pipe)
    span = tr.span if tr is not None else _no_span
    batch_s, feed_s, dumps, loads, sizes, failed = [], [], [], [], [], []
    kept = None
    gc.collect()
    for k in range(len(frames) // CHUNK):
        t0 = clock()
        with span("microbatch"):
            for fid, objs in frames[k * CHUNK : (k + 1) * CHUNK]:
                pipe.feed(fid, objs)
            t1 = clock()
            if tr is not None:
                strip(pipe)  # the timing wrappers cannot be pickled
            try:
                with span("snapshot.dumps"):
                    blob = pickle.dumps(pipe)
                t2 = clock()
                with span("snapshot.loads"):
                    pipe = pickle.loads(blob)
                t3 = clock()
            except RecursionError:
                failed.append(True)
                run.probe(False)
            else:
                failed.append(False)
                run.probe(True)
                dumps.append(t2 - t1)
                loads.append(t3 - t2)
                sizes.append(len(blob))
                if k == keep_at:
                    kept = blob
            if tr is not None:
                tr.instrument(pipe)
        batch_s.append(clock() - t0)
        feed_s.append(t1 - t0)
        run.pace(batch_s[-1])
        run.op(True)
    if tr is not None:
        strip(pipe)
    return {
        "batch_s": batch_s, "feed_s": feed_s, "dumps": dumps, "loads": loads,
        "sizes": sizes, "failed": failed, "kept": kept, "pipe": pipe,
    }


def _lockstep(run: Run, method: str, aged, frames, start: int, queries) -> float:
    """Feed the final segment to the aged pipeline and to a fresh one
    started ``w`` frames earlier; compare rows and Result State Sets at
    every frame (and, for MFS, every state).  Returns the fresh
    pipeline's feed seconds on the segment."""
    fresh = QueryPipeline(queries, w=W, d=D, method=method)
    for fid, objs in frames[start - W : start]:
        fresh.feed(fid, objs)

    # Bits are never reassigned, so each pipeline's mask -> objset map
    # stays valid for the whole segment.
    decoded: dict[int, dict[int, tuple]] = {id(aged): {}, id(fresh): {}}

    def by_objset(p, items):
        cache, decode = decoded[id(p)], p.codec.decode
        out = {}
        for mask, value in items:
            key = cache.get(mask)
            if key is None:
                key = cache[mask] = decode(mask)
            out[key] = value
        return out

    def same_states(a, b) -> bool:
        if a.keys() != b.keys():
            return False
        return all(s.frames == b[k].frames and s.mark == b[k].mark for k, s in a.items())

    mismatches = {"rows": 0, "results": 0, "states": 0}
    fresh_s = 0.0
    for fid, objs in frames[start:]:
        rows_aged = aged.feed(fid, objs)
        t0 = clock()
        rows_fresh = fresh.feed(fid, objs)
        fresh_s += clock() - t0
        mismatches["rows"] += sorted(rows_aged, key=repr) != sorted(rows_fresh, key=repr)
        mismatches["results"] += (
            by_objset(aged, aged.gen.results().items())
            != by_objset(fresh, fresh.gen.results().items())
        )
        if method == "mfs":
            mismatches["states"] += not same_states(
                by_objset(aged, aged.gen.states.items()),
                by_objset(fresh, fresh.gen.states.items()),
            )
    run.check(
        f"live {method}: aged pipeline == fresh pipeline on the final segment",
        not any(mismatches.values()),
        f"frames with mismatches: {mismatches}",
    )
    run.layer["codec.bits_fresh"] = max(run.layer["codec.bits_fresh"], len(fresh.codec))
    return fresh_s


def live_feed(run: Run) -> None:
    """One M1-profile camera, three times its paper length, fed in
    30-frame micro-batches with a pickle round trip after each."""
    queries = random_cnf_queries(N_QUERIES, seed=run.seed)
    _, frames_by_cam, run.e2e["setup_s"] = build_inputs(run, {LIVE_DATASET: LIVE_FRAMES})
    frames = frames_by_cam[LIVE_DATASET]
    n_batches = LIVE_FRAMES // CHUNK
    late_from = 3 * n_batches // 4  # the final quarter of the feed
    start = late_from * CHUNK

    costs: dict = defaultdict(list)
    legs = {}
    for _ in range(rounds(run)):
        round_legs = {m: _live_leg(run, frames, queries, m, late_from - 1) for m in ("mfs", "ssg")}
        for method, leg in round_legs.items():
            for k, s in enumerate(leg["batch_s"]):
                costs[method, LIVE_DATASET, k].append(s)
        legs = legs or round_legs
    set_batch_metrics(run, costs, len(legs) * LIVE_FRAMES)

    for method, leg in legs.items():
        late = [1000.0 * s for s in leg["batch_s"][late_from:]]
        run.layer[f"eval_fps.{method}"] = LIVE_FRAMES / round_seconds(
            costs, [k for k in costs if k[0] == method]
        )
        run.layer[f"late_batch_ms_p50.{method}"] = statistics.median(late)
        run.layer[f"late_batch_ms_tail.{method}"], pct = tail(late)
        run.layer["late_batch.samples"] = len(late)
        run.layer[f"snapshot.failures.{method}"] = sum(leg["failed"])
        if leg["dumps"]:
            run.layer[f"snapshot.dumps_ms.{method}"] = 1000.0 * statistics.median(leg["dumps"])
            run.layer[f"snapshot.loads_ms.{method}"] = 1000.0 * statistics.median(leg["loads"])
            run.layer[f"snapshot.bytes_max.{method}"] = max(leg["sizes"])
        failed_late = sum(leg["failed"][late_from:])
        run.report.append(
            f"live {method}: late p50 {run.layer[f'late_batch_ms_p50.{method}']:.2f} ms, "
            f"p{pct:.1f} {run.layer[f'late_batch_ms_tail.{method}']:.2f} ms over {len(late)} "
            f"micro-batches; {sum(leg['failed'])}/{n_batches} snapshots failed"
            + (" (with failed micro-batches entered as +inf, the late p50 is +inf)"
               if 2 * failed_late >= len(late) else "")
        )
        run.layer["codec.bits"] = max(run.layer["codec.bits"], len(leg["pipe"].codec))

    # Correctness and stream age, outside the timed legs.
    for method, leg in legs.items():
        if leg["kept"] is not None:
            aged = pickle.loads(leg["kept"])
        else:
            aged = QueryPipeline(queries, w=W, d=D, method=method)
            for fid, objs in frames[:start]:
                aged.feed(fid, objs)
        fresh_s = _lockstep(run, method, aged, frames, start, queries)
        aged_s = sum(leg["feed_s"][late_from:])
        run.layer[f"age_overhead.{method}"] = aged_s / fresh_s if fresh_s else 0.0

    if run.tracer is not None:
        untraced_feed = sum(sum(leg["feed_s"]) for leg in legs.values())
        for method in ("mfs", "ssg"):
            _live_leg(run, frames, queries, method, -1, traced=True)
        layer_self_times(run, untraced_feed)


def _stream_leg(run: Run, spark, chunks, queries, method: str, workdir: str):
    """Structured Streaming over a parquet file source, closed loop: one
    30-frame file per micro-batch, the next file written only after
    the previous micro-batch completed.  Returns (progress per
    completed micro-batch, rows, error or None)."""
    from pyspark.errors import StreamingQueryException

    from repro.spark.relation import VR_SCHEMA
    from repro.spark.streaming import evaluate_queries_stream

    indir = os.path.join(workdir, method, "in")
    os.makedirs(indir)
    stream = (
        spark.readStream.schema(VR_SCHEMA).option("maxFilesPerTrigger", 1).parquet(indir)
    )
    table = f"perfbench_{method}"
    query = (
        evaluate_queries_stream(stream, queries, w=W, d=D, method=method)
        .writeStream.format("memory").queryName(table).outputMode("append")
        .option("checkpointLocation", os.path.join(workdir, method, "checkpoint"))
        .start()
    )
    run.tracer.set_trace(f"{run.workload}/all/stream-{method}")
    error = None
    try:
        for k, chunk in enumerate(chunks):
            tmp = os.path.join(workdir, method, f"chunk-{k:04d}.parquet")
            chunk.to_parquet(tmp, index=False)
            os.replace(tmp, os.path.join(indir, os.path.basename(tmp)))
            with run.tracer.span("stream.batch"):
                query.processAllAvailable()
    except StreamingQueryException as exc:
        error = exc
    finally:
        query.stop()
    progress = sorted(
        (p for p in query.recentProgress if p["numInputRows"]), key=lambda p: p["batchId"]
    )
    rows = [tuple(r) for r in spark.sql(f"SELECT * FROM {table}").collect()]
    return progress, rows, error


def stream_legs(run: Run, spark, vrs, frames, queries) -> None:
    """The six cameras' first 300 frames through ``evaluate_queries_stream``,
    MFS and then SSG (a known-defect probe)."""
    workdir = os.path.join(run.out_dir, f"stream-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    vr = marked_vr(vrs, paper_lengths(), prefix=STREAM_FRAMES)
    chunks = [vr[(vr.fid >= i) & (vr.fid < i + CHUNK)] for i in range(0, STREAM_FRAMES, CHUNK)]
    results = {}
    try:
        for method in ("mfs", "ssg"):
            progress, rows, error = _stream_leg(run, spark, chunks, queries, method, workdir)
            done = len(progress)
            # Micro-batches of the MFS query are operations; the SSG query
            # is the known snapshot defect, counted as a probe.
            count = run.op if method == "mfs" else run.probe
            for k in range(len(chunks)):
                count(k < done)
            results[method] = (progress, rows)
            run.layer[f"stream.batches_done.{method}"] = done
            run.layer[f"stream.failed_batches.{method}"] = len(chunks) - done
            run.report.append(
                f"stream {method}: {done}/{len(chunks)} micro-batches completed"
                + (f"; aborted: {type(error).__name__}" if error else "")
                + (f"; stream_batch_ms_p50.{method} = +inf" if 2 * done <= len(chunks) else "")
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    progress, rows = results["mfs"]
    steady = [float(p["durationMs"]["triggerExecution"]) for p in progress[1:]]
    if steady:
        run.layer["stream_batch_ms_p50.mfs"] = statistics.median(steady)
        run.layer["stream.realtime_ratio"] = statistics.median(steady) / 1000.0
    run.layer["stream.state_bytes"] = max(
        (sum(op.get("memoryUsedBytes", 0) for op in p.get("stateOperators", [])) for p in progress),
        default=0,
    )
    want = []
    for name, fr in frames.items():
        pipe = QueryPipeline(queries, w=W, d=D, method="mfs")
        prefix = fr[:STREAM_FRAMES]
        want += python_rows(name.lower(), (m for fid, objs in prefix for m in pipe.feed(fid, objs)))
    run.check("streamed mfs rows == pure-Python rows on the 300-frame prefix",
              digest(rows) == digest(want), f"{len(rows)} streamed, {len(want)} pure Python")


WORKLOADS = {
    "paper-cameras": paper_cameras,
    "live-feed": live_feed,
}
