"""The ``serve`` workload: log ingest beside live queries against a
``repro serve`` daemon.

The daemon runs as its own process tree with ``nproc - 1`` shard
workers, so the event loop, the shards and this one generator process
fit the cores. The generator replays v2 logs in raw mode over one
closed-loop ingest connection, streams back to back, and on a second
connection issues ``/rankings`` and ``/timeline`` queries open-loop at
a fixed rate below capacity, each timed from when it was due.

The logs are produced from a seeded draw of the menu before set-up is
timed: they are generator input, not daemon set-up.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from common import (
    INPUTS,
    INTERVAL,
    ROOT,
    SETUP_REF_SHARE,
    SETUP_REPEATS,
    WORK_DIR,
    HostClock,
    Job,
    child_env,
    entry_key,
    interleave,
    load_expected,
    median,
    metric,
    scaled,
    setup_metrics,
    stratified_draw,
    timing_summary,
)
from tracing import Tracer

#: The drawn streams; juru, the largest, comes in as the probe. Every
#: log is profiled before set-up, so a bigger menu costs run time only.
SERVE_PROGRAMS = ("db", "cache", "strings")
#: A stream's FIN ack waits for the shard pipe, which can hold ~2.5k
#: records of the previous stream's backlog; with db's 5.8k-record
#: stream that made stream times bimodal (0.07 s or 0.25 s), with
#: juru's 16.6k records it varies by about a tenth.
PROBE: Job = ("juru", "alternate")
PROBE_STREAMS = 36
#: Open-loop query rate, per second, below the daemon's capacity: each
#: query merges the shard state, and late in a run that took up to
#: 0.7 s; at 5/s the backlog grew without bound. The trace run's
#: ``serve.generator_lag_s`` shows whether any query was sent late.
#: The ingest (~600k records) outlasts the 25 s of queries even on a
#: fast host: when the last queries met an idle daemon on fast runs
#: only, ingest sped up further there, and ``records_per_s`` spread
#: wider than the host's own drift.
QUERY_RATE = 1.0
QUERIES = 25
QUERY_PATHS = ("/rankings?top=10", "/timeline?top=5")


def make_logs(jobs: List[Job]) -> Dict[Job, Tuple[str, int]]:
    """Profile each distinct job once into a v2 log; returns
    job -> (path, records)."""
    from repro.benchmarks.registry import get_benchmark
    from repro.core.profiler import profile_program
    from repro.mjava.compiler import compile_program
    from repro.runtime.library import link
    from repro.stream import LogWriterSink, open_log_writer

    logs = {}
    for job in sorted(set(jobs)):
        bench = get_benchmark(job[0])
        program = compile_program(link(bench.original), main_class=bench.main_class)
        path = str(WORK_DIR / f"{job[0]}-{job[1]}.dlog2")
        sink = LogWriterSink(open_log_writer(
            path, fmt="v2", metadata={"main": bench.main_class, "interval": INTERVAL}))
        result = profile_program(
            program, bench.args_for(job[1]), interval_bytes=INTERVAL, sink=sink)
        sink.close()
        logs[job] = (path, result.profiler.record_count)
    return logs


def plan_streams(seed: int, seconds: float) -> List[Tuple[bool, Job]]:
    drawn = stratified_draw(seed, SERVE_PROGRAMS,
                            scaled(seconds, len(SERVE_PROGRAMS) * len(INPUTS)))
    return interleave(drawn, PROBE, scaled(seconds, PROBE_STREAMS, minimum=2))


# -- the daemon ---------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process tree, started in its own session."""

    def __init__(self, workers: int, log_path: str) -> None:
        self.log_path = log_path
        started = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--http-port", "0", "--workers", str(workers)],
                stdout=subprocess.DEVNULL, stderr=log, env=child_env(),
                cwd=ROOT, start_new_session=True,
            )
        try:
            self.ingest, self.http = self._wait_for_ports()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _wait_for_ports(self, timeout: float = 60.0):
        pattern = re.compile(r"ingest on ([\d.]+):(\d+), http on ([\d.]+):(\d+)")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                found = pattern.search(f.read())
            if found:
                return ((found.group(1), int(found.group(2))),
                        (found.group(3), int(found.group(4))))
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            time.sleep(0.005)
        raise RuntimeError("daemon did not report its ports")

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        from repro.serve import fetch_json

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if fetch_json(self.http, "/healthz", timeout=5).get("ok"):
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never became healthy")

    def tree_peak_rss_mb(self) -> float:
        """Sum of the peak resident sizes of every process in the
        daemon's session: the loop and its shard workers."""
        total_kb = 0
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
                if int(fields[3]) != self.proc.pid:  # session id
                    continue
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except (OSError, IndexError, ValueError):
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


# -- the generator ------------------------------------------------------------


class QueryLoad(threading.Thread):
    """Open-loop queries: query ``i`` is due at ``start + i / rate``,
    whether or not earlier ones have returned."""

    def __init__(self, http, start: float, count: int) -> None:
        super().__init__(name="perfbench-queries")
        self.http = http
        self.start_at = start
        self.count = count
        self.latencies: List[float] = []
        self.lags: List[float] = []
        self.failures: List[str] = []

    def run(self) -> None:
        from repro.serve import fetch_json

        for index in range(self.count):
            due = self.start_at + index / QUERY_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            path = QUERY_PATHS[index % len(QUERY_PATHS)]
            try:
                body = fetch_json(self.http, path, timeout=60)
                if "sites" not in body and "bins" not in body:
                    raise ValueError(f"unexpected body keys {sorted(body)[:5]}")
            except (OSError, ValueError) as exc:
                self.failures.append(f"{path}: {exc}")
                continue
            done = time.perf_counter()
            self.lags.append(sent - due)
            self.latencies.append(done - due)


def setup_daemons(workers: int) -> Tuple[Daemon, Dict[str, dict]]:
    """Spawn the daemon ``SETUP_REPEATS`` times, timing spawn -> healthy
    (:func:`setup_metrics`; the reference loop runs while the daemon
    idles); keeps the last one running."""
    samples = []
    clock = HostClock()
    daemon = None
    for index in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(workers, str(WORK_DIR / f"daemon-{index}.log"))
        samples.append(daemon.ready_s)
        clock.add_job(daemon.ready_s, SETUP_REF_SHARE)
    return daemon, setup_metrics(samples, clock)


def run_serve(seed: int, seconds: float, trace: bool):
    """Run the workload; returns (attempted, failed, end-to-end metrics,
    per-layer metrics, counters, tracer)."""
    from repro.core.analyzer import DragAnalysis
    from repro.core.logfile import read_log
    from repro.errors import ReproError
    from repro.serve import fetch_metrics_text, fetch_rankings, replay_log
    from repro.serve.merge import rankings_payload

    expected = load_expected()
    plan = plan_streams(seed, seconds)
    logs = make_logs([job for _, job in plan])
    failed = 0
    for job, (_, records) in logs.items():
        if records != expected[entry_key(job)]["records"]:
            failed += 1
            print(f"[perfbench] {entry_key(job)}: generator log has {records} records")
    tracer = Tracer() if trace else None
    workers = max(1, (os.cpu_count() or 2) - 1)
    daemon, setup = setup_daemons(workers)
    try:
        probe_times: List[float] = []
        untraced_probe_times: List[float] = []
        # Whether a stream overlaps a query's merge tends to alternate
        # (one query a second, streams of about half that), so every
        # other probe would pick one phase: a seeded half is drawn.
        probes = [index for index, (is_probe, _) in enumerate(plan) if is_probe]
        untraced = set(random.Random(seed).sample(probes, len(probes) // 2))
        sent = 0
        started = time.perf_counter()
        queries = QueryLoad(daemon.http, started, scaled(seconds, QUERIES))
        queries.start()
        try:
            for index, (is_probe, job) in enumerate(plan):
                path, records = logs[job]
                # Traced runs leave half the probe streams untraced: the
                # difference is the tracing overhead.
                traced = tracer is not None and index not in untraced
                stream_started = time.perf_counter()
                try:
                    with tracer.span("stream", "generator") if traced else nullcontext():
                        ack = replay_log(
                            path, *daemon.ingest, mode="raw",
                            metadata={"stream": index, "job": entry_key(job)})
                    ok = ack.get("ok") and ack.get("records") == records
                except (OSError, ReproError) as exc:
                    ack, ok = {"error": str(exc)}, False
                elapsed = time.perf_counter() - stream_started
                if not ok:
                    failed += 1
                    print(f"[perfbench] stream {index} ({entry_key(job)}) FAILED: {ack}")
                    continue
                sent += records
                if is_probe:
                    (probe_times if traced or tracer is None
                     else untraced_probe_times).append(elapsed)
            summary = wait_for_summary(daemon.http, sent)
            ingest_s = time.perf_counter() - started
        finally:
            queries.join(timeout=180)
        failed += len(queries.failures)
        for failure in queries.failures:
            print(f"[perfbench] query FAILED: {failure}")

        # merge == batch: the daemon's full rankings must equal a batch
        # analysis of the very records replayed.
        loaded = {job: read_log(path).records for job, (path, _) in logs.items()}
        batch = DragAnalysis(record for _, job in plan for record in loaded[job])
        want = json.loads(json.dumps(rankings_payload(batch, top=None)))
        got = fetch_rankings(daemon.http, top=None)
        if summary["objects"] != sent:
            failed += 1
            print(f"[perfbench] /summary objects {summary['objects']} != {sent} sent")
        if got != want:
            failed += 1
            print("[perfbench] /rankings?top=all != batch rankings_payload")
        metrics_text = fetch_metrics_text(daemon.http)
        peak_rss = daemon.tree_peak_rss_mb()
    finally:
        daemon.stop()

    # Generator logs, streams, queries, and the two end-of-run checks.
    attempted = len(logs) + len(plan) + queries.count + 2
    metrics = dict(setup)
    # Stream times are bimodal: a stream that overlaps a query's merge
    # waits for the shard, and about half of them do. Their median
    # falls between the two modes and swung by 0.25 of itself from run
    # to run; the tail lies in the upper mode and holds.
    metrics["job_s.tail"] = timing_summary("job_s", probe_times)["job_s.tail"]
    # Wall-clock, unlike profile's and optimize's: a reference loop in
    # the generator during the ingest would compete with the daemon's
    # busy processes, and one run just before and after the ingest
    # over-corrected (the ingest slows about half as much as the loop
    # with the host), spreading ten runs by 0.21 against 0.14 wall-clock.
    metrics["records_per_s"] = metric(sent / ingest_s, "1/s")
    metrics.update(timing_summary("query_s", queries.latencies))
    metrics["peak_rss_mb"] = metric(peak_rss, "MB")
    metrics["ok_rate"] = metric(1.0 - failed / attempted, "ratio")
    counters = {
        "streams": len(plan),
        "records": sent,
        "log_bytes": sum(os.path.getsize(logs[job][0]) for _, job in plan),
        "queries": queries.count,
    }
    layers = None
    if tracer is not None:
        layers = serve_layers(tracer, logs, summary, metrics_text, queries)
        layers["trace.job_s.p50"] = metric(median(probe_times), "s")
        layers["trace.untraced_job_s.p50"] = metric(median(untraced_probe_times), "s")
        layers["trace.overhead"] = metric(
            median(probe_times) / median(untraced_probe_times), "x")
    return attempted, failed, metrics, layers, counters, tracer


def wait_for_summary(http, records: int, timeout: float = 60.0) -> dict:
    """Poll ``/summary`` until it shows every record sent."""
    from repro.serve import fetch_json

    deadline = time.monotonic() + timeout
    while True:
        summary = fetch_json(http, "/summary", timeout=60)
        if summary["objects"] >= records or time.monotonic() > deadline:
            return summary
        time.sleep(0.01)


# -- per-layer timings --------------------------------------------------------


def histogram_p50(text: str, name: str) -> Optional[float]:
    """Median of a Prometheus histogram, interpolated within its
    bucket (``histogram_quantile`` style)."""
    buckets = []
    for line in text.splitlines():
        found = re.match(rf'{name}_bucket\{{le="([^"]+)"\}} (\S+)', line)
        if found:
            buckets.append((float(found.group(1)), float(found.group(2))))
    if not buckets or buckets[-1][1] == 0:
        return None
    target = buckets[-1][1] / 2.0
    lower, below = 0.0, 0.0
    for bound, count in buckets:
        if count >= target:
            if bound == float("inf"):
                return lower
            return lower + (bound - lower) * (target - below) / (count - below)
        lower, below = bound, count
    return lower


def serve_layers(tracer: Tracer, logs, summary, metrics_text, queries):
    """In-process spans around the layers the daemon runs, over this
    run's own logs, plus what the daemon itself reports."""
    from repro.obs.timeline import DEFAULT_BIN_BYTES, TimelineBuilder
    from repro.serve import InlineShard, merge_snapshots
    from repro.stream.codec import FRAME_RECORD, FrameParser, _decode_record

    m = metric
    records = 0
    shards = []
    timeline = TimelineBuilder(bin_bytes=DEFAULT_BIN_BYTES)
    for job, (path, _) in sorted(logs.items()):
        with open(path, "rb") as f:
            data = f.read()
        parser = FrameParser(source=path)
        frames = []
        with tracer.span("FrameParser.feed_frames", "stream"):
            for offset in range(0, len(data), 1 << 16):
                frames.extend(parser.feed_frames(data[offset:offset + (1 << 16)]))
        payloads = [p for kind, p in frames if kind == FRAME_RECORD]
        records += len(payloads)
        shard = InlineShard(len(shards))
        shard.feed_strings(1, parser.strings)
        with tracer.span("InlineShard.feed_records", "stream"):
            shard.feed_records(1, payloads)
        shards.append(shard)
        decoded = [_decode_record(p, parser.strings) for p in payloads]
        with tracer.span("TimelineBuilder.consume", "obs"):
            timeline.consume(decoded)
    with tracer.span("TimelineBuilder.payload", "obs"):
        timeline.payload(top=5, include_samples=False)
    with tracer.span("merge_snapshots", "serve"):
        merge_snapshots(shard.snapshot()[0] for shard in shards)

    daemon_merge = histogram_p50(metrics_text, "repro_serve_merge_seconds")
    layers = {
        "stream.frame_parse_records_per_s": m(
            records / tracer.total("FrameParser.feed_frames"), "1/s"),
        "stream.fold_records_per_s": m(
            records / tracer.total("InlineShard.feed_records"), "1/s"),
        "obs.timeline_fold_records_per_s": m(
            records / tracer.total("TimelineBuilder.consume"), "1/s"),
        "obs.timeline_payload_s": m(tracer.total("TimelineBuilder.payload"), "s"),
        "serve.merge_s.p50": m(daemon_merge or 0.0, "s"),
        "serve.merge_inproc_s": m(tracer.total("merge_snapshots"), "s"),
        "serve.state_sites": m(summary["sites"], "count"),
        "serve.records": m(summary["objects"], "count"),
        "serve.frames": m(sum(s["frames"] for s in summary["streams"]), "count"),
        "serve.generator_lag_s": m(max(queries.lags, default=0.0), "s"),
    }
    for layer, seconds in sorted(tracer.self_times().items()):
        layers[f"{layer}.self_s"] = m(seconds, "s")
    return layers
