"""The in-process workloads, ``profile`` and ``optimize``.

A ``profile`` job is the public-API equivalent of::

    repro profile FILE --main M --sink stream --log L.dlog2 ARGS
    repro report L.dlog2

and an ``optimize`` job of ``repro optimize FILE --main M ARGS`` with the
CLI defaults (one cycle, verification on). Both run under the process
default engine. Each run is whole rounds of the menu, every entry
(program x input) once per round in a seeded order, and reports a
whole-run rate over the jobs' calibrated time (``common.HostClock``).
Neither workload reports ``job_s`` percentiles: the host this was
tuned on switches between two speeds, and the median of one run's jobs
swung by 0.3 of itself from run to run (see DESIGN.md).
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List

from common import (
    INPUTS,
    INTERVAL,
    WORK_DIR,
    HostClock,
    Job,
    entry_key,
    load_expected,
    median,
    metric,
    peak_rss_mb_self,
    scaled,
    stdout_digest,
    stratified_draw,
    time_child_setup,
)
from tracing import Tracer

#: Registry programs covering record-heavy (raytrace, juru, db),
#: dispatch-heavy (jack, mc, euler) and small jobs. javac, jess and
#: analyzer (2.2-3.8 s per job) exercise the same layers as jack and
#: euler and are left out to keep a whole round within the run.
PROFILE_PROGRAMS = (
    "db", "jack", "raytrace", "mc", "euler", "juru", "cache", "strings",
)
#: The small programs, where lint, planning and compiles are a visible
#: share of a job (jack, javac and raytrace take 6-20 s per job).
OPTIMIZE_PROGRAMS = ("cache", "strings", "db")

#: (menu programs, rounds per nominal run) per workload: about 25 s of
#: jobs each on the host this was tuned on.
WORKLOADS = {
    "profile": (PROFILE_PROGRAMS, 1),
    "optimize": (OPTIMIZE_PROGRAMS, 3),
}
#: Run once, untimed, before the plan: lazy imports, first-call set-up.
WARM_UP: Job = ("strings", "primary")

#: Counters that must match the oracle in ``expected.json``.
ORACLE_FIELDS = ("stdout", "instructions", "bytes_allocated", "records",
                 "deep_gcs", "total_drag")


def plan_jobs(workload: str, seed: int, seconds: float) -> List[Job]:
    programs, rounds = WORKLOADS[workload]
    per_round = len(programs) * len(INPUTS)
    return stratified_draw(seed, programs, scaled(seconds, rounds * per_round))


def _benchmark(job: Job):
    from repro.benchmarks.registry import get_benchmark

    return get_benchmark(job[0])


def compile_job(job: Job):
    from repro.mjava import compiler
    from repro.runtime import library

    bench = _benchmark(job)
    return compiler.compile_program(
        library.link(bench.original), main_class=bench.main_class
    )


def setup_child(workload: str) -> None:
    """What a fresh process does before its first job: import the
    layers the workload's jobs use, and link and compile every menu
    program."""
    if workload == "profile":
        import repro.core.report  # noqa: F401
        import repro.stream  # noqa: F401
    else:
        import repro.mjava.pretty  # noqa: F401
        import repro.transform.pipeline  # noqa: F401
    for name in WORKLOADS[workload][0]:
        compile_job((name, "primary"))


# -- jobs ---------------------------------------------------------------------


def profiled_run(result) -> Dict[str, object]:
    """The oracle's counters of one ``profile_program`` result."""
    run = result.run_result
    return {
        "stdout": stdout_digest(run.stdout),
        "instructions": run.instructions,
        "bytes_allocated": run.heap_stats.bytes_allocated,
        "records": result.profiler.record_count,
        "deep_gcs": run.heap_stats.deep_gc_runs,
    }


def profile_job(job: Job, log_path: str) -> Dict[str, object]:
    from repro.core import analyzer, logfile, profiler, report
    from repro.stream import LogWriterSink, open_log_writer

    bench = _benchmark(job)
    program = compile_job(job)
    metadata = {"main": bench.main_class, "interval": INTERVAL}
    sink = LogWriterSink(open_log_writer(log_path, fmt="auto", metadata=metadata))
    result = profiler.profile_program(
        program, bench.args_for(job[1]), interval_bytes=INTERVAL, sink=sink
    )
    sink.close()
    loaded = logfile.read_log(log_path)
    analysis = analyzer.DragAnalysis(loaded.records)
    text = report.drag_report(
        analysis, top=10,
        interval_bytes=loaded.metadata.get("interval", INTERVAL),
    )
    problems = []
    if len(loaded.records) != result.profiler.record_count:
        problems.append(
            f"log holds {len(loaded.records)} records, profiler logged "
            f"{result.profiler.record_count}"
        )
    if not text:
        problems.append("empty drag report")
    out = profiled_run(result)
    out.update({
        "total_drag": analysis.total_drag,
        "vm_instructions": out["instructions"],
        "gc_cycles": result.run_result.heap_stats.gc_runs,
        "log_bytes": os.path.getsize(log_path),
        "problems": problems,
    })
    return out


def optimize_job(job: Job, profiled: List[Dict[str, object]]) -> Dict[str, object]:
    """``profiled`` receives :func:`profiled_run` of every
    ``profile_program`` call (see :func:`run_workload`): the pipeline
    lints, then profiles the original program (the reference run), then
    re-profiles once per verified patch."""
    from repro.mjava.pretty import pretty_print
    from repro.runtime import library
    from repro.transform import pipeline

    bench = _benchmark(job)
    first = len(profiled)
    result = pipeline.OptimizationPipeline(
        library.link(bench.original), bench.main_class, bench.args_for(job[1]),
        interval_bytes=INTERVAL, max_cycles=1, verify=True,
    ).run()
    runs = profiled[first:]
    if not runs:
        raise RuntimeError("no profile_program call observed")
    text = pretty_print(result.revised)
    cycle = result.cycles[0]
    problems = []
    reference = runs[0]
    if stdout_digest(cycle.reference.stdout) != reference["stdout"]:
        problems.append("accepted run's stdout differs from the reference run's")
    unverified = [
        o for o in cycle.applied()
        if o.verification is None or not o.verification.ok
    ]
    if unverified:
        problems.append(f"{len(unverified)} applied patch(es) not verified")
    if cycle.rolled_back() or cycle.failed():
        problems.append(
            f"{len(cycle.rolled_back())} rolled back, {len(cycle.failed())} failed"
        )
    if not cycle.applied_count:
        problems.append("no patch applied")
    if cycle.drag_after is None or not cycle.drag_after < cycle.drag_before:
        problems.append(f"drag {cycle.drag_before} -> {cycle.drag_after}")
    if not text:
        problems.append("empty revised source")
    out = dict(reference)  # checked against the oracle
    out.update({
        "total_drag": cycle.drag_before,
        "drag_after": cycle.drag_after,
        "vm_instructions": sum(r["instructions"] for r in runs),
        "vm_records": sum(r["records"] for r in runs),
        "patches_planned": len(cycle.outcomes),
        "patches_applied": cycle.applied_count,
        "rolled_back": len(cycle.rolled_back()),
        "problems": problems,
    })
    return out


def check(job: Job, out: Dict[str, object], expected: Dict[str, dict]) -> List[str]:
    want = expected[entry_key(job)]
    problems = list(out["problems"])
    for field in ORACLE_FIELDS:
        if out[field] != want[field]:
            problems.append(f"{field} {out[field]!r} != expected {want[field]!r}")
    # The optimizer's result quality: a change that saves less drag
    # than the oracle's run fails the job, so it shows in ok_rate.
    if "drag_after" in out and out["drag_after"] > want["optimized_drag_after"]:
        problems.append(
            f"drag_after {out['drag_after']} > expected "
            f"{want['optimized_drag_after']}")
    return problems


# -- layer toggles (traced runs) ----------------------------------------------


def layer_toggles(job: Job) -> Dict[str, float]:
    """The job's program run again unprofiled, then profiled without a
    sink. Against the job's own profiled run with the v2 sink
    (``sink_s``, added by the caller), these split its VM time between
    ``runtime``, the ``core`` hooks and ``stream`` encoding."""
    from repro.core import profiler
    from repro.runtime import engine

    bench = _benchmark(job)
    program = compile_job(job)
    args = bench.args_for(job[1])
    started = time.perf_counter()
    run = engine.run_program(program, args)
    unprofiled = time.perf_counter() - started
    started = time.perf_counter()
    profiler.profile_program(program, args, interval_bytes=INTERVAL)
    profiled = time.perf_counter() - started
    return {"instructions": run.instructions, "unprofiled_s": unprofiled,
            "profiled_s": profiled}


# -- the run ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run ``workload``; returns (attempted, failed, end-to-end metrics,
    per-layer metrics, counters, tracer)."""
    expected = load_expected()
    plan = plan_jobs(workload, seed, seconds)
    setup = time_child_setup(["--setup-child", workload])
    # One set of wrappers serves both the spans of traced jobs and the
    # optimize job's view of its profiled runs; it records spans only
    # while a traced job runs.
    tracer = Tracer(recording=False)
    profiled: List[Dict[str, object]] = []
    if workload == "profile":
        do_job = functools.partial(profile_job, log_path=str(WORK_DIR / "job.dlog2"))
        job_layer = "job"
    else:
        do_job = functools.partial(optimize_job, profiled=profiled)
        job_layer = "transform"
        tracer.observers["profile_program"] = lambda result: profiled.append(
            profiled_run(result))

        def count_findings(result) -> None:
            if tracer.recording:
                tracer.counts["lint.findings"] += len(result.diagnostics)

        tracer.observers["lint_program"] = count_findings

    counters: Dict[str, int] = defaultdict(int)
    traced_times: List[float] = []
    untraced_times: List[float] = []
    toggles: List[Dict[str, float]] = []
    clock = HostClock()
    saved_pcts: Dict[str, List[float]] = defaultdict(list)  # by program
    attempted = failed = 0

    def one(job: Job, traced: bool):
        started = time.perf_counter()
        tracer.recording = traced
        try:
            with tracer.span(f"job:{job[0]}", job_layer):
                out = do_job(job)
            problems = check(job, out, expected)
        except Exception as exc:  # a failed job is counted, not fatal
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            tracer.recording = False
        return time.perf_counter() - started, out, problems

    with tracer.installed() if trace or tracer.observers else nullcontext():
        do_job(WARM_UP)
        for index, job in enumerate(plan):
            # In a traced run, every other job also runs untraced, for
            # the tracing overhead (the first of two runs of a job is
            # the slower, so the two take turns going first), and its
            # layer toggles follow.
            sampled = trace and index % 2 == 0
            if sampled and index % 4 == 0:
                untraced_times.append(one(job, traced=False)[0])
            first_span = len(tracer.spans)
            elapsed, out, problems = one(job, traced=trace)
            if sampled:
                traced_times.append(elapsed)
                if index % 4 == 2:
                    untraced_times.append(one(job, traced=False)[0])
                toggle = layer_toggles(job)
                toggle["sink_s"] = tracer.total("profile_program", first_span)
                toggles.append(toggle)
            attempted += 1
            clock.add_job(elapsed)
            if problems:
                failed += 1
                print(f"[perfbench] {entry_key(job)} FAILED: {'; '.join(problems)}")
                continue
            counters["jobs"] += 1
            for field in ("instructions", "vm_instructions", "records",
                          "vm_records", "bytes_allocated",
                          "deep_gcs", "total_drag", "gc_cycles", "log_bytes",
                          "patches_planned", "patches_applied", "rolled_back"):
                if field in out:
                    counters[field] += out[field]
            if workload == "optimize":
                counters["drag_after"] += out["drag_after"]
                saved_pcts[job[0]].append(
                    100.0 * (out["total_drag"] - out["drag_after"]) / out["total_drag"])

    metrics = dict(setup)
    # Records of the programs profiled (for optimize, of each job's
    # reference run, so fewer verification runs count as a gain).
    metrics["records_per_s"] = metric(counters["records"] / clock.calibrated_s, "1/s")
    metrics["instr_per_s"] = metric(
        counters["vm_instructions"] / clock.calibrated_s, "1/s")
    metrics["wall_records_per_s"] = metric(counters["records"] / clock.wall_s, "1/s")
    metrics["host_slowdown"] = metric(clock.slowdown, "x")
    if workload == "optimize":
        # Each menu program weighs the same, so a weaker result on any
        # one of them shows.
        per_program = [sum(v) / len(v) for v in saved_pcts.values()]
        metrics["drag_saved_pct"] = metric(
            sum(per_program) / len(per_program) if per_program else 0.0, "%")
    metrics["peak_rss_mb"] = metric(peak_rss_mb_self(), "MB")
    metrics["ok_rate"] = metric(1.0 - failed / attempted, "ratio")

    layers = None
    if trace:
        layers = layer_metrics(workload, tracer, counters, toggles,
                               traced_times, untraced_times)
    return attempted, failed, metrics, layers, dict(counters), tracer if trace else None


def layer_metrics(workload, tracer: Tracer, counters, toggles, traced_times,
                  untraced_times) -> Dict[str, dict]:
    m = metric
    unprofiled = sum(t["unprofiled_s"] for t in toggles)
    profiled = sum(t["profiled_s"] for t in toggles)
    jobs = max(1, counters["jobs"])
    layers = {
        "runtime.instr_per_s": m(
            sum(t["instructions"] for t in toggles) / unprofiled, "1/s"),
        "runtime.instructions": m(counters["vm_instructions"], "count"),
        "core.profile_s": m(tracer.total("profile_program"), "s"),
        "core.hook_overhead": m(profiled / unprofiled, "x"),
        "core.hook_overhead_base_s": m(unprofiled, "s"),
        "mjava.compile_s": m(tracer.total("compile_program"), "s"),
        "mjava.compiles": m(tracer.calls["compile_program"], "count"),
    }
    if workload == "profile":
        layers.update({
            "runtime.bytes_allocated": m(counters["bytes_allocated"], "count"),
            "runtime.gc_cycles": m(counters["gc_cycles"], "count"),
            "core.analyze_s": m(tracer.total("DragAnalysis"), "s"),
            "core.report_s": m(tracer.total("drag_report"), "s"),
            "core.records": m(counters["records"], "count"),
            "core.deep_gcs": m(counters["deep_gcs"], "count"),
            "stream.encode_s": m(sum(t["sink_s"] for t in toggles) - profiled, "s"),
            "stream.decode_s": m(tracer.total("read_log"), "s"),
            "stream.log_bytes_per_record": m(
                counters["log_bytes"] / counters["records"], "count"),
        })
    else:
        planned = counters["patches_planned"]
        layers.update({
            "core.profile_calls": m(tracer.calls["profile_program"] / jobs, "count"),
            "lint.lint_s": m(tracer.total("lint_program"), "s"),
            "lint.findings": m(tracer.counts["lint.findings"], "count"),
            "transform.verify_s": m(tracer.total("verify_revision"), "s"),
            "transform.verify_runs": m(tracer.calls["verify_revision"], "count"),
            "transform.patches_planned": m(planned, "count"),
            "transform.patches_applied": m(counters["patches_applied"], "count"),
            "transform.rolled_back": m(counters["rolled_back"], "count"),
            "transform.applied_ratio": m(
                counters["patches_applied"] / planned if planned else 0.0, "ratio"),
        })
    for layer, seconds in sorted(tracer.self_times().items()):
        layers[f"{layer}.self_s"] = m(seconds, "s")
    # The same jobs, run traced and untraced back to back. The jobs
    # differ in size, so the overhead is the median of the pairs'
    # ratios, which a host slowdown between two jobs does not skew.
    layers["trace.job_s.p50"] = m(median(traced_times), "s")
    layers["trace.untraced_job_s.p50"] = m(median(untraced_times), "s")
    layers["trace.overhead"] = m(
        median([t / u for t, u in zip(traced_times, untraced_times)]), "x")
    return layers
