"""The benchmark's own tests: equal work for equal seeds, a different
draw for a different seed, and the statistics the metrics rest on.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from common import (
    BENCH_DIR, INPUTS, ROOT, HostClock, interleave, manifest_units, metric, percentile,
    stratified_draw, tail_percentile, use_source,
)

use_source()

from jobs import compile_job, plan_jobs  # noqa: E402
from run import manifest_result  # noqa: E402
from serve_load import histogram_p50, plan_streams  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_counters(workload: str, seed: int) -> dict:
    """Run one short workload and return its printed work counters."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    (counters,) = [line for line in lines if line.startswith("counters ")]
    return json.loads(counters.split(" ", 1)[1])


@pytest.mark.parametrize("workload", ["profile", "serve", "optimize"])
def test_same_seed_gives_identical_counters(workload):
    first = run_counters(workload, seed=7)
    assert first == run_counters(workload, seed=7)
    assert first.get("records", 0) > 0


def test_different_seed_gives_different_draw():
    for workload in ("profile", "optimize"):
        assert plan_jobs(workload, 1, 30) == plan_jobs(workload, 1, 30)
        assert plan_jobs(workload, 1, 30) != plan_jobs(workload, 2, 30)
    assert plan_streams(1, 30) == plan_streams(1, 30)
    assert plan_streams(1, 30) != plan_streams(2, 30)


def test_stratified_draw_runs_each_entry_once_per_round():
    programs = ("a", "b", "c")
    menu = sorted((name, which) for name in programs for which in INPUTS)
    jobs = stratified_draw(5, programs, 13)
    assert len(jobs) == 13
    for start in (0, 6):
        assert sorted(jobs[start:start + 6]) == menu
    assert jobs[:6] != jobs[6:12]


def test_interleave_spreads_probes_evenly():
    plan = interleave(["x", "y", "z", "w"], "p", 8)
    assert [job for is_probe, job in plan if not is_probe] == ["x", "y", "z", "w"]
    assert sum(is_probe for is_probe, _ in plan) == 8
    assert [job for _, job in plan][:3] == ["p", "p", "x"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(40) == 75
    assert tail_percentile(25) == 60
    assert tail_percentile(10) == 50
    values = list(range(1, 41))
    tail = percentile(values, tail_percentile(len(values)))
    assert sum(v > tail for v in values) == 10
    assert percentile(values, 50) == 20


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            pass
    spans = {name: (start, end) for _, _, name, _, start, end in tracer.spans}
    self_times = tracer.self_times()
    outer = spans["outer"][1] - spans["outer"][0]
    inner = spans["inner"][1] - spans["inner"][0]
    assert self_times["b"] == pytest.approx(inner)
    assert self_times["a"] == pytest.approx(outer - inner)


def test_tracer_restores_entry_points():
    from repro.core import profiler
    from repro.transform import pipeline

    originals = (profiler.profile_program, pipeline.verify_revision)
    tracer = Tracer()
    with tracer.installed():
        assert profiler.profile_program is not originals[0]
        assert pipeline.verify_revision is not originals[1]
    assert (profiler.profile_program, pipeline.verify_revision) == originals


def test_tracer_not_recording_still_feeds_observers():
    tracer = Tracer(recording=False)
    seen = []
    tracer.observers["compile_program"] = seen.append
    with tracer.installed():
        program = compile_job(("strings", "primary"))
    assert seen == [program]
    assert tracer.spans == [] and not tracer.calls


def test_histogram_p50_interpolates_within_bucket():
    text = "\n".join([
        'm_bucket{le="0.1"} 0.0',
        'm_bucket{le="0.2"} 4.0',
        'm_bucket{le="+Inf"} 4.0',
    ])
    assert histogram_p50(text, "m") == pytest.approx(0.15)


def test_result_carries_exactly_the_manifest_metrics():
    units = manifest_units("end_to_end")
    measured = {name: metric(1.5, unit) for name, unit in units.items()}
    measured["drag_saved_pct"] = metric(29.0, "%")  # printed only
    assert list(manifest_result("end_to_end", measured)) == list(units)
    first = next(iter(units))
    with pytest.raises(RuntimeError, match="missing"):
        manifest_result("end_to_end", {k: v for k, v in measured.items() if k != first})
    with pytest.raises(RuntimeError, match="wrong unit"):
        manifest_result("end_to_end", dict(measured, **{first: metric(1.0, "furlong")}))


def test_host_clock_rescales_job_time_by_reference_speed():
    clock = HostClock()
    clock.add_job(0.05)
    clock.add_job(0.2)
    assert clock.loops >= 2 and clock.wall_s == pytest.approx(0.25)
    assert clock.calibrated_s == pytest.approx(clock.wall_s / clock.slowdown)
