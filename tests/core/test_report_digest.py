"""Bit-identity of the phase-2 outputs: pinned digests of the drag
report and the analysis totals on the profile-workload programs.

The digests were recorded before the one-pass analyzer replaced the
three ``_group_by`` passes and the per-access rescans, so any change in
report text, totals, or partition shape shows up here. Profiles come
from the session-wide ``all_profiles`` fixture (primary input, each
benchmark's own deep-GC interval).
"""

import hashlib

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.analyzer import DragAnalysis
from repro.core.profiler import profile_program
from repro.core.report import drag_report
from repro.stream.aggregate import StreamingDragAnalysis

#: name -> (plain report sha256[:16], nested report sha256[:16],
#: total drag, group counts of by_site / by_nested / by_site_and_use)
EXPECTED = {
    "db": ("69fa1ffda960e74c", "9829397d58893f7c", 9951667584, (28, 39, 34)),
    "jack": ("ecdb7d869094b14f", "b4a854138813d9ad", 38613747904, (34, 50, 48)),
    "raytrace": ("80b154f9b2d46872", "58e12d475ae12d6e", 16720134400, (42, 69, 43)),
    "mc": ("0170ec18f112f74e", "cacc38d30132f8e7", 2938644992, (25, 36, 25)),
    "euler": ("ef09ce40049084cc", "11f3d3f42f62d0a5", 7424905664, (23, 34, 23)),
    "juru": ("4b9e0f819f64a43e", "a6766f93911b2c1f", 61992269632, (32, 45, 37)),
    "cache": ("df615df21cbb5014", "1f268c1ff2f57e14", 6839922368, (24, 35, 34)),
    "strings": ("597353f4a6f7035b", "99b50caa694ad8ea", 19766245504, (27, 38, 35)),
}

#: db at --sample-bytes 256, seed 0: (records, plain report digest,
#: nested report digest, est total drag, est total bytes, est objects,
#: observed total drag, group counts).
SAMPLED_DB = (
    700,
    "b24c0187f37b0104",
    "70b1e8e029c11955",
    10267736563.6257,
    355865.91821128543,
    5147.868547015972,
    7983599296,
    (11, 17, 16),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def partition_sizes(analysis) -> tuple:
    return (
        len(analysis.by_site),
        len(analysis.by_nested),
        len(analysis.by_site_and_use),
    )


def reports(analysis, bench, program) -> tuple:
    kw = dict(interval_bytes=bench.interval_bytes, program=program)
    return (
        digest(drag_report(analysis, **kw)),
        digest(drag_report(analysis, nested=True, **kw)),
    )


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_and_totals_match_pinned_digests(all_profiles, name):
    plain, nested, total, groups = EXPECTED[name]
    profile = all_profiles[name]
    analysis = DragAnalysis(profile.records)
    assert reports(analysis, get_benchmark(name), profile.program) == (plain, nested)
    assert analysis.total_drag == total
    # Full rate: the estimate is the observed int, type and value.
    assert type(analysis.est_total_drag) is int
    assert analysis.est_total_drag == total
    assert partition_sizes(analysis) == groups


@pytest.fixture(scope="module")
def sampled_db():
    bench = get_benchmark("db")
    program = compile_benchmark(bench, revised=False)
    return profile_program(
        program,
        bench.args_for("primary"),
        interval_bytes=bench.interval_bytes,
        sample_bytes=256,
        seed=0,
    )


def test_sampled_report_and_estimates_match_pinned(sampled_db):
    count, plain, nested, est_drag, est_bytes, est_objects, total, groups = SAMPLED_DB
    analysis = DragAnalysis(sampled_db.records)
    assert analysis.sampled
    assert analysis.object_count == count
    assert reports(analysis, get_benchmark("db"), sampled_db.program) == (plain, nested)
    assert analysis.est_total_drag == est_drag
    assert analysis.est_total_bytes == est_bytes
    assert analysis.est_object_count == est_objects
    assert analysis.total_drag == total
    assert partition_sizes(analysis) == groups


def test_sampled_estimates_are_order_and_path_independent(sampled_db):
    records = sampled_db.records
    forward = DragAnalysis(records)
    backward = DragAnalysis(list(reversed(records)))
    stream = StreamingDragAnalysis().consume(records)
    for attr in ("est_total_drag", "est_total_bytes", "est_object_count"):
        value = getattr(forward, attr)
        assert getattr(backward, attr) == value, attr
        assert getattr(stream, attr) == value, attr
        assert type(getattr(stream, attr)) is type(value), attr
    assert forward.effective_sample_rate == stream.effective_sample_rate
    assert backward.effective_sample_rate == forward.effective_sample_rate
    for key, group in forward.by_site.items():
        assert backward.by_site[key].est_drag == group.est_drag, key
        assert stream.by_site[key].est_drag == group.est_drag, key
