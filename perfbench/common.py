"""Shared pieces of the benchmark: paths, the job menu and its seeded
draw, the expected-value oracle, statistics and run metadata.

Every timing the benchmark reports is a whole-run rate or a percentile
over repeated identical jobs (the *probe*), never a single job: on a
small shared host one job's time drifts with the host's speed by more
than any bound worth setting, while rates over a fixed amount of work
and medians over many identical jobs hold steady.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_FILE = BENCH_DIR / "expected.json"
MANIFEST = ROOT / "BENCHMARK.json"
WORK_DIR = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"

#: Deep-GC interval of ``repro profile`` / ``repro optimize`` with no
#: ``--interval`` flag; every job runs with the CLI defaults.
INTERVAL = 100 * 1024
INPUTS = ("primary", "alternate")

#: Work planned for a run of this many seconds; ``--seconds`` scales it.
NOMINAL_SECONDS = 30.0

Job = Tuple[str, str]  # (registry program, input)


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Import ``repro`` from this checkout, under the process default
    engine: an inherited ``REPRO_ENGINE`` would pick another one."""
    os.environ.pop("REPRO_ENGINE", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """The environment for child interpreters (after :func:`use_source`)."""
    return dict(os.environ, PYTHONPATH=str(SRC))


# -- the draw -----------------------------------------------------------------


def stratified_draw(seed: int, programs: Sequence[str], count: int) -> List[Job]:
    """``count`` jobs, drawn round by round: each round runs every menu
    entry (program x input) once, in a seeded order.

    A free draw with replacement over programs whose jobs differ in
    size by 20x leaves each run a different mix, and the mix alone
    moved whole-run rates by 18-26% between seeds. Whole rounds do the
    same work on every seed; the seed picks the order, so two seeds
    still give different draws.
    """
    rng = random.Random(seed)
    menu = [(name, which) for name in programs for which in INPUTS]
    jobs: List[Job] = []
    while len(jobs) < count:
        order = list(menu)
        rng.shuffle(order)
        jobs.extend(order)
    return jobs[:count]


def interleave(drawn: Sequence, probe, probes: int) -> List[Tuple[bool, object]]:
    """Spread ``probes`` copies of ``probe`` evenly among ``drawn``, so
    the percentiles taken over the probes sample the whole run.
    Returns ``(is_probe, job)`` pairs."""
    slots = max(1, len(drawn))
    plan: List[Tuple[bool, object]] = []
    for index in range(slots):
        share = (index + 1) * probes // slots - index * probes // slots
        plan.extend((True, probe) for _ in range(share))
        if index < len(drawn):
            plan.append((False, drawn[index]))
    return plan


def scaled(seconds: float, nominal: int, minimum: int = 1) -> int:
    return max(minimum, round(nominal * seconds / NOMINAL_SECONDS))


# -- the oracle ---------------------------------------------------------------


def stdout_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_FILE, "r", encoding="utf-8") as f:
        return json.load(f)["entries"]


def entry_key(job: Job) -> str:
    return f"{job[0]}/{job[1]}"


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (50 when there are too few samples for anything higher)."""
    if n < 20:
        return 50
    return max(50, math.floor(100.0 * (n - 10) / n))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def manifest_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics
    ``BENCHMARK.json`` lists, in its order."""
    with open(MANIFEST, "r", encoding="utf-8") as f:
        return {entry["name"]: entry["unit"] for entry in json.load(f)[kind]}


def timing_summary(name: str, values: Sequence[float]) -> Dict[str, dict]:
    """``<name>.p50`` and ``<name>.tail`` with the tail's percentile and
    the sample count printed beside them."""
    tail = tail_percentile(len(values))
    return {
        f"{name}.p50": {"value": percentile(values, 50), "unit": "s",
                        "samples": len(values)},
        f"{name}.tail": {"value": percentile(values, tail), "unit": "s",
                         "percentile": tail, "samples": len(values)},
    }


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


# -- host and run metadata ----------------------------------------------------


def host_spin_s() -> float:
    """A fixed pure-Python loop: explains a slow run, never used to
    normalise a metric."""
    started = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i & 7
    elapsed = time.perf_counter() - started
    if total != 5_250_000:
        raise RuntimeError("host spin loop miscomputed")
    return elapsed


#: The host-speed reference: a pure-Python loop of dict updates and
#: small tuple and list allocations, the kind of work the VM does, that
#: touches no repo code, so no change to the program can move it.
#: ``NOMINAL_REF_S`` is about its time on the fast state of the 2-core
#: host this was tuned on and only sets the scale of calibrated seconds.
REF_LOOP = 25_000
NOMINAL_REF_S = 0.004
#: Reference loops run after each job, as a share of the job's time,
#: and after each set-up, whose few tenths of a second would otherwise
#: give too few loops to estimate the host's speed.
REF_SHARE = 0.15
SETUP_REF_SHARE = 0.5
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 11


class HostClock:
    """Job time in calibrated seconds.

    The host this was tuned on runs the same work up to 1.5x slower for
    the whole length of a 30 s run, so a wall-clock rate over one
    single-process run spread by 0.17-0.31 of its median over ten runs.
    After each job the reference loop runs for about ``REF_SHARE`` of
    the job's time, and the run's job time is rescaled by the loop's
    mean speed: ``calibrated = wall * NOMINAL_REF_S / mean loop time``.
    Both sample the same minutes of the host, so most of its drift
    cancels: on the same runs the spread fell from 0.08-0.24 to
    0.05-0.15 for profile. A plain arithmetic loop tracked the jobs
    less well (0.14 on both sets).
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.loops = 0

    def add_job(self, elapsed: float, share: float = REF_SHARE) -> None:
        self.wall_s += elapsed
        for _ in range(max(1, round(share * elapsed / NOMINAL_REF_S))):
            started = time.perf_counter()
            sums: Dict[int, int] = {}
            items: List[Tuple[int, int]] = []
            for i in range(REF_LOOP):
                key = i & 255
                sums[key] = sums.get(key, 0) + i
                items.append((key, i))
                if len(items) > 64:
                    items = []
            self.ref_s += time.perf_counter() - started
            self.loops += 1
            if sum(sums.values()) != REF_LOOP * (REF_LOOP - 1) // 2:
                raise RuntimeError("reference loop miscomputed")

    @property
    def slowdown(self) -> float:
        """Mean reference-loop time over its nominal time."""
        return self.ref_s / self.loops / NOMINAL_REF_S

    @property
    def calibrated_s(self) -> float:
        return self.wall_s / self.slowdown


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata(workload: str, seed: int, seconds: float, trace: bool,
                 spin: float) -> dict:
    from repro.runtime.engine import default_engine

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host.spin_s": spin,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "default_engine": default_engine(),
        "commit": git_commit(),
    }


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_metrics(samples: Sequence[float], clock: HostClock) -> Dict[str, dict]:
    """``setup_s``, the median set-up in calibrated seconds (the
    reference loop runs after each set-up, as after each job: over ten
    runs the wall-clock median spread by 0.44 of itself), and the
    wall-clock median beside it."""
    return {"setup_s": metric(median(samples) / clock.slowdown, "s"),
            "wall_setup_s": metric(median(samples), "s")}


def time_child_setup(args: Sequence[str]) -> Dict[str, dict]:
    """:func:`setup_metrics` of spawning a fresh interpreter running
    ``run.py --setup-child ...`` until its ``ready`` line."""
    samples = []
    clock = HostClock()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "run.py"), *args],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code}): {line!r}")
        samples.append(ready - started)
        clock.add_job(ready - started, SETUP_REF_SHARE)
    return setup_metrics(samples, clock)
