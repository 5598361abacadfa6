"""Record the oracle the benchmark checks every job against.

For each registry program x input it profiles the program once with
the ``baseline`` engine named explicitly -- independent of the process
default the benchmark runs under -- with records buffered in memory
rather than streamed through the v2 codec, and stores the program's
stdout digest and its deterministic counters in ``expected.json``. For
the ``optimize`` menu it also runs ``repro optimize``'s pipeline (CLI
defaults, same engine) and stores the drag left after it: an optimize
job that leaves more fails::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json

from common import EXPECTED_FILE, INPUTS, INTERVAL, stdout_digest, use_source

ENGINE = "baseline"


def record() -> dict:
    from repro.benchmarks.registry import all_benchmarks
    from repro.core.analyzer import DragAnalysis
    from repro.core.profiler import profile_program
    from repro.mjava.compiler import compile_program
    from repro.runtime.library import link
    from repro.transform.pipeline import OptimizationPipeline

    from jobs import OPTIMIZE_PROGRAMS

    entries = {}
    for name, bench in all_benchmarks().items():
        program = compile_program(link(bench.original), main_class=bench.main_class)
        for which in INPUTS:
            result = profile_program(
                program, bench.args_for(which), interval_bytes=INTERVAL,
                engine=ENGINE,
            )
            run = result.run_result
            entries[f"{name}/{which}"] = {
                "stdout": stdout_digest(run.stdout),
                "instructions": run.instructions,
                "bytes_allocated": run.heap_stats.bytes_allocated,
                "records": result.profiler.record_count,
                "deep_gcs": run.heap_stats.deep_gc_runs,
                "total_drag": DragAnalysis(result.records).total_drag,
            }
            if name in OPTIMIZE_PROGRAMS:
                optimized = OptimizationPipeline(
                    link(bench.original), bench.main_class, bench.args_for(which),
                    interval_bytes=INTERVAL, max_cycles=1, verify=True,
                    engine=ENGINE,
                ).run()
                entries[f"{name}/{which}"]["optimized_drag_after"] = (
                    optimized.cycles[0].drag_after)
            print(f"{name}/{which}: {entries[f'{name}/{which}']}", flush=True)
    return {"engine": ENGINE, "interval": INTERVAL, "entries": entries}


if __name__ == "__main__":
    use_source()
    with open(EXPECTED_FILE, "w", encoding="utf-8") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")
