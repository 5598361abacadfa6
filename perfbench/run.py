"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload profile|serve|optimize \\
        --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``profile``  -- phase 1 + phase 2 as a user runs them: compile,
  profile into a v2 log, read it back, analyse and report;
* ``serve``    -- raw log ingest into ``repro serve`` beside open-loop
  ``/rankings`` and ``/timeline`` queries;
* ``optimize`` -- ``repro optimize`` with the CLI defaults.

Each run does a fixed amount of work, set by ``--seed`` and scaled by
``--seconds``; the nominal 30 s takes 30-40 s on a 2-core host. Every job's
output is checked, and failures count in ``failed``. With ``--trace 0``
the last line carries the end-to-end metrics; with ``--trace 1`` the
same plan runs with spans around each layer's entry points and the
last line carries the per-layer metrics instead, together with the
tracing overhead. Either way the last line holds exactly the metrics
``BENCHMARK.json`` lists, on every workload. Human-readable lines (run
metadata, the equal-work counters, every metric by name and unit, also
those only some workloads have) come first.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    WORK_DIR,
    host_spin_s,
    manifest_units,
    metric,
    run_metadata,
    source_present,
    use_source,
)

WORKLOADS = ("profile", "serve", "optimize")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=("profile", "optimize"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not source_present():
        print("error: no repro source tree (src/repro) next to the benchmark",
              file=sys.stderr)
        return 2
    use_source()
    # A terminated run still leaves through the ``finally`` blocks that
    # stop the serve daemon and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_child:
        from jobs import setup_child

        setup_child(args.setup_child)
        print("ready", flush=True)
        return 0

    spin = host_spin_s()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve":
            from serve_load import run_serve

            attempted, failed, metrics, layers, counters, tracer = run_serve(
                args.seed, args.seconds, bool(args.trace))
        else:
            from jobs import run_workload

            attempted, failed, metrics, layers, counters, tracer = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    meta = run_metadata(args.workload, args.seed, args.seconds, bool(args.trace), spin)
    print("metadata " + json.dumps(meta, sort_keys=True))
    print("counters " + json.dumps(counters, sort_keys=True))
    print(f"error_rate {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    end_to_end = manifest_units("end_to_end")
    for name, entry in metrics.items():
        extra = "".join(
            f" {key}={entry[key]}" for key in ("percentile", "samples") if key in entry)
        if name not in end_to_end:
            extra += " (printed only)"
        print(f"e2e   {name:24s} {entry['value']:.6g} {entry['unit']}{extra}")
    if layers is not None:
        layers["host.spin_s"] = metric(spin, "s")
        for name, unit in manifest_units("per_layer").items():
            if name not in layers:
                # The result carries every per-layer metric; one this
                # workload does not measure reads 0 (see DESIGN.md).
                layers[name] = dict(metric(0.0, unit), unmeasured=True)
        for name, entry in layers.items():
            note = " (not measured on this workload)" if entry.get("unmeasured") else ""
            print(f"layer {name:36s} {entry['value']:.6g} {entry['unit']}{note}")
        if tracer is not None:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(path)
            print(f"spans  {len(tracer.spans)} written to {path}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": manifest_result(
            "per_layer" if args.trace else "end_to_end",
            layers if args.trace else metrics),
    }
    print(json.dumps(result))
    return 0


def manifest_result(kind: str, measured: dict) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` lists under ``kind``, in
    their units; a missing one or a unit that differs is a bug."""
    wanted = manifest_units(kind)
    missing = sorted(name for name in wanted if name not in measured)
    wrong = sorted(name for name, unit in wanted.items()
                   if name in measured and measured[name]["unit"] != unit)
    if missing or wrong:
        raise RuntimeError(f"{kind} metrics missing {missing}, wrong unit {wrong}")
    return {name: metric(measured[name]["value"], unit) for name, unit in wanted.items()}


if __name__ == "__main__":
    sys.exit(main())
