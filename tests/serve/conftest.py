"""Shared names for the serve-daemon tests.

The merge-equals-batch property is claimed for *every* benchmark; the
profiles come from the session-wide ``all_profiles`` fixture in
``tests/conftest.py`` (the same cost the engine-equivalence suite
already pays), and the property test shards each record stream K ways
from there.
"""

from repro.benchmarks.registry import all_benchmarks

BENCHMARK_NAMES = sorted(all_benchmarks())
