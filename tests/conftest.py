"""Shared test helpers: compile and run mini-Java snippets."""

import pytest

from repro.mjava.compiler import compile_program
from repro.runtime.engine import create_vm
from repro.runtime.library import link


def compile_app(source, main_class="Main", library_overrides=None):
    return compile_program(
        link(source, library_overrides=library_overrides), main_class=main_class
    )


def run_source(source, args=None, main_class="Main", max_heap=None, **interp_kwargs):
    """Compile + run; returns (ProgramResult, Interpreter).

    Goes through the engine facade, so REPRO_ENGINE=compiled runs the
    whole suite under the closure-compiled dispatcher.
    """
    program = compile_app(source, main_class)
    interp = create_vm(program, max_heap=max_heap, **interp_kwargs)
    result = interp.run(args or [])
    return result, interp


def run_main_body(body, args=None, helpers="", **kwargs):
    """Wrap statements in a main method and run them."""
    source = (
        "class Main { public static void main(String[] args) { "
        + body
        + " } "
        + helpers
        + " }"
    )
    return run_source(source, args, **kwargs)


@pytest.fixture
def run():
    return run_source


@pytest.fixture
def run_body():
    return run_main_body


@pytest.fixture(scope="session")
def all_profiles():
    """Every registry benchmark profiled once per session (primary
    input, its own deep-GC interval). Shared by the serve merge proofs
    and the phase-2 digest tests."""
    from repro.benchmarks.registry import all_benchmarks
    from repro.benchmarks.runner import compile_benchmark
    from repro.core.profiler import profile_program

    out = {}
    for name, bench in sorted(all_benchmarks().items()):
        program = compile_benchmark(bench, revised=False)
        out[name] = profile_program(
            program, bench.args_for("primary"), interval_bytes=bench.interval_bytes
        )
    return out
