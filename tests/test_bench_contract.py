"""The benchmark in bench/ still runs against the package, traced and untraced.

bench/run.py reaches the package through public names and patches the
functions listed in bench/tracing.py; a renamed function, a method moved off
its class, a changed result type or an exception raised on a workload input
makes it exit non-zero without measuring anything.  One cycle of every
workload here, plain and under the tracer, turns that into a test failure.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_cycle_passes_the_benchmark_check_traced_and_untraced(workload, tmp_path):
    api = run.load_package()
    driver = run.make_driver(api, workload, tmp_path)
    ops = workloads.Stream(workload, 1).next_cycle()
    prepared = driver.prepare(ops)
    plain, _, _ = driver.run(prepared)
    assert driver.check(ops, plain) == [None] * len(ops)

    tracer = tracing.Tracer(api)
    tracer.install()
    try:
        traced, _, _ = driver.run(prepared)
    finally:
        tracer.uninstall()
    assert driver.check(ops, traced) == [None] * len(ops)
    assert traced == plain
    if workload == "cli_batch":
        assert driver.crash_probe(run.warm_ops("cli_batch", 1)) == (0, [])
