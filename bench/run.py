"""idealaut benchmark.

    python3 bench/run.py --workload {fp_groups,fp_factor,cli_batch} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One process, one closed-loop caller, one thread.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 measures the end-to-end metrics:
  throughput_rps   operations that passed the check per busy second, the
                   median over the run's cycles
  latency_p50_ms   median latency of the completed operations
  latency_p90_ms   90th percentile of the same (a run completes at least 100)
  ops_ok_share     share of attempted operations that passed the check
  peak_rss_mb      peak resident memory of a fresh process running one cycle
  setup_s          median spawn-to-first-record time of a trivial CLI request
                   in a fresh interpreter

Throughput and latencies are stated at the reference host speed: each cycle's
figures are scaled by (mean reference-kernel time in that cycle) /
REFERENCE_S, where the kernel (drive.ReferenceKernel) is sampled between
operations.  This removes the drift of a shared host's speed, which moves
raw figures by up to 1.7x over minutes, and no change to the package moves
the kernel.  setup_s and the per-module times are raw.

--trace 1 alternates untraced and traced passes over the first cycle and
reports the per-module metrics of ``tracing.Tracer`` plus
``trace_overhead_share`` (1 - traced / untraced throughput).  Counts are
those of one traced pass, so they repeat exactly for a given seed.

A cycle is one pass over the workload's fixed slot schedule (see
``workloads.py``).  A run warms up on a separate stream, then measures
whole cycles until ``--seconds`` of busy time have passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import drive
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"
SETUP_SPAWNS = 25
MIN_COMPLETED = 100
REFERENCE_S = 200e-6  # nominal reference-kernel time; scales the reported speed
TRIVIAL_REQUEST = ["aut", "--ring", "F7", "t^2 + 1", "--format", "json"]
CHILD_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark cannot run here (no package source, a probe failed)."""


def load_package():
    """Import idealaut from this checkout's src directory, never from elsewhere."""
    if not (SRC / "idealaut" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import idealaut
    import idealaut.cli  # noqa: F401  (loads every module before tracing)

    if Path(idealaut.__file__).resolve().parent != (SRC / "idealaut").resolve():
        raise BenchmarkError(f"imported idealaut from {idealaut.__file__}, not {SRC}")
    return idealaut


def make_driver(api, workload, workdir):
    if workload == "cli_batch":
        return drive.BatchDriver(api, workdir)
    return drive.LibraryDriver(api)


def warm_ops(workload, seed):
    """A short warm-up: one op per distinct (command, ring) slot, one batch file for the CLI."""
    ops = workloads.Stream(workload, seed, "warm").next_cycle()
    if workload == "cli_batch":
        return ops[: workloads.BATCH_LINES]
    chosen = {}
    for op in ops:
        chosen.setdefault((op["kind"], op["p"]), op)
    return list(chosen.values())


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup():
    """Median spawn-to-first-record seconds of a trivial CLI request, fresh interpreter each."""
    times = []
    for attempt in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "idealaut", *TRIVIAL_REQUEST],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or not first.startswith("{"):
            raise BenchmarkError(f"trivial CLI request failed with exit code {code}")
        if attempt:  # the first spawn only fills the bytecode cache
            times.append(elapsed)
    return statistics.median(times)


def measure_peak_rss(workload, seed):
    """Peak RSS (MB) of a fresh process that runs the first cycle of the workload."""
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "rss_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if result.returncode != 0:
        raise BenchmarkError(f"memory probe failed: {result.stderr.strip()[-400:]}")
    return float(result.stdout.split()[-1])


def run_cycle(driver, ops):
    prepared = driver.prepare(ops)
    outputs, latencies, busy = driver.run(prepared)
    reasons = driver.check(ops, outputs)
    return outputs, latencies, busy, reasons


def report_failures(ops, reasons, limit=5):
    shown = 0
    for op, reason in zip(ops, reasons):
        if reason and shown < limit:
            label = op.get("label") or f"{op['kind']} p={op['p']} n={op['n']}"
            print(f"check failed [{label}]: {reason}", file=sys.stderr)
            shown += 1


def end_to_end(api, workload, seed, seconds, workdir):
    setup_s = measure_setup()
    peak_rss_mb = measure_peak_rss(workload, seed)
    driver = make_driver(api, workload, workdir)
    warm = warm_ops(workload, seed)
    _, _, _, warm_reasons = run_cycle(driver, warm)
    report_failures(warm, warm_reasons)
    driver.kernel.take()
    stream = workloads.Stream(workload, seed)
    attempted = passed = 0
    latencies, busy, rates = [], 0.0, []
    while busy < seconds or len(latencies) < MIN_COMPLETED:
        ops = stream.next_cycle()
        _, cycle_latencies, cycle_busy, reasons = run_cycle(driver, ops)
        report_failures(ops, reasons)
        slowdown = driver.kernel.take() / REFERENCE_S
        attempted += len(ops)
        passed += reasons.count(None)
        latencies += [latency / slowdown for latency in cycle_latencies]
        busy += cycle_busy
        rates.append(reasons.count(None) / cycle_busy * slowdown)
    probe_ok = True
    if workload == "cli_batch":
        _, probe_reasons = driver.crash_probe(warm)
        probe_ok = not probe_reasons
        for reason in probe_reasons:
            print(f"crash probe: {reason}", file=sys.stderr)
    metrics = {
        "throughput_rps": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "ops_ok_share": (passed / attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    correct = passed == attempted and warm_reasons.count(None) == len(warm) and probe_ok
    return correct, attempted, attempted - passed, metrics


def traced(api, workload, seed, seconds, workdir):
    driver = make_driver(api, workload, workdir)
    warm = warm_ops(workload, seed)
    _, _, _, warm_reasons = run_cycle(driver, warm)
    report_failures(warm, warm_reasons)
    driver.kernel.take()
    ops = workloads.Stream(workload, seed).next_cycle()
    prepared = driver.prepare(ops)
    tracer = tracing.Tracer(api)
    reference = None
    plain_busy, traced_busy, pass_metrics = [], [], []
    attempted = passed = 0
    consistent = True
    started = time.perf_counter()
    while not traced_busy or time.perf_counter() - started < seconds:
        for traced_pass in (False, True):
            tracer.reset()
            if traced_pass:
                tracer.install()
            try:
                outputs, _, busy = driver.run(prepared)
            finally:
                tracer.uninstall()
            busy /= driver.kernel.take() / REFERENCE_S
            reasons = driver.check(ops, outputs)
            report_failures(ops, reasons)
            attempted += len(ops)
            passed += reasons.count(None)
            if reference is None:
                reference = outputs
            consistent = consistent and outputs == reference
            if traced_pass:
                traced_busy.append(busy)
                pass_metrics.append(tracer.metrics())
            else:
                plain_busy.append(busy)
    trace_dir = WORK_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{workload}-seed{seed}.tsv")

    metrics = {}
    for name in pass_metrics[0]:
        values = [m[name] for m in pass_metrics]
        if name.endswith(".calls") or name == "autgroup.identity_checks":
            consistent = consistent and len(set(values)) == 1
            metrics[name] = (values[0], "count")
        elif name == "autgroup.useful_ratio":
            metrics[name] = (values[0], "ratio")
        else:
            metrics[name] = (statistics.median(values), "ms")
    if workload == "cli_batch":
        for name, value in record_counts(outputs).items():
            metrics[name] = (value, "count")
        lost, probe_reasons = driver.crash_probe(warm)
        consistent = consistent and not probe_reasons
        metrics["cli.lines_without_record"] = (lost, "count")
    else:
        for name in record_counts([]):
            metrics[name] = (0, "count")
        metrics["cli.lines_without_record"] = (0, "count")
    overhead = 1 - statistics.median(plain_busy) / statistics.median(traced_busy)
    metrics["trace_overhead_share"] = (overhead, "share")
    correct = consistent and passed == attempted and warm_reasons.count(None) == len(warm)
    return correct, attempted, attempted - passed, metrics


RECORD_STATUSES = ("ok", "error")
ERROR_CODES = ("syntax_error", "coefficient_not_in_ring", "not_monic", "constant_polynomial",
               "wrong_ring", "bounds_exceeded", "not_a_unit", "internal_assertion")


def record_counts(outputs):
    """cli.records.<status> and cli.error_records.<code> over one pass's records."""
    counts = {f"cli.records.{s}": 0 for s in RECORD_STATUSES}
    counts.update({f"cli.error_records.{c}": 0 for c in ERROR_CODES})
    for text in outputs:
        if text is None:
            continue
        record = json.loads(text)
        names = [f"cli.records.{record.get('status')}"]
        if record.get("status") == "error":
            names.append(f"cli.error_records.{record['error'].get('code')}")
        for name in names:
            if name in counts:  # only the declared statuses and codes are metrics
                counts[name] += 1
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        api = load_package()
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(
            api, args.workload, args.seed, args.seconds, workdir)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
