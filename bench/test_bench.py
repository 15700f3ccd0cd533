"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They cover the benchmark's own code (generators, checker, tracer), not the
package, and stay out of the package's test suite.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import arith  # noqa: E402
import check  # noqa: E402
import describe  # noqa: E402
import drive  # noqa: E402
import idealaut  # noqa: E402
import idealaut.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def first_ops(workload, count, seed=3):
    return workloads.Stream(workload, seed).next_cycle()[:count]


def small_group_ops():
    # the cheapest aut, iso and char-p slots of a cycle
    ops = workloads.Stream("fp_groups", 3).next_cycle()
    picked = {}
    for op in sorted(ops, key=lambda op: op["n"] * op["p"].bit_length()):
        picked.setdefault((op["kind"], op["branch"]), op)
    return list(picked.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_regenerates_identical_inputs(name):
    a = workloads.Stream(name, 11)
    b = workloads.Stream(name, 11)
    for _ in range(2):
        assert json.dumps(a.next_cycle(), default=str) == json.dumps(b.next_cycle(), default=str)
    other = workloads.Stream(name, 12).next_cycle()
    assert json.dumps(other, default=str) != json.dumps(
        workloads.Stream(name, 11).next_cycle(), default=str)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_exact_repeats_within_a_run(name):
    stream = workloads.Stream(name, 5)
    ops = stream.next_cycle() + stream.next_cycle()
    keys = [workloads._key(op) for op in ops]
    assert len(keys) == len(set(keys))


def test_planted_torsion_order_matches_a_full_scan():
    for op in workloads.Stream("fp_groups", 2).next_cycle():
        if op["kind"] == "aut" and op["p"] == 97 and op["n"] <= 24:
            assert len(arith.brute_force_group(op["f"], op["p"])) == op["order"]


def test_checker_accepts_the_package_and_flags_corrupted_groups():
    driver = drive.LibraryDriver(idealaut)
    ops = small_group_ops()
    outputs = driver.run(driver.prepare(ops))[0]
    assert driver.check(ops, outputs) == [None] * len(ops)
    for op, out in zip(ops, outputs):
        if op["kind"] == "aut" and len(out[1]) > 1:
            dropped = ("finite", out[1][:-1])
            assert check.check_group(op["f"], op["p"], dropped, op["order"])
            alpha, beta = out[1][-1]
            moved = ("finite", out[1][:-1] + [(alpha, (beta + 1) % op["p"])])
            assert check.check_group(op["f"], op["p"], moved, op["order"])
        if op["kind"] == "iso" and out is not None:
            alpha, beta, lam = out
            assert check.check_witness(op["f"], op["g"], op["p"], (alpha, beta + 1, lam), True)
            assert check.check_witness(op["f"], op["g"], op["p"], None, True)


def test_checker_flags_a_corrupted_factorization():
    driver = drive.LibraryDriver(idealaut)
    ops = sorted(workloads.Stream("fp_factor", 3).next_cycle(), key=lambda op: op["n"])[:3]
    outputs = driver.run(driver.prepare(ops))[0]
    assert driver.check(ops, outputs) == [None] * len(ops)
    for op, out in zip(ops, outputs):
        assert check.check_factorization(op["f"], op["p"], out[1:], op["factors"])
        q, m = out[0]
        assert check.check_factorization(op["f"], op["p"], [(q, m + 1)] + out[1:],
                                         op["factors"])


def test_checker_flags_corrupted_cli_records(tmp_path):
    driver = drive.BatchDriver(idealaut, tmp_path)
    ops = first_ops("cli_batch", workloads.BATCH_LINES)
    outputs = driver.run(driver.prepare(ops))[0]
    assert driver.check(ops, outputs) == [None] * len(ops)
    corrupted = 0
    for op, text in zip(ops, outputs):
        record = json.loads(text)
        if "error" in op:
            record["error"]["code"] = "not_monic" if op["error"] != "not_monic" else "wrong_ring"
        elif record["result"].get("group", {}).get("elements", [])[1:]:
            record["result"]["group"]["elements"].pop()
            record["result"]["group"]["order"] -= 1
        elif "isomorphic" in record["result"]:
            record["result"]["isomorphic"] = not record["result"]["isomorphic"]
        else:
            continue
        corrupted += 1
        assert check.check_record(op, json.dumps(record))
    assert corrupted >= 3
    assert driver.check(ops, outputs[:-1] + [None])[-1] == "no record for this line"


def test_crash_probe_counts_the_lines_a_crash_costs(tmp_path):
    driver = drive.BatchDriver(idealaut, tmp_path)
    ops = first_ops("cli_batch", 4)
    lost, reasons = driver.crash_probe(ops)
    assert reasons == []
    # at this revision each shape ends its batch: the shape and two later lines
    assert lost in (0, 3 * len(workloads.CRASH_SHAPES))


def test_traced_and_untraced_runs_give_identical_outputs(tmp_path):
    ops = small_group_ops()
    driver = drive.LibraryDriver(idealaut)
    prepared = driver.prepare(ops)
    plain = driver.run(prepared)[0]
    tracer = tracing.Tracer(idealaut)
    originals = {name: getattr(idealaut, name) for name in ("compute_aut", "iso_test", "gcd")}
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            assert driver.run(prepared)[0] == plain
        finally:
            tracer.uninstall()
        counts.append({k: v for k, v in tracer.metrics().items()
                       if "self_ms" not in k and "ms_per_call" not in k})
    assert counts[0] == counts[1]
    assert counts[0]["autgroup.compute_aut.calls"] == sum(op["kind"] == "aut" for op in ops)
    assert counts[0]["ring.elem.calls"] > 0 and counts[0]["autgroup.identity_checks"] > 0
    for name, fn in originals.items():
        assert getattr(idealaut, name) is fn
    assert idealaut.cli.parse_poly is idealaut.parsing.parse_poly
    tracer.write(tmp_path / "spans.tsv")
    rows = (tmp_path / "spans.tsv").read_text().splitlines()
    assert rows[0].split("\t") == ["request", "span", "parent", "name", "start_ns", "end_ns"]
    assert len(rows) - 1 == len(tracer.span_start)


def test_cli_trace_wraps_every_module_namespace(tmp_path):
    driver = drive.BatchDriver(idealaut, tmp_path)
    ops = first_ops("cli_batch", workloads.BATCH_LINES)
    prepared = driver.prepare(ops)
    plain = driver.run(prepared)[0]
    tracer = tracing.Tracer(idealaut)
    tracer.install()
    try:
        assert driver.run(prepared)[0] == plain
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["cli.run.calls"] == sum(_reaches_run(op["line"]) for op in ops)
    assert metrics["parsing.parse_poly.calls"] > 0


def _reaches_run(line):
    # lines that are not JSON, or name a composite modulus, fail before cli.run
    try:
        ring = json.loads(line)["ring"]
    except ValueError:
        return False
    return not (ring.startswith("F") and int(ring[1:]) % 2 == 0)


def test_workload_description_is_current():
    assert (BENCH_DIR / "workloads.json").read_text(encoding="utf-8") == describe.render()
