"""Write bench/workloads.json: what each workload contains and what it is for.

    python3 bench/describe.py

The measured properties (command, branch, degree and ring mixes, repeat and
error shares) are counted over the first three cycles of seed 1; every seed
has the same slot schedule, so only the drawn values differ.  The self-test
in test_bench.py fails when the file is stale.
"""

import json
from collections import Counter
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "workloads.json"
SAMPLE_SEED = 1
SAMPLE_CYCLES = 3

WHY = {
    "fp_groups": (
        "Substitution-bound: compute_aut and iso_test verify candidates with "
        "Poly.affine_substitute; large torsion groups exercise from_elements, iso over "
        "2^31-1 exercises nth_roots; no factor_fp, parsing, cli or Q work."),
    "fp_factor": (
        "The same poly module used differently: factor is bound by _pow_mod (divmod and "
        "mul), not substitution, so a kernel change that helps substitution but slows "
        "divmod shows here."),
    "cli_batch": (
        "The users' end-to-end path, text in and JSON out through `ideal-aut batch`; the "
        "only workload where parsing, cli, oracle and Q arithmetic do real work."),
}

METRIC_MAP = {
    "ring.elem.calls, ring.arith.calls": "throughput_rps on all three, most on fp_groups",
    "ring.nth_roots.calls, ring.nth_roots.self_ms": "latency_p90_ms on fp_groups",
    "poly.affine_substitute.calls, poly.affine_substitute.self_ms":
        "throughput_rps on fp_groups",
    "poly.mul.*, poly.divmod.*, poly.gcd.*": "throughput_rps on fp_factor",
    "poly.squarefree_decomposition.self_ms": "latency_p50_ms on cli_batch",
    "parsing.parse_poly.calls, parsing.parse_poly.self_ms": "latency_p50_ms on cli_batch",
    "autgroup.compute_aut.self_ms.<branch>, autgroup.compute_aut.ms_per_call.deg{16,32,64}, "
    "autgroup.identity_checks, autgroup.useful_ratio, autgroup.from_elements.self_ms, "
    "autgroup.iso_test.self_ms, autgroup.all_iso_witnesses.self_ms":
        "throughput_rps and latency_p90_ms on fp_groups; no change on fp_factor",
    "factor_fp.factor.calls, factor_fp.factor.self_ms": "throughput_rps on fp_factor",
    "factor_fp.root_permutation.self_ms": "throughput_rps on cli_batch",
    "oracle.enumerate_auts.self_ms, oracle.truncated_ideal_check.calls, "
    "oracle.truncated_ideal_check.self_ms, oracle.agrees_with.self_ms":
        "latency_p90_ms on cli_batch",
    "cli.run.self_ms": "throughput_rps on cli_batch",
    "cli.records.<status>, cli.error_records.<code>, cli.lines_without_record":
        "ops_ok_share on cli_batch (the crash probe, for cli.lines_without_record)",
}

NOTES = [
    "One process, one closed-loop caller, one thread; a cycle is one pass over the slot "
    "schedule, and a run measures whole cycles.",
    "The package has no queue, so there is no time-waited metric.",
    "ops_ok_share is the share of attempted operations that passed the check (one minus "
    "the failed share); a metric that reads 0 cannot carry a relative bound.",
    "Single-root `iso --all-witnesses` over 2^31-1 is left out of cli_batch: it "
    "enumerates p - 1 maps and does not finish.",
    "The two batch lines that crash `ideal-aut batch` at this revision (a line that is "
    "not a JSON object, and a wrongly typed option) run in a crash probe after the "
    "measured cycles, between valid lines; cli.lines_without_record counts the lines "
    "they cost.  Measured workloads contain only lines on which no operation fails.",
    "Throughput and latencies are stated at the reference host speed: each cycle is "
    "scaled by the mean time of a fixed pure-Python reference kernel sampled between "
    "operations, divided by 200 us.  The shared host's speed drifts by up to 1.7x over "
    "minutes; the scaling cut the ten-run spread of fp_factor throughput from 0.29-0.43 "
    "to a few percent.  setup_s, peak_rss_mb and the per-module times are raw.",
    "Each run warms up on a separate stream (one op per command and ring, or one batch "
    "file) before timing; setup_s and peak_rss_mb are taken in fresh processes.",
]


def _ring(op):
    p = op.get("p")
    if p:
        return f"F{p}"
    line = op.get("line", "")
    return "Z" if '"ring": "Z"' in line else "Q" if '"ring": "Q"' in line else "other"


def _share(counter, total):
    return {key: round(value / total, 4) for key, value in sorted(counter.items())}


def describe(name):
    stream = workloads.Stream(name, SAMPLE_SEED)
    ops = [op for _ in range(SAMPLE_CYCLES) for op in stream.next_cycle()]
    total = len(ops)
    keys = [workloads._key(op) for op in ops]
    commands = Counter(op.get("command") or op["kind"] for op in ops)
    branches = Counter(op["branch"] for op in ops if op.get("branch"))
    degrees = Counter(len(op["f"]) - 1 for op in ops if "f" in op)
    rings = Counter(_ring(op) for op in ops if "error" not in op)
    out = {
        "why": WHY[name],
        "ops_per_cycle": len(stream.schedule),
        "command_mix": _share(commands, total),
        "branch_mix": _share(branches, sum(branches.values())),
        "degree_histogram": dict(sorted(degrees.items())),
        "ring_histogram": dict(sorted(rings.items())),
        "exact_repeat_share": 1 - len(set(keys)) / total,
        "malformed_share": round(sum("error" in op for op in ops) / total, 4),
        "crash_line_share": 0.0,
    }
    if name == "cli_batch":
        out["batch_lines"] = workloads.BATCH_LINES
        out["slot_mix"] = _share(Counter(op["label"] for op in ops), total)
        out["error_codes"] = dict(sorted(Counter(op["error"] for op in ops
                                                 if "error" in op).items()))
        out["crash_probe_lines"] = len(workloads.CRASH_SHAPES)
    return out


def document():
    return {
        "sample": {"seed": SAMPLE_SEED, "cycles": SAMPLE_CYCLES},
        "workloads": {name: describe(name) for name in workloads.WORKLOADS},
        "metric_to_module": METRIC_MAP,
        "notes": NOTES,
    }


def render():
    return json.dumps(document(), indent=1) + "\n"


def main():
    OUT.write_text(render(), encoding="utf-8")


if __name__ == "__main__":
    main()
