"""End-to-end CLI behavior: output records, exit codes, batch mode."""

import json
import subprocess
import sys


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "idealaut", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


def run_json(*args, stdin=None):
    proc = run_cli(*args, "--format", "json", stdin=stdin)
    record = json.loads(proc.stdout) if proc.stdout else None
    return record, proc.returncode


def test_aut_text_output():
    proc = run_cli("aut", "--ring", "Q", "t^2-1")
    assert proc.returncode == 0
    assert "order 2, cyclic" in proc.stdout
    assert "(-1, 0)" in proc.stdout


def test_aut_json_schema():
    record, code = run_json("aut", "--ring", "F3", "t^3-t")
    assert code == 0
    assert record["schema"] == "ideal-aut/1"
    group = record["result"]["group"]
    assert group["kind"] == "finite"
    assert group["order"] == 6
    assert group["cyclic"] is False
    assert len(group["elements"]) == 6
    assert {"alpha": "2", "beta": "1"} in group["elements"]


def test_units_of_r_serialization():
    record, code = run_json("aut", "--ring", "Q", "(t-3)^4")
    assert code == 0
    assert record["result"]["group"] == {"kind": "units_of_R", "fixed_point": "3"}


def test_iso_witness_record():
    record, code = run_json("iso", "--ring", "Q", "t^2-1", "t^2-2*t")
    assert code == 0
    assert record["result"]["witness"] == {"alpha": "1", "beta": "-1", "lambda": "1"}


def test_iso_all_witnesses():
    record, code = run_json("iso", "--ring", "Q", "t^2-1", "t^2-2*t", "--all-witnesses")
    assert code == 0
    listed = record["result"]["all_witnesses"]
    assert listed["kind"] == "list"
    assert len(listed["witnesses"]) == 2
    record, code = run_json("iso", "--ring", "Q", "(t-3)^2", "(t-1)^2", "--all-witnesses")
    assert record["result"]["all_witnesses"]["kind"] == "units_of_R_family"


def single_root_listing(a, b, m, p):
    # every witness (u, a - u*b) with lambda = u^m over GF(p), alpha ascending
    return [
        {"alpha": str(u), "beta": str((a - u * b) % p), "lambda": str(pow(u, m, p))}
        for u in range(1, p)
    ]


def test_iso_all_witnesses_single_root_list_over_fp():
    record, code = run_json("iso", "--ring", "F13", "(t-3)^4", "(t-5)^4", "--all-witnesses")
    assert code == 0
    listed = record["result"]["all_witnesses"]
    assert listed == {"kind": "list", "witnesses": single_root_listing(3, 5, 4, 13)}
    assert listed["witnesses"][0] == record["result"]["witness"]
    proc = run_cli("iso", "--ring", "F13", "(t-3)^4", "(t-5)^4", "--all-witnesses")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[4:] == [
        f"witness: alpha = {w['alpha']}, beta = {w['beta']}, lambda = {w['lambda']}"
        for w in single_root_listing(3, 5, 4, 13)
    ]


def test_iso_all_witnesses_single_root_list_over_z():
    record, code = run_json("iso", "--ring", "Z", "(t-4)^3", "(t+7)^3", "--all-witnesses")
    assert code == 0
    assert record["result"]["all_witnesses"] == {
        "kind": "list",
        "witnesses": [
            {"alpha": "1", "beta": str(4 - (-7)), "lambda": "1"},
            {"alpha": "-1", "beta": str(4 + (-7)), "lambda": str((-1) ** 3)},
        ],
    }
    assert record["result"]["all_witnesses"]["witnesses"][0] == record["result"]["witness"]
    record, code = run_json("iso", "--ring", "Z", "(t-4)^2", "(t+7)^2", "--all-witnesses")
    assert [w["lambda"] for w in record["result"]["all_witnesses"]["witnesses"]] == ["1", "1"]


def test_batch_single_root_witness_lists_over_fp():
    pairs = [(3, 5, 4), (100, 17, 7)]
    lines = [
        json.dumps({"command": "iso", "ring": "F101",
                    "inputs": [f"(t-{a})^{m}", f"(t-{b})^{m}"],
                    "options": {"all_witnesses": True}})
        for a, b, m in pairs
    ]
    proc = run_cli("batch", "-", stdin="\n".join(lines) + "\n")
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 2
    for record, (a, b, m) in zip(records, pairs):
        listed = record["result"]["all_witnesses"]
        assert listed == {"kind": "list", "witnesses": single_root_listing(a, b, m, 101)}
        assert listed["witnesses"][0] == record["result"]["witness"]


def test_iso_all_witnesses_large_single_root_family_is_described():
    # 2^31 - 2 witnesses exceed the listing bound: the family is described
    args = ("iso", "--ring", "F2147483647", "(t-3)^4", "(t-5)^4", "--all-witnesses")
    record, code = run_json(*args)
    assert code == 0
    assert record["result"]["all_witnesses"] == {
        "kind": "units_of_R_family",
        "source_fixed_point": "3",
        "target_fixed_point": "5",
        "description": "(u, 3 - u*5) for every unit u",
    }
    assert record["result"]["witness"] == {"alpha": "1", "beta": str(2**31 - 3), "lambda": "1"}
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "witness family: (u, 3 - u*5) for every unit u"
    line = json.dumps({"command": "iso", "ring": "F2147483647",
                       "inputs": ["(t-3)^4", "(t-5)^4"], "options": {"all_witnesses": True}})
    proc = run_cli("batch", "-", stdin=line + "\n")
    assert proc.returncode == 0
    records = [json.loads(text) for text in proc.stdout.splitlines()]
    assert len(records) == 1
    assert records[0]["result"]["all_witnesses"]["kind"] == "units_of_R_family"


def test_single_root_listing_bound_is_two_to_the_sixteen():
    record, code = run_json("iso", "--ring", "F65537", "(t-1)^2", "t^2", "--all-witnesses")
    assert code == 0
    assert len(record["result"]["all_witnesses"]["witnesses"]) == 2**16
    record, code = run_json("iso", "--ring", "F65539", "(t-1)^2", "t^2", "--all-witnesses")
    assert code == 0
    assert record["result"]["all_witnesses"]["kind"] == "units_of_R_family"


def test_factors_over_fp_and_q():
    record, code = run_json("factors", "--ring", "F3", "t^3-t")
    assert code == 0
    payload = record["result"]["factorization"]
    assert payload["kind"] == "irreducible"
    assert [item["poly"] for item in payload["factors"]] == ["t", "t + 1", "t + 2"]
    record, code = run_json("factors", "--ring", "Q", "(t-1)^2*(t+2)")
    assert code == 0
    payload = record["result"]["factorization"]
    assert payload["kind"] == "squarefree_layers"
    assert payload["factors"] == [
        {"poly": "t + 2", "multiplicity": 1},
        {"poly": "t - 1", "multiplicity": 2},
    ]


def test_verify_with_permutation_table():
    record, code = run_json("verify", "--ring", "F7", "t^3-3*t^2+2*t", "(-1,2)")
    assert code == 0
    assert record["result"]["holds"] is True
    assert record["result"]["lambda"] == "6"
    entries = record["result"]["permutation"]["entries"]
    assert {"root": "0", "multiplicity": 1, "image": "2"} in entries


def test_oracle_compare_agrees():
    record, code = run_json("oracle-compare", "--ring", "F5", "(t-2)^4")
    assert code == 0
    assert record["result"]["agree"] is True
    assert record["result"]["oracle"]["order"] == 4
    assert record["result"]["oracle"]["truncation_checked"] is True


def test_oracle_compare_bounds_above_defaults():
    record, code = run_json("oracle-compare", "--ring", "F103", "--max-p", "200", "t^3+t+1")
    assert code == 0
    assert record["result"]["agree"] is True
    assert record["result"]["oracle"]["truncation_checked"] is True
    record, code = run_json("oracle-compare", "--ring", "F5", "--max-deg", "40", "t^33+t+1")
    assert code == 0
    assert record["result"]["agree"] is True


def test_exit_code_2_on_syntax_error():
    record, code = run_json("aut", "--ring", "Q", "t +")
    assert code == 2
    assert record["status"] == "error"
    assert record["error"]["code"] == "syntax_error"
    assert record["error"]["position"] == 3


def test_exit_code_2_on_coefficient_error():
    record, code = run_json("aut", "--ring", "Z", "t/2")
    assert code == 2
    assert record["error"]["code"] == "coefficient_not_in_ring"


def test_exit_code_3_on_precondition():
    record, code = run_json("aut", "--ring", "Z", "2*t^2-1")
    assert code == 3
    assert record["error"]["code"] == "not_monic"
    record, code = run_json("aut", "--ring", "Q", "5")
    assert code == 3
    assert record["error"]["code"] == "constant_polynomial"
    record, code = run_json("oracle-compare", "--ring", "Q", "t^2-1")
    assert code == 3
    assert record["error"]["code"] == "wrong_ring"


def test_total_degree_budget_exit_code_3():
    record, code = run_json("aut", "--ring", "F7", "t^4096*t^4096*t^4096")
    assert code == 3
    assert record["error"]["code"] == "bounds_exceeded"


def test_batch_degree_budget_costs_one_record():
    valid = json.dumps({"command": "aut", "ring": "Q", "inputs": ["t^2-1"]})
    huge = json.dumps({"command": "aut", "ring": "F7", "inputs": ["t^4096*t^4096*t^4096"]})
    proc = run_cli("batch", "-", stdin="\n".join([valid, huge, valid]) + "\n")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["status"] for r in records] == ["ok", "error", "ok"]
    assert records[1]["error"]["code"] == "bounds_exceeded"
    assert proc.returncode == 3


def test_bad_ring_selector():
    record, code = run_json("aut", "--ring", "F9", "t^2-1")
    assert code == 2
    assert record["error"]["code"] == "syntax_error"


def test_stdin_polynomial():
    proc = run_cli("aut", "--ring", "Q", "-", stdin="t^2-1\n")
    assert proc.returncode == 0
    assert "order 2" in proc.stdout


def test_batch_mode_order_and_codes():
    lines = "\n".join(
        [
            json.dumps({"command": "aut", "ring": "F3", "inputs": ["t^3-t"]}),
            json.dumps({"command": "iso", "ring": "Q", "inputs": ["t^2-1", "t^2-2*t"]}),
            json.dumps({"command": "aut", "ring": "Q", "inputs": ["t +"]}),
            json.dumps({"command": "factors", "ring": "F5", "inputs": ["(t-2)^3"]}),
        ]
    )
    proc = run_cli("batch", "-", stdin=lines + "\n")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 4
    assert records[0]["result"]["group"]["order"] == 6
    assert records[1]["result"]["witness"]["beta"] == "-1"
    assert records[2]["status"] == "error"
    assert records[3]["result"]["factorization"]["factors"] == [
        {"poly": "t + 3", "multiplicity": 3}
    ]
    assert proc.returncode == 2  # first failing line wins


def test_batch_malformed_line_costs_one_record():
    valid = json.dumps({"command": "aut", "ring": "Q", "inputs": ["t^2-1"]})
    bad_shapes = [
        "[1, 2]",
        json.dumps({"command": "oracle-compare", "ring": "F7", "inputs": ["t^3 - t"],
                    "options": {"max_p": "big"}}),
        json.dumps({"command": "aut", "ring": 7, "inputs": ["t"]}),
        json.dumps({"command": "aut", "ring": "Q", "inputs": "t^2-1"}),
        json.dumps({"command": "aut", "ring": "Q", "inputs": ["t^2-1"], "options": [1]}),
        json.dumps({"command": "iso", "ring": "Q", "inputs": ["t", "t"],
                    "options": {"all_witnesses": 1}}),
        "[" * 5000,
    ]
    lines = [valid]
    for shape in bad_shapes:
        lines += [shape, valid]
    proc = run_cli("batch", "-", stdin="\n".join(lines) + "\n")
    assert "Traceback" not in proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == len(lines)
    for i, record in enumerate(records):
        if i % 2:
            assert record["status"] == "error"
            assert record["error"]["code"] == "syntax_error"
        else:
            assert record["status"] == "ok"
            assert record["result"]["group"]["order"] == 2
    assert proc.returncode == 2


def test_json_echo_reparses_to_identical_record():
    record, code = run_json("aut", "--ring", "Q", "(t-1)^2*(t+2)")
    assert code == 0
    echoed = record["input"]["polynomials"][0]
    assert echoed == "t^3 - 3*t + 2"
    again, code = run_json("aut", "--ring", "Q", echoed)
    assert code == 0
    assert again == record


def test_seed_determinism():
    first, _ = run_json("factors", "--ring", "F13", "t^6+t^3+1", "--seed", "5")
    second, _ = run_json("factors", "--ring", "F13", "t^6+t^3+1", "--seed", "5")
    assert first == second


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "ideal-aut" in proc.stdout
