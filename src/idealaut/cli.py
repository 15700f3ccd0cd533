"""Command-line interface.

Subcommands: aut, iso, factors, verify, oracle-compare, batch.  Every
command takes --ring {Z|Q|F<p>} and --format {text|json}; "-" as a
polynomial argument reads stdin.  JSON records carry a top-level
``"schema": "ideal-aut/1"`` key, echo the canonicalized inputs, and use
canonical element text for alpha/beta/lambda values.  Batch mode reads
one JSON request per line ({"command", "ring", "inputs", "options"}) and
writes one JSON record per line, in input order.

Exit codes: 0 success, 1 standard output closed before everything was
written, 2 syntax error, 3 precondition violation, 4 internal assertion (a
structure-theory cross-check failed; never expected to fire).
"""

import argparse
import json
import os
import sys

from . import __version__
from .autgroup import (
    UnitsGroup,
    all_iso_witnesses,
    compute_aut,
    iso_test,
    verify_aut,
    witness_family,
)
from .errors import IdealAutError, ParseError, TheoryViolation, WrongRing
from .factor_fp import DEFAULT_SEED, factor, root_permutation
from .oracle import MAX_DEGREE, MAX_MODULUS, agrees_with, enumerate_auts
from .parsing import parse_affine_map, parse_poly, parse_ring
from .poly import squarefree_decomposition

SCHEMA = "ideal-aut/1"

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

# single-root witness families larger than this are described, not listed
MAX_LISTED_WITNESSES = 2**16


def _serialize_map(m) -> dict:
    return {"alpha": str(m.alpha), "beta": str(m.beta)}


def _serialize_group(group) -> dict:
    if isinstance(group, UnitsGroup):
        return {"kind": "units_of_R", "fixed_point": str(group.fixed_point)}
    return {
        "kind": "finite",
        "order": group.order,
        "cyclic": group.cyclic,
        "generator": _serialize_map(group.generator) if group.generator else None,
        "elements": [_serialize_map(m) for m in group.elements],
    }


def _serialize_witness(w) -> dict:
    record = _serialize_map(w.map)
    record["lambda"] = str(w.lam)
    return record


def _serialize_permutation(perm) -> dict:
    return {
        "entries": [
            {"root": str(root), "multiplicity": mult, "image": str(image)}
            for root, mult, image in perm.entries
        ],
        "factor_entries": [
            {"factor": str(src), "multiplicity": mult, "image": str(image)}
            for src, mult, image in perm.factor_entries
        ],
    }


def _run_aut(ring, inputs, options) -> dict:
    f = parse_poly(inputs[0], ring)
    return {
        "input": {"polynomials": [str(f)]},
        "result": {"group": _serialize_group(compute_aut(f))},
    }


def _run_iso(ring, inputs, options) -> dict:
    f = parse_poly(inputs[0], ring)
    g = parse_poly(inputs[1], ring)
    witness = listed = None
    if not options.get("all_witnesses", False):
        witness = iso_test(f, g)
    elif (family := witness_family(f, g)) is not None:
        witness = family.witness_for(1, f.degree())
        listed = _serialize_family(family, f.degree())
    elif everything := all_iso_witnesses(f, g):
        witness = everything[0]
        listed = {"kind": "list", "witnesses": [_serialize_witness(w) for w in everything]}
    result = {
        "isomorphic": witness is not None,
        "witness": _serialize_witness(witness) if witness else None,
    }
    if listed is not None:
        result["all_witnesses"] = listed
    return {"input": {"polynomials": [str(f), str(g)]}, "result": result}


def _serialize_family(family, degree) -> dict:
    size = family.size
    if size is not None and size <= MAX_LISTED_WITNESSES:
        # straight from the raw residues: no per-witness objects
        return {
            "kind": "list",
            "witnesses": [
                {"alpha": str(alpha), "beta": str(beta), "lambda": str(lam)}
                for alpha, beta, lam in family.raw_witnesses(degree)
            ],
        }
    return {
        "kind": "units_of_R_family",
        "source_fixed_point": str(family.source_fixed_point),
        "target_fixed_point": str(family.target_fixed_point),
        "description": "(u, {} - u*{}) for every unit u".format(
            family.source_fixed_point, family.target_fixed_point
        ),
    }


def _run_factors(ring, inputs, options) -> dict:
    f = parse_poly(inputs[0], ring)
    if ring.kind == "F":
        factorization = factor(f, seed=options.get("seed", DEFAULT_SEED))
        payload = {
            "kind": "irreducible",
            "factors": [
                {"poly": str(q), "multiplicity": e} for q, e in factorization.factors
            ],
        }
    else:
        decomposition = squarefree_decomposition(f)
        payload = {
            "kind": "squarefree_layers",
            "factors": [
                {"poly": str(layer), "multiplicity": m}
                for layer, m in decomposition.layers
            ],
        }
    return {"input": {"polynomials": [str(f)]}, "result": {"factorization": payload}}


def _run_verify(ring, inputs, options) -> dict:
    f = parse_poly(inputs[0], ring)
    m = parse_affine_map(inputs[1], ring)
    holds = verify_aut(f, m)
    result = {"map": _serialize_map(m), "holds": holds}
    if holds:
        result["lambda"] = str(m.alpha ** f.degree())
        if ring.kind == "F":
            perm = root_permutation(f, m, seed=options.get("seed", DEFAULT_SEED))
            result["permutation"] = _serialize_permutation(perm)
    return {"input": {"polynomials": [str(f)]}, "result": result}


def _run_oracle_compare(ring, inputs, options) -> dict:
    if ring.kind != "F":
        raise WrongRing("oracle-compare requires a prime field ring (F<p>)")
    f = parse_poly(inputs[0], ring)
    report = enumerate_auts(
        f,
        max_p=options.get("max_p", MAX_MODULUS),
        max_deg=options.get("max_deg", MAX_DEGREE),
        check_truncation=True,
    )
    group = compute_aut(f)
    agree = agrees_with(report, group)
    if not agree:
        raise TheoryViolation(
            f"computed group disagrees with the exhaustive oracle for {f}"
        )
    return {
        "input": {"polynomials": [str(f)]},
        "result": {
            "agree": agree,
            "group": _serialize_group(group),
            "oracle": {
                "order": report.order,
                "cyclic": report.cyclic,
                "truncation_checked": report.truncation_checked,
            },
        },
    }


_HANDLERS = {
    "aut": (_run_aut, 1),
    "iso": (_run_iso, 2),
    "factors": (_run_factors, 1),
    "verify": (_run_verify, 2),
    "oracle-compare": (_run_oracle_compare, 1),
}


def run(command: str, ring, inputs, options=None) -> tuple[dict, int]:
    """Execute one request: a command, a ring, input texts and options.

    Returns (record, exit code).
    """
    base = {"schema": SCHEMA, "command": command, "ring": str(ring)}
    entry = _HANDLERS.get(command)
    if entry is None:
        base.update(
            {"status": "error", "error": {"code": "syntax_error", "message": "unknown command"}}
        )
        return base, EXIT_SYNTAX
    handler, arity = entry
    try:
        if len(inputs) != arity:
            raise ParseError(f"command {command!r} takes {arity} input(s), got {len(inputs)}")
        payload = handler(ring, inputs, options or {})
    except IdealAutError as exc:
        code = EXIT_INTERNAL if isinstance(exc, TheoryViolation) else (
            EXIT_SYNTAX if isinstance(exc, ParseError) else EXIT_PRECONDITION
        )
        error = {"code": exc.code, "message": str(exc)}
        position = getattr(exc, "position", None)
        if position is not None:
            error["position"] = position
        base.update({"status": "error", "error": error})
        return base, code
    base.update(payload)
    base["status"] = "ok"
    return base, EXIT_OK


def _format_text(record: dict) -> str:
    if record["status"] == "error":
        err = record["error"]
        return f"error [{err['code']}]: {err['message']}"
    lines = [f"command: {record['command']} over {record['ring']}"]
    for text in record.get("input", {}).get("polynomials", []):
        lines.append(f"input: {text}")
    result = record.get("result", {})
    if "group" in result:
        lines += _format_group(result["group"])
    if "isomorphic" in result:
        if result["witness"]:
            w = result["witness"]
            lines.append(
                f"isomorphic: alpha = {w['alpha']}, beta = {w['beta']}, lambda = {w['lambda']}"
            )
        else:
            lines.append("not isomorphic")
        all_w = result.get("all_witnesses")
        if all_w:
            if all_w["kind"] == "list":
                for w in all_w["witnesses"]:
                    lines.append(
                        f"witness: alpha = {w['alpha']}, beta = {w['beta']}, lambda = {w['lambda']}"
                    )
            else:
                lines.append(f"witness family: {all_w['description']}")
    if "factorization" in result:
        payload = result["factorization"]
        lines.append(f"factorization ({payload['kind']}):")
        for item in payload["factors"]:
            lines.append(f"  ({item['poly']})^{item['multiplicity']}")
    if "holds" in result:
        lines.append("automorphism: yes" if result["holds"] else "automorphism: no")
        if result.get("lambda"):
            lines.append(f"lambda: {result['lambda']}")
        if result.get("permutation"):
            for entry in result["permutation"]["entries"]:
                lines.append(
                    f"  root {entry['root']} (x{entry['multiplicity']}) -> {entry['image']}"
                )
            for entry in result["permutation"]["factor_entries"]:
                lines.append(
                    f"  factor {entry['factor']} (x{entry['multiplicity']}) -> {entry['image']}"
                )
    if "agree" in result:
        lines.append(f"oracle agreement: {'yes' if result['agree'] else 'NO'}")
        lines.append(
            f"oracle: order {result['oracle']['order']}, "
            f"{'cyclic' if result['oracle']['cyclic'] else 'non-cyclic'}"
        )
    return "\n".join(lines)


def _format_group(group: dict) -> list[str]:
    if group["kind"] == "units_of_R":
        return [f"group: R^x acting around fixed point {group['fixed_point']}"]
    lines = [
        f"group: order {group['order']}, {'cyclic' if group['cyclic'] else 'non-cyclic'}"
    ]
    if group["generator"]:
        g = group["generator"]
        lines.append(f"generator: ({g['alpha']}, {g['beta']})")
    lines.append(
        "elements: " + ", ".join(f"({m['alpha']}, {m['beta']})" for m in group["elements"])
    )
    return lines


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(record), file=out)
    else:
        print(_format_text(record), file=out)


def _read_inputs(raw_inputs) -> list[str]:
    if any(text == "-" for text in raw_inputs):
        piped = sys.stdin.read().strip()
        return [piped if text == "-" else text for text in raw_inputs]
    return list(raw_inputs)


# JSON types of the batch options the handlers read
_OPTION_TYPES = {"seed": int, "max_p": int, "max_deg": int, "all_witnesses": bool}


def _batch_request(line: str) -> tuple:
    """One batch line as run's arguments; ParseError when the line is malformed."""
    try:
        entry = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise ParseError(f"not a JSON value: {exc}") from exc
    if not isinstance(entry, dict):
        raise ParseError("a request must be a JSON object")
    command = entry.get("command", "")
    ring = entry.get("ring")
    inputs = entry.get("inputs", [])
    options = entry.get("options", {})
    if not isinstance(command, str):
        raise ParseError("'command' must be a string")
    if not isinstance(ring, str):
        raise ParseError("'ring' must be a string")
    if not isinstance(inputs, list) or not all(isinstance(text, str) for text in inputs):
        raise ParseError("'inputs' must be a list of strings")
    if not isinstance(options, dict):
        raise ParseError("'options' must be an object")
    for key, value in options.items():
        expected = _OPTION_TYPES.get(key)
        if expected is not None and type(value) is not expected:
            raise ParseError(f"option {key!r} must be of type {expected.__name__}")
    return command, parse_ring(ring), inputs, options


def _run_batch(path: str, out) -> int:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    worst = EXIT_OK
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            request = _batch_request(line)
        except ParseError as exc:
            record = {
                "schema": SCHEMA,
                "status": "error",
                "error": {"code": "syntax_error", "message": f"bad batch line: {exc}"},
            }
            code = EXIT_SYNTAX
        else:
            record, code = run(*request)
        print(json.dumps(record), file=out)
        if worst == EXIT_OK and code != EXIT_OK:
            worst = code
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ideal-aut",
        description=(
            "Exact automorphism groups and isomorphism tests for ideals "
            "generated by monic univariate polynomials over Z, Q or F<p>."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, polys: int):
        p.add_argument("--ring", required=True, help="coefficient ring: Z, Q or F<p>")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        for i in range(polys):
            p.add_argument(f"input{i}" if polys > 1 else "input", metavar="POLY")

    p_aut = sub.add_parser("aut", help="automorphism group of the ideal of POLY")
    common(p_aut, 1)

    p_iso = sub.add_parser("iso", help="isomorphism test with witness")
    common(p_iso, 2)
    p_iso.add_argument("--all-witnesses", action="store_true")

    p_fac = sub.add_parser(
        "factors", help="irreducible factors over F<p>; squarefree layers over Z/Q"
    )
    common(p_fac, 1)

    p_ver = sub.add_parser("verify", help="check one affine map 'alpha,beta' against POLY")
    p_ver.add_argument("--ring", required=True)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("input", metavar="POLY")
    p_ver.add_argument("map", metavar="MAP")

    p_orc = sub.add_parser("oracle-compare", help="compare against exhaustive enumeration")
    common(p_orc, 1)
    p_orc.add_argument("--max-p", type=int, default=MAX_MODULUS)
    p_orc.add_argument("--max-deg", type=int, default=MAX_DEGREE)

    p_bat = sub.add_parser("batch", help="one JSON request per line")
    p_bat.add_argument("file", nargs="?", default="-")
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv) -> int:
    # exact arithmetic legitimately produces very long integers; lift the
    # interpreter's int-to-str guard so they format instead of erroring
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0].startswith("--batch"):
        # flag spelling of the batch command: --batch FILE / --batch=FILE
        if argv[0].startswith("--batch="):
            argv = ["batch", argv[0].split("=", 1)[1], *argv[1:]]
        else:
            argv = ["batch", *argv[1:]]
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    if args.command == "batch":
        return _run_batch(args.file, out)
    try:
        ring = parse_ring(args.ring)
    except ParseError as exc:
        record = {
            "schema": SCHEMA,
            "command": args.command,
            "status": "error",
            "error": {"code": exc.code, "message": str(exc)},
        }
        _emit(record, args.format, out)
        return EXIT_SYNTAX
    if args.command == "verify":
        inputs = _read_inputs([args.input, args.map])
    elif hasattr(args, "input1"):
        inputs = _read_inputs([args.input0, args.input1])
    else:
        inputs = _read_inputs([args.input])
    options = {"seed": args.seed}
    if getattr(args, "all_witnesses", False):
        options["all_witnesses"] = True
    if hasattr(args, "max_p"):
        options["max_p"] = args.max_p
        options["max_deg"] = args.max_deg
    record, code = run(args.command, ring, inputs, options)
    _emit(record, args.format, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
