"""Independent checks of every benchmark output.

The checks re-derive each expected result with the plain coefficient-list
arithmetic of ``arith`` and the results planted by ``workloads``; nothing
here imports ``idealaut``.  Results arrive already converted to plain
values (ints, Fractions, tuples) or, for the CLI, as JSON records.

Each ``check_*`` function returns ``None`` when the output is right and a
short reason when it is not.
"""

import json
import re
from fractions import Fraction

import arith


def check_group(f, p, group, order):
    """group: ("units", fixed_point) or ("finite", [(alpha, beta), ...])."""
    kind, body = group
    if kind == "units":
        if not (len(f) > 1 and f == arith.power([-body, 1], len(f) - 1, p)):
            return f"symbolic unit group around {body} for a polynomial with several roots"
        return None
    elements = body
    if len(set(elements)) != len(elements):
        return "group lists an element twice"
    for alpha, beta in elements:
        if not arith.is_automorphism(f, alpha, beta, p):
            return f"({alpha}, {beta}) fails f(alpha*t + beta) == alpha^n * f"
    if order is None:
        expected = arith.brute_force_group(f, p)
        if set(elements) != expected:
            return f"group of order {len(elements)} differs from the scan ({len(expected)})"
    elif len(elements) != order:
        return f"group order {len(elements)}, planted {order}"
    return None


def check_witness(f, g, p, witness, isomorphic):
    if witness is None:
        return "planted isomorphism not found" if isomorphic else None
    if not isomorphic:
        return "witness returned for a planted non-isomorphic pair"
    alpha, beta, lam = witness
    n = len(f) - 1
    if lam != (pow(alpha, n, p) if p else Fraction(alpha) ** n):
        return f"lambda {lam} is not alpha^n"
    if not arith.is_automorphism(f, alpha, beta, p, target=g):
        return f"witness ({alpha}, {beta}) fails f(alpha*t + beta) == lambda * g"
    return None


def check_factorization(f, p, factors, planted):
    """factors: [(coefficient tuple, multiplicity)], planted likewise."""
    product = [1]
    for q, m in factors:
        product = arith.mul(product, arith.power(list(q), m, p), p)
    if product != arith.monic(f, p):
        return "factors do not re-expand to the input"
    got = sorted((tuple(q), m) for q, m in factors)
    for q, m in planted:
        if len(q) == 2 and (q, m) not in got:
            return f"planted root {(-q[0]) % p} with multiplicity {m} missing"
    if got != sorted(planted):
        return "factorization differs from the planted one"
    return None


# -- CLI records ----------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?t(?:\^(\d+))?$|^(\d+(?:/\d+)?)$")


def parse_canonical(text, p):
    """Coefficients of a polynomial in the canonical text the CLI echoes."""
    coeffs = {}
    sign = 1
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        if token[0] in "+-":
            sign = -1 if token[0] == "-" else 1
            token = token[1:]
        match = _TERM.match(token)
        if not match:
            raise ValueError(f"not canonical: {text!r}")
        if match.group(3) is not None:
            exponent, value = 0, Fraction(match.group(3))
        else:
            exponent = int(match.group(2) or 1)
            value = Fraction(match.group(1) or 1)
        coeffs[exponent] = sign * value
        sign = 1
    out = [0] * (max(coeffs) + 1)
    for j, v in coeffs.items():
        out[j] = _plain(v, p)
    return arith.trim(out)


def _plain(value, p):
    if p:
        return int(value) % p
    return value.numerator if value.denominator == 1 else value


def _element(text, p):
    """Element text as the CLI writes it: an int residue, an int, or a/b."""
    return _plain(Fraction(text), p)


def _record_group(group, p):
    if group["kind"] == "units_of_R":
        return ("units", _element(group["fixed_point"], p))
    elements = [(_element(m["alpha"], p), _element(m["beta"], p)) for m in group["elements"]]
    if group["order"] != len(elements):
        raise ValueError("order field disagrees with the element list")
    return ("finite", elements)


def _check_aut(op, result):
    group = _record_group(result["group"], op["p"])
    if "units_of_R" in op:
        if group != ("units", op["units_of_R"]):
            return f"expected units_of_R around {op['units_of_R']}"
        return None
    if group[0] != "finite":
        return "expected a finite group"
    return check_group(op["f"], op["p"], group, op["order"])


def _witness(entry, p):
    return (_element(entry["alpha"], p), _element(entry["beta"], p), _element(entry["lambda"], p))


def _check_iso(op, result):
    p = op["p"]
    if result["isomorphic"] != op["iso"]:
        return f"isomorphic={result['isomorphic']}, planted {op['iso']}"
    witness = _witness(result["witness"], p) if result["witness"] else None
    reason = check_witness(op["f"], op["g"], p, witness, op["iso"])
    if reason or not op.get("all_witnesses"):
        return reason
    everything = result.get("all_witnesses")
    if not everything or everything["kind"] != "list":
        return "expected an explicit witness list"
    witnesses = [_witness(w, p) for w in everything["witnesses"]]
    if len(witnesses) != op["witness_count"] or len(set(witnesses)) != len(witnesses):
        return f"{len(witnesses)} witnesses, planted {op['witness_count']}"
    for w in witnesses:
        reason = check_witness(op["f"], op["g"], p, w, True)
        if reason:
            return reason
    return None


def _check_factors(op, result):
    p = op["p"]
    payload = result["factorization"]
    got = [(tuple(parse_canonical(item["poly"], p)), item["multiplicity"])
           for item in payload["factors"]]
    if p:
        return check_factorization(op["f"], p, got, op["factors"])
    if sorted(got) != sorted(op["layers"]):
        return "squarefree layers differ from the planted ones"
    return None


def _check_verify(op, result):
    p = op["p"]
    alpha, beta = op["map"]
    if result["holds"] != op["holds"]:
        return f"holds={result['holds']}, planted {op['holds']}"
    if not op["holds"]:
        return None
    n = len(op["f"]) - 1
    if _element(result["lambda"], p) != (pow(alpha, n, p) if p else Fraction(alpha) ** n):
        return "lambda is not alpha^n"
    if not p:
        return None
    f = op["f"]
    perm = result["permutation"]
    entries = {_element(e["root"], p): (e["multiplicity"], _element(e["image"], p))
               for e in perm["entries"]}
    inv = pow(alpha, -1, p)
    for root, (mult, image) in entries.items():
        if arith.evaluate(f, root, p) != 0:
            return f"{root} is not a root"
        if image != (root - beta) * inv % p or entries.get(image, (None,))[0] != mult:
            return f"root {root} maps to {image}, not its image under the map"
    roots = [r for r in range(p) if arith.evaluate(f, r, p) == 0] if p < 20000 else None
    if roots is not None and sorted(entries) != roots:
        return "permutation misses roots"
    factors = {tuple(parse_canonical(e["factor"], p)): (e["multiplicity"],
               tuple(parse_canonical(e["image"], p))) for e in perm["factor_entries"]}
    for q, (mult, image) in factors.items():
        if arith.divmod_poly(f, list(q), p)[1]:
            return f"{arith.render(list(q))} does not divide the input"
        moved = tuple(arith.monic(arith.substitute(list(q), alpha, beta, p), p))
        if moved != image or factors.get(image, (None,))[0] != mult:
            return f"factor {arith.render(list(q))} maps outside the factorization"
    return None


def _check_oracle(op, result):
    expected = arith.brute_force_group(op["f"], op["p"])
    if result["agree"] is not True:
        return "oracle disagreement reported"
    if result["oracle"]["order"] != len(expected):
        return "oracle order differs from the scan"
    return check_group(op["f"], op["p"], _record_group(result["group"], op["p"]), None)


_COMMAND_CHECKS = {
    "aut": _check_aut,
    "iso": _check_iso,
    "factors": _check_factors,
    "verify": _check_verify,
    "oracle-compare": _check_oracle,
}


def check_error_record(text):
    """A line that is not a valid request must still get an error record."""
    try:
        record = json.loads(text)
    except ValueError:
        return "output line is not JSON"
    return None if record.get("status") == "error" else "invalid line accepted as a request"


def check_record(op, text):
    """Check one batch output line against the op planted for its input line."""
    try:
        record = json.loads(text)
    except ValueError:
        return "output line is not JSON"
    if record.get("schema") != "ideal-aut/1":
        return "missing schema tag"
    if "error" in op:
        if record.get("status") != "error":
            return f"expected error {op['error']}, got status {record.get('status')}"
        if record["error"]["code"] != op["error"]:
            return f"error code {record['error']['code']}, planted {op['error']}"
        return None
    if record.get("status") != "ok" or record.get("command") != op["command"]:
        return f"expected an ok {op['command']} record, got {record.get('status')}"
    echoed = record["input"]["polynomials"]
    wanted = [arith.render(op["f"])] + ([arith.render(op["g"])] if "g" in op else [])
    if echoed != wanted:
        return "input echo differs from the canonical form"
    try:
        return _COMMAND_CHECKS[op["command"]](op, record["result"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed {op['command']} record: {exc!r}"
