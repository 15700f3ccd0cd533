"""Seeded input generators for the three benchmark workloads.

Each workload is a fixed schedule of slots.  A slot fixes what drives the
cost of an operation (command, ring, degree, planted group order, factor
shape); the seed draws everything else (coefficients, roots, translations,
witness maps).  Every cycle of a run repeats the schedule in the same order
with fresh draws, so a run's cost mix does not depend on the seed and the
run-to-run spread stays small.  Inputs are drawn with ``random.Random``
seeded by ``"<seed>/<workload>/<stream>/<cycle>"``; the same seed gives the
same inputs, byte for byte.  An input that repeats an earlier one of the
run is drawn again, so no request is an exact repeat.

Every operation carries the result planted by construction, which the
checker in ``check.py`` compares against.  This module, like the checker,
uses only ``arith`` and imports nothing from ``idealaut``.
"""

import functools
import json
import random
from fractions import Fraction
from math import gcd

import arith

M31 = 2**31 - 1

# -- fp_groups ----------------------------------------------------------------
#
# Library calls compute_aut (about 2/3) and iso_test (about 1/3) on random
# translates of centered sparse t^n + c_k t^k + c_0 over GF(p).  Aut slots
# plant the torsion order d = gcd(n, k, p - 1) by the choice of k.  Iso slots
# with n even plant a non-isomorphic partner by making the ratio of the
# constant terms a quadratic non-residue.  Slots with p | n (p <= 17) take
# the char-p scan branch; their expected group comes from a brute-force scan,
# and their iso pairs are non-isomorphic (checked by the same scan when
# drawn), so iso_test scans every candidate and its cost does not depend on
# where a witness happens to lie.

_GROUP_AUT = [
    (97, 16, 8), (97, 24, 6), (97, 32, 4), (97, 40, 4), (97, 48, 12), (97, 64, 2),
    (12289, 16, 4), (12289, 20, 4), (12289, 32, 16), (12289, 48, 3), (12289, 64, 32),
    (65537, 16, 8), (65537, 24, 4), (65537, 32, 8), (65537, 56, 8), (65537, 64, 16),
    (M31, 16, 2), (M31, 20, 2), (M31, 32, 1), (M31, 36, 18), (M31, 48, 6), (M31, 64, 2),
    (97, 20, 1),
]
_GROUP_ISO = [
    (97, 16, True), (97, 32, False), (12289, 24, True), (12289, 48, True),
    (65537, 32, True), (65537, 64, False), (M31, 16, True), (M31, 24, True),
    (M31, 32, True), (M31, 48, False), (M31, 64, True),
]
_GROUP_CHARP_AUT = [(3, 48), (5, 40), (7, 28), (17, 17)]
_GROUP_CHARP_ISO = [(11, 22), (13, 26)]


def _fixed_order(slots):
    # one fixed interleaving, independent of the seed
    slots = list(slots)
    random.Random(0).shuffle(slots)
    return slots


GROUP_SCHEDULE = _fixed_order(
    [("aut", p, n, d) for p, n, d in _GROUP_AUT]
    + [("iso", p, n, iso) for p, n, iso in _GROUP_ISO]
    + [("aut", p, n, None) for p, n in _GROUP_CHARP_AUT]
    + [("iso", p, n, False) for p, n in _GROUP_CHARP_ISO]
)


def sparse_translate(n, k, ck, c0, s, p):
    """(t - s)^n + ck*(t - s)^k + c0: roots are those of the centered form plus s."""
    centered = [0] * (n + 1)
    centered[n], centered[k], centered[0] = 1, ck, c0
    return arith.substitute(arith.reduce_coeffs(centered, p), 1, -s, p)


def _unit(rng, p):
    return rng.randrange(1, p)


def _exponent_for_order(rng, n, d, p):
    ks = [k for k in range(1, n - 1) if gcd(gcd(n, k), p - 1) == d]
    if not ks:
        raise ValueError(f"no k in [1, {n - 2}] plants order {d} for n={n}, p={p}")
    return rng.choice(ks)


def _scaled_translate(f, alpha, beta, p):
    # g = alpha^{-n} f(alpha*t + beta), so (alpha, beta) is an iso witness f -> g
    n = len(f) - 1
    return arith.scale(arith.substitute(f, alpha, beta, p), pow(alpha, -n, p), p)


def _non_residue(rng, p):
    while True:
        r = _unit(rng, p)
        if not arith.is_quadratic_residue(r, p):
            return r


def _group_op(rng, slot):
    kind, p, n, extra = slot
    charp = n % p == 0
    # k = n/2 with p | n admits the single-root shape (t^(n/2) + b)^2
    ks = [k for k in range(1, n - 1) if not (charp and 2 * k == n)]
    s = rng.randrange(p)
    if kind == "aut":
        k = rng.choice(ks) if charp else _exponent_for_order(rng, n, extra, p)
        f = sparse_translate(n, k, _unit(rng, p), _unit(rng, p), s, p)
        branch = "char_p_scan" if charp else "centered_torsion"
        return {"kind": "aut", "p": p, "n": n, "f": f, "order": None if charp else extra,
                "branch": branch}
    if charp:
        # p does not divide k, so both sides are squarefree and the scan runs
        ks = [k for k in ks if k % p]
        while True:
            f = sparse_translate(n, rng.choice(ks), _unit(rng, p), _unit(rng, p), s, p)
            g = sparse_translate(n, rng.choice(ks), _unit(rng, p), _unit(rng, p),
                                 rng.randrange(p), p)
            if not arith.brute_force_group(f, p, g):
                return {"kind": "iso", "p": p, "n": n, "f": f, "g": g, "iso": False,
                        "branch": "char_p_scan"}
    k = rng.choice(ks)
    ck, c0 = _unit(rng, p), _unit(rng, p)
    f = sparse_translate(n, k, ck, c0, s, p)
    if extra:
        g = _scaled_translate(f, _unit(rng, p), rng.randrange(p), p)
    else:
        # alpha^n = c0 / c0' has no solution when n is even and the ratio is a non-residue
        c0_g = c0 * pow(_non_residue(rng, p), -1, p) % p
        g = sparse_translate(n, k, _unit(rng, p), c0_g, rng.randrange(p), p)
    return {"kind": "iso", "p": p, "n": n, "f": f, "g": g, "iso": extra,
            "branch": "centered_torsion"}


# -- fp_factor ----------------------------------------------------------------
#
# Library calls factor on products of planted linear factors (some with
# multiplicity) and random irreducible cofactors; the expected factorization
# is the planted one.  Slot: (p, root multiplicities, cofactor degrees).

_FACTOR_SHAPES = [
    ((1, 1), (6,)),                     # degree 8
    ((1, 1, 1, 2, 1), (3,)),            # 9
    ((2, 1, 1), (2, 4)),                # 10
    ((3, 1, 2), (2, 3)),                # 11
    ((1, 1, 1), (2, 3, 4)),             # 12
    ((2, 2, 2), (3, 4)),                # 13
    ((1, 2, 1, 1), (2, 3, 4)),          # 14
    ((3, 3, 2), (2, 5)),                # 15
    ((2, 2, 2, 2), (3, 5)),             # 16
    ((3, 3, 2, 1), (2, 5)),             # 16
    ((4, 3, 2, 1), (2, 3, 4)),          # 19
    ((4, 4, 4, 4), (3, 5)),             # 24
]
FACTOR_PRIMES = (10007, 65537, M31)
FACTOR_SCHEDULE = _fixed_order(
    [(p, roots, cof) for p in FACTOR_PRIMES for roots, cof in _FACTOR_SHAPES]
)


def random_irreducible(rng, degree, p):
    while True:
        q = [rng.randrange(p) for _ in range(degree)] + [1]
        if arith.is_irreducible(q, p):
            return q


def _factor_op(rng, slot):
    p, mults, cofactor_degrees = slot
    roots = set()
    while len(roots) < len(mults):
        roots.add(rng.randrange(p))
    planted = [([-r % p, 1], m) for r, m in zip(sorted(roots), mults)]
    cofactors = []
    for d in cofactor_degrees:
        q = random_irreducible(rng, d, p)
        while q in cofactors:
            q = random_irreducible(rng, d, p)
        cofactors.append(q)
    planted += [(q, 1) for q in cofactors]
    pieces = list(planted)
    rng.shuffle(pieces)
    f = [1]
    for q, m in pieces:
        f = arith.mul(f, arith.power(q, m, p), p)
    return {"kind": "factor", "p": p, "n": len(f) - 1, "f": f,
            "factors": sorted((tuple(q), m) for q, m in planted)}


# -- cli_batch ----------------------------------------------------------------
#
# JSONL request lines for `ideal-aut batch`.  Every command, every compute_aut
# branch and the rings Z, Q and F_p appear; Q and Z lines use high powers so
# parsing and Fraction arithmetic do real work; planted error lines carry
# their expected error code.  single-root `iso --all-witnesses` stays at
# p <= 12289: over 2^31-1 it enumerates p - 1 maps and does not finish.

BATCH_LINES = 20
_SMALL_ORACLE_PRIMES = (5, 7, 11, 13, 31, 53, 101)


def _rational(rng, lo=1, hi=9):
    value = Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4)))
    return value if rng.random() < 0.5 else -value


def _nonzero_int(rng, hi=9):
    return rng.choice([v for v in range(-hi, hi + 1) if v])


def _text(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _shift_text(s):
    # "t - s" written so the parser sees an explicit sign
    return f"(t - {_text(s)})" if s >= 0 else f"(t + {_text(-s)})"


def _sparse_text(n, k, ck, c0, s):
    return f"{_shift_text(s)}^{n} + {_paren(ck)}*{_shift_text(s)}^{k} + {_paren(c0)}"


def _paren(v):
    return f"({_text(v)})" if v < 0 else _text(v)


def _line(command, ring, inputs, options=None):
    entry = {"command": command, "ring": ring, "inputs": inputs}
    if options:
        entry["options"] = options
    return json.dumps(entry)


def _ring_text(ring, p):
    return f"F{p}" if ring == "F" else ring


def _aut_single_root(rng, ring, i):
    m = rng.randint(3, 8)
    if ring == "F":
        p = (101, 10007, 65537)[i % 3]
        a = rng.randrange(p)
        f = arith.power([-a % p, 1], m, p)
        return _line("aut", f"F{p}", [f"(t - {a})^{m}"]), {
            "p": p, "f": f, "units_of_R": a, "branch": "single_root"}
    a = _nonzero_int(rng, 99) if ring == "Z" else _rational(rng, 1, 99)
    f = arith.power([-a, 1], m, 0)
    return _line("aut", ring, [f"{_shift_text(a)}^{m}"]), {
        "p": 0, "f": f, "units_of_R": a, "branch": "single_root"}


def _aut_centered(rng, ring, i):
    if ring == "F":
        p = (97, 193, 12289, 65537)[i % 4]
        n = (8, 12, 16, 24)[i // 4 % 4]
        orders = sorted({gcd(gcd(n, k), p - 1) for k in range(1, n - 1)})
        d = orders[i % len(orders)]
        k = _exponent_for_order(rng, n, d, p)
        ck, c0, s = _unit(rng, p), _unit(rng, p), rng.randrange(p)
        f = sparse_translate(n, k, ck, c0, s, p)
        return _line("aut", f"F{p}", [_sparse_text(n, k, ck, c0, s)]), {
            "p": p, "f": f, "order": d, "branch": "centered_torsion"}
    # Z or Q with a high expanded power: parsing and Fraction arithmetic work
    n = (24, 28, 32, 36, 40)[i % 5]
    k = rng.randint(1, n - 2)
    if ring == "Z":
        ck, c0, s = _nonzero_int(rng), _nonzero_int(rng), _nonzero_int(rng, 5)
    else:
        ck, c0, s = _rational(rng), _rational(rng), _rational(rng)
    f = sparse_translate(n, k, ck, c0, s, 0)
    return _line("aut", ring, [_sparse_text(n, k, ck, c0, s)]), {
        "p": 0, "f": f, "order": 2 if gcd(n, k) % 2 == 0 else 1,
        "branch": "centered_torsion"}


def _aut_z_units(rng, i):
    # polynomials in u = t^2 - t are symmetric under t -> 1 - t; the centroid
    # 1/2 is not integral, so the Z units branch runs
    m = rng.randint(3, 8)
    j = rng.randint(1, m - 1)
    c, c0 = _nonzero_int(rng), _nonzero_int(rng)
    symmetric = rng.random() < 0.6
    u = [0, -1, 1]
    f = arith.add(arith.add(arith.power(u, m, 0), arith.scale(arith.power(u, j, 0), c, 0), 0),
                  [c0], 0)
    text = f"(t^2 - t)^{m} + {_paren(c)}*(t^2 - t)^{j} + {_paren(c0)}"
    if not symmetric:
        f = arith.add(f, [0, 1], 0)
        text += " + t"
    return _line("aut", "Z", [text]), {
        "p": 0, "f": f, "order": 2 if symmetric else 1, "branch": "z_units"}


def _aut_char_p(rng, i):
    p, n = ((3, 15), (5, 10), (5, 20), (7, 14), (11, 11))[i % 5]
    k = rng.choice([k for k in range(1, n - 1) if 2 * k != n])
    ck, c0, s = _unit(rng, p), _unit(rng, p), rng.randrange(p)
    f = sparse_translate(n, k, ck, c0, s, p)
    return _line("aut", f"F{p}", [_sparse_text(n, k, ck, c0, s)]), {
        "p": p, "f": f, "order": None, "branch": "char_p_scan"}


def _iso_pair(rng, ring, isomorphic, i):
    if ring == "F":
        p = (97, 12289, 65537, M31)[i % 4]
        n = (8, 12, 16)[i % 3]
        k = rng.randint(1, n - 2)
        ck, c0 = _unit(rng, p), _unit(rng, p)
        f = sparse_translate(n, k, ck, c0, rng.randrange(p), p)
        if isomorphic:
            g = _scaled_translate(f, _unit(rng, p), rng.randrange(p), p)
        else:
            c0_g = c0 * pow(_non_residue(rng, p), -1, p) % p
            g = sparse_translate(n, k, _unit(rng, p), c0_g, rng.randrange(p), p)
        return p, f, g, gcd(gcd(n, k), p - 1)
    n = (6, 8, 10, 12)[i % 4]
    k = rng.randint(1, n - 2)
    pick = _nonzero_int if ring == "Z" else _rational
    f = sparse_translate(n, k, pick(rng), pick(rng), pick(rng), 0)
    if isomorphic:
        alpha = rng.choice((1, -1)) if ring == "Z" else _rational(rng, 1, 3)
        beta = pick(rng)
        g = arith.scale(arith.substitute(f, alpha, beta, 0), Fraction(1) / alpha**n, 0)
    else:
        # a different centered support cannot be reached by any affine map
        k2 = rng.choice([j for j in range(1, n - 1) if j != k])
        g = sparse_translate(n, k2, pick(rng), pick(rng), pick(rng), 0)
    return 0, f, g, 2 if gcd(n, k) % 2 == 0 else 1


def _iso(rng, ring, isomorphic, i, all_witnesses=False):
    p, f, g, order = _iso_pair(rng, ring, isomorphic, i)
    options = {"all_witnesses": True} if all_witnesses else None
    line = _line("iso", _ring_text(ring, p), [arith.render(f), arith.render(g)], options)
    return line, {"p": p, "f": f, "g": g, "iso": isomorphic, "all_witnesses": all_witnesses,
                  "witness_count": order}


def _iso_single_root(rng, all_witnesses, i):
    p = (1009, 12289)[i % 2] if all_witnesses else (101, 65537, M31)[i % 3]
    m = rng.randint(3, 5)
    a, b = rng.randrange(p), rng.randrange(p)
    f = arith.power([-a % p, 1], m, p)
    g = arith.power([-b % p, 1], m, p)
    options = {"all_witnesses": True} if all_witnesses else None
    line = _line("iso", f"F{p}", [f"(t - {a})^{m}", f"(t - {b})^{m}"], options)
    return line, {"p": p, "f": f, "g": g, "iso": True, "all_witnesses": all_witnesses,
                  "witness_count": p - 1 if all_witnesses else None, "branch": "single_root"}


def _factors_fp(rng, i):
    p = (101, 10007, 65537)[i % 3]
    roots = rng.sample(range(p), 2 + i % 4)
    mults = [1 + j % 3 for j in range(len(roots))]
    planted = [([-r % p, 1], m) for r, m in zip(roots, mults)]
    for d in ((2,), (3,), (4,), (2, 3))[i % 4]:
        planted.append((random_irreducible(rng, d, p), 1))
    text = "*".join(f"({arith.render(q)})^{m}" if m > 1 else f"({arith.render(q)})"
                    for q, m in planted)
    f = [1]
    for q, m in planted:
        f = arith.mul(f, arith.power(q, m, p), p)
    return _line("factors", f"F{p}", [text]), {
        "p": p, "f": f, "factors": sorted((tuple(q), m) for q, m in planted)}


def _factors_char0(rng, ring, i):
    # distinct coprime pieces; the squarefree layers are the products per multiplicity
    pick = _nonzero_int if ring == "Z" else _rational
    count = rng.randint(2, 4)
    roots = set()
    while len(roots) < count:
        roots.add(pick(rng))
    pieces = [([-r, 1], rng.choice((1, 2, 3, 4))) for r in sorted(roots)]
    for c in rng.sample(range(1, 12), rng.randint(1, 2)):
        pieces.append(([c, 0, 1], rng.choice((1, 2, 3))))
    text = "*".join(f"({arith.render(q)})^{m}" for q, m in pieces)
    f, layers = [1], {}
    for q, m in pieces:
        f = arith.mul(f, arith.power(q, m, 0), 0)
        layers[m] = arith.mul(layers.get(m, [1]), q, 0)
    return _line("factors", ring, [text]), {
        "p": 0, "f": f, "layers": sorted((tuple(q), m) for m, q in layers.items())}


def _verify(rng, ring, holds, i):
    if ring == "F":
        p = (101, 193, 10007)[i % 3]
        n = (6, 8, 10, 12)[i % 4]
        orders = sorted({gcd(gcd(n, k), p - 1) for k in range(1, n - 1)} - {1})
        d = orders[i % len(orders)]
        k = _exponent_for_order(rng, n, d, p)
        s = rng.randrange(p)
        f = sparse_translate(n, k, _unit(rng, p), _unit(rng, p), s, p)
        # group = {(alpha, (1 - alpha)*s) : alpha^d = 1}
        while True:
            alpha = _unit(rng, p)
            if (pow(alpha, d, p) == 1) == holds:
                break
        beta = (1 - alpha) * s % p if holds else rng.randrange(p)
        text = f"{alpha},{beta}"
    else:
        p = 0
        n = (4, 6, 8, 10)[i % 4]
        k = rng.choice([j for j in range(1, n - 1) if gcd(n, j) % 2 == 0] or [n - 2])
        pick = _nonzero_int if ring == "Z" else _rational
        s = pick(rng)
        f = sparse_translate(n, k, pick(rng), pick(rng), s, 0)
        alpha = -1
        beta = 2 * s if holds else 2 * s + 1
        holds = holds and gcd(n, k) % 2 == 0
        text = f"({alpha},{_text(beta)})"
    return _line("verify", _ring_text(ring, p), [arith.render(f), text]), {
        "p": p, "f": f, "map": (alpha, beta), "holds": holds}


def _oracle_compare(rng, i):
    p = _SMALL_ORACLE_PRIMES[i % len(_SMALL_ORACLE_PRIMES)]
    n = 4 + i % 5
    k = rng.choice([j for j in range(1, n - 1) if not (n % p == 0 and 2 * j == n)])
    f = sparse_translate(n, k, _unit(rng, p), _unit(rng, p), rng.randrange(p), p)
    return _line("oracle-compare", f"F{p}", [arith.render(f)]), {
        "p": p, "f": f, "order": None,
        "branch": "char_p_scan" if n % p == 0 else "centered_torsion"}


def _big(rng):
    return rng.randint(2, 10**6)


_ERROR_LINES = [
    (lambda rng: _line("aut", "F7", [f"t^2 + {_big(rng)}t + 1"]), "syntax_error"),
    (lambda rng: _line("transform", "Q", [f"t^2 + {_big(rng)}"]), "syntax_error"),
    (lambda rng: _line("aut", "Q", ["t^2 + 1", f"t^2 + {_big(rng)}"]), "syntax_error"),
    (lambda rng: '{"command": "aut", "ring": "Q", "inputs": ["t^2 + %d"' % _big(rng),
     "syntax_error"),
    (lambda rng: _line("aut", f"F{2 * _big(rng)}", ["t + 1"]), "syntax_error"),
    (lambda rng: _line("aut", "Z", [f"t/2 + {_big(rng)}"]), "coefficient_not_in_ring"),
    (lambda rng: _line("aut", "Z", [f"2*t^3 + t + {_big(rng)}"]), "not_monic"),
    (lambda rng: _line("aut", "Q", [str(_big(rng))]), "constant_polynomial"),
    (lambda rng: _line("oracle-compare", "Q", [f"t^3 - t + {_big(rng)}"]), "wrong_ring"),
    (lambda rng: _line("oracle-compare", "F103", [f"t^3 - t + {_big(rng)}"]),
     "bounds_exceeded"),
    (lambda rng: _line("verify", "F7", ["t^3 - t", f"0,{_big(rng)}"]), "not_a_unit"),
    (lambda rng: _line("factors", "Z", [f"3*t^2 + {_big(rng)}"]), "not_monic"),
]


def _slots(make, label, count, **kwargs):
    # instance i of a slot type fixes the cost-driving choices (ring, degree,
    # group order) by i, so every cycle has the same cost mix
    return [(functools.partial(make, i=i, **kwargs), label) for i in range(count)]


# (generator, label).  100 lines per cycle, five batch files of 20.
_CLI_SLOTS = (
    _slots(_aut_single_root, "aut/single_root/F", 4, ring="F")
    + _slots(_aut_single_root, "aut/single_root/Z", 2, ring="Z")
    + _slots(_aut_single_root, "aut/single_root/Q", 2, ring="Q")
    + _slots(_aut_centered, "aut/centered_torsion/F", 9, ring="F")
    + _slots(_aut_centered, "aut/centered_torsion/Q", 8, ring="Q")
    + _slots(_aut_centered, "aut/centered_torsion/Z", 2, ring="Z")
    + _slots(_aut_z_units, "aut/z_units/Z", 5)
    + _slots(_aut_char_p, "aut/char_p_scan/F", 5)
    + _slots(_iso, "iso/F", 4, ring="F", isomorphic=True)
    + _slots(_iso, "iso/F", 2, ring="F", isomorphic=False)
    + _slots(_iso, "iso/Q", 3, ring="Q", isomorphic=True)
    + _slots(_iso, "iso/Q", 1, ring="Q", isomorphic=False)
    + _slots(_iso, "iso/Z", 2, ring="Z", isomorphic=True)
    + _slots(_iso_single_root, "iso/single_root/F", 2, all_witnesses=False)
    + _slots(_iso_single_root, "iso/all_witnesses/single_root/F", 2, all_witnesses=True)
    + _slots(_iso, "iso/all_witnesses/F", 2, ring="F", isomorphic=True, all_witnesses=True)
    + _slots(_factors_fp, "factors/F", 8)
    + _slots(_factors_char0, "factors/Q", 5, ring="Q")
    + _slots(_factors_char0, "factors/Z", 2, ring="Z")
    + _slots(_verify, "verify/F", 4, ring="F", holds=True)
    + _slots(_verify, "verify/F", 2, ring="F", holds=False)
    + _slots(_verify, "verify/Q", 2, ring="Q", holds=True)
    + _slots(_verify, "verify/Z", 2, ring="Z", holds=False)
    + _slots(_oracle_compare, "oracle-compare/F", 8)
    + [((lambda rng, g=g, code=code: (g(rng), {"error": code})), f"error/{code}")
       for g, code in _ERROR_LINES]
)
CLI_SCHEDULE = _fixed_order(range(len(_CLI_SLOTS)))

# The two line shapes that crash `ideal-aut batch` at this revision: an
# uncaught TypeError ends the process, so later lines get no record.  They run
# in a separate probe, outside the measured stream (see drive.crash_probe).
CRASH_SHAPES = (
    "[1, 2]",
    json.dumps({"command": "oracle-compare", "ring": "F7", "inputs": ["t^3 - t"],
                "options": {"max_p": "big"}}),
)


def _cli_op(rng, index):
    make, label = _CLI_SLOTS[index]
    line, expect = make(rng)
    expect["label"] = label
    expect["line"] = line
    expect["command"] = label.split("/")[0]
    return expect


# -- streams ------------------------------------------------------------------

WORKLOADS = {
    "fp_groups": (GROUP_SCHEDULE, _group_op),
    "fp_factor": (FACTOR_SCHEDULE, _factor_op),
    "cli_batch": (CLI_SCHEDULE, _cli_op),
}


def _key(op):
    return op.get("line") or json.dumps(
        [op["kind"], op["p"], op["f"], op.get("g")], default=str)


class Stream:
    """The seeded, duplicate-free sequence of cycles of one workload."""

    def __init__(self, workload, seed, stream="main"):
        self.schedule, self.make = WORKLOADS[workload]
        self.workload, self.seed, self.stream = workload, seed, stream
        self.seen = set()
        self.cycles = 0

    def next_cycle(self):
        rng = random.Random(f"{self.seed}/{self.workload}/{self.stream}/{self.cycles}")
        self.cycles += 1
        ops = []
        for slot in self.schedule:
            for _ in range(1000):
                op = self.make(rng, slot)
                key = _key(op)
                if key not in self.seen:
                    break
            else:
                raise RuntimeError(f"{self.workload}: no fresh input left for slot {slot}")
            self.seen.add(key)
            ops.append(op)
        return ops


def batch_files(ops):
    """Split a cli_batch cycle into fixed-size batch files (lists of ops)."""
    return [ops[i:i + BATCH_LINES] for i in range(0, len(ops), BATCH_LINES)]
