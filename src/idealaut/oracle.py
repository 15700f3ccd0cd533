"""Brute-force ground truth over GF(p).

enumerate_auts() tests every pair (alpha, beta) in GF(p)^x x GF(p)
against the defining identity f(alpha*t + beta) == alpha**n * f and
analyzes the group structure by raw composition, deliberately sharing no
code with the candidate logic in :mod:`idealaut.autgroup`: polynomials
here are plain lists of int residues and the substitution, division and
comparison routines are reimplemented locally.

truncated_ideal_check() confirms at the module level, in all degrees up
to a bound, that a map and its inverse send the ideal generated by f
into itself, the finite-truncation counterpart of the identity above.
"""

from .autgroup import AffineMap, FiniteAutGroup, UnitsGroup
from .errors import BoundsExceeded, ConstantPolynomial, NotMonic, TheoryViolation, WrongRing
from .poly import Poly

MAX_MODULUS = 101
MAX_DEGREE = 32


class OracleReport:
    """Everything the exhaustive scan found about one automorphism group."""

    __slots__ = ("elements", "order", "cyclic", "element_orders", "truncation_checked")

    def __init__(self, elements, order, cyclic, element_orders, truncation_checked):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cyclic", cyclic)
        object.__setattr__(self, "element_orders", element_orders)
        object.__setattr__(self, "truncation_checked", truncation_checked)

    def __setattr__(self, name, val):
        raise AttributeError("OracleReport is immutable")

    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def __repr__(self):
        return (
            f"OracleReport[order {self.order}, "
            f"{'cyclic' if self.cyclic else 'non-cyclic'}]"
        )


def _int_coeffs(f: Poly) -> list[int]:
    return [c.value for c in f.coeffs]


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _monic_ints(f: Poly) -> list[int]:
    c = _int_coeffs(f)
    p = f.ring.p
    inv = pow(c[-1], -1, p)
    return [v * inv % p for v in c]


def _substitute(c: list[int], alpha: int, beta: int, p: int) -> list[int]:
    # Horner: acc -> acc*(alpha t + beta) + c_j
    acc = [c[-1]]
    for j in range(len(c) - 2, -1, -1):
        nxt = [0] * (len(acc) + 1)
        for i, v in enumerate(acc):
            nxt[i + 1] = (nxt[i + 1] + v * alpha) % p
            nxt[i] = (nxt[i] + v * beta) % p
        nxt[0] = (nxt[0] + c[j]) % p
        acc = nxt
    return _trim(acc)


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                out[i + j] = (out[i + j] + va * vb) % p
    return _trim(out)


def _mod(a: list[int], d: list[int], p: int) -> list[int]:
    # remainder of a by monic d
    rem = list(a)
    while len(rem) >= len(d):
        top = rem[-1]
        if top:
            shift = len(rem) - len(d)
            for j, v in enumerate(d):
                rem[shift + j] = (rem[shift + j] - top * v) % p
        rem.pop()
    return _trim(rem)


def _check_input(f: Poly, max_p: int, max_deg: int):
    if f.ring.kind != "F":
        raise WrongRing(f"the oracle enumerates over prime fields only, not {f.ring}")
    if f.is_zero or f.degree() == 0:
        raise ConstantPolynomial(f"{f} is constant")
    if not f.is_monic:
        raise NotMonic(f"leading coefficient of {f} is not a unit")
    if f.ring.p > max_p:
        raise BoundsExceeded(f"modulus {f.ring.p} exceeds the oracle bound {max_p}")
    if f.degree() > max_deg:
        raise BoundsExceeded(f"degree {f.degree()} exceeds the oracle bound {max_deg}")


def enumerate_auts(
    f: Poly,
    *,
    max_p: int = MAX_MODULUS,
    max_deg: int = MAX_DEGREE,
    check_truncation: bool = False,
) -> OracleReport:
    """Scan all (alpha, beta) pairs and report the group from first principles."""
    _check_input(f, max_p, max_deg)
    ring = f.ring
    p = ring.p
    c = _monic_ints(f)
    n = len(c) - 1
    pairs = []
    for alpha in range(1, p):
        lam = pow(alpha, n, p)
        target = _trim([v * lam % p for v in c])
        for beta in range(p):
            if _substitute(c, alpha, beta, p) == target:
                pairs.append((alpha, beta))
    orders = []
    member = set(pairs)
    for a, b in pairs:
        x, y = a, b
        k = 1
        while (x, y) != (1, 0):
            # compose (a, b) after (x, y): t -> a*(x*t + y) + b
            x, y = a * x % p, (a * y + b) % p
            k += 1
            if k > len(pairs) or (x, y) not in member:
                raise TheoryViolation("oracle element powers escape the scanned set")
        orders.append(k)
    size = len(pairs)
    cyclic = size > 0 and max(orders) == size
    truncation_checked = False
    maps = [AffineMap(ring.elem(a), ring.elem(b)) for a, b in pairs]
    if check_truncation:
        for m in maps:
            if not truncated_ideal_check(f, m, 2 * n, max_p=max_p, max_deg=max_deg):
                raise TheoryViolation(
                    f"{m} satisfies the scale identity but fails the ideal check"
                )
        truncation_checked = True
    maps_orders = sorted(zip(maps, orders), key=lambda mo: mo[0].sort_key())
    return OracleReport(
        elements=tuple(m for m, _ in maps_orders),
        order=size,
        cyclic=cyclic,
        element_orders=tuple(maps_orders),
        truncation_checked=truncation_checked,
    )


def truncated_ideal_check(
    f: Poly,
    m: AffineMap,
    bound: int,
    *,
    max_p: int = MAX_MODULUS,
    max_deg: int = MAX_DEGREE,
) -> bool:
    """Does (alpha, beta) map the ideal of f into itself in all degrees <= bound?

    Checks that the image of every generator t**i * f (for i up to
    bound - deg f) is exactly divisible by f, for the map and its inverse;
    together with injectivity (alpha is a unit) this certifies a bijection
    of the truncated ideal.
    """
    _check_input(f, max_p, max_deg)
    p = f.ring.p
    c = _monic_ints(f)
    n = len(c) - 1
    if bound < n:
        raise BoundsExceeded(f"truncation bound {bound} is below deg f = {n}")
    inverse = m.inverse()
    for mm in (m, inverse):
        alpha, beta = mm.alpha.value, mm.beta.value
        image = _substitute(c, alpha, beta, p)
        step = [beta, alpha]
        g = image
        for _ in range(bound - n + 1):
            if _mod(g, c, p):
                return False
            g = _mul(g, step, p)
    return True


def agrees_with(report: OracleReport, group) -> bool:
    """Element-for-element agreement between the oracle and a computed group."""
    if isinstance(group, UnitsGroup):
        if not group.is_finite:
            return False
        return report.element_set() == frozenset(group.elements())
    if isinstance(group, FiniteAutGroup):
        return (
            report.element_set() == group.element_set()
            and report.order == group.order
            and report.cyclic == group.cyclic
        )
    return False
