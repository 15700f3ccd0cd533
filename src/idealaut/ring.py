"""Exact arithmetic over the supported coefficient rings Z, Q and GF(p).

A ring is described by a :class:`Ring` value (use the ``ZZ`` and ``QQ``
singletons, or ``GF(p)`` for a prime field).  Elements are immutable
:class:`RingElement` wrappers around

  * arbitrary-precision ``int`` for Z,
  * ``fractions.Fraction`` (always reduced, positive denominator) for Q,
  * an ``int`` residue in ``[0, p)`` for GF(p).

The usual operators ``+ - * **`` are overloaded; plain Python ints coerce
into any ring (the canonical image of Z), but elements of two different
rings never mix silently; that raises :class:`~idealaut.errors.MixedRings`.
Division is deliberately restricted: use :meth:`RingElement.div_exact`,
which fails loudly when the quotient does not exist in the ring.

Canonical element order (used for deterministic output everywhere):
GF(p) by residue; Z and Q by (|numerator|, denominator, sign) with the
positive element first, so units list as ``1, -1`` and ``1 < -1 < 2``.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import (
    BoundsExceeded,
    CoefficientNotInRing,
    DivisionByZero,
    InexactDivision,
    MixedRings,
    NotAUnit,
    TheoryViolation,
    WrongRing,
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the most roots of unity nth_roots and unit_torsion list over GF(p)
MAX_FP_ROOTS = 2**16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Ring:
    """Descriptor of a coefficient ring: kind 'Z', 'Q' or 'F' (with prime p)."""

    kind: str
    p: int | None = None

    def __str__(self):
        return f"F{self.p}" if self.kind == "F" else self.kind

    def __repr__(self):
        return f"Ring({self})"

    @property
    def char(self) -> int:
        return self.p if self.kind == "F" else 0

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def elem(self, value) -> "RingElement":
        """Coerce an int, Fraction, str or same-ring element into this ring."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise MixedRings(f"element of {value.ring} used in {self}")
            return value
        if isinstance(value, str):
            return self.from_str(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                value = value.numerator
            elif self.kind == "Q":
                return RingElement(self, value)
            else:
                raise CoefficientNotInRing(f"{value} is not an element of {self}")
        if not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into {self}")
        if self.kind == "Z":
            return RingElement(self, value)
        if self.kind == "Q":
            return RingElement(self, Fraction(value))
        return RingElement(self, value % self.p)

    def from_str(self, text: str) -> "RingElement":
        """Parse element text: optional sign, digits, optional /denominator (Q only)."""
        body = text.strip()
        sign = 1
        if body[:1] in "+-":
            if body[0] == "-":
                sign = -1
            body = body[1:]
        num, slash, den = body.partition("/")
        if not num.isdigit() or (slash and not den.isdigit()):
            raise CoefficientNotInRing(f"malformed element literal {text!r} for {self}")
        if slash:
            if self.kind != "Q":
                raise CoefficientNotInRing(
                    f"fraction literal {text!r} is not an element of {self}"
                )
            if int(den) == 0:
                raise DivisionByZero(f"zero denominator in {text!r}")
            return self.elem(Fraction(sign * int(num), int(den)))
        return self.elem(sign * int(num))

    @property
    def has_finite_units(self) -> bool:
        return self.kind != "Q"

    def units(self) -> list["RingElement"]:
        """All units, canonically ordered.  Only for Z and GF(p)."""
        if self.kind == "Z":
            return [self.elem(1), self.elem(-1)]
        if self.kind == "F":
            return [self.elem(a) for a in range(1, self.p)]
        raise WrongRing("Q has infinitely many units")


ZZ = Ring("Z")
QQ = Ring("Q")


@functools.lru_cache(maxsize=None)
def GF(p: int) -> Ring:
    """The prime field with p elements; validates 2 <= p < 2**31 prime."""
    if not (2 <= p < 2**31 and is_prime(p)):
        raise WrongRing(f"modulus {p} is not a prime in [2, 2^31)")
    return Ring("F", p)


class RingElement:
    """Immutable exact element of a :class:`Ring`."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("RingElement is immutable")

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise MixedRings(f"cannot combine {self.ring} and {other.ring} elements")
            return other
        if isinstance(other, int):
            return self.ring.elem(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.ring.kind == "F":
            return RingElement(self.ring, (self.value + other.value) % self.ring.p)
        return RingElement(self.ring, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.ring.kind == "F":
            return RingElement(self.ring, self.value * other.value % self.ring.p)
        return RingElement(self.ring, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        if self.ring.kind == "F":
            return RingElement(self.ring, -self.value % self.ring.p)
        return RingElement(self.ring, -self.value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.ring.kind == "F":
            return RingElement(self.ring, pow(self.value, exponent, self.ring.p))
        return RingElement(self.ring, self.value**exponent)

    def div_exact(self, other) -> "RingElement":
        """Exact quotient; InexactDivision over Z when the divisor does not divide."""
        other = self.ring.elem(other)
        if other.is_zero:
            raise DivisionByZero(f"division by zero in {self.ring}")
        if self.ring.kind == "Z":
            q, r = divmod(self.value, other.value)
            if r:
                raise InexactDivision(f"{other.value} does not divide {self.value} in Z")
            return RingElement(self.ring, q)
        return self * other.inverse()

    def inverse(self) -> "RingElement":
        if not self.is_unit:
            raise NotAUnit(f"{self} is not a unit of {self.ring}")
        if self.ring.kind == "Z":
            return self
        if self.ring.kind == "Q":
            return RingElement(self.ring, 1 / self.value)
        return RingElement(self.ring, pow(self.value, -1, self.ring.p))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    @property
    def is_unit(self) -> bool:
        if self.ring.kind == "Z":
            return self.value in (1, -1)
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.elem(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __bool__(self):
        return not self.is_zero

    def sort_key(self):
        """Canonical order: residue for GF(p); (|num|, den, sign) for Z and Q."""
        if self.ring.kind == "F":
            return (self.value,)
        num = self.value if self.ring.kind == "Z" else self.value.numerator
        den = 1 if self.ring.kind == "Z" else self.value.denominator
        return (abs(num), den, 0 if num >= 0 else 1)

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"{self.value}_{self.ring}"


@functools.lru_cache(maxsize=None)
def _unit_group_factors(p: int) -> tuple[tuple[int, int], ...]:
    """(q, a) for every prime power q**a exactly dividing p - 1, q ascending."""
    out, n, q = [], p - 1, 2
    while q * q <= n:
        if n % q == 0:
            a = 0
            while n % q == 0:
                n //= q
                a += 1
            out.append((q, a))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest generator of GF(p)^x, found by trial against the factors of p-1."""
    if p == 2:
        return 1
    qs = [q for q, _ in _unit_group_factors(p)]
    for candidate in range(2, p):
        if all(pow(candidate, (p - 1) // q, p) != 1 for q in qs):
            return candidate
    raise TheoryViolation(f"no primitive root found modulo {p}")


def multiplicative_order(x: RingElement):
    """Order of the unit x, or None if infinite; over GF(p) from the factors of p - 1."""
    if not x.is_unit:
        raise NotAUnit(f"{x} is not a unit of {x.ring}")
    if x.ring.kind != "F":
        return {1: 1, -1: 2}.get(x.value)  # no other unit of Z or Q has finite order
    p, order = x.ring.p, x.ring.p - 1
    for q, a in _unit_group_factors(p):
        for _ in range(a):
            if pow(x.value, order // q, p) != 1:
                break
            order //= q
    return order


def _prime_power_log(base: int, target: int, q: int, a: int, p: int) -> int:
    # Pohlig-Hellman: log of target to base, where base has order q**a; each
    # base-q digit is a baby-step giant-step log in the subgroup of order q
    gamma = pow(base, q ** (a - 1), p)
    m = isqrt(q - 1) + 1
    baby, e = {}, 1
    for j in range(m):
        baby.setdefault(e, j)
        e = e * gamma % p
    giant = pow(gamma, -m, p)
    k = 0
    for i in range(a):
        h = pow(pow(base, -k, p) * target % p, q ** (a - 1 - i), p)
        for step in range(m):
            if h in baby:
                break
            h = h * giant % p
        else:
            raise TheoryViolation(f"{target} is not a power of {base} mod {p}")
        k += (step * m + baby[h]) * q**i
    return k


def _one_fp_root(x: int, d: int, p: int) -> int:
    """Some y with y**d == x in GF(p)^x; x must be a d-th power.

    x is the product of its components of prime-power order q**a.  Where q
    does not divide d, raising to d permutes a component, so its root is a
    power of it; elsewhere the component's discrete log to base g**((p-1)/q**a)
    (Pohlig-Hellman, q | d keeps q small) is divided by d.
    """
    n = p - 1
    g = primitive_root(p)
    y = 1
    for q, a in _unit_group_factors(p):
        qa = q**a
        cofactor = n // qa
        part = pow(x, cofactor * pow(cofactor, -1, qa) % n, p)
        qv = gcd(d, qa)
        if qv == 1:
            y = y * pow(part, pow(d, -1, qa), p) % p
            continue
        base = pow(g, cofactor, p)
        k = _prime_power_log(base, part, q, a, p)
        rest = qa // qv
        y = y * pow(base, k // qv * pow(d // qv, -1, rest) % rest, p) % p
    if pow(y, d, p) != x:
        raise TheoryViolation(f"computed {d}-th root of {x} mod {p} is wrong")
    return y


def _roots_of_unity(p: int, e: int) -> list[int]:
    # the e residues with u**e == 1, ascending; e divides p - 1
    step = pow(primitive_root(p), (p - 1) // e, p)
    values, cur = set(), 1
    for _ in range(e):
        values.add(cur)
        cur = cur * step % p
    if len(values) != e:
        raise TheoryViolation("torsion subgroup has wrong order")
    return sorted(values)


def _root_count(d: int, p: int) -> int:
    # gcd(d, p - 1), the number of u with u**d == 1 in GF(p), within the bound
    e = gcd(d, p - 1)
    if e > MAX_FP_ROOTS:
        raise BoundsExceeded(f"{e} roots of unity mod {p} exceed the limit {MAX_FP_ROOTS}")
    return e


def unit_torsion(ring: Ring, g: int) -> list[RingElement]:
    """All units u with u**g == 1, canonically ordered.

    For Z and Q this is {1} (g odd) or {1, -1} (g even); for GF(p) the cyclic
    subgroup of order gcd(g, p-1), BoundsExceeded above MAX_FP_ROOTS.
    """
    if g < 1:
        raise ValueError("torsion exponent must be >= 1")
    if ring.kind in ("Z", "Q"):
        roots = [ring.elem(1)]
        if g % 2 == 0:
            roots.append(ring.elem(-1))
        return roots
    return [RingElement(ring, v) for v in _roots_of_unity(ring.p, _root_count(g, ring.p))]


def _int_nth_root(n: int, d: int) -> int:
    # floor d-th root of n >= 0 by integer Newton iteration
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0 or d == 1:
        return n
    x = 1 << (n.bit_length() // d + 1)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _exact_int_roots(v: int, d: int) -> list[int]:
    # all integer solutions of x**d == v
    if v == 0:
        return [0]
    if d % 2 == 0 and v < 0:
        return []
    r = _int_nth_root(abs(v), d)
    if r**d != abs(v):
        return []
    if d % 2 == 0:
        return [r, -r]
    return [r if v > 0 else -r]


def nth_roots(x: RingElement, d: int) -> list[RingElement]:
    """All solutions of y**d == x in x's ring, canonically ordered.

    Over GF(p), with e = gcd(d, p - 1), x is a d-th power exactly when
    x**((p-1)/e) == 1; one root (:func:`_one_fp_root`) times the e-th roots
    of unity then gives all e of them, with no search over the field.  An e
    above MAX_FP_ROOTS raises BoundsExceeded before any root is built.
    """
    if d < 1:
        raise ValueError("root index must be >= 1")
    ring = x.ring
    if x.is_zero:
        return [ring.zero()]
    if ring.kind == "Z":
        roots = _exact_int_roots(x.value, d)
    elif ring.kind == "Q":
        nums = _exact_int_roots(x.value.numerator, d)
        dens = [r for r in _exact_int_roots(x.value.denominator, d) if r > 0]
        roots = [Fraction(a, b) for a in nums for b in dens]
    else:
        p = ring.p
        e = _root_count(d, p)
        if pow(x.value, (p - 1) // e, p) != 1:
            return []
        y = _one_fp_root(x.value, d, p)
        return [RingElement(ring, v) for v in sorted(y * u % p for u in _roots_of_unity(p, e))]
    out = [ring.elem(v) for v in roots]
    out.sort(key=RingElement.sort_key)
    return out
