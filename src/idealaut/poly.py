"""Dense exact univariate polynomials over Z, Q and GF(p).

Coefficients are stored ascending by exponent as raw values of the ring:
an ``int`` for Z, a ``fractions.Fraction`` for Q and an ``int`` residue in
``[0, p)`` for GF(p).  Each operation reads the modulus once
(``ring.char``, 0 for Z and Q) and loops over plain numbers; over GF(p)
each result coefficient is reduced once.  :class:`RingElement` appears only
at the boundary: ``Poly(ring, coeffs)`` coerces its arguments with
``ring.elem``, and ``coeff(j)`` (the coefficient of ``t**j``),
``leading()``, ``coeffs`` and ``evaluate`` return ring elements.

The zero polynomial is the empty coefficient list and reports
``degree() is None`` so callers must handle it explicitly.  "Monic" means
the leading coefficient is a *unit* of the ring (so ``-t**2 + 1`` is monic
over Z); :meth:`Poly.monic` rescales the leading unit to 1.

Beyond the arithmetic operators this module provides affine substitution
``f(alpha*t + beta)`` (a Taylor shift by beta, then c_j *= alpha**j),
gcd, the multiplicity-layer squarefree decomposition (one algorithm,
Musser's, for every characteristic) and the root-centroid utility
:func:`center`.
"""

from math import gcd as _int_gcd

from .errors import (
    BothZero,
    ConstantPolynomial,
    DivisionByZero,
    InexactDivision,
    MixedRings,
    NotAUnit,
    NotMonic,
    TheoryViolation,
)
from .ring import QQ, ZZ, Ring, RingElement


def _reduce(values: list, p: int) -> list:
    """values mod p over GF(p) (p > 0); Z and Q values pass through."""
    return [v % p for v in values] if p else values


class Poly:
    """Immutable dense polynomial; construct with coefficients ascending."""

    __slots__ = ("ring", "_values")

    def __init__(self, ring: Ring, coeffs=()):
        self._set(ring, [ring.elem(c).value for c in coeffs])

    @classmethod
    def _of(cls, ring: Ring, values: list) -> "Poly":
        """Internal constructor: raw values already reduced for ring, ascending."""
        f = object.__new__(cls)
        f._set(ring, values)
        return f

    def _set(self, ring: Ring, values: list):
        while values and not values[-1]:
            values.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_values", tuple(values))

    def __setattr__(self, name, val):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls._of(ring, [])

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return cls(ring, (1,))

    @classmethod
    def t(cls, ring: Ring) -> "Poly":
        """The monomial t."""
        return cls(ring, (0, 1))

    @classmethod
    def from_roots(cls, ring: Ring, roots) -> "Poly":
        """prod (t - a) over the given roots, repetitions allowed."""
        out = cls.one(ring)
        for a in roots:
            out = out * cls(ring, (-ring.elem(a), ring.one()))
        return out

    # -- structure ----------------------------------------------------

    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self._values) - 1 if self._values else None

    @property
    def is_zero(self) -> bool:
        return not self._values

    @property
    def coeffs(self) -> tuple:
        """All coefficients as ring elements, ascending by exponent."""
        ring = self.ring
        return tuple(RingElement(ring, v) for v in self._values)

    def coeff(self, j: int) -> RingElement:
        if 0 <= j < len(self._values):
            return RingElement(self.ring, self._values[j])
        return self.ring.zero()

    def leading(self) -> RingElement:
        if not self._values:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return RingElement(self.ring, self._values[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self._values) and self.leading().is_unit

    def monic(self) -> "Poly":
        """Rescale so the leading coefficient is exactly 1."""
        if not self.is_monic:
            raise NotMonic(f"leading coefficient of {self} is not a unit of {self.ring}")
        lead = self._values[-1]
        if lead == 1:
            return self
        inv = self.leading().inverse().value
        return Poly._of(self.ring, _reduce([v * inv for v in self._values], self.ring.char))

    def _require_same_ring(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise MixedRings(f"polynomials over {self.ring} and {other.ring}")

    def _scalar(self, x):
        """The raw value of a scalar argument coerced into self.ring."""
        if isinstance(x, RingElement) and x.ring is self.ring:
            return x.value
        return self.ring.elem(x).value

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_ring(other)
        a, b = self._values, other._values
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, v in enumerate(b):
            out[j] += v
        return Poly._of(self.ring, _reduce(out, self.ring.char))

    def __neg__(self):
        return Poly._of(self.ring, _reduce([-v for v in self._values], self.ring.char))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (RingElement, int)):
            s = self._scalar(other)
            return Poly._of(ring, _reduce([v * s for v in self._values], ring.char))
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_ring(other)
        a, b = self._values, other._values
        if not a or not b:
            return Poly.zero(ring)
        out = [ring.zero().value] * (len(a) + len(b) - 1)  # Fraction(0) over Q keeps Fractions
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return Poly._of(ring, _reduce(out, ring.char))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        result = Poly.one(self.ring)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __divmod__(self, other):
        """Division with remainder; each quotient step must be exact in the ring."""
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_ring(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        ring = self.ring
        b = other._values
        m = len(b) - 1
        if len(self._values) <= m:
            return Poly.zero(ring), self
        p = ring.char
        lead = b[-1]
        inv = None if ring.kind == "Z" else other.leading().inverse().value
        rem = list(self._values)
        quot = [0] * (len(rem) - m)
        # over GF(p) the remainder entries are reduced only when read as the
        # next top coefficient, and once more when the remainder is returned
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + m] % p if p else rem[k + m]
            if inv is None:
                q, r = divmod(top, lead)
                if r:
                    raise InexactDivision(f"{lead} does not divide {top} in Z")
            else:
                q = top * inv % p if p else top * inv
            quot[k] = q
            if q:
                for j in range(m):
                    rem[k + j] -= q * b[j]
        return Poly._of(ring, quot), Poly._of(ring, _reduce(rem[:m], p))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True when self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        try:
            return (other % self).is_zero
        except InexactDivision:
            return False

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._values == other._values and self.ring == other.ring

    def __hash__(self):
        return hash((self.ring, self._values))

    # -- evaluation and substitution ----------------------------------

    def evaluate(self, x) -> RingElement:
        x = self._scalar(x)
        p = self.ring.char
        acc = self.ring.zero().value
        for c in reversed(self._values):
            acc = acc * x + c
            if p:
                acc %= p
        return RingElement(self.ring, acc)

    def derivative(self) -> "Poly":
        out = [v * j for j, v in enumerate(self._values)][1:]
        return Poly._of(self.ring, _reduce(out, self.ring.char))

    def affine_substitute(self, alpha, beta) -> "Poly":
        """f(alpha*t + beta), computed exactly; alpha must be a unit.

        A Taylor shift by beta gives g(t) = f(t + beta); scaling c_j by
        alpha**j then gives g(alpha*t).
        """
        ring = self.ring
        a = self._scalar(alpha)
        b = self._scalar(beta)
        if not RingElement(ring, a).is_unit:
            raise NotAUnit(f"{a} is not a unit of {ring}")
        p = ring.char
        c = list(self._values)
        n = len(c) - 1
        if b:
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    c[j] += b * c[j + 1]
                    if p:
                        c[j] %= p
        if a != 1:
            power = 1
            for j in range(1, n + 1):
                power = power * a % p if p else power * a
                c[j] *= power
            c = _reduce(c, p)
        return Poly._of(ring, c)

    def shifted(self, z) -> "Poly":
        """f(t + z)."""
        return self.affine_substitute(self.ring.one(), z)

    def root_multiplicity(self, a) -> int:
        """Multiplicity of a as a root (0 when f(a) != 0)."""
        a = self.ring.elem(a)
        if self.is_zero:
            raise DivisionByZero("every element is a root of the zero polynomial")
        linear = Poly(self.ring, (-a, self.ring.one()))
        count, cur = 0, self
        while not cur.evaluate(a):
            cur = cur // linear
            count += 1
            if cur.is_zero:
                break
        return count

    # -- conversions and text -----------------------------------------

    def map_ring(self, target: Ring) -> "Poly":
        """Re-interpret coefficients in another ring (must embed exactly)."""
        return Poly(target, self._values)

    def sort_key(self):
        return (len(self._values), tuple(c.sort_key() for c in self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for j in range(len(self._values) - 1, -1, -1):
            v = self._values[j]
            if not v:
                continue
            text = str(v)
            negative = text.startswith("-")
            mag = text[1:] if negative else text
            if j == 0:
                body = mag
            elif mag == "1":
                body = "t" if j == 1 else f"t^{j}"
            else:
                body = f"{mag}*t" if j == 1 else f"{mag}*t^{j}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.ring}, {self})"


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q/GF(p); primitive gcd with positive leading over Z."""
    f._require_same_ring(g)
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    ring = f.ring
    if ring.kind == "Z":
        h = gcd(f.map_ring(QQ), g.map_ring(QQ))
        return _clear_denominators(h)
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
        if not a.is_zero:
            a = a.monic()  # keeps Q coefficients small
    return a.monic()


def _clear_denominators(f: Poly) -> Poly:
    """Primitive integer polynomial with positive leading, proportional to f over Q."""
    if f.is_zero:
        return Poly.zero(ZZ)
    lcm = 1
    for v in f._values:
        lcm = lcm * v.denominator // _int_gcd(lcm, v.denominator)
    ints = [v.numerator * (lcm // v.denominator) for v in f._values]
    content = 0
    for v in ints:
        content = _int_gcd(content, v)
    if ints[-1] < 0:
        content = -content
    return Poly(ZZ, [v // content for v in ints])


class SquarefreeDecomposition:
    """Multiplicity layers (f_m, m): f's monic form equals prod f_m**m."""

    __slots__ = ("ring", "layers")

    def __init__(self, ring: Ring, layers):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "layers", tuple(sorted(layers, key=lambda lm: lm[1])))

    def __setattr__(self, name, val):
        raise AttributeError("SquarefreeDecomposition is immutable")

    def expand(self) -> Poly:
        out = Poly.one(self.ring)
        for layer, m in self.layers:
            out = out * layer**m
        return out

    def multiplicities(self) -> list[int]:
        return [m for _, m in self.layers]

    def __eq__(self, other):
        if not isinstance(other, SquarefreeDecomposition):
            return NotImplemented
        return self.ring == other.ring and self.layers == other.layers

    def __repr__(self):
        body = ", ".join(f"({layer}, {m})" for layer, m in self.layers)
        return f"SquarefreeDecomposition[{body}]"


def _require_monic_nonconstant(f: Poly):
    if f.is_zero or f.degree() == 0:
        raise ConstantPolynomial(f"{f} is constant")
    if not f.is_monic:
        raise NotMonic(f"leading coefficient of {f} is not a unit of {f.ring}")


def squarefree_decomposition(f: Poly) -> SquarefreeDecomposition:
    """Unique multiplicity-layer decomposition of a monic nonconstant polynomial."""
    _require_monic_nonconstant(f)
    return SquarefreeDecomposition(f.ring, _squarefree(f.monic()))


def _pth_root(f: Poly) -> Poly:
    # inverse of Frobenius on GF(p)[t]: valid when f' == 0, i.e. f = g(t^p)
    p = f.ring.char
    if any(v for j, v in enumerate(f._values) if j % p):
        raise TheoryViolation("p-th root requested of a non-p-th-power")
    return Poly._of(f.ring, list(f._values[::p]))  # c**(1/p) == c in GF(p)


def _squarefree(f: Poly):
    # Musser's algorithm; f monic with leading coefficient 1.  Over Z every
    # gcd and quotient is monic and integral (Gauss's lemma); in characteristic
    # 0 no derivative vanishes and g ends at 1, so the p-th roots never run
    p = f.ring.char
    layers = []
    scale = 1
    while True:
        d = f.derivative()
        if d.is_zero:
            f = _pth_root(f)
            scale *= p
            continue
        g = gcd(f, d)
        w = f // g
        i = 1
        while w.degree() > 0:
            y = gcd(w, g)
            layer = w // y
            if layer.degree() > 0:
                layers.append((layer, i * scale))
            w = y
            g = g // y
            i += 1
        if g.degree() == 0:
            return layers
        f = _pth_root(g)
        scale *= p


def center(f: Poly):
    """The element z with deg(f)*z = sum of roots (= -c_{n-1}), or None.

    Always exists over Q; over Z only when n divides c_{n-1}; over GF(p)
    with p | n only in the degenerate c_{n-1} = 0 case, where every z
    works and 0 is returned as the canonical choice.
    """
    _require_monic_nonconstant(f)
    g = f.monic()
    n = g.degree()
    ring = g.ring
    rhs = -g.coeff(n - 1)
    n_elem = ring.elem(n)
    if not n_elem.is_zero:
        try:
            return rhs.div_exact(n_elem)
        except InexactDivision:
            return None
    return ring.zero() if rhs.is_zero else None
