"""Text forms: ring selectors, polynomial expressions, affine maps.

Polynomial grammar (whitespace-insensitive, explicit '*' only):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor (('*' factor) | ('/' nat))*
    factor := base ('^' nat)?
    base   := nat | 't' | '(' expr ')'

``a/b`` denotes the exact quotient, so it is a Q literal when both sides
are numbers and scalar division otherwise; under Z or GF(p) any
denominator other than 1 raises CoefficientNotInRing.  Implicit
multiplication ("2t") is rejected with a position so diagnostics stay
precise.  Exponents, parenthesis nesting and constant-power magnitudes are
capped so malformed input fails with a positioned error instead of
exhausting memory or the interpreter stack; a product or power whose
degree would exceed MAX_EXPONENT raises BoundsExceeded before it is
computed.

The canonical output form (descending powers, "t^k" syntax) is produced
by ``str(poly)``; parsing a canonical form is the identity.
"""

from fractions import Fraction

from .errors import BoundsExceeded, CoefficientNotInRing, ParseError, WrongRing
from .poly import Poly
from .ring import GF, QQ, ZZ, Ring, RingElement

MAX_EXPONENT = 4096
MAX_NESTING = 200
MAX_CONSTANT_BITS = 8192  # keeps every literal formattable under CPython's int-to-str guard


def parse_ring(text: str) -> Ring:
    """Ring selection syntax: "Z", "Q" or "F<p>" (e.g. "F7")."""
    body = text.strip()
    if body == "Z":
        return ZZ
    if body == "Q":
        return QQ
    if body[:1] == "F" and body[1:].isdigit():
        try:
            return GF(int(body[1:]))
        except WrongRing as exc:
            raise ParseError(str(exc), 1) from exc
    raise ParseError(f"unknown ring {text!r}; expected Z, Q or F<p>", 0)


class _Tokens:
    SYMBOLS = set("+-*/^()t")

    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, position)
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.items.append(("num", int(text[i:j]), i))
                i = j
                continue
            if ch in self.SYMBOLS:
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.items.append(("end", None, n))
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok


def _check_degree(degree: int, pos: int):
    # operands never exceed the limit, so a zero operand (degree None -> 0) passes
    if degree > MAX_EXPONENT:
        raise BoundsExceeded(
            f"degree {degree} exceeds the limit {MAX_EXPONENT} (at position {pos})"
        )


class _PolyParser:
    def __init__(self, text: str, ring: Ring):
        self.tokens = _Tokens(text)
        self.ring = ring
        self.depth = 0

    def parse(self) -> Poly:
        value = self.expr()
        kind, _, pos = self.tokens.peek()
        if kind != "end":
            hint = ""
            if kind in ("num", "t", "("):
                hint = "; implicit multiplication is not allowed, use '*'"
            raise ParseError(f"unexpected {self.describe(kind)}{hint}", pos)
        return value

    @staticmethod
    def describe(kind):
        return "number" if kind == "num" else f"'{kind}'"

    def expr(self) -> Poly:
        negate = False
        if self.tokens.peek()[0] in ("+", "-"):
            negate = self.tokens.next()[0] == "-"
        value = self.term()
        if negate:
            value = -value
        while self.tokens.peek()[0] in ("+", "-"):
            op = self.tokens.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            kind, _, pos = self.tokens.peek()
            if kind == "*":
                self.tokens.next()
                rhs = self.factor()
                _check_degree((value.degree() or 0) + (rhs.degree() or 0), pos)
                value = value * rhs
            elif kind == "/":
                self.tokens.next()
                kind2, den, pos2 = self.tokens.next()
                if kind2 != "num":
                    raise ParseError("expected an integer after '/'", pos2)
                if den == 0:
                    raise ParseError("zero denominator", pos2)
                value = value * self.scalar_elem(Fraction(1, den), pos)
            else:
                return value

    def factor(self) -> Poly:
        base = self.base()
        if self.tokens.peek()[0] == "^":
            self.tokens.next()
            kind, exp, pos = self.tokens.next()
            if kind != "num":
                raise ParseError("expected a nonnegative integer exponent after '^'", pos)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds the limit {MAX_EXPONENT}", pos)
            if base.degree() in (None, 0) and exp and self._constant_bits(base) * exp > MAX_CONSTANT_BITS:
                raise ParseError("constant power exceeds the magnitude limit", pos)
            _check_degree((base.degree() or 0) * exp, pos)
            base = base**exp
        return base

    @staticmethod
    def _constant_bits(constant: Poly) -> int:
        if constant.is_zero:
            return 1
        value = constant.coeff(0).value
        if isinstance(value, int):
            return max(value.bit_length(), 1)
        return max(value.numerator.bit_length(), value.denominator.bit_length(), 1)

    def base(self) -> Poly:
        kind, value, pos = self.tokens.next()
        if kind == "num":
            return Poly(self.ring, (self.scalar_elem(value, pos),))
        if kind == "t":
            return Poly.t(self.ring)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} parentheses", pos)
            inner = self.expr()
            self.depth -= 1
            kind2, _, pos2 = self.tokens.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError(f"expected a number, 't' or '(', found {self.describe(kind)}", pos)

    def scalar_elem(self, value, pos) -> RingElement:
        try:
            return self.ring.elem(value)
        except CoefficientNotInRing as exc:
            raise CoefficientNotInRing(f"{value} is not an element of {self.ring}", pos) from exc


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse an exact polynomial expression over the given ring."""
    return _PolyParser(text, ring).parse()


def parse_element(text: str, ring: Ring) -> RingElement:
    """Parse a single element literal (optional sign, digits, /den for Q)."""
    return ring.from_str(text)


def parse_affine_map(text: str, ring: Ring):
    """Parse "alpha,beta" (parentheses optional) into an AffineMap."""
    from .autgroup import AffineMap

    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if len(parts) != 2:
        raise ParseError("affine map must be written as 'alpha,beta'", 0)
    return AffineMap(parse_element(parts[0], ring), parse_element(parts[1], ring))
