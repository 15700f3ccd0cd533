"""Plain coefficient-list polynomial arithmetic for the benchmark.

The workload generators and the output checker use this module to build
inputs and to re-derive expected results.  It deliberately imports nothing
from ``idealaut``: a check computed with the package's own code would
share its defects.

A polynomial is a list of coefficients, ascending by exponent, with no
trailing zeros; ``[]`` is zero.  ``p`` is the characteristic: a prime
for GF(p) (coefficients are ints in ``[0, p)``), or 0 for Z and Q
(coefficients are ints or ``fractions.Fraction``).
"""

from fractions import Fraction


def trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def reduce_coeffs(c, p):
    return trim([v % p for v in c] if p else list(c))


def add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, v in enumerate(b):
        out[j] += v
    return reduce_coeffs(out, p)


def scale(a, s, p):
    return reduce_coeffs([v * s for v in a], p)


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                out[i + j] += va * vb
    return reduce_coeffs(out, p)


def power(a, e, p):
    out = [1]
    while e:
        if e & 1:
            out = mul(out, a, p)
        e >>= 1
        if e:
            a = mul(a, a, p)
    return out


def substitute(c, alpha, beta, p):
    """c(alpha*t + beta) by Horner's rule over coefficient lists."""
    if not c:
        return []
    acc = [c[-1]]
    for v in reversed(c[:-1]):
        nxt = [0] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] += a * alpha
            nxt[i] += a * beta
        nxt[0] += v
        acc = [x % p for x in nxt] if p else nxt
    return trim(acc)


def is_automorphism(c, alpha, beta, p, target=None):
    """The defining identity c(alpha*t + beta) == alpha^n * target (target c by default)."""
    n = len(c) - 1
    lam = pow(alpha, n, p) if p else alpha**n
    return substitute(c, alpha, beta, p) == scale(c if target is None else target, lam, p)


def brute_force_group(f, p, g=None):
    """Every (alpha, beta) over GF(p) with f(alpha*t + beta) == alpha^n * g (g = f by default)."""
    g = f if g is None else g
    n = len(f) - 1
    values = [evaluate(f, b, p) for b in range(p)]
    out = set()
    for alpha in range(1, p):
        # the constant term of f(alpha*t + beta) is f(beta)
        want = pow(alpha, n, p) * g[0] % p if g else 0
        for beta in range(p):
            if values[beta] == want and is_automorphism(f, alpha, beta, p, target=g):
                out.add((alpha, beta))
    return out


def evaluate(c, x, p):
    acc = 0
    for v in reversed(c):
        acc = acc * x + v
        if p:
            acc %= p
    return acc


def inverse(x, p):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def monic(c, p):
    return scale(c, inverse(c[-1], p), p)


def divmod_poly(a, d, p):
    """Quotient and remainder of a by d over a field (GF(p) or Q)."""
    rem = list(a)
    inv = inverse(d[-1], p)
    q = [0] * max(len(a) - len(d) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        top = rem[k + len(d) - 1]
        if top:
            f = top * inv % p if p else top * inv
            q[k] = f
            for j, v in enumerate(d):
                rem[k + j] -= f * v
                if p:
                    rem[k + j] %= p
    return trim(q), trim(rem[: len(d) - 1])


def gcd(a, b, p):
    while b:
        a, b = b, divmod_poly(a, b, p)[1]
    return monic(a, p) if a else a


def pow_mod(base, e, modulus, p):
    out = [1]
    base = divmod_poly(base, modulus, p)[1]
    while e:
        if e & 1:
            out = divmod_poly(mul(out, base, p), modulus, p)[1]
        e >>= 1
        if e:
            base = divmod_poly(mul(base, base, p), modulus, p)[1]
    return out


def is_irreducible(q, p):
    """Ben-Or's test for monic q over GF(p): no factor of degree <= deg(q)/2."""
    x = [0, 1]
    for _ in range((len(q) - 1) // 2):
        x = pow_mod(x, p, q, p)
        if len(gcd(q, add(x, [0, p - 1], p), p)) != 1:
            return False
    return True


def is_quadratic_residue(x, p):
    return pow(x, (p - 1) // 2, p) == 1


def render(c):
    """Canonical text of a polynomial, descending powers, as the CLI echoes it."""
    if not c:
        return "0"
    parts = []
    for j in range(len(c) - 1, -1, -1):
        v = c[j]
        if v == 0:
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
