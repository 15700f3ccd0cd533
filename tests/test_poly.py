"""Polynomial layer: substitution, gcd, squarefree layers, centroid."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_from_roots, random_monic
from idealaut import (
    GF,
    QQ,
    ZZ,
    Poly,
    RingElement,
    center,
    gcd,
    parse_poly,
    squarefree_decomposition,
)
from idealaut.errors import (
    BothZero,
    ConstantPolynomial,
    DivisionByZero,
    InexactDivision,
    MixedRings,
    NotAUnit,
    NotMonic,
)


def Q(text):
    return parse_poly(text, QQ)


def test_zero_polynomial_degree_is_none():
    zero = Poly.zero(QQ)
    assert zero.degree() is None
    assert zero.is_zero
    assert Poly(QQ, (0, 0, 0)) == zero
    assert Poly.one(QQ).degree() == 0


def test_monic_means_unit_leading():
    assert Q("t^2-1").is_monic
    assert parse_poly("-t^2+1", ZZ).is_monic  # -1 is a unit of Z
    assert not parse_poly("2*t^2-1", ZZ).is_monic
    assert parse_poly("2*t^2-1", QQ).is_monic  # 2 is invertible in Q
    assert parse_poly("-t^2+1", ZZ).monic() == parse_poly("t^2-1", ZZ)
    with pytest.raises(NotMonic):
        parse_poly("2*t", ZZ).monic()


def test_arithmetic_basics():
    f = Q("t^2-1")
    g = Q("t+1")
    assert f + g == Q("t^2+t")
    assert f - f == Poly.zero(QQ)
    assert f * g == Q("t^3+t^2-t-1")
    assert g**3 == Q("t^3+3*t^2+3*t+1")
    q, r = divmod(f, g)
    assert q == Q("t-1") and r.is_zero
    q, r = divmod(Q("t^3"), Q("t^2+1"))
    assert q == Q("t") and r == Q("-t")
    with pytest.raises(DivisionByZero):
        divmod(f, Poly.zero(QQ))
    with pytest.raises(MixedRings):
        f + parse_poly("t", ZZ)


def test_evaluate_and_derivative():
    f = Q("t^3 - 3*t + 2")
    assert f.evaluate(1) == QQ.zero()
    assert f.evaluate(Fraction(1, 2)) == QQ.elem(Fraction(5, 8))
    assert f.derivative() == Q("3*t^2 - 3")
    assert parse_poly("t^3 + t", GF(3)).derivative() == parse_poly("1", GF(3))


# --- affine substitution ----------------------------------------------

def test_affine_substitute_identity():
    f = Q("t^4 - 2*t + 7")
    assert f.affine_substitute(1, 0) == f


def test_affine_substitute_even_polynomial():
    f = Q("t^2-1")
    assert f.affine_substitute(-1, 0) == f


def test_affine_substitute_shift():
    # (t-1)^2 - 1 = t^2 - 2t, expanded by hand
    assert Q("t^2-1").affine_substitute(1, -1) == Q("t^2 - 2*t")


def test_affine_substitute_requires_unit():
    with pytest.raises(NotAUnit):
        parse_poly("t^2", ZZ).affine_substitute(2, 0)


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(5), GF(7)])
def test_substitution_composition_law(ring):
    rng = random.Random(99)
    units = [1, -1] if ring.kind != "F" else list(range(1, ring.p))
    for _ in range(40):
        f = random_monic(ring, rng.randint(1, 6), rng)
        a1, a2 = ring.elem(rng.choice(units)), ring.elem(rng.choice(units))
        b1, b2 = ring.elem(rng.randint(-5, 5)), ring.elem(rng.randint(-5, 5))
        twice = f.affine_substitute(a1, b1).affine_substitute(a2, b2)
        once = f.affine_substitute(a1 * a2, b1 + a1 * b2)
        assert twice == once
        assert twice.degree() == f.degree()


# --- kernel against naive list-of-values references ---------------------

KERNEL_RINGS = {
    "Z": (ZZ, lambda rng: rng.randint(-50, 50)),
    "Q": (QQ, lambda rng: Fraction(rng.randint(-20, 20), rng.randint(1, 9))),
    "F2": (GF(2), lambda rng: rng.randrange(2)),
    "F2147483647": (GF(2**31 - 1), lambda rng: rng.randrange(2**31 - 1)),
}
KERNEL_DEGREES = list(range(17)) + [24, 31, 32, 33, 48, 63, 64]


def _ref_reduce(ring, values):
    return [v % ring.p for v in values] if ring.kind == "F" else list(values)


def _ref_norm(ring, values):
    """Reduce over GF(p) and drop leading zeros, as plain values."""
    out = _ref_reduce(ring, values)
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_mul(ring, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_norm(ring, out)


def _ref_compose(ring, c, alpha, beta):
    # Horner over lists: acc -> acc * (alpha*t + beta) + c_j
    acc = []
    for cj in reversed(c):
        nxt = [0] * (len(acc) + 1)
        for i, v in enumerate(acc):
            nxt[i] += v * beta
            nxt[i + 1] += v * alpha
        nxt[0] += cj
        acc = _ref_reduce(ring, nxt)
    return _ref_norm(ring, acc)


def _ref_divide(ring, x, y):
    if ring.kind == "F":
        return x * pow(y, -1, ring.p) % ring.p
    if ring.kind == "Q":
        return Fraction(x) / y
    q, r = divmod(x, y)
    assert r == 0
    return q


def _ref_divmod(ring, a, b):
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = _ref_divide(ring, rem[k + len(b) - 1], b[-1])
        quot[k] = q
        for j, v in enumerate(b):
            rem[k + j] -= q * v
        rem = _ref_reduce(ring, rem)
    return _ref_norm(ring, quot), _ref_norm(ring, rem[: len(b) - 1])


def _ref_unit(ring, rng):
    if ring.kind == "Z":
        return rng.choice((1, -1))
    if ring.kind == "Q":
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
    return rng.randrange(1, ring.p)


def _values(f):
    """Raw coefficient values, read through the RingElement accessors."""
    out = []
    for c in f.coeffs:
        assert isinstance(c, RingElement) and c.ring == f.ring
        assert isinstance(c.value, Fraction if f.ring.kind == "Q" else int)
        out.append(c.value)
    return out


@pytest.mark.parametrize("name", KERNEL_RINGS)
def test_kernel_mul_matches_convolution(name):
    ring, draw = KERNEL_RINGS[name]
    rng = random.Random(101)
    for _ in range(40):
        a = [draw(rng) for _ in range(rng.randint(0, 24))]
        b = [draw(rng) for _ in range(rng.randint(0, 24))]
        expected = _ref_mul(ring, _ref_norm(ring, a), _ref_norm(ring, b))
        assert _values(Poly(ring, a) * Poly(ring, b)) == expected
        s = draw(rng)
        assert _values(Poly(ring, a) * ring.elem(s)) == _ref_mul(ring, _ref_norm(ring, a), [s])


@pytest.mark.parametrize("name", KERNEL_RINGS)
def test_kernel_divmod_matches_long_division(name):
    ring, draw = KERNEL_RINGS[name]
    rng = random.Random(102)
    for _ in range(40):
        b = [draw(rng) for _ in range(rng.randint(0, 12))] + [_ref_unit(ring, rng)]
        a = [draw(rng) for _ in range(rng.randint(0, 30))]
        q, r = divmod(Poly(ring, a), Poly(ring, b))
        eq, er = _ref_divmod(ring, _ref_norm(ring, a), _ref_norm(ring, b))
        assert (_values(q), _values(r)) == (eq, er)


@pytest.mark.parametrize("name", KERNEL_RINGS)
def test_kernel_affine_substitute_matches_horner_composition(name):
    ring, draw = KERNEL_RINGS[name]
    rng = random.Random(103)
    for n in KERNEL_DEGREES:
        f = [draw(rng) for _ in range(n)] + [_ref_unit(ring, rng)]
        maps = [(-1, draw(rng)), (1, draw(rng)), (_ref_unit(ring, rng), 0),
                (_ref_unit(ring, rng), draw(rng)), (1, 0)]
        for alpha, beta in maps:
            c, a, b = _ref_norm(ring, f), _ref_norm(ring, [alpha]), _ref_norm(ring, [beta])
            expected = _ref_compose(ring, c, a[0], b[0] if b else 0)
            got = Poly(ring, f).affine_substitute(alpha, beta)
            assert _values(got) == expected
            assert got.degree() == n


def test_kernel_z_divmod_raises_inexact_division():
    with pytest.raises(InexactDivision):
        divmod(Poly(ZZ, (1, 0, 1)), Poly(ZZ, (1, 2)))
    # the first quotient step is exact, the second is not
    with pytest.raises(InexactDivision):
        divmod(Poly(ZZ, (5, 1, 0, 2)), Poly(ZZ, (1, 2)))
    q, r = divmod(Poly(ZZ, (0, 2, 2)), Poly(ZZ, (0, 2)))
    assert q == Poly(ZZ, (1, 1)) and r.is_zero


@pytest.mark.parametrize("name", KERNEL_RINGS)
def test_kernel_accessors_return_ring_elements(name):
    ring, draw = KERNEL_RINGS[name]
    rng = random.Random(104)
    f = Poly(ring, [draw(rng) for _ in range(6)] + [1]) * Poly.t(ring)
    for c in (f.leading(), f.coeff(0), f.coeff(3), f.coeff(99), f.evaluate(2)):
        assert isinstance(c, RingElement) and c.ring == ring
        assert isinstance(c.value, Fraction if ring.kind == "Q" else int)
    assert _values(f)[0] == 0
    assert f.coeffs == tuple(f.coeff(j) for j in range(f.degree() + 1))


# --- gcd ---------------------------------------------------------------

def test_gcd_with_zero_is_monic_normalization():
    f = Q("2*t^2 - 2")
    assert gcd(f, Poly.zero(QQ)) == Q("t^2 - 1")
    with pytest.raises(BothZero):
        gcd(Poly.zero(QQ), Poly.zero(QQ))


def test_gcd_common_factor():
    # (t-1)(t+1) and (t-1)^2 share t-1
    assert gcd(Q("t^2-1"), Q("t^2-2*t+1")) == Q("t-1")


def test_gcd_coprime():
    assert gcd(Q("t^2+1"), Q("t^2-1")) == Poly.one(QQ)


def test_gcd_over_z_is_primitive_positive():
    f = parse_poly("2*t^2 - 2", ZZ)
    g = parse_poly("-4*t - 4", ZZ)
    assert gcd(f, g) == parse_poly("t + 1", ZZ)


@pytest.mark.parametrize("ring", [QQ, GF(5), GF(13)])
def test_gcd_divides_both(ring):
    rng = random.Random(7)
    for _ in range(30):
        shared = random_monic(ring, rng.randint(0, 3), rng)
        f = shared * random_monic(ring, rng.randint(1, 4), rng)
        g = shared * random_monic(ring, rng.randint(1, 4), rng)
        d = gcd(f, g)
        assert d.divides(f) and d.divides(g)
        assert shared.monic().divides(d)


# --- squarefree decomposition ------------------------------------------

def test_squarefree_example_by_expansion():
    # f = (t-1)^2 (t+2) = t^3 - 3t + 2, verified by expanding the layers back
    dec = squarefree_decomposition(Q("t^3 - 3*t + 2"))
    assert dec.layers == ((Q("t+2"), 1), (Q("t-1"), 2))
    assert dec.expand() == Q("t^3 - 3*t + 2")


def test_squarefree_single_layer():
    f = Q("t^3 + t + 1")
    assert gcd(f, f.derivative()).degree() == 0
    assert squarefree_decomposition(f).layers == ((f, 1),)


@pytest.mark.parametrize("p,c", [(3, 2), (5, 3), (7, 1)])
def test_frobenius_power_layer(p, c):
    # t^p - c = (t - c)^p over GF(p)
    ring = GF(p)
    f = Poly(ring, [-c] + [0] * (p - 1) + [1])
    dec = squarefree_decomposition(f)
    assert dec.layers == ((Poly(ring, (-c, 1)), p),)


def test_squarefree_rejects_bad_input():
    with pytest.raises(NotMonic):
        squarefree_decomposition(parse_poly("2*t^2", ZZ))
    with pytest.raises(ConstantPolynomial):
        squarefree_decomposition(Q("5"))


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(2), GF(3), GF(5), GF(13)])
def test_squarefree_reexpands_on_constructed_products(ring):
    rng = random.Random(11)
    for _ in range(40):
        f, assignment = random_from_roots(ring, rng, rng.randint(1, 3), max_mult=4)
        dec = squarefree_decomposition(f)
        assert dec.expand() == f.monic()
        # layers reproduce the multiplicity profile of the construction
        by_mult = {}
        for root, mult in assignment:
            by_mult.setdefault(mult, []).append(root)
        expected = {
            m: Poly.from_roots(ring, roots) for m, roots in by_mult.items()
        }
        assert dict((m, layer) for layer, m in dec.layers) == expected


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(7)])
def test_squarefree_reexpands_on_random_dense(ring):
    rng = random.Random(13)
    for _ in range(40):
        f = random_monic(ring, rng.randint(1, 8), rng)
        dec = squarefree_decomposition(f)
        assert dec.expand() == f.monic()
        for layer, _ in dec.layers:
            assert layer.is_monic
            assert gcd(layer, layer.derivative()).degree() == 0 or layer.derivative().is_zero


def test_layers_pairwise_coprime():
    rng = random.Random(17)
    for ring in (QQ, GF(5)):
        for _ in range(20):
            f, _ = random_from_roots(ring, rng, 3, max_mult=4)
            layers = squarefree_decomposition(f).layers
            for i in range(len(layers)):
                for j in range(i + 1, len(layers)):
                    assert gcd(layers[i][0], layers[j][0]).degree() == 0


# --- center -------------------------------------------------------------

def test_center_examples():
    # roots 0, 1, 2 sum to 3; 3/3 = 1
    assert center(Q("t^3 - 3*t^2 + 2*t")) == QQ.elem(1)
    # 2z = 1 has no integer solution
    assert center(parse_poly("t^2 - t", ZZ)) is None
    # all roots equal a
    assert center(Q("(t-5)^3")) == QQ.elem(5)
    assert center(parse_poly("(t-2)^3", GF(7))) == GF(7).elem(2)


def test_center_fp_when_p_divides_degree():
    ring = GF(3)
    assert center(parse_poly("t^3 - t", ring)) == ring.zero()  # c_2 = 0: every z works
    assert center(parse_poly("t^3 + t^2", ring)) is None


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_center_exists_over_fp_when_degree_invertible(p):
    ring = GF(p)
    rng = random.Random(p)
    for _ in range(30):
        n = rng.randint(1, 8)
        if n % p == 0:
            continue
        f = random_monic(ring, n, rng)
        z = center(f)
        assert z is not None
        assert ring.elem(n) * z == -f.coeff(n - 1)


# --- parsing and formatting round trips ----------------------------------

def test_parse_examples():
    assert Q("t^3 - 3*t + 2").coeffs == tuple(QQ.elem(v) for v in (2, -3, 0, 1))
    assert parse_poly("(t-1)^2*(t+2)", QQ) == Q("t^3 - 3*t + 2")


def test_format_is_canonical_fixed_point():
    texts = [
        "t^3 - 3*t + 2",
        "-t^2 + 1/2*t - 7",
        "t^10 + t",
        "0",
        "42",
        "(1/2*t - 1)^3",
    ]
    for text in texts:
        once = str(parse_poly(text, QQ))
        assert str(parse_poly(once, QQ)) == once


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=0, max_size=9))
def test_format_parse_roundtrip_hypothesis(coeffs):
    f = Poly(ZZ, coeffs)
    assert parse_poly(str(f), ZZ) == f
