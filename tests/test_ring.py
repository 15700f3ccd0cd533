"""Ring layer: exact arithmetic, units, torsion subgroups, roots."""

import random
from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealaut import GF, QQ, ZZ, RingElement, nth_roots, unit_torsion
import idealaut.ring as ring_module
from idealaut.ring import MAX_FP_ROOTS, is_prime, multiplicative_order
from idealaut.errors import (
    BoundsExceeded,
    CoefficientNotInRing,
    DivisionByZero,
    InexactDivision,
    MixedRings,
    NotAUnit,
    WrongRing,
)

RINGS = [ZZ, QQ, GF(2), GF(3), GF(7), GF(101)]


def test_fraction_addition():
    assert QQ.elem(Fraction(1, 2)) + QQ.elem(Fraction(1, 3)) == QQ.elem(Fraction(5, 6))


def test_f5_multiplication():
    F5 = GF(5)
    assert F5.elem(3) * F5.elem(4) == F5.elem(2)  # 12 mod 5


def test_div_exact_inexact_over_z():
    with pytest.raises(InexactDivision):
        ZZ.elem(6).div_exact(ZZ.elem(4))
    assert ZZ.elem(6).div_exact(ZZ.elem(3)) == ZZ.elem(2)
    assert ZZ.elem(-6).div_exact(ZZ.elem(2)) == ZZ.elem(-3)


def test_division_by_zero():
    for ring in (ZZ, QQ, GF(7)):
        with pytest.raises(DivisionByZero):
            ring.elem(1).div_exact(ring.zero())


def test_is_unit():
    assert ZZ.elem(-1).is_unit
    assert not ZZ.elem(2).is_unit
    assert not GF(7).elem(0).is_unit
    assert QQ.elem(Fraction(2, 3)).is_unit
    assert not QQ.zero().is_unit


def test_mixed_rings_rejected():
    with pytest.raises(MixedRings):
        ZZ.elem(1) + QQ.elem(1)
    with pytest.raises(MixedRings):
        GF(3).elem(1) * GF(5).elem(1)


def test_inverse_requires_unit():
    with pytest.raises(NotAUnit):
        ZZ.elem(2).inverse()
    assert GF(7).elem(3).inverse() == GF(7).elem(5)  # 3*5 = 15 = 1 mod 7


def test_gf_validates_modulus():
    with pytest.raises(WrongRing):
        GF(6)
    with pytest.raises(WrongRing):
        GF(1)
    assert GF(2).p == 2


def test_element_text_roundtrip():
    cases = [(ZZ, "-3"), (ZZ, "17"), (QQ, "5/6"), (QQ, "-7/3"), (QQ, "4"), (GF(7), "6")]
    for ring, text in cases:
        assert str(ring.from_str(text)) == text
    assert GF(7).from_str("-1") == GF(7).elem(6)
    with pytest.raises(CoefficientNotInRing):
        ZZ.from_str("1/2")
    with pytest.raises(CoefficientNotInRing):
        GF(5).from_str("1/2")


# --- unit torsion ----------------------------------------------------

def test_unit_torsion_q2():
    # solving u**2 = 1 in Q by hand: u = 1 or u = -1
    assert unit_torsion(QQ, 2) == [QQ.elem(1), QQ.elem(-1)]


def test_unit_torsion_z3():
    # (-1)**3 = -1, so only 1 remains
    assert unit_torsion(ZZ, 3) == [ZZ.elem(1)]


def brute_torsion(p, g):
    # independent oracle: scan the whole unit group
    return sorted(a for a in range(1, p) if pow(a, g, p) == 1)


def test_unit_torsion_f7_cubed():
    assert brute_torsion(7, 3) == [1, 2, 4]
    assert unit_torsion(GF(7), 3) == [GF(7).elem(v) for v in (1, 2, 4)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 97, 101])
def test_unit_torsion_matches_exhaustive_scan(p):
    ring = GF(p)
    for g in list(range(1, 13)) + [p - 1, p, 60]:
        expected = brute_torsion(p, g)
        got = [e.value for e in unit_torsion(ring, g)]
        assert got == expected
        assert len(got) == int_gcd(g, p - 1)


@pytest.mark.parametrize("ring", RINGS)
def test_unit_torsion_is_a_group(ring):
    for g in (1, 2, 3, 4, 6, 12):
        elems = unit_torsion(ring, g)
        members = set(elems)
        assert ring.one() in members
        for x in elems:
            assert x.inverse() in members
            for y in elems:
                assert x * y in members


# --- ring axioms (hypothesis) ----------------------------------------

def elements_of(ring):
    if ring.kind == "Z":
        return st.integers(-10**6, 10**6).map(ring.elem)
    if ring.kind == "Q":
        return st.fractions(
            min_value=-10**4, max_value=10**4, max_denominator=10**4
        ).map(ring.elem)
    return st.integers(0, ring.p - 1).map(ring.elem)


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutative_ring_axioms(ring, data):
    x = data.draw(elements_of(ring))
    y = data.draw(elements_of(ring))
    z = data.draw(elements_of(ring))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ring.zero() == x
    assert x * ring.one() == x
    assert x + (-x) == ring.zero()


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_div_exact_inverts_multiplication(ring, data):
    x = data.draw(elements_of(ring))
    y = data.draw(elements_of(ring).filter(lambda e: not e.is_zero))
    assert (x * y).div_exact(y) == x


# --- nth roots --------------------------------------------------------

def test_nth_roots_over_q():
    roots = nth_roots(QQ.elem(4), 2)
    assert roots == [QQ.elem(2), QQ.elem(-2)]
    assert nth_roots(QQ.elem(Fraction(8, 27)), 3) == [QQ.elem(Fraction(2, 3))]
    assert nth_roots(QQ.elem(-4), 2) == []
    assert nth_roots(QQ.elem(5), 2) == []


def test_nth_roots_over_z():
    assert nth_roots(ZZ.elem(-8), 3) == [ZZ.elem(-2)]
    assert nth_roots(ZZ.elem(0), 5) == [ZZ.zero()]


@pytest.mark.parametrize("p", [3, 5, 7, 13, 101])
def test_nth_roots_match_scan_over_fp(p):
    ring = GF(p)
    rng = random.Random(p)
    for _ in range(25):
        d = rng.randint(1, 12)
        v = rng.randrange(p)
        expected = sorted(x for x in range(p) if pow(x, d, p) == v % p)
        # x = 0 solves only v = 0; nth_roots reports it as the single root then
        got = [e.value for e in nth_roots(ring.elem(v), d)]
        assert got == expected, (p, d, v)


# 2^31 - 1, whose p - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331 is smooth, and the
# largest p < 2^31 with (p - 1)/2 prime: one huge prime-order component
LARGE_PRIMES = [2**31 - 1, 2147483579]


def test_safe_prime_is_the_largest_below_2_31():
    p = LARGE_PRIMES[1]
    assert is_prime(p) and is_prime((p - 1) // 2)
    assert not any(is_prime(q) and is_prime((q - 1) // 2) for q in range(p + 1, 2**31))


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_nth_roots_over_large_primes(p):
    ring = GF(p)
    rng = random.Random(p % 1000)
    for d in (1, 2, 3, 4, 6, 7, 8, 9, 12, 16, 18, 31, 64, 2 * 3 * 7 * 11, 4096):
        e = int_gcd(d, p - 1)
        for _ in range(4):
            y = rng.randrange(1, p)
            x = pow(y, d, p)
            roots = [r.value for r in nth_roots(ring.elem(x), d)]
            assert len(roots) == e and len(set(roots)) == e
            assert roots == sorted(roots)
            assert y in roots
            assert all(pow(r, d, p) == x for r in roots)
        # x is a d-th power iff x^((p-1)/e) == 1 (Euler's criterion for e)
        misses = 0
        while misses < 3 and e > 1:
            x = rng.randrange(1, p)
            if pow(x, (p - 1) // e, p) != 1:
                assert nth_roots(ring.elem(x), d) == []
                misses += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 97, 101])
def test_multiplicative_order_matches_powering(p):
    for a in range(1, p):
        k = 1
        while pow(a, k, p) != 1:
            k += 1
        assert multiplicative_order(GF(p).elem(a)) == k


def test_multiplicative_order_in_characteristic_zero():
    for ring in (ZZ, QQ):
        assert multiplicative_order(ring.elem(1)) == 1
        assert multiplicative_order(ring.elem(-1)) == 2
    assert multiplicative_order(QQ.elem(Fraction(1, 2))) is None
    with pytest.raises(NotAUnit):
        multiplicative_order(ZZ.elem(2))


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40).filter(bool),
    st.integers(1, 6),
)
def test_nth_roots_recover_constructed_rational_roots(r, d):
    x = QQ.elem(r**d)
    roots = nth_roots(x, d)
    assert QQ.elem(r) in roots
    for y in roots:
        assert y**d == x
    expected = 2 if d % 2 == 0 else 1
    assert len(roots) == expected


def test_canonical_sort_order():
    keyed = sorted(
        [QQ.elem(v) for v in (Fraction(1, 2), -1, 2, 1, Fraction(-1, 2), -2)],
        key=RingElement.sort_key,
    )
    assert [str(e) for e in keyed] == ["1", "-1", "1/2", "-1/2", "2", "-2"]


def test_fp_root_lists_above_the_bound_raise_before_any_root_is_built(monkeypatch):
    def no_roots(p, e):
        raise AssertionError("roots of unity were built")

    monkeypatch.setattr(ring_module, "_roots_of_unity", no_roots)
    p = 2147483647
    assert p - 1 > MAX_FP_ROOTS
    with pytest.raises(BoundsExceeded):
        nth_roots(GF(p).one(), p - 1)
    with pytest.raises(BoundsExceeded):
        unit_torsion(GF(p), p - 1)


def test_fp_root_lists_at_the_bound_are_complete():
    p = 65537
    assert p - 1 == MAX_FP_ROOTS
    roots = [r.value for r in nth_roots(GF(p).one(), p - 1)]
    assert roots == list(range(1, p))
