"""Error branches and small API contracts not touched by the main suites."""

import pytest

from idealaut import (
    GF,
    QQ,
    ZZ,
    AffineMap,
    FiniteAutGroup,
    Poly,
    UnitsGroup,
    agrees_with,
    compute_aut,
    enumerate_auts,
    groups_equal,
    parse_poly,
    unit_torsion,
)
from idealaut.errors import (
    CoefficientNotInRing,
    DivisionByZero,
    MixedRings,
    TheoryViolation,
    WrongRing,
)


def test_ring_elem_coercion_errors():
    with pytest.raises(MixedRings):
        QQ.elem(ZZ.elem(1))
    with pytest.raises(TypeError):
        ZZ.elem(1.5)
    assert QQ.elem("2/3") == QQ.from_str("2/3")
    with pytest.raises(CoefficientNotInRing):
        ZZ.from_str("abc")
    with pytest.raises(DivisionByZero):
        QQ.from_str("1/0")


def test_q_units_are_not_enumerable():
    with pytest.raises(WrongRing):
        QQ.units()
    with pytest.raises(WrongRing):
        UnitsGroup(QQ.elem(3)).elements()
    assert UnitsGroup(ZZ.elem(1)).order() == 2
    assert UnitsGroup(GF(11).elem(1)).order() == 10


def test_unit_torsion_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        unit_torsion(QQ, 0)


def test_values_are_immutable():
    x = QQ.elem(1)
    with pytest.raises(AttributeError):
        x.value = 2
    f = Poly.one(QQ)
    with pytest.raises(AttributeError):
        f.coeffs = ()
    m = AffineMap.identity(QQ)
    with pytest.raises(AttributeError):
        m.alpha = QQ.elem(2)


def test_zero_polynomial_guards():
    zero = Poly.zero(QQ)
    with pytest.raises(DivisionByZero):
        zero.leading()
    with pytest.raises(DivisionByZero):
        zero.root_multiplicity(0)
    assert zero.coeff(3) == QQ.zero()
    assert zero.divides(zero)
    assert not zero.divides(Poly.one(QQ))
    with pytest.raises(ValueError):
        Poly.one(QQ) ** -1


def test_finite_group_construction_guards():
    with pytest.raises(TheoryViolation):
        FiniteAutGroup.from_elements([])
    reflection_only = [AffineMap(QQ.elem(-1), QQ.zero())]
    with pytest.raises(TheoryViolation):
        FiniteAutGroup.from_elements(reflection_only)  # misses the identity
    not_closed = [
        AffineMap(QQ.elem(1), QQ.zero()),
        AffineMap(QQ.elem(2), QQ.zero()),  # powers of 2 escape
    ]
    with pytest.raises(TheoryViolation):
        FiniteAutGroup.from_elements(not_closed)


def test_groups_equal_mixed_kinds():
    f = parse_poly("(t-2)^4", GF(5))
    units = UnitsGroup(GF(5).elem(2))
    assert groups_equal(units, units.to_finite())
    assert groups_equal(units.to_finite(), units)
    assert not groups_equal(UnitsGroup(QQ.elem(2)), units.to_finite())
    assert not groups_equal(units, UnitsGroup(GF(5).elem(3)))
    assert agrees_with(enumerate_auts(f), units)


def test_groups_equal_units_against_finite_without_expansion():
    # 2^31 - 2 units against a group of order 2: decided by the orders
    big = UnitsGroup(GF(2**31 - 1).elem(3))
    small = compute_aut(parse_poly("t^2 - 1", GF(2**31 - 1)))
    assert small.order == 2
    assert not groups_equal(big, small)
    assert not groups_equal(small, big)
    # equal orders: membership decides, and a group over another ring never matches
    assert not groups_equal(UnitsGroup(GF(5).elem(3)), UnitsGroup(GF(5).elem(2)).to_finite())
    assert not groups_equal(UnitsGroup(GF(3).elem(0)), compute_aut(parse_poly("t^2 - 1", QQ)))
    assert groups_equal(UnitsGroup(ZZ.elem(4)), UnitsGroup(ZZ.elem(4)).to_finite())


def test_agrees_with_rejects_foreign_objects():
    report = enumerate_auts(parse_poly("t^2-1", GF(7)))
    assert not agrees_with(report, object())
    assert not agrees_with(report, UnitsGroup(QQ.elem(1)))
