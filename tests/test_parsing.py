"""Grammar, diagnostics with positions, and canonical-form round trips."""

import pytest

from idealaut import GF, QQ, ZZ, parse_affine_map, parse_element, parse_poly, parse_ring
from idealaut.errors import BoundsExceeded, CoefficientNotInRing, ParseError


def test_parse_ring_selectors():
    assert parse_ring("Z") is ZZ
    assert parse_ring("Q") is QQ
    assert parse_ring("F7").p == 7
    with pytest.raises(ParseError):
        parse_ring("F8")
    with pytest.raises(ParseError):
        parse_ring("R")


def test_whitespace_insensitive():
    assert parse_poly("t^2-1", QQ) == parse_poly("  t ^ 2   -   1 ", QQ)


def test_leading_sign():
    assert parse_poly("-t^2 + 1", QQ) == -parse_poly("t^2 - 1", QQ)
    assert parse_poly("(-t)^2", QQ) == parse_poly("t^2", QQ)
    assert parse_poly("+3", ZZ) == parse_poly("3", ZZ)


def test_rational_literals():
    f = parse_poly("1/2*t^2 - 3/4", QQ)
    assert str(f) == "1/2*t^2 - 3/4"
    assert parse_poly("t/2", QQ) == parse_poly("1/2*t", QQ)


def test_coefficient_not_in_ring():
    with pytest.raises(CoefficientNotInRing):
        parse_poly("t/2", ZZ)
    with pytest.raises(CoefficientNotInRing):
        parse_poly("1/2", ZZ)
    with pytest.raises(CoefficientNotInRing):
        parse_poly("1/2*t", GF(7))
    # dividing by 1 stays inside every ring
    assert parse_poly("t/1", ZZ) == parse_poly("t", ZZ)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("t +", 3),
        ("(t", 2),
        ("2t", 1),
        ("t t", 2),
        ("t^-1", 2),
        ("t^", 2),
        ("t^(2)", 2),
        ("1/t", 2),
        ("t/0", 2),
        ("t**2", 2),
        ("x + 1", 0),
        ("2--3", 2),
        ("(t+1))", 5),
    ],
)
def test_syntax_errors_report_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, QQ)
    assert info.value.position == position


def test_implicit_multiplication_hint():
    with pytest.raises(ParseError) as info:
        parse_poly("2t", QQ)
    assert "implicit multiplication" in str(info.value)


def test_exponent_limit():
    with pytest.raises(ParseError):
        parse_poly("t^99999", QQ)


@pytest.mark.parametrize(
    "text",
    ["t^4096*t^4096*t^4096", "t^4096*t", "(t^2)^4096", "(t^64)^64*(t+1)", "(t^2048*t^2048)^2"],
)
def test_total_degree_budget(text):
    with pytest.raises(BoundsExceeded) as info:
        parse_poly(text, GF(7))
    assert "exceeds the limit 4096" in str(info.value)


def test_total_degree_budget_admits_degree_4096():
    assert parse_poly("t^2048*t^2048", GF(7)).degree() == 4096
    assert parse_poly("(t^2)^2048", GF(7)).degree() == 4096
    assert parse_poly("0*t^4096*t^4096", GF(7)).is_zero


def test_constant_power_magnitude_limit():
    with pytest.raises(ParseError):
        parse_poly("852^1903", QQ)
    with pytest.raises(ParseError):
        parse_poly("(9^4000)^4000", QQ)
    assert parse_poly("2^64", ZZ).coeff(0) == ZZ.elem(2**64)


def test_nesting_depth_limit():
    deep = "(" * 4000 + "t" + ")" * 4000
    with pytest.raises(ParseError) as info:
        parse_poly(deep, QQ)
    assert "nesting" in str(info.value)
    fine = "(" * 50 + "t" + ")" * 50
    assert parse_poly(fine, QQ) == parse_poly("t", QQ)


def test_nested_parentheses():
    f = parse_poly("((t-1)^2*(t+2) - (t^3 - 3*t + 2)) + t", QQ)
    assert f == parse_poly("t", QQ)


def test_parse_element_and_map():
    assert parse_element("-4", GF(7)) == GF(7).elem(3)
    m = parse_affine_map("(-1, 2)", QQ)
    assert m.alpha == QQ.elem(-1) and m.beta == QQ.elem(2)
    m2 = parse_affine_map("3,0", GF(7))
    assert m2.alpha == GF(7).elem(3)
    with pytest.raises(ParseError):
        parse_affine_map("1", QQ)


def test_fp_coefficients_normalize():
    f = parse_poly("t^3 - t", GF(3))
    assert str(f) == "t^3 + 2*t"
    assert parse_poly(str(f), GF(3)) == f
