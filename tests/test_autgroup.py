"""Automorphism groups: decision predicate, group computation, theorems."""

import math
import random
from fractions import Fraction

import pytest

from helpers import random_from_roots, random_monic, random_split_with_center
from idealaut import (
    GF,
    IsoWitness,
    QQ,
    ZZ,
    AffineMap,
    FiniteAutGroup,
    IsoWitnessFamily,
    Poly,
    UnitsGroup,
    agrees_with,
    all_iso_witnesses,
    center,
    compute_aut,
    enumerate_auts,
    groups_equal,
    iso_test,
    layer_intersection,
    parse_poly,
    power_reduce,
    shift_conjugate,
    single_root_form,
    squarefree_decomposition,
    unit_torsion,
    verify_aut,
    witness_family,
)
from idealaut.errors import (
    ConstantPolynomial,
    InexactDivision,
    MixedRings,
    NotAUnit,
    NotMonic,
    TheoryViolation,
    WrongRing,
)


def Q(text):
    return parse_poly(text, QQ)


def amap(ring, a, b):
    return AffineMap(ring.elem(a), ring.elem(b))


# --- the defining predicate -------------------------------------------

def test_verify_identity_always():
    for f in (Q("t^2-1"), Q("t^5+t"), parse_poly("t^4-2", ZZ)):
        assert verify_aut(f, AffineMap.identity(f.ring))


def test_verify_reflection_of_even_polynomial():
    # (-t)^2 - 1 = t^2 - 1 = (-1)^2 f
    assert verify_aut(Q("t^2-1"), amap(QQ, -1, 0))


def test_verify_rejects_translation():
    # (t+1)^2 - 1 = t^2 + 2t != f
    assert not verify_aut(Q("t^2-1"), amap(QQ, 1, 1))


def test_verify_preconditions():
    with pytest.raises(NotMonic):
        verify_aut(parse_poly("2*t^2", ZZ), AffineMap.identity(ZZ))
    with pytest.raises(ConstantPolynomial):
        verify_aut(Q("3"), AffineMap.identity(QQ))
    with pytest.raises(MixedRings):
        verify_aut(Q("t^2"), AffineMap.identity(ZZ))
    with pytest.raises(NotAUnit):
        amap(ZZ, 2, 0)


def test_affine_map_algebra():
    m1 = amap(QQ, -1, 2)
    m2 = amap(QQ, Fraction(1, 2), 3)
    composed = m1.compose(m2)
    assert composed.alpha == QQ.elem(Fraction(-1, 2))
    assert composed.beta == QQ.elem(-1)  # 2 + (-1)*3
    assert m1.compose(m1.inverse()).is_identity
    assert m1.inverse().compose(m1).is_identity
    assert m2.root_image(m2.apply(7)) == QQ.elem(7)


# --- single root form ---------------------------------------------------

def test_single_root_form_examples():
    assert single_root_form(Q("(t-3)^4")) == QQ.elem(3)
    assert single_root_form(Q("t^2-1")) is None
    for p, c in ((3, 1), (5, 2), (7, 4)):
        ring = GF(p)
        f = Poly(ring, [-c] + [0] * (p - 1) + [1])  # t^p - c = (t-c)^p
        assert single_root_form(f) == ring.elem(c)
    assert single_root_form(parse_poly("t+5", ZZ)) == ZZ.elem(-5)


# --- compute_aut --------------------------------------------------------

def test_roots_0_1_2_give_order_two():
    # center 1; f(-t + 2) = -f, expanded by hand
    f = Q("t^3 - 3*t^2 + 2*t")
    assert f.affine_substitute(-1, 2) == -f
    group = compute_aut(f)
    assert isinstance(group, FiniteAutGroup)
    assert group.element_set() == {amap(QQ, 1, 0), amap(QQ, -1, 2)}
    assert group.order == 2 and group.cyclic
    assert group.generator == amap(QQ, -1, 2)


def test_all_points_polynomial_over_f3():
    # every affine bijection of GF(3) permutes the roots of t^3 - t
    group = compute_aut(parse_poly("t^3 - t", GF(3)))
    assert group.order == 6
    assert not group.cyclic
    assert group.generator is None
    expected = {amap(GF(3), a, b) for a in (1, 2) for b in (0, 1, 2)}
    assert group.element_set() == expected


def test_gap_conditions_can_force_trivial_group():
    # nonzero coefficients at t^2 and t demand alpha^2 = alpha^3 = 1
    group = compute_aut(Q("t^4 + t^2 + t"))
    assert group.element_set() == {amap(QQ, 1, 0)}
    assert group.order == 1 and group.cyclic


def test_single_root_gives_units_group():
    group = compute_aut(Q("(t-3)^4"))
    assert isinstance(group, UnitsGroup)
    assert group.fixed_point == QQ.elem(3)
    assert group.order() is None
    for a in (2, -2, Fraction(1, 3), Fraction(-7, 5)):
        assert verify_aut(Q("(t-3)^4"), group.element_for(a))


def test_units_group_expands_over_finite_unit_rings():
    group = compute_aut(parse_poly("(t-2)^4", GF(5)))
    assert isinstance(group, UnitsGroup)
    finite = group.to_finite()
    assert finite.order == 4 and finite.cyclic
    z_group = compute_aut(parse_poly("(t-2)^3", ZZ))
    assert isinstance(z_group, UnitsGroup)
    assert z_group.to_finite().element_set() == {amap(ZZ, 1, 0), amap(ZZ, -1, 4)}


def test_integer_fallback_without_centroid():
    # roots {0, 1}: centroid 1/2 is not integral, yet z -> 1 - z is affine over Z
    group = compute_aut(parse_poly("t^2 - t", ZZ))
    assert group.element_set() == {amap(ZZ, 1, 0), amap(ZZ, -1, 1)}


def test_constant_and_nonmonic_rejected():
    with pytest.raises(ConstantPolynomial):
        compute_aut(Q("1"))
    with pytest.raises(NotMonic):
        compute_aut(parse_poly("3*t^2+1", ZZ))


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(3), GF(5), GF(7)])
def test_group_axioms_and_soundness(ring):
    rng = random.Random(base := hash(str(ring)) % 10_000)
    for _ in range(25):
        f = random_monic(ring, rng.randint(1, 6), rng)
        group = compute_aut(f)
        if isinstance(group, UnitsGroup):
            sample_units = (
                [u.value for u in ring.units()]
                if ring.has_finite_units
                else [1, -1, 2, Fraction(2, 3)]
            )
            for u in sample_units:
                assert verify_aut(f, group.element_for(u))
            continue
        members = group.element_set()
        assert AffineMap.identity(ring) in members
        for m in members:
            assert verify_aut(f, m)
            assert m.inverse() in members
            for m2 in members:
                assert m.compose(m2) in members
        assert group.order == len(members)
        if group.cyclic:
            power, seen = group.generator, set()
            for _ in range(group.order):
                seen.add(power)
                power = power.compose(group.generator)
            assert seen == members


def geometry_enumerate(ring, assignment):
    """Independent oracle over split polynomials: an affine bijection of the
    root multiset is pinned by the images of two distinct roots, so trying
    all image pairs enumerates every multiplicity-preserving candidate."""
    roots = [ring.elem(a) for a, _ in assignment]
    mult = {ring.elem(a): m for a, m in assignment}
    a1, a2 = roots[0], roots[1]
    found = set()
    for b1 in roots:
        for b2 in roots:
            if b1 == b2 or mult[b1] != mult[a1] or mult[b2] != mult[a2]:
                continue
            try:
                inv_alpha = (b1 - b2).div_exact(a1 - a2)
            except InexactDivision:
                continue
            if not inv_alpha.is_unit:
                continue
            alpha = inv_alpha.inverse()
            beta = a1 - alpha * b1
            if all(mult.get((z - beta) * inv_alpha) == mult[z] for z in roots):
                found.add(AffineMap(alpha, beta))
    return found


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(7), GF(11)])
def test_group_matches_root_bijection_enumeration(ring):
    rng = random.Random(777)
    for _ in range(60):
        f, assignment = random_from_roots(ring, rng, rng.randint(2, 4), max_mult=3)
        group = compute_aut(f)
        geo = geometry_enumerate(ring, assignment)
        for m in geo:
            assert verify_aut(f, m)
        assert geo == group.element_set(), f


def test_order_bound_via_multiplicity_of_centroid():
    rng = random.Random(4242)
    for ring in (QQ, ZZ, GF(5), GF(7), GF(11)):
        for _ in range(40):
            f, _ = random_split_with_center(ring, rng, rng.randint(2, 3))
            group = compute_aut(f)
            n = f.degree()
            z0 = center(f)
            m0 = f.root_multiplicity(z0)
            assert group.cyclic
            bound = len(unit_torsion(ring, n - m0))
            assert bound % group.order == 0


# --- shift conjugation ---------------------------------------------------

def test_shift_examples():
    trivial = FiniteAutGroup.from_elements([amap(QQ, 1, 0)])
    assert shift_conjugate(trivial, 5).element_set() == {amap(QQ, 1, 0)}
    reflect = FiniteAutGroup.from_elements([amap(QQ, 1, 0), amap(QQ, -1, 0)])
    assert shift_conjugate(reflect, 1).element_set() == {amap(QQ, 1, 0), amap(QQ, -1, 2)}
    units = UnitsGroup(QQ.zero())
    assert shift_conjugate(units, 3) == UnitsGroup(QQ.elem(3))


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(5), GF(7)])
def test_shift_equivariance(ring):
    rng = random.Random(31)
    for _ in range(30):
        f = random_monic(ring, rng.randint(1, 6), rng)
        s = ring.elem(rng.randint(-4, 4))
        shifted = f.affine_substitute(ring.one(), -s)  # f(t - s)
        assert groups_equal(compute_aut(shifted), shift_conjugate(compute_aut(f), s))


# --- power reduction -------------------------------------------------------

def test_power_reduce_examples():
    h, k = power_reduce(Q("(t^2-1)^3"))
    assert (h, k) == (Q("t^2-1"), 3)
    f = Q("t^3+t+1")
    assert power_reduce(f) == (f, 1)
    h, k = power_reduce(Q("t^2*(t-1)^4"))
    assert (h, k) == (Q("t*(t-1)^2"), 2)


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(3), GF(5)])
def test_power_invariance(ring):
    rng = random.Random(53)
    for _ in range(20):
        f = random_monic(ring, rng.randint(1, 4), rng)
        for k in (2, 3):
            assert groups_equal(compute_aut(f), compute_aut(f**k))


# --- layer intersection -----------------------------------------------------

def test_layer_intersection_single_layer_is_whole_group():
    f = Q("t^3+2*t+1")
    assert groups_equal(layer_intersection(f), compute_aut(f))


def test_layer_intersection_distinct_fixed_points():
    # layers t and t-1 act around different fixed points: only the identity survives
    group = layer_intersection(Q("t*(t-1)^2"))
    assert group.element_set() == {amap(QQ, 1, 0)}


def test_layer_intersection_shared_reflection():
    group = layer_intersection(Q("(t^2-1)*(t^2-4)^2"))
    assert group.element_set() == {amap(QQ, 1, 0), amap(QQ, -1, 0)}
    assert groups_equal(group, compute_aut(Q("(t^2-1)*(t^2-4)^2")))


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(3), GF(5), GF(7)])
def test_layer_intersection_matches_compute_aut(ring):
    rng = random.Random(71)
    for _ in range(30):
        f, _ = random_from_roots(ring, rng, rng.randint(1, 3), max_mult=3)
        assert groups_equal(layer_intersection(f), compute_aut(f))
    for _ in range(20):
        f = random_monic(ring, rng.randint(2, 6), rng)
        assert groups_equal(layer_intersection(f), compute_aut(f))


def test_layer_group_order_divides_gcd_of_finite_layer_orders():
    rng = random.Random(83)
    for ring in (QQ, GF(7), GF(11)):
        for _ in range(30):
            f, _ = random_from_roots(ring, rng, rng.randint(2, 3), max_mult=3)
            group = compute_aut(f)
            if isinstance(group, UnitsGroup):
                continue
            finite_orders = []
            for layer, _ in squarefree_decomposition(f).layers:
                lg = compute_aut(layer)
                if isinstance(lg, UnitsGroup):
                    if lg.is_finite:
                        finite_orders.append(lg.to_finite().order)
                else:
                    finite_orders.append(lg.order)
            if not finite_orders:
                continue
            bound = 0
            for d in finite_orders:
                bound = math.gcd(bound, d)
            assert bound % group.order == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_translation_group_of_artin_schreier_polynomial(p):
    # f = t^p - t - 1: f(t+1) = f by Frobenius, so all p translations act,
    # and nothing else does; a cyclic group of order p (needs p | deg f)
    ring = GF(p)
    f = Poly(ring, [-1, -1] + [0] * (p - 2) + [1])
    group = compute_aut(f)
    assert group.order == p and group.cyclic
    assert group.element_set() == {amap(ring, 1, b) for b in range(p)}


def test_iso_normalizes_unit_leading_coefficients():
    # ideals only see f up to a unit factor; witnesses refer to monic forms
    f = parse_poly("3*t^2 - 3", QQ)
    g = parse_poly("5*t^2 - 10*t", QQ)
    w = iso_test(f, g)
    assert w.map == amap(QQ, 1, -1) and w.lam == QQ.one()
    fm, gm = f.monic(), g.monic()
    assert fm.affine_substitute(w.map.alpha, w.map.beta) == w.lam * gm


# --- isomorphism -----------------------------------------------------------

def test_iso_self_is_identity_witness():
    f = Q("t^3 - 3*t + 2")
    w = iso_test(f, f)
    assert w.map == amap(QQ, 1, 0) and w.lam == QQ.one()


def test_iso_shift_witness():
    w = iso_test(Q("t^2-1"), Q("t^2-2*t"))
    assert w.map == amap(QQ, 1, -1) and w.lam == QQ.one()


def test_iso_degree_mismatch():
    assert iso_test(Q("t^2-1"), Q("t^3-1")) is None


def test_iso_needs_nontorsion_scaling():
    # roots {-2, 2} -> {-1, 1} needs alpha = +-2, far from any root of unity
    w = iso_test(Q("t^2-4"), Q("t^2-1"))
    assert w.map == amap(QQ, 2, 0) and w.lam == QQ.elem(4)
    assert Q("t^2-4").affine_substitute(2, 0) == Q("t^2-1") * QQ.elem(4)


def test_iso_distinguishes_real_and_imaginary_pairs():
    assert iso_test(Q("t^2+1"), Q("t^2-1")) is None


def test_iso_respects_multiplicity_profile():
    # same degree, same root count, different multiplicity layout
    assert iso_test(Q("t^2*(t-1)"), Q("t*(t-1)*(t-2)")) is None


def test_iso_single_root_pairs():
    w = iso_test(Q("(t-3)^4"), Q("(t+1)^4"))
    assert w.map == amap(QQ, 1, 4) and w.lam == QQ.one()
    assert iso_test(Q("(t-3)^4"), Q("t^3*(t-1)")) is None


def test_iso_over_z_units_only():
    w = iso_test(parse_poly("t^2 - t", ZZ), parse_poly("t^2 + t", ZZ))
    assert w is not None
    f, g = parse_poly("t^2 - t", ZZ), parse_poly("t^2 + t", ZZ)
    assert f.affine_substitute(w.map.alpha, w.map.beta) == w.lam * g
    # over Z alpha must be a unit, so t^2-4 and t^2-1 are NOT isomorphic there
    assert iso_test(parse_poly("t^2-4", ZZ), parse_poly("t^2-1", ZZ)) is None


def test_iso_p_divides_degree_branch():
    ring = GF(3)
    f = parse_poly("t^3 - t", ring)
    g = f.affine_substitute(ring.elem(2), ring.elem(1)) * ring.elem(2).inverse() ** 3
    w = iso_test(f, g)
    assert w is not None
    assert f.affine_substitute(w.map.alpha, w.map.beta) == w.lam * g


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(5), GF(7), GF(3)])
def test_iso_roundtrip_with_torsion_units(ring):
    rng = random.Random(97)
    torsion = unit_torsion(ring, 12)
    for _ in range(30):
        f = random_monic(ring, rng.randint(1, 6), rng)
        n = f.degree()
        alpha = rng.choice(torsion)
        beta = ring.elem(rng.randint(-4, 4))
        g = f.affine_substitute(alpha, beta) * (alpha.inverse() ** n)
        w = iso_test(f, g)
        assert w is not None, (f, g)
        assert f.affine_substitute(w.map.alpha, w.map.beta) == w.lam * g
        assert w.lam == w.map.alpha**n


def test_all_witnesses_list():
    f = Q("t^2-1")
    g = Q("t^2-2*t")
    everything = all_iso_witnesses(f, g)
    assert {(str(w.map.alpha), str(w.map.beta)) for w in everything} == {
        ("1", "-1"),
        ("-1", "1"),
    }
    for w in everything:
        assert f.affine_substitute(w.map.alpha, w.map.beta) == w.lam * g


def test_all_witnesses_family_for_single_root():
    family = all_iso_witnesses(Q("(t-3)^2"), Q("(t-1)^2"))
    assert isinstance(family, IsoWitnessFamily)
    for u in (1, -1, 2, Fraction(5, 7)):
        w = family.witness_for(u, 2)
        assert Q("(t-3)^2").affine_substitute(w.map.alpha, w.map.beta) == w.lam * Q("(t-1)^2")


def test_iso_witness_count_matches_target_group_order():
    f = parse_poly("t^3 - t", GF(3))
    everything = all_iso_witnesses(f, f)
    assert len(everything) == 6
    assert len(set(everything)) == 6


def test_all_witnesses_expand_over_finite_unit_rings():
    # single-root targets over Z have just the two units to compose with
    f = parse_poly("(t-1)^2", ZZ)
    g = parse_poly("(t+2)^2", ZZ)
    everything = all_iso_witnesses(f, g)
    assert isinstance(everything, list) and len(everything) == 2
    for w in everything:
        assert f.affine_substitute(w.map.alpha, w.map.beta) == w.lam * g


def test_single_root_witness_lists_are_the_unit_family():
    # (t - a)^m -> (t - b)^m: exactly (u, a - u*b) with lam = u^m, alpha ascending
    cases = ((GF(13), 3, 5, 4), (GF(2), 1, 0, 3), (GF(101), 100, 17, 7),
             (ZZ, 4, -7, 3), (ZZ, -2, 5, 2))
    for ring, a, b, m in cases:
        f, g = Poly(ring, [-a, 1]) ** m, Poly(ring, [-b, 1]) ** m
        if ring.kind == "Z":
            expected = [(1, a - b, 1), (-1, a + b, (-1) ** m)]
        else:
            p = ring.p
            expected = [(u, (a - u * b) % p, pow(u, m, p)) for u in range(1, p)]
        family = witness_family(f, g)
        assert family.size == len(expected)
        assert list(family.raw_witnesses(m)) == expected
        everything = all_iso_witnesses(f, g)
        assert all(isinstance(w, IsoWitness) for w in everything)
        assert [(w.map.alpha.value, w.map.beta.value, w.lam.value) for w in everything] == expected
        assert everything[0] == iso_test(f, g)
        for w in everything:
            assert f.affine_substitute(w.map.alpha, w.map.beta) == w.lam * g


def test_witness_family_only_for_single_root_pairs_of_equal_degree():
    assert witness_family(Q("(t-1)^2"), Q("(t-1)^3")) is None
    assert witness_family(Q("(t-1)^2"), Q("t^2-1")) is None
    assert witness_family(Q("t^2-1"), Q("(t-1)^2")) is None
    family = witness_family(Q("2*(t-3)^2"), Q("(t-1)^2"))
    assert (family.source_fixed_point, family.target_fixed_point) == (QQ.elem(3), QQ.elem(1))
    assert family.size is None
    with pytest.raises(WrongRing):
        family.raw_witnesses(2)


# --- p | deg f: value-table candidates, closed-form orders ----------------

def composition_order(m):
    power, k = m, 1
    while not power.is_identity:
        power = power.compose(m)
        k += 1
    return k


def char_p_samples(p, rng):
    """Monic f over GF(p) with p | deg f and at least two distinct roots.

    Mixes random polynomials (with and without a GF(p)-root, with
    c_{n-1} != 0) and compositions h(t^p - t), h((t^p - t)^(p-1)) whose
    groups contain every translation or every affine map.
    """
    ring = GF(p)
    t = Poly.t(ring)
    artin_schreier = t**p - t
    out = []
    while len(out) < 8:
        n = p * rng.randint(1, 12 // p + 1)
        f = random_monic(ring, n, rng)
        if single_root_form(f) is None:
            out.append(f)
    rootless = [f for f in out if all(f.evaluate(x) for x in range(p))]
    while len(rootless) < 3:
        f = random_monic(ring, p * rng.randint(1, 2), rng)
        if all(f.evaluate(x) for x in range(p)):
            rootless.append(f)
            out.append(f)
    for inner in (artin_schreier, artin_schreier ** (p - 1)):
        for _ in range(2):
            h = random_monic(ring, rng.randint(1, 2), rng)
            f = Poly(ring, [0])
            for c in reversed(h.coeffs):
                f = f * inner + Poly(ring, [c])
            if single_root_form(f) is None:
                out.append(f)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_char_p_groups_match_oracle_with_closed_form_orders(p):
    rng = random.Random(1000 + p)
    samples = char_p_samples(p, rng)
    assert any(not f.coeff(f.degree() - 1).is_zero for f in samples)
    assert any(all(f.evaluate(x) for x in range(p)) for f in samples)
    assert any(compute_aut(f).order > 1 for f in samples)
    for f in samples:
        group = compute_aut(f)
        report = enumerate_auts(f, max_deg=100)
        assert agrees_with(report, group), f
        assert group.element_set() == report.element_set(), f
        assert sorted(k for _, k in group.element_orders) == sorted(
            k for _, k in report.element_orders
        )
        for m, k in group.element_orders:
            assert k == composition_order(m) == m.order()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_char_p_iso_matches_brute_force_scan(p):
    ring = GF(p)
    rng = random.Random(2000 + p)
    samples = char_p_samples(p, rng)
    pairs = []
    for f in samples:
        g = random_monic(ring, f.degree(), rng)  # usually not isomorphic
        pairs.append((f, g))
        alpha, beta = rng.randrange(1, p), rng.randrange(p)
        planted = f.affine_substitute(ring.elem(alpha), ring.elem(beta))
        pairs.append((f, planted * ring.elem(alpha).inverse() ** f.degree()))
    assert any(iso_test(f, g) is None for f, g in pairs)
    for f, g in pairs:
        n = f.degree()
        scan = [
            amap(ring, a, b)
            for a in range(1, p)
            for b in range(p)
            if f.affine_substitute(ring.elem(a), ring.elem(b)) == ring.elem(a) ** n * g
        ]
        w = iso_test(f, g)
        if not scan:
            assert w is None, (f, g)
            continue
        assert w is not None and w.map == scan[0], (f, g)
        assert w.lam == w.map.alpha**n
        if single_root_form(f) is None:
            everything = all_iso_witnesses(f, g)
            assert {x.map for x in everything} == set(scan)


def test_closure_is_checked_for_fp_element_sets():
    ring = GF(3)
    with pytest.raises(TheoryViolation):  # (1, 1) has order 3 = |G| but (1, 2) is missing
        FiniteAutGroup.from_elements([amap(ring, 1, 0), amap(ring, 2, 0), amap(ring, 1, 1)])
    with pytest.raises(TheoryViolation):  # no element of order |G| = 4: walk every element
        FiniteAutGroup.from_elements(
            [amap(ring, 1, 0), amap(ring, 2, 0), amap(ring, 2, 1), amap(ring, 1, 1)]
        )
    with pytest.raises(TheoryViolation):  # translations have infinite order over Q
        FiniteAutGroup.from_elements([amap(QQ, 1, 0), amap(QQ, 1, 1)])


def test_value_objects_keep_equality_and_hashing():
    group = compute_aut(parse_poly("t^3 - t", GF(3)))
    again = FiniteAutGroup.from_elements(reversed(group.elements))
    assert group == again and group.cyclic is False and group.generator is None
    with pytest.raises(TypeError):
        hash(group)
    with pytest.raises(TypeError):
        hash(UnitsGroup(QQ.elem(2)))
    assert UnitsGroup(QQ.elem(2)) == UnitsGroup(QQ.elem(2))
    w = iso_test(Q("t^2-1"), Q("t^2-2*t"))
    assert w == IsoWitness(w.map, w.lam) and hash(w) == hash((w.map, w.lam))
    family = all_iso_witnesses(Q("(t-3)^2"), Q("(t-1)^2"))
    assert family != IsoWitnessFamily(family.source_fixed_point, family.target_fixed_point)
    for value, field in ((group, "order"), (UnitsGroup(QQ.elem(2)), "fixed_point"),
                         (w, "lam"), (family, "target_fixed_point")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
