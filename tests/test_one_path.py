"""Groups from one verified generator, and one pair analysis per
``iso --all-witnesses`` request.

Where every candidate must pass (over Q, or GF(p) with p not dividing the
degree), compute_aut checks one generator against the defining identity and
builds the group from its powers.  FiniteAutGroup.from_elements rebuilds a
group from its member of largest alpha order (plus the translations) and is
compared here with a brute-force closure written in the test.
"""

import random
from fractions import Fraction

import pytest

import idealaut.autgroup as autgroup
from idealaut import (
    GF,
    QQ,
    AffineMap,
    FiniteAutGroup,
    cli,
    compute_aut,
    parse_poly,
)
from idealaut.errors import TheoryViolation


def count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(autgroup, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(autgroup, name, counted)
    return calls


@pytest.mark.parametrize(
    "text, ring, order",
    [("t^2048+1", GF(12289), 2048), ("t^2-1", QQ, 2), ("t^6+t^3+2", GF(7), 3)],
)
def test_compute_aut_checks_one_generator(monkeypatch, text, ring, order):
    f = parse_poly(text, ring)
    checks = count_calls(monkeypatch, "_identity_holds")
    group = compute_aut(f)
    assert checks[0] == 1
    assert group.order == order and group.cyclic
    assert all(autgroup.verify_aut(f, m) for m in group.elements)


def test_compute_aut_rejects_a_failing_generator(monkeypatch):
    monkeypatch.setattr(autgroup, "_identity_holds", lambda *args: False)
    with pytest.raises(TheoryViolation):
        compute_aut(parse_poly("t^4+2", GF(13)))


def test_compute_aut_rejects_candidates_that_are_not_the_generated_group(monkeypatch):
    original = autgroup._iso_candidates
    # drop the identity candidate: the rest is no longer the powers of the generator
    monkeypatch.setattr(
        autgroup, "_iso_candidates", lambda f, g: list(original(f, g))[1:]
    )
    with pytest.raises(TheoryViolation):
        compute_aut(parse_poly("t^4+2", GF(13)))


# -- from_elements against a brute-force closure ------------------------------

LIMIT = 100  # larger closures count as infinite (over Q they are)


def brute_closure(generators):
    ring = generators[0].ring
    group = {AffineMap.identity(ring)}
    frontier = list(group)
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                c = a.compose(g)
                if c not in group:
                    group.add(c)
                    fresh.append(c)
        if len(group) > LIMIT:
            return None
        frontier = fresh
    return group


def brute_is_group(maps):
    s = set(maps)
    if not s or AffineMap.identity(next(iter(s)).ring) not in s:
        return False
    return all(a.compose(b) in s for a in s for b in s) and all(a.inverse() in s for a in s)


def brute_order(m):
    power, k = m, 1
    while not power.is_identity:
        power, k = power.compose(m), k + 1
    return k


def random_map(ring, rng):
    if ring.kind == "F":
        return AffineMap(ring.elem(rng.randrange(1, ring.p)), ring.elem(rng.randrange(ring.p)))
    alpha = rng.choice((1, -1, -1, -1, 2, Fraction(1, 3)))
    return AffineMap(ring.elem(alpha), ring.elem(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))))


def element_lists(ring, rng, count):
    """Generated subgroups, each with one element removed and one added."""
    lists = []
    while len(lists) < count:
        generators = [random_map(ring, rng) for _ in range(rng.choice((1, 2)))]
        group = brute_closure(generators)
        if group is None:
            lists.append(generators)
            continue
        elements = sorted(group, key=AffineMap.sort_key)
        rng.shuffle(elements)
        lists.append(elements)
        lists.append(elements[1:])
        lists.append(elements + [random_map(ring, rng)])
    return lists


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), GF(7), QQ], ids=str)
def test_from_elements_accepts_exactly_the_groups(ring):
    rng = random.Random(1300 + (ring.p if ring.kind == "F" else 0))
    accepted = rejected = 0
    for maps in element_lists(ring, rng, 150):
        if not brute_is_group(maps):
            with pytest.raises(TheoryViolation):
                FiniteAutGroup.from_elements(maps)
            rejected += 1
            continue
        accepted += 1
        group = FiniteAutGroup.from_elements(maps)
        elements = tuple(sorted(set(maps), key=AffineMap.sort_key))
        orders = tuple((m, brute_order(m)) for m in elements)
        generator = next((m for m, k in orders if k == len(elements)), None)
        assert group.elements == elements
        assert group.order == len(elements)
        assert group.element_orders == orders
        assert group.generator == generator
        assert group.cyclic is (generator is not None)
    assert accepted >= 20 and rejected >= 20


# -- one pair analysis per iso request -----------------------------------------

ALL = "--all-witnesses"


@pytest.mark.parametrize(
    "argv, count",
    [
        (["iso", "--ring", "F101", "(t-3)^4", "(t-5)^4", ALL], 2),
        (["iso", "--ring", "Q", "(t-3)^4", "(t-1)^4", ALL], 2),
        (["iso", "--ring", "Z", "(t-3)^4", "(t+1)^4", ALL], 2),
        (["iso", "--ring", "F13", "t^4+2", "t^4+5", ALL], 4),
        (["iso", "--ring", "F5", "t^5-t+1", "t^5-t+2", ALL], 4),
        (["iso", "--ring", "F13", "t^4+2", "t^4+t+1", ALL], 4),
        (["iso", "--ring", "Z", "t^2-t", "t^2+t", ALL], 4),
    ],
)
def test_iso_all_witnesses_analyses_the_pair_once(monkeypatch, capsys, argv, count):
    decompositions = count_calls(monkeypatch, "squarefree_decomposition")
    assert cli.main(argv) == 0
    assert decompositions[0] == count
    capsys.readouterr()
